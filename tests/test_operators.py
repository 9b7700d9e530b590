import numpy as np
import pytest

from mubgeo.core import Modulus
from mubgeo.geometry import (
    Line,
    Point,
    all_lines,
    all_points,
    incident,
    line_index,
    line_points,
    point_index,
)
from mubgeo.mub import mub_state
from mubgeo.operators import (
    line_operator_direct,
    line_operator_stack,
    line_operator_sum,
    point_operator,
    point_operator_direct,
    point_operator_stack,
    verify_operator_identities,
)

W = np.exp(2j * np.pi / 3)

# the four projectors on the line (1,2), written out entry by entry
A_1_M1 = np.diag([0, 1, 0]).astype(complex)
A_2_0 = np.array([[1, W**2, W], [W, 1, W**2], [W**2, W, 1]]) / 3
A_1_1 = np.array([[1, W, W], [W**2, 1, 1], [W**2, 1, 1]]) / 3
A_0_2 = np.array([[1, 1, W], [1, 1, W], [W**2, W**2, 1]]) / 3

P_1_2 = np.array([[0, 0, W], [0, 1, 0], [W**2, 0, 0]])
P_0_1 = np.array([[1, 0, 0], [0, 0, W], [0, W**2, 0]])
P_2_0 = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)

FIXTURES = [
    (Point(1, -1), A_1_M1),
    (Point(2, 0), A_2_0),
    (Point(1, 1), A_1_1),
    (Point(0, 2), A_0_2),
]


@pytest.mark.parametrize("point,expected", FIXTURES)
def test_point_operator_fixtures(point, expected):
    assert np.abs(point_operator(Modulus(3), point) - expected).max() <= 1e-10


@pytest.mark.parametrize("point,expected", FIXTURES)
def test_point_operator_direct_fixtures(point, expected):
    assert np.abs(point_operator_direct(Modulus(3), point) - expected).max() <= 1e-10


def test_direct_entry_rule():
    mod = Modulus(3)
    a = point_operator_direct(mod, Point(1, 1))
    assert abs(a[0, 2] - W / 3) <= 1e-10
    assert np.abs(np.diag(a) - 1 / 3).max() <= 1e-10
    ref = point_operator_direct(mod, Point(2, -1))
    assert np.array_equal(ref, np.diag([0, 0, 1]).astype(complex))


def test_line_operator_fixture():
    mod = Modulus(3)
    assert np.abs(line_operator_sum(mod, Line(1, 2)) - P_1_2).max() <= 1e-10
    assert np.abs(line_operator_direct(mod, Line(1, 2)) - P_1_2).max() <= 1e-10
    assert np.abs(line_operator_direct(mod, Line(0, 1)) - P_0_1).max() <= 1e-10


def test_line_operator_from_scratch_sum():
    # independent route: accumulate the four projectors as raw outer products
    mod = Modulus(3)
    acc = -np.eye(3, dtype=complex)
    for p in line_points(mod, Line(2, 0)):
        v = mub_state(mod, p.b, p.m)
        acc += np.outer(v, v.conj())
    assert np.abs(acc - P_2_0).max() <= 1e-10
    assert np.abs(line_operator_direct(mod, Line(2, 0)) - P_2_0).max() <= 1e-10


def test_point_as_average_of_its_lines():
    mod = Modulus(3)
    avg = (P_0_1 + P_1_2 + P_2_0) / 3
    assert np.abs(avg - A_0_2).max() <= 1e-10
    assert np.abs(avg - point_operator(mod, Point(0, 2))).max() <= 1e-10


@pytest.mark.parametrize("d", [3, 5])
def test_route_equality_exhaustive(d):
    mod = Modulus(d)
    for p in all_points(mod):
        assert np.abs(point_operator(mod, p) - point_operator_direct(mod, p)).max() <= 1e-10
    for line in all_lines(mod):
        diff = np.abs(line_operator_sum(mod, line) - line_operator_direct(mod, line)).max()
        assert diff <= 1e-10


@pytest.mark.parametrize("d", [3, 5])
def test_operator_incidence_matches_geometry(d):
    # closed forms only on both sides; ties the line equation to the algebra
    mod = Modulus(d)
    for p in all_points(mod):
        a = point_operator_direct(mod, p)
        for line in all_lines(mod):
            lam = np.trace(a @ line_operator_direct(mod, line)).real
            assert abs(lam - (1 if incident(mod, p, line) else 0)) <= d * 1e-10


@pytest.mark.parametrize("d", [3, 5])
def test_line_operator_trace_and_square(d):
    mod = Modulus(d)
    for line in all_lines(mod):
        p = line_operator_direct(mod, line)
        assert abs(np.trace(p) - 1) <= d * 1e-10
        assert np.abs(p @ p - np.eye(d)).max() <= d * 1e-10
        assert abs(np.trace(p @ p) - d) <= d * 1e-10


def test_stacks_layout_and_freezing():
    mod = Modulus(3)
    a = point_operator_stack(mod)
    p = line_operator_stack(mod)
    assert a.shape == (12, 3, 3)
    assert p.shape == (9, 3, 3)
    assert not a.flags.writeable and not p.flags.writeable
    idx = point_index(mod, Point(0, 2))
    assert np.abs(a[idx] - A_0_2).max() <= 1e-10
    assert np.abs(p[line_index(mod, Line(1, 2))] - P_1_2).max() <= 1e-10
    assert [point_index(mod, pt) for pt in (Point(0, -1), Point(1, -1), Point(0, 0))] == [0, 1, 3]


@pytest.mark.parametrize("d", [3, 5, 7])
def test_identity_report_passes(d):
    report = verify_operator_identities(Modulus(d))
    assert report.passed, [c for c in report.checks if not c.ok]
    axioms = {c.axiom for c in report.checks}
    assert "op.point_route_equality" in axioms
    assert "op.line_route_equality" in axioms
    assert "op.cross_term_distillation" in axioms

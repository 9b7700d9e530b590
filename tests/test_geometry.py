import json
import tracemalloc

import numpy as np
import pytest
from faults import inject, replace_with
import oracle
from oracle import (
    all_lines,
    all_points,
    apg_incidence_matrix,
    apg_lines,
    apg_points,
    gram_apg_axioms,
    gram_duality,
    incidence_matrix,
)
from test_mutants import CATALOGUE, DIMS, VERIFIERS, mutants, outcome, restricted

from mubgeo import geometry
from mubgeo.core import Modulus
from mubgeo.mub import mub_state
from mubgeo.operators import line_operator_direct, point_operator_direct
from mubgeo.phasespace import QuasiDistribution
from mubgeo.geometry import (
    ApgPoint,
    Line,
    Point,
    SlopedLine,
    VerticalLine,
    apg_line_points,
    check_line,
    check_point,
    duality_common_point,
    line_points,
    lines_through_point,
    point_index,
    verify_apg_axioms,
    verify_dapg_axioms,
    verify_duality,
)


class TestLinePoints:
    def test_worked_line(self):
        pts = line_points(Modulus(3), Line(1, 2))
        assert pts == (Point(1, -1), Point(2, 0), Point(1, 1), Point(0, 2))

    def test_line_through_origin_labels(self):
        pts = line_points(Modulus(3), Line(0, 0))
        assert pts == (Point(0, -1), Point(0, 0), Point(1, 1), Point(2, 2))

    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_one_point_per_column(self, d):
        mod = Modulus(d)
        for line in all_lines(mod):
            pts = line_points(mod, line)
            assert [p.b for p in pts] == list(range(-1, d))
            assert all(0 <= p.m < d for p in pts)

    def test_label_validation(self):
        with pytest.raises(ValueError):
            line_points(Modulus(3), Line(3, 0))
        with pytest.raises(ValueError):
            check_line(Modulus(3), Line(0, -1))


class TestIncidence:
    def test_examples(self):
        mod = Modulus(3)
        assert Point(0, 2) in line_points(mod, Line(1, 2))
        assert Point(1, 2) not in line_points(mod, Line(1, 2))
        assert Point(1, -1) in line_points(mod, Line(1, 0))

    @pytest.mark.parametrize("d", [3, 5])
    def test_matches_membership(self, d):
        mod = Modulus(d)
        n = incidence_matrix(mod)
        assert n.shape == (d * (d + 1), d * d)
        for j, line in enumerate(all_lines(mod)):
            members = set(line_points(mod, line))
            for i, p in enumerate(all_points(mod)):
                assert (p in members) == (n[i, j] == 1.0)

    def test_rejects_bad_labels(self):
        mod = Modulus(3)
        with pytest.raises(ValueError):
            lines_through_point(mod, Point(0, 3))
        with pytest.raises(ValueError):
            check_point(mod, Point(-1, 0))


class TestLinesThroughPoint:
    def test_example_cross_column(self):
        assert lines_through_point(Modulus(3), Point(0, 2)) == (
            Line(0, 1),
            Line(1, 2),
            Line(2, 0),
        )

    def test_example_reference_column(self):
        assert lines_through_point(Modulus(3), Point(1, -1)) == (
            Line(1, 0),
            Line(1, 1),
            Line(1, 2),
        )

    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_pencils_are_incident_and_distinct(self, d):
        mod = Modulus(d)
        for p in all_points(mod):
            pencil = lines_through_point(mod, p)
            assert len(set(pencil)) == d
            assert all(p in line_points(mod, line) for line in pencil)


class TestAffinePlane:
    def test_sloped_example(self):
        pts = apg_line_points(Modulus(3), SlopedLine(1, 1))
        assert set(pts) == {ApgPoint(0, 1), ApgPoint(1, 2), ApgPoint(2, 0)}

    def test_vertical_example(self):
        pts = apg_line_points(Modulus(3), VerticalLine(2))
        assert set(pts) == {ApgPoint(2, 0), ApgPoint(2, 1), ApgPoint(2, 2)}

    def test_counts(self):
        assert apg_incidence_matrix(Modulus(5)).shape == (25, 30)

    def test_label_validation(self):
        with pytest.raises(ValueError):
            apg_line_points(Modulus(3), SlopedLine(3, 0))
        with pytest.raises(ValueError):
            apg_line_points(Modulus(3), VerticalLine(-1))


class TestDuality:
    def test_sloped_example(self):
        assert duality_common_point(Modulus(3), SlopedLine(1, 1)) == Point(0, 2)

    def test_vertical_example(self):
        assert duality_common_point(Modulus(3), VerticalLine(2)) == Point(2, -1)

    def test_flat_slope_example(self):
        assert duality_common_point(Modulus(3), SlopedLine(0, 1)) == Point(1, 0)

    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_common_point_is_shared_by_whole_pencil(self, d):
        mod = Modulus(d)
        for apg_line in apg_lines(mod):
            common = duality_common_point(mod, apg_line)
            for apg_pt in apg_line_points(mod, apg_line):
                assert common in line_points(mod, Line(*apg_pt))

    @pytest.mark.parametrize("d", [3, 5])
    def test_sloped_class_fills_one_column(self, d):
        mod = Modulus(d)
        for r in range(d):
            commons = {duality_common_point(mod, SlopedLine(r, s)) for s in range(d)}
            assert len(commons) == d
            assert {p.b for p in commons} == {(-r) % d}

    @pytest.mark.parametrize("d", [3, 5])
    def test_pencil_through_point_covers_dual_line(self, d):
        mod = Modulus(d)
        for apg_pt in apg_points(mod):
            pencil = [ln for ln in apg_lines(mod) if apg_pt in apg_line_points(mod, ln)]
            assert len(pencil) == d + 1
            image = {duality_common_point(mod, ln) for ln in pencil}
            assert image == set(line_points(mod, Line(*apg_pt)))


@pytest.mark.parametrize("d", [3, 5, 7])
def test_dapg_axioms_pass(d):
    report = verify_dapg_axioms(Modulus(d))
    assert report.passed
    assert report.d == d
    assert {c.axiom for c in report.checks} == {
        "dapg.counts",
        "dapg.lines_meet_once",
        "dapg.points_join_once",
        "dapg.degrees",
        "dapg.columns_partition",
        "dapg.cross_column_connected",
    }


@pytest.mark.parametrize("d", [3, 5, 7])
def test_apg_axioms_pass(d):
    report = verify_apg_axioms(Modulus(d))
    assert report.passed
    assert all(c.counterexample == "" for c in report.checks)


@pytest.mark.parametrize("d", [3, 5, 7])
def test_duality_report_passes(d):
    report = verify_duality(Modulus(d))
    assert report.passed


def test_report_json_schema():
    report = verify_duality(Modulus(3))
    data = json.loads(report.to_json())
    assert set(data) == {"d", "passed", "checks"}
    assert data["d"] == 3
    assert data["passed"] is True
    for check in data["checks"]:
        assert set(check) == {"axiom", "ok", "counterexample"}
        assert isinstance(check["ok"], bool)


# Fault injection at d = 5: one geometry rule returns a corrupted answer for one
# label. Only the geometry verifiers run here.
MOD5 = Modulus(5)


# the label type of the entries of each array rule's answer
ENTRY = {
    "_line_points": Point,
    "_pencil": Line,
    "_apg_line_points": ApgPoint,
    "_common_point": Point,
}


def _fields(label):
    """The fields an array rule takes for a label; an affine line is (r, s), r = d for xi = s."""
    if isinstance(label, VerticalLine):
        return (MOD5.d, label.xi)
    if isinstance(label, SlopedLine):
        return (label.r, label.s)
    return tuple(label) if isinstance(label, tuple) else (label,)


def _corrupt(monkeypatch, rule, target, index, fix):
    """Make geometry.<rule> answer for target with entry `index` replaced by fix(entry)."""

    def edit(answer):
        entry = fix(ENTRY[rule](*(int(f[index]) for f in answer)))
        for f, value in zip(answer, entry):
            f[index] = value

    inject(monkeypatch, geometry, rule, _fields(target), edit)


def _failures(report):
    return [(c.axiom, c.counterexample) for c in report.checks if not c.ok]


def _next_row(p):
    return Point((p.m + 1) % 5, p.b)


def _next_eta(p):
    return ApgPoint(p.xi, (p.eta + 1) % 5)


def _next_m0(line):
    return Line(line.m_minus1, (line.m0 + 1) % 5)


def test_line_points_fault_is_located(monkeypatch):
    _corrupt(monkeypatch, "_line_points", Line(1, 2), 1, _next_row)
    assert _failures(verify_dapg_axioms(MOD5)) == [
        ("dapg.lines_meet_once", "lines (0,2) and (1,2) share 0 points"),
        ("dapg.points_join_once", "points (1,-1) and (2,0) lie on 0 common lines"),
        ("dapg.degrees", "point (2,0) lies on 4 lines"),
        ("dapg.cross_column_connected", "points (1,-1) and (2,0) are disconnected"),
    ]
    assert verify_apg_axioms(MOD5).passed


def test_lines_through_point_fault_is_located(monkeypatch):
    _corrupt(monkeypatch, "_pencil", Point(0, 2), 1, _next_m0)
    assert _failures(verify_dapg_axioms(MOD5)) == [
        ("dapg.degrees", "point (0,2) lies on 5 lines")
    ]
    assert verify_duality(MOD5).passed


def test_apg_line_points_fault_is_located(monkeypatch):
    _corrupt(monkeypatch, "_apg_line_points", SlopedLine(1, 1), 1, _next_eta)
    assert _failures(verify_apg_axioms(MOD5)) == [
        ("apg.unique_join", "points (0,1) and (1,2) lie on 0 lines"),
        ("apg.parallel_postulate", "2 parallels to SlopedLine(r=0, s=2) through (0,1)"),
        (
            "apg.parallel_classes",
            "parallel lines SlopedLine(r=1, s=1) and SlopedLine(r=1, s=2) intersect",
        ),
        (
            "apg.cross_class_meet_once",
            "lines SlopedLine(r=0, s=2) and SlopedLine(r=1, s=1) of different classes"
            " share 0 points",
        ),
    ]
    assert verify_dapg_axioms(MOD5).passed


@pytest.mark.parametrize(
    "rule, target, index, fix",
    [
        ("_line_points", Line(1, 2), 1, _next_row),
        ("_apg_line_points", SlopedLine(1, 1), 1, _next_eta),
        ("_apg_line_points", SlopedLine(0, 0), 0, _next_eta),
    ],
    ids=["dual_line", "affine_line", "first_affine_line"],
)
def test_duality_reports_a_broken_pencil(monkeypatch, rule, target, index, fix):
    _corrupt(monkeypatch, rule, target, index, fix)
    checks = {c.axiom: c for c in verify_duality(MOD5).checks}
    for axiom in ("duality.pencil_common_point", "duality.point_pencil_roundtrip"):
        assert not checks[axiom].ok
        assert checks[axiom].counterexample


@pytest.mark.parametrize(
    "target, fix, shares",
    [
        (SlopedLine(1, 1), _next_row, "pencil of SlopedLine(r=1, s=1) shares [Point(m=4, b=4)]"),
        (
            VerticalLine(0),
            lambda p: Point(p.m, p.b + 1),
            "pencil of VerticalLine(xi=0) shares [Point(m=0, b=-1)]",
        ),
    ],
    ids=["sloped", "vertical"],
)
def test_duality_common_point_fault_is_located(monkeypatch, target, fix, shares):
    _corrupt(monkeypatch, "_common_point", target, (), fix)
    checks = {c.axiom: c for c in verify_duality(MOD5).checks}
    assert checks["duality.pencil_common_point"].counterexample == shares
    assert not any(c.ok for c in checks.values())


def test_duplicate_line_fails_the_counts(monkeypatch):
    # line (0,1) answers with the points of line (0,0)
    twin = geometry._line_points(MOD5, 0, 0)
    inject(monkeypatch, geometry, "_line_points", (0, 1), replace_with(twin))
    assert _failures(verify_dapg_axioms(MOD5)) == [
        ("dapg.counts", "24 distinct lines, 30 points"),
        ("dapg.lines_meet_once", "lines (0,0) and (0,1) share 6 points"),
        ("dapg.points_join_once", "points (0,-1) and (0,0) lie on 2 common lines"),
        ("dapg.degrees", "point (0,0) lies on 6 lines"),
        ("dapg.cross_column_connected", "points (0,-1) and (1,0) are disconnected"),
    ]


def test_column_profile_fault_is_located(monkeypatch):
    # lines (0,0) and (1,1) trade their points (0,0) and (4,1), and both pencils agree:
    # every point still lies on d lines, but each of the two lines misses a column
    p, q = Point(0, 0), Point(4, 1)
    _corrupt(monkeypatch, "_line_points", Line(0, 0), 1, lambda _: q)
    _corrupt(monkeypatch, "_line_points", Line(1, 1), 2, lambda _: p)
    _corrupt(monkeypatch, "_pencil", p, 0, lambda _: Line(1, 1))
    _corrupt(monkeypatch, "_pencil", q, 1, lambda _: Line(0, 0))
    assert _failures(verify_dapg_axioms(MOD5)) == [
        ("dapg.lines_meet_once", "lines (0,0) and (0,2) share 2 points"),
        ("dapg.points_join_once", "points (0,-1) and (0,0) lie on 0 common lines"),
        ("dapg.degrees", "line (0,0) has column profile [-1, 1, 1, 2, 3, 4]"),
        ("dapg.columns_partition", "points (0,0) and (1,0) of column 0 share 1 lines"),
        ("dapg.cross_column_connected", "points (0,-1) and (0,0) are disconnected"),
    ]


def test_collinear_triple_is_found(monkeypatch):
    # the line eta = 0 holds (0,1) in place of (2,0), so it covers (0,0), (1,0) and (0,1)
    _corrupt(monkeypatch, "_apg_line_points", SlopedLine(0, 0), 2, lambda _: ApgPoint(0, 1))
    assert _failures(verify_apg_axioms(MOD5)) == [
        ("apg.unique_join", "points (0,0) and (0,1) lie on 2 lines"),
        ("apg.parallel_postulate", "2 parallels to SlopedLine(r=0, s=0) through (0,2)"),
        (
            "apg.parallel_classes",
            "parallel lines SlopedLine(r=0, s=0) and SlopedLine(r=0, s=1) intersect",
        ),
        (
            "apg.cross_class_meet_once",
            "lines SlopedLine(r=0, s=0) and SlopedLine(r=1, s=1) of different classes"
            " share 2 points",
        ),
        ("apg.non_collinear_triple", "(0,0),(1,0),(0,1) collinear"),
    ]


def test_class_to_column_fault_is_located(monkeypatch):
    # the common points of SlopedLine(1, 0) and SlopedLine(2, 0) trade places: still a
    # bijection, but slopes 1 and 2 each reach two columns
    one, two = (geometry._common_point(MOD5, r, 0) for r in (1, 2))
    inject(monkeypatch, geometry, "_common_point", (1, 0), replace_with(two))
    inject(monkeypatch, geometry, "_common_point", (2, 0), replace_with(one))
    assert _failures(verify_duality(MOD5)) == [
        ("duality.pencil_common_point", "pencil of SlopedLine(r=1, s=0) shares [Point(m=3, b=4)]"),
        ("duality.class_to_column_bijection", "slope 1 maps to columns [3, 4]"),
        (
            "duality.point_pencil_roundtrip",
            "pencil through (1,1) maps onto [Point(m=0, b=3), Point(m=1, b=-1),"
            " Point(m=1, b=0), Point(m=1, b=3), Point(m=2, b=2), Point(m=4, b=1)]",
        ),
    ]


@pytest.mark.parametrize(
    "rule, targets, index, bad, message",
    [
        ("_line_points", [Line(1, 2), Line(3, 3)], 1, Point(5, 0), "point label (5,0)"),
        ("_pencil", [Point(0, 2), Point(4, 3)], 1, Line(0, -1), "line label (0,-1)"),
        ("_apg_line_points", [SlopedLine(1, 1), VerticalLine(2)], 1, ApgPoint(1, 5), "line label (1,5)"),
        ("_common_point", [SlopedLine(2, 0), VerticalLine(4)], (), Point(7, 0), "point label (7,0)"),
    ],
    ids=["line_points", "pencil", "apg_line_points", "common_point"],
)
def test_out_of_range_answer_raises_the_label_error(monkeypatch, rule, targets, index, bad, message):
    # two labels answer out of range; the error names the first, as check_point/check_line word it
    for target, shift in zip(targets, (0, 1)):
        moved = type(bad)(bad[0] + shift, bad[1])
        _corrupt(monkeypatch, rule, target, index, lambda _, moved=moved: moved)
    with pytest.raises(ValueError) as error:
        for verify in (verify_dapg_axioms, verify_apg_axioms, verify_duality):
            verify(MOD5)
    assert str(error.value) == f"invalid {message} for d=5"


def _quasi_value(mod, line):
    return QuasiDistribution(mod, np.zeros((mod.d, mod.d))).value(line)


def _state(mod, label):
    return mub_state(mod, *label)


SLOPED, VERTICAL = "invalid sloped line (r=1.5, s=0)", "invalid vertical line xi=2.0"


@pytest.mark.parametrize(
    "view, good, bad, message",
    [
        (line_points, Line(np.int64(1), 0), Line(1.5, 0), "invalid line label (1.5,0)"),
        (line_operator_direct, Line(0, np.uint8(2)), Line(0, 2.0), "invalid line label (0,2.0)"),
        (_quasi_value, Line(1, 2), Line(True, 2), "invalid line label (True,2)"),
        (point_index, Point(np.int32(1), 0), Point(1.5, 0), "invalid point label (1.5,0)"),
        (point_operator_direct, Point(1, 0), Point(1, False), "invalid point label (1,False)"),
        (_state, (np.int64(0), 1), (0, 1.0), "invalid state label (m=1.0, b=0)"),
        (apg_line_points, SlopedLine(np.int64(1), 0), SlopedLine(1.5, 0), SLOPED),
        (duality_common_point, SlopedLine(1, 0), SlopedLine(1.5, 0), SLOPED),
        (duality_common_point, VerticalLine(np.int64(2)), VerticalLine(2.0), VERTICAL),
    ],
    ids=[
        "line_points",
        "line_operator",
        "quasi_value",
        "point_index",
        "point_operator",
        "state",
        "apg_line_points",
        "sloped_common_point",
        "vertical_common_point",
    ],
)
def test_a_label_field_must_be_an_integer(view, good, bad, message):
    # numpy integers are labels; a float or a bool of an integral value is refused, not rounded
    mod = Modulus(3)
    view(mod, good)
    with pytest.raises(ValueError) as error:
        view(mod, bad)
    assert str(error.value) == f"{message} for d=3"


@pytest.mark.parametrize("verify", [verify_dapg_axioms, verify_apg_axioms, verify_duality])
def test_geometry_checks_hold_no_gram(verify):
    # a passing run at d = 31 stays below 4 MiB; one float64 (d(d+1))^2 Gram is 7.5 MiB
    mod = Modulus(31)
    tracemalloc.start()
    try:
        assert verify(mod).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


# the Gram verifier of tests/oracle.py that stands for each geometry verifier, and the rules it reads
GRAMS = tuple(
    (oracle, name.replace("verify", "gram"), reads)
    for module, name, reads in VERIFIERS
    if module is geometry
)


@pytest.mark.parametrize("d", DIMS)
def test_gram_oracle_agrees_on_every_mutant(d):
    # the counting checks reproduce the catalogue (test_battery_reproduces_the_catalogue), and
    # the Gram checks must reproduce it too
    catalogue = json.loads(CATALOGUE.read_text())
    wrong = []
    for name, rule, label, fix in mutants(d):
        grams = [v for v in GRAMS if rule in v[2]]
        if not grams:
            continue
        with pytest.MonkeyPatch.context() as mp:
            got = outcome(mp, d, rule, label, fix, grams)
        if got != restricted(catalogue[name], grams):
            wrong.append(name)
    assert wrong == []


def test_class_preserving_swap_is_caught(monkeypatch):
    # lines eta = 0 and eta = 1 trade their points at xi = 2: slope class 0 still covers each
    # point once, so only the net over the classes can tell, and the scan names the witnesses
    _corrupt(monkeypatch, "_apg_line_points", SlopedLine(0, 0), 2, lambda _: ApgPoint(2, 1))
    _corrupt(monkeypatch, "_apg_line_points", SlopedLine(0, 1), 2, lambda _: ApgPoint(2, 0))
    report = verify_apg_axioms(MOD5)
    assert report == gram_apg_axioms(MOD5)
    assert _failures(report) == [
        ("apg.unique_join", "points (0,0) and (2,0) lie on 0 lines"),
        ("apg.parallel_postulate", "2 parallels to SlopedLine(r=0, s=0) through (0,1)"),
        (
            "apg.cross_class_meet_once",
            "lines SlopedLine(r=0, s=0) and SlopedLine(r=1, s=3) of different classes"
            " share 0 points",
        ),
    ]


@pytest.mark.parametrize(
    "repeated, shares",
    [
        (False, "pencil of SlopedLine(r=0, s=0) shares [Point(m=0, b=-1), Point(m=0, b=1)]"),
        (True, "pencil of SlopedLine(r=2, s=0) shares [Point(m=0, b=-1), Point(m=0, b=1)]"),
    ],
    ids=["twins", "twins_with_a_repeated_point"],
)
def test_twin_affine_lines_fail_the_pencil_check(monkeypatch, repeated, shares):
    # at d = 3 the 12 affine lines are the rows eta = s and the columns xi = s of the grid, each
    # twice (the twin's third point repeats its second, when repeated); affine line k has point k
    # in common, and the dual line labelled by an affine point holds the common points of the
    # affine lines through it. The round trip holds and the map is a bijection, so only the test
    # that the affine lines hold d distinct points each, no two the same, sends the pencils to
    # be counted
    mod = Modulus(3)
    d = mod.d

    def grid_line(mod, r, s):
        t, k = np.arange(d), np.expand_dims(r * d + s, -1)
        if repeated:
            t = np.where(k < 2 * d, t, np.minimum(t, 1))
        g = k % (2 * d)
        return ApgPoint(np.where(g < d, t, g - d), np.where(g < d, g, t))

    def common(mod, r, s):
        k = r * d + s
        return Point(k % d, k // d - 1)

    xi, eta = grid_line(mod, *geometry._apg_line_labels(mod))
    through = [((xi == a // d) & (eta == a % d)).any(axis=1).nonzero()[0] for a in range(d * d)]
    rows = np.array([np.resize(k, d + 1) for k in through])  # repeated cyclically to d+1

    def dual_line(mod, m_minus1, m0):
        return common(mod, *np.divmod(rows[m_minus1 * d + m0], d))

    monkeypatch.setattr(geometry, "_apg_line_points", grid_line)
    monkeypatch.setattr(geometry, "_common_point", common)
    monkeypatch.setattr(geometry, "_line_points", dual_line)
    report = verify_duality(mod)
    assert report == gram_duality(mod)
    assert _failures(report) == [
        ("duality.pencil_common_point", shares),
        ("duality.class_to_column_bijection", "slope 0 maps to columns [-1]"),
    ]

import json
import tracemalloc

import numpy as np
import pytest
from faults import inject, replace_with
from oracle import (
    all_lines,
    all_points,
    clifford_gates,
    dense_operator_battery,
    line_operator_stack,
    line_operator_sum,
    point_operator,
    point_operator_stack,
)
from test_mutants import (
    CATALOGUE,
    NAN_FAULT,
    RULES,
    VERIFIERS,
    _whole_basis,
    mutants,
    restricted,
)

from mubgeo import geometry, mub, operators
from mubgeo.core import Modulus, omega_power
from mubgeo.geometry import (
    Line,
    Point,
    line_index,
    line_points,
    point_index,
)
from mubgeo.mub import mub_state
from mubgeo.operators import (
    _blocks,
    _deviations,
    _tables,
    line_operator_direct,
    point_operator_direct,
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


def _point_operator_by_entry(mod, point):
    """The entrywise phase rule of a point projector, one scalar at a time."""
    d = mod.d
    out = np.zeros((d, d), dtype=complex)
    if point.b == -1:
        out[point.m, point.m] = 1.0
        return out
    hb = mod.half(point.b)
    for n in range(d):
        for n2 in range(d):
            out[n, n2] = omega_power(d, (n - n2) * (hb * (n + n2 - 1) - point.m)) / d
    return out


def _line_operator_by_entry(mod, line):
    """The anti-diagonal closed form of a line operator, one scalar at a time."""
    d = mod.d
    out = np.zeros((d, d), dtype=complex)
    for n in range(d):
        for n2 in range(d):
            if (n + n2) % d == (2 * line.m_minus1) % d:
                out[n, n2] = omega_power(d, -(n - n2) * line.m0)
    return out


@pytest.mark.parametrize("d", [3, 5, 13])
def test_direct_routes_equal_the_scalar_rule_exactly(d):
    # exact equality pins the digits that show operator prints
    mod = Modulus(d)
    for p in all_points(mod):
        assert np.array_equal(point_operator_direct(mod, p), _point_operator_by_entry(mod, p))
    for line in all_lines(mod):
        assert np.array_equal(line_operator_direct(mod, line), _line_operator_by_entry(mod, line))


# the array rule that each direct route is a one-label view of
ARRAY_RULE = {
    "point_operator_direct": "_point_operators",
    "line_operator_direct": "_line_operators",
}


def _perturb(monkeypatch, rule, target):
    """Make operators.<rule>(mod, target) answer with entry (0, 0) moved by 1e-6."""

    def nudge(answer):
        answer[0][0, 0] += 1e-6

    inject(monkeypatch, operators, ARRAY_RULE[rule], target, nudge)


@pytest.mark.parametrize(
    "rule, target, failure",
    [
        (
            "point_operator_direct",
            Point(2, 1),
            ("op.point_route_equality", "point routes at (2,1) deviates by 1.000e-06"),
        ),
        (
            "line_operator_direct",
            Line(3, 1),
            ("op.line_route_equality", "line routes at (3,1) deviates by 1.000e-06"),
        ),
    ],
)
def test_route_check_locates_a_corrupted_direct_route(monkeypatch, rule, target, failure):
    _perturb(monkeypatch, rule, target)
    report = verify_operator_identities(Modulus(5))
    assert [(c.axiom, c.counterexample) for c in report.checks if not c.ok] == [failure]


def test_summed_identities_hold_at_a_tiny_eps(monkeypatch):
    # d*eps = 1.9e-13 is below the 2.2e-13 that op.line_sum rounds to at d = 19; at d = 47 the
    # bounds of the line Gram and the incidence traces stay within the 16 d^2 2^-52 floor, so
    # no exact pass runs
    exact = _count_exact_passes(monkeypatch)
    for d in (19, 47):
        report = verify_operator_identities(Modulus(d), eps=1e-14)
        assert report.passed, [c for c in report.checks if not c.ok]
    assert exact == []


@pytest.mark.parametrize(
    "rule, target, failure",
    [
        ("point_operator_direct", Point(2, 1), "point routes at (2,1) deviates by 1.000e-06"),
        ("line_operator_direct", Line(3, 1), "line routes at (3,1) deviates by 1.000e-06"),
    ],
    ids=["point", "line"],
)
def test_route_fault_fails_at_a_tiny_eps(monkeypatch, rule, target, failure):
    _perturb(monkeypatch, rule, target)
    report = verify_operator_identities(Modulus(5), eps=1e-14)
    assert [c.counterexample for c in report.checks if not c.ok] == [failure]


@pytest.mark.parametrize("d", [3, 5])
def test_operator_incidence_matches_geometry(d):
    # closed forms only on both sides; ties the line equation to the algebra
    mod = Modulus(d)
    for p in all_points(mod):
        a = point_operator_direct(mod, p)
        for line in all_lines(mod):
            lam = np.trace(a @ line_operator_direct(mod, line)).real
            assert abs(lam - (1 if p in line_points(mod, line) else 0)) <= d * 1e-10


@pytest.mark.parametrize("d", [3, 5])
def test_line_operator_trace_and_square(d):
    mod = Modulus(d)
    for line in all_lines(mod):
        p = line_operator_direct(mod, line)
        assert abs(np.trace(p) - 1) <= d * 1e-10
        assert np.abs(p @ p - np.eye(d)).max() <= d * 1e-10
        assert abs(np.trace(p @ p) - d) <= d * 1e-10


@pytest.mark.parametrize("d", [5, 7, 11, 13])
def test_clifford_gates_permute_line_operators(d):
    mod = Modulus(d)
    s, f = clifford_gates(mod)
    for a, m0 in np.ndindex(d, d):
        p = line_operator_direct(mod, Line(a, m0))
        by_s = line_operator_direct(mod, Line(a, (m0 - a + mod.half(1)) % d))
        by_f = line_operator_direct(mod, Line(m0, -a % d))
        assert np.abs(s @ p @ s.conj().T - by_s).max() <= 1e-13
        assert np.abs(f @ p @ f.conj().T - by_f).max() <= 1e-13


def test_oracle_stacks_layout():
    mod = Modulus(3)
    a = point_operator_stack(mod)
    p = line_operator_stack(mod)
    assert a.shape == (12, 3, 3)
    assert p.shape == (9, 3, 3)
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


@pytest.mark.parametrize("d", [3, 5, 7, 11, 13])
def test_block_battery_agrees_with_the_dense_oracle(d):
    # same names, verdicts and witnesses; each deviation within rounding of the exhaustive one,
    # which bounds every derived term at a passing run (the routes agree to a few 2^-52)
    mod = Modulus(d)
    report, dense = dense_operator_battery(mod)
    assert verify_operator_identities(mod) == report
    assert report.passed
    blocks = _deviations(mod, _tables(mod), 1e-10)
    assert [(name, tol) for name, _, tol, *_ in blocks] == [(name, tol) for name, _, tol in dense]
    for (name, got, *_), (_, want, _) in zip(blocks, dense):
        assert abs(np.max(got) - want) <= 16 * d * d * 2.0**-52, name


@pytest.mark.parametrize("d", [5, 7])
def test_dense_oracle_reproduces_the_mutant_catalogue(d):
    # the catalogue was recorded by the dense battery; the block battery must reproduce it too
    catalogue = json.loads(CATALOGUE.read_text())
    battery = VERIFIERS[-1]
    wrong = []
    for name, rule, label, fix in mutants(d):
        if rule not in battery[2]:
            continue
        with pytest.MonkeyPatch.context() as mp:
            inject(mp, RULES[rule][0], rule, label, fix)
            report, _ = dense_operator_battery(Modulus(d))
        found = [[c.axiom, c.counterexample] for c in report.checks if not c.ok]
        if found != restricted(catalogue[name], [battery]):
            wrong.append(name)
    assert wrong == []


def _repeat_point(answer):
    """Column 3 of the line's row gets the point of column 2: the line holds d distinct points."""
    for field in answer:
        field[3] = field[2]


def _swap_points(answer):
    """Columns 2 and 3 of the line's row trade points: the same point set, out of column order."""
    for field in answer:
        field[[2, 3]] = field[[3, 2]]


@pytest.mark.parametrize("fix", [_repeat_point, _swap_points], ids=["repeated", "swapped"])
def test_line_table_out_of_column_order_matches_the_dense_oracle(monkeypatch, fix):
    # the collinearity counts are not the plane's, so the exact pass decides op.point_from_lines
    mod = Modulus(5)
    inject(monkeypatch, geometry, "_line_points", (1, 2), fix)
    report, _ = dense_operator_battery(mod)
    assert verify_operator_identities(mod) == report
    assert report.passed == (fix is _swap_points)


def test_battery_holds_no_dense_stack():
    # a passing run at d = 47 stays below the 76 MB of one d(d+1) x d x d complex stack
    d = 47
    mod = Modulus(d)
    tracemalloc.start()
    try:
        assert verify_operator_identities(mod).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * d * (d + 1) * d * d


def test_battery_at_d13_holds_one_column_at_a_time():
    # from d = 13 up a block is one column of points or one m_minus1 of lines, so a passing run
    # at d = 13 stays under 1 MiB; blocks of all 14 columns at once peaked at 4.3 MiB
    mod = Modulus(13)
    tracemalloc.start()
    try:
        assert verify_operator_identities(mod).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def _scale(answer):
    answer[0] *= 1 + 1e-6


def _count_exact_passes(monkeypatch):
    """Patch operators._first_offending_rows to record the check of each call; return the list."""
    checks, exact = [], operators._first_offending_rows

    def counted(mod, tables, check, *args):
        checks.append(check)
        return exact(mod, tables, check, *args)

    monkeypatch.setattr(operators, "_first_offending_rows", counted)
    return checks


def test_line_route_fault_fails_only_its_route_check(monkeypatch):
    # the line Gram and the incidence traces are read off the line operators, not the routes,
    # so a faulted route passes their bounds and no exact pass runs
    inject(monkeypatch, operators, "_line_operators", (1, 2), _scale)
    exact = _count_exact_passes(monkeypatch)
    report = verify_operator_identities(Modulus(13))
    failures = [(c.axiom, c.counterexample) for c in report.checks if not c.ok]
    assert failures == [("op.line_route_equality", "line routes at (1,2) deviates by 1.000e-06")]
    assert exact == []


def test_non_affine_column_relabeling_matches_the_dense_oracle(monkeypatch):
    # rows 0 and 1 of column 1 trade places on every line, a relabeling no affine map of Z_7
    # makes: the lines still form a net, so the line Gram and the incidence traces, which follow
    # from the point Gram and the plane's counts, pass their bounds; the line operators are no
    # longer involutions, and only the cross terms need an exact pass
    sigma = np.array([1, 0, 2, 3, 4, 5, 6])
    original = geometry._line_points

    def relabeled(mod, m_minus1, m0):
        m, b = original(mod, m_minus1, m0)
        return Point(np.where(b == 1, sigma[m], m), b)

    monkeypatch.setattr(geometry, "_line_points", relabeled)
    exact = _count_exact_passes(monkeypatch)
    mod = Modulus(7)
    report, _ = dense_operator_battery(mod)
    assert verify_operator_identities(mod) == report
    assert [c.axiom for c in report.checks if not c.ok] == [
        "op.line_involution",
        "op.cross_term_distillation",
        "op.line_route_equality",
    ]
    assert exact == ["op.cross_term_distillation"]


def test_failing_battery_holds_no_dense_stack(monkeypatch):
    # a scaled state fails the bounds of the sweep, whose exact passes then decide them, block
    # by block; the whole run stays below the same 76 MB
    d = 47
    mod = Modulus(d)
    inject(monkeypatch, mub, "_states", (2, 2), _scale)
    exact = _count_exact_passes(monkeypatch)
    tracemalloc.start()
    try:
        report = verify_operator_identities(mod)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not report.passed
    assert exact == [
        "op.line_gram",
        "op.cross_term_distillation",
        "op.point_gram_cases",
        "op.incidence_trace",
    ]
    assert peak < 16 * d * (d + 1) * d * d


POINT_GRAM_BOUNDS = ("op.point_gram_cases", "op.incidence_trace")


def _bounds_and_deviations(mod):
    """The sweep's value of each point Gram bound, and the dense oracle's deviation of its check."""
    bounds = {name: np.max(devs) for name, devs, *_ in _deviations(mod, _tables(mod), 1e-10)}
    dense = {name: dev for name, dev, _ in dense_operator_battery(mod)[1]}
    return [(name, bounds[name], dense[name]) for name in POINT_GRAM_BOUNDS]


def _copied_basis(monkeypatch, basis):
    """Patch mub._states: basis b >= 0 answers with the states of basis b + 1 mod d.

    The bases stay orthonormal, and the Gram is off only across two columns.
    """
    original = mub._states

    def faulty(mod, m, b):
        return original(mod, m, np.where(np.asarray(b) == basis, (basis + 1) % mod.d, b))

    monkeypatch.setattr(mub, "_states", faulty)


def test_point_gram_bounds_hold_on_faulted_states():
    # the bounds read off mub._overlaps are at least the exhaustive deviations, less rounding, on
    # every scaled and omega-phased amplitude, a nan amplitude, every whole-basis fault and every
    # copied basis at d = 5; a nan deviation needs a nan bound
    d = 5
    slack = 16 * d * d * 2.0**-52
    faults = [
        (name, lambda mp, label=label, fix=fix: inject(mp, mub, "_states", label, fix))
        for name, rule, label, fix in mutants(d)
        if rule == "_states" and name.endswith(("scaled", "times omega"))
    ]
    faults.append(("nan", lambda mp: inject(mp, mub, *NAN_FAULT)))
    for basis in range(-1, d):
        for cycled in (False, True):
            faults.append((f"basis {basis}", lambda mp, a=basis, c=cycled: _whole_basis(mp, a, c)))
    faults += [(f"copied {a}", lambda mp, a=a: _copied_basis(mp, a)) for a in range(d)]
    unsound = []
    for name, fault in faults:
        with pytest.MonkeyPatch.context() as mp:
            fault(mp)
            for check, bound, dev in _bounds_and_deviations(Modulus(d)):
                if not (np.isnan(bound) if np.isnan(dev) else bound >= dev - slack):
                    unsound.append((name, check, bound, dev))
    assert len(faults) == 2 * d * (d + 1) * d + 1 + 2 * (d + 1) + d
    assert unsound == []


def test_a_tolerance_edge_fault_passes_the_point_gram_through_its_exact_pass(monkeypatch):
    # 1e-9 of state (1,2) added to state (2,2) at d = 7: the Gram is off I by 1e-9 within column 2,
    # which fails mub.orthonormal, and the bound on(2 + on) = 2e-9 exceeds the 7e-10 tolerance;
    # the squared overlaps move by at most 2e-9/d = 2.9e-10, so the exact pass clears the check
    mod = Modulus(7)
    one = mub._states(mod, 1, 2)

    def mix(answer):
        answer[0] += 1e-9 * one

    inject(monkeypatch, mub, "_states", (2, 2), mix)
    (_, bound, dev), _ = _bounds_and_deviations(mod)
    assert dev <= 7e-10 < bound
    exact = _count_exact_passes(monkeypatch)
    report, _ = dense_operator_battery(mod)
    assert verify_operator_identities(mod) == report
    assert "op.point_gram_cases" in exact
    assert [c.ok for c in report.checks if c.axiom == "op.point_gram_cases"] == [True]
    failed = [c.axiom for c in mub.verify_unbiasedness(mod).checks if not c.ok]
    assert "mub.orthonormal" in failed


def test_battery_reads_projectors_off_the_bases(monkeypatch):
    mod = Modulus(7)

    def refuse(*args):
        raise AssertionError("the battery built a basis state one at a time")

    for module in (mub, operators):
        monkeypatch.setattr(module, "mub_state", refuse, raising=False)
    report = verify_operator_identities(mod)
    assert report.passed, [c for c in report.checks if not c.ok]


# Fault injection at d = 5: the chirp rule answers with state m = 2 of basis b = 2 changed. The
# mub checks and the battery evaluate the rule on each call, so both see the fault.
MOD5 = Modulus(5)


def _scaled(monkeypatch):
    inject(monkeypatch, mub, "_states", (2, 2), _scale)


def _zeroed(monkeypatch):
    inject(monkeypatch, mub, "_states", (2, 2), replace_with(np.zeros(5)))


def _swapped(monkeypatch):
    one, two = mub._states(MOD5, 1, 2), mub._states(MOD5, 2, 2)
    inject(monkeypatch, mub, "_states", (1, 2), replace_with(two))
    inject(monkeypatch, mub, "_states", (2, 2), replace_with(one))


@pytest.mark.parametrize(
    "fault, failures",
    [
        (
            _scaled,
            [
                ("mub.orthonormal", "basis b=2 deviates from orthonormality by 2.000e-06"),
                ("mub.unbiased", "bases b=-1, b=2 overlap off 1/sqrt(d) by 4.472e-07"),
                ("op.point_projector", "projector law for point (2,2) deviates by 4.000e-07"),
                ("op.column_completeness", "column b=2 resolution deviates by 4.000e-07"),
                ("op.global_sum", "total deviates from (d+1)I by 4.000e-07"),
                ("op.line_sum", "total deviates from dI by 2.000e-06"),
                ("op.point_from_lines", "line average at point (0,-1) deviates by 8.000e-08"),
                ("op.line_trace", "trace of line operator (0,3) deviates by 2.000e-06"),
                ("op.line_gram", "line gram (0,3) vs (0,3) deviates by 4.000e-06"),
                ("op.line_involution", "square of line operator (0,3) deviates by 8.000e-07"),
                ("op.cross_term_distillation", "cross terms on line (0,3) deviate by 4.000e-07"),
                ("op.point_route_equality", "point routes at (2,2) deviates by 4.000e-07"),
                ("op.line_route_equality", "line routes at (0,3) deviates by 4.000e-07"),
                ("op.point_gram_cases", "point gram (0,-1) vs (2,2) deviates by 4.000e-07"),
                ("op.incidence_trace", "incidence trace (0,-1) vs (0,3) deviates by 4.000e-07"),
            ],
        ),
        (
            _zeroed,
            [
                ("mub.orthonormal", "basis b=2 deviates from orthonormality by 1.000e+00"),
                ("mub.unbiased", "bases b=-1, b=2 overlap off 1/sqrt(d) by 4.472e-01"),
                ("op.point_projector", "trace of point operator (2,2) deviates by 1.000e+00"),
                ("op.column_completeness", "column b=2 resolution deviates by 2.000e-01"),
                ("op.global_sum", "total deviates from (d+1)I by 2.000e-01"),
                ("op.line_sum", "total deviates from dI by 1.000e+00"),
                ("op.point_from_lines", "line average at point (0,-1) deviates by 4.000e-02"),
                ("op.line_trace", "trace of line operator (0,3) deviates by 1.000e+00"),
                ("op.line_gram", "line gram (0,3) vs (0,3) deviates by 1.000e+00"),
                ("op.line_involution", "square of line operator (0,3) deviates by 2.000e-01"),
                ("op.cross_term_distillation", "cross terms on line (0,3) deviate by 2.000e-01"),
                ("op.point_route_equality", "point routes at (2,2) deviates by 2.000e-01"),
                ("op.line_route_equality", "line routes at (0,3) deviates by 2.000e-01"),
                ("op.point_gram_cases", "point gram (0,-1) vs (2,2) deviates by 2.000e-01"),
                ("op.incidence_trace", "incidence trace (0,-1) vs (0,3) deviates by 2.000e-01"),
            ],
        ),
        (
            _swapped,
            [
                ("mub.eigenrelation", "state (m=2, b=2) has residual 1.176e+00"),
                ("op.line_involution", "square of line operator (0,2) deviates by 6.954e-01"),
                ("op.cross_term_distillation", "cross terms on line (0,2) deviate by 6.954e-01"),
                ("op.point_route_equality", "point routes at (1,2) deviates by 3.804e-01"),
                ("op.line_route_equality", "line routes at (0,2) deviates by 3.804e-01"),
            ],
        ),
    ],
    ids=["scaled", "zeroed", "swapped"],
)
def test_faulted_basis_state_is_located(monkeypatch, fault, failures):
    fault(monkeypatch)
    reports = [
        mub.verify_eigenrelation(MOD5),
        mub.verify_unbiasedness(MOD5),
        verify_operator_identities(MOD5),
    ]
    assert [(c.axiom, c.counterexample) for r in reports for c in r.checks if not c.ok] == failures


def test_nan_state_fails_every_operator_check(monkeypatch):
    # a deviation that is not within its tolerance offends, nan included
    # and the dense oracle names the same witnesses: its sums reach only the lines through (2,2)
    inject(monkeypatch, mub, "_states", (2, 2), replace_with(np.full(5, np.nan)))
    report = verify_operator_identities(MOD5)
    assert [c.axiom for c in report.checks if c.ok] == []
    assert dense_operator_battery(MOD5)[0] == report


@pytest.mark.parametrize("d", [3, 5, 7, 11, 13, 19])
def test_blocks_are_whole_columns_within_the_entry_budget(d):
    # as many columns of d labels as fit 2^12 entries of their d x d operators, and at least one:
    # the points and the lines are each one block at d <= 7, and one column a block from d = 13
    for total in (d * (d + 1), d * d):  # the points, the lines
        blocks = _blocks(total, d)
        sizes = [b.stop - b.start for b in blocks]
        assert [i for b in blocks for i in range(b.start, b.stop)] == list(range(total))
        assert all(n % d == 0 and n * d * d <= max(d**3, 2**12) for n in sizes)
        assert all(n == d * max(1, 2**12 // d**3) for n in sizes[:-1])
        if d <= 7:
            assert len(blocks) == 1
        if d >= 13:
            assert sizes == [d] * (total // d)


def _one_column_blocks(total, d):
    return [slice(i, i + d) for i in range(0, total, d)]


@pytest.mark.parametrize("d", [5, 7, 11])
@pytest.mark.parametrize("faulted", [False, True], ids=["passing", "faulted"])
def test_whole_column_blocks_keep_every_deviation_bit_for_bit(monkeypatch, d, faulted):
    # the column sums are taken one column at a time, in order, whatever the block, so the sweep
    # and the exact passes give the bits and the witnesses of one column per block
    if faulted:
        inject(monkeypatch, mub, "_states", (2, 2), _scale)
    mod = Modulus(d)

    def battery():
        devs = _deviations(mod, _tables(mod), 1e-10)
        bits = [(name, np.asarray(x).tobytes()) for name, x, *_ in devs]
        return bits, verify_operator_identities(mod)

    blocks, report = battery()
    monkeypatch.setattr(operators, "_blocks", _one_column_blocks)
    assert battery() == (blocks, report)
    assert report.passed != faulted


def _count_table_builds(monkeypatch):
    """Patch operators._tables to record the d of each build; return the list."""
    builds, build = [], operators._tables

    def counted(mod):
        builds.append(mod.d)
        return build(mod)

    monkeypatch.setattr(operators, "_tables", counted)
    return builds


def test_battery_builds_its_tables_once(monkeypatch):
    # the sweep and every exact pass read the tables of one build, on a passing run and on a
    # catalogue mutant whose exact passes decide four bounds
    mod = Modulus(7)
    builds = _count_table_builds(monkeypatch)
    assert verify_operator_identities(mod).passed
    assert builds == [7]
    (fault,) = [m for m in mutants(7) if m[0] == "d=7 _states 0,-1 answer of 0,0"]
    _, rule, label, fix = fault
    inject(monkeypatch, mub, rule, label, fix)
    exact = _count_exact_passes(monkeypatch)
    builds.clear()
    assert not verify_operator_identities(mod).passed
    assert len(exact) >= 2
    assert builds == [7]

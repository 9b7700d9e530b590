"""What verify catches: every single-label fault of the rules it reads.

A mutant corrupts the answer of one array rule for one label, through
faults.inject, at d = 5 and 7. The rules are the ones the verifiers read:
geometry._line_points (the points of each line), geometry._pencil (the lines
through each point), geometry._apg_line_points (the points of each affine line),
geometry._common_point (the closed form of the duality), mub._states (the
chirp rule behind every basis state), operators._point_operators and
operators._line_operators (the direct routes). The fault families are
enumerated whole, for every label:

- another label's answer: the answer of the label with one field advanced by
  one, cyclically (each field in turn);
- shifted by 1: one row of a line's points moved to the next row mod d; the
  m0 of one line of a pencil, the eta of one point of an affine line, or the
  row of a common point, advanced by one mod d;
  a state's amplitudes moved to the next index; an operator's rows moved down;
- one amplitude scaled by 1 + 1e-6, and one amplitude times omega: each
  amplitude of a state; each row of an operator, which for a line operator is
  its one nonzero entry in that row;
- conjugated: the whole answer of a state or an operator.

Two more mutants at each d are written out by hand (EXTRA): no fault of these
families puts three non-collinear affine points on one line, or two points of
one column on one dual line.

mutants.json maps each mutant to the failing checks of verify --scope all, in
report order, each with its witness text: the first offending label (or pair
of labels) in label order, and for an operator check its deviation. A verifier
that raises records ["error", message] in its place. Each verifier reads only
the rules VERIFIERS lists for it (a test holds this), so a mutant is replayed
through those verifiers alone. The dense battery and the Gram verifiers of
tests/oracle.py must give the same catalogue. Regenerate it only when a change
of verdict or witness is intended, from the repository root:

    PYTHONPATH=src python tests/test_mutants.py

Before it rewrites the file, it prints how many mutants are new, how many
mutants' failing-check lists differ from the committed catalogue, how many
witness texts differ, and how many op.* entries differ.
"""

import json
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from faults import inject, replace_with
from oracle import dense_operator_battery, gram_apg_axioms, gram_dapg_axioms, gram_duality

from mubgeo import geometry, mub, operators
from mubgeo.core import Modulus, omega_power
from mubgeo.geometry import Point

CATALOGUE = Path(__file__).with_name("mutants.json")
DIMS = (5, 7)

# rule -> module that holds it, and its labels: points (m, b), lines (m_minus1, m0)
# or affine lines (r, s) with r = d for the verticals
RULES = {
    "_line_points": (geometry, "line"),
    "_pencil": (geometry, "point"),
    "_apg_line_points": (geometry, "affine"),
    "_common_point": (geometry, "affine"),
    "_states": (mub, "point"),
    "_point_operators": (operators, "point"),
    "_line_operators": (operators, "line"),
}

# the integer rules but _common_point: the field of an answer's entry that "shifted" advances, and what an entry is
SHIFTED = {
    "_line_points": (0, "row"),
    "_pencil": (1, "line"),
    "_apg_line_points": (1, "point"),
}

# the verifiers of verify --scope all, in report order, and the rules each reads
VERIFIERS = (
    (geometry, "verify_dapg_axioms", ("_line_points", "_pencil")),
    (geometry, "verify_apg_axioms", ("_apg_line_points",)),
    (geometry, "verify_duality", ("_line_points", "_apg_line_points", "_common_point")),
    (mub, "verify_eigenrelation", ("_states",)),
    (mub, "verify_unbiasedness", ("_states",)),
    (
        operators,
        "verify_operator_identities",
        ("_line_points", "_states", "_point_operators", "_line_operators"),
    ),
)

# checks that no single finite fault of these rules can fail, with the reason (also in the
# README); NAN_FAULT fails them
UNFAILABLE = {
    "op.point_hermitian": "each projector is the outer product of one state with itself,"
    " which is Hermitian within rounding whatever the finite state",
    "op.line_hermitian": "each line operator is a sum of such outer products minus I,"
    " Hermitian within rounding whatever finite states or points the rules give",
}


def labels(d: int, kind: str) -> list[tuple[int, ...]]:
    if kind == "point":
        return [(m, b) for b in range(-1, d) for m in range(d)]
    if kind == "affine":
        return [(r, s) for r in range(d + 1) for s in range(d)]
    return [(a, m0) for a in range(d) for m0 in range(d)]


def _neighbours(d: int, kind: str, label: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The labels with one field advanced by one, cyclically over its range."""
    x, y = label
    if kind == "point":
        return [((x + 1) % d, y), (x, (y + 2) % (d + 1) - 1)]
    if kind == "affine":
        return [((x + 1) % (d + 1), y), (x, (y + 1) % d)]
    return [((x + 1) % d, y), (x, (y + 1) % d)]


def _edit(f):
    """A fix that applies f to the rule's single-array answer in place."""

    def fix(answer):
        answer[0][...] = f(answer[0])

    return fix


def _at(index, factor):
    def f(a):
        a[index] *= factor
        return a

    return _edit(f)


def _up(field, index, d):
    """A fix that advances one field of the answer's entry `index` by one, mod d."""

    def fix(answer):
        answer[field][index] = (answer[field][index] + 1) % d

    return fix


def _collinear(answer):
    """The affine line's point 2 becomes (0, 1): eta = 0 then holds (0,0), (1,0) and (0,1)."""
    answer[0][2], answer[1][2] = 0, 1


def _same_column(answer):
    """The line's point in column 1 becomes (1,0): it then holds (0,0) and (1,0) of column 0."""
    answer[0][2], answer[1][2] = 1, 0


# (rule, label, what, fix) of the mutants written out by hand, at each d
EXTRA = (
    ("_apg_line_points", (0, 0), "point 2 is 0,1", _collinear),
    ("_line_points", (0, 0), "column 1 is point 1,0", _same_column),
)


# (rule, label, fix) of a nan amplitude, at n = 3 of state (m=2, b=1): the only fault that fails
# the two UNFAILABLE checks, and one that the mub checks passed while they failed only above eps
NAN_FAULT = ("_states", (2, 1), _at(3, np.nan))


def _name(label) -> str:
    return ",".join(map(str, label))


def mutants(d: int):
    """(name, rule, label, fix) for every mutant at d, in a fixed order."""
    mod = Modulus(d)
    omega = omega_power(d, 1)
    for rule, (module, kind) in RULES.items():
        original = getattr(module, rule)
        for label in labels(d, kind):
            tag = f"d={d} {rule} {_name(label)}"
            for other in _neighbours(d, kind, label):
                fix = replace_with(original(mod, *other))
                yield f"{tag} answer of {_name(other)}", rule, label, fix
            if rule == "_common_point":
                yield f"{tag} row shifted", rule, label, _up(0, (), d)
                continue
            if rule in SHIFTED:
                field, what = SHIFTED[rule]
                offset = -1 if rule == "_line_points" else 0  # a row is named by its column
                for c in range(d + 1 if rule == "_line_points" else d):
                    yield f"{tag} {what} {c + offset} shifted", rule, label, _up(field, c, d)
                continue
            yield f"{tag} shifted", rule, label, _edit(lambda a: np.roll(a, 1, axis=0))
            yield f"{tag} conjugated", rule, label, _edit(np.conj)
            for n in range(d):
                yield f"{tag} amplitude {n} scaled", rule, label, _at(n, 1 + 1e-6)
                yield f"{tag} amplitude {n} times omega", rule, label, _at(n, omega)
    for rule, label, what, fix in EXTRA:
        yield f"d={d} {rule} {_name(label)} {what}", rule, label, fix


def reading(rule: str) -> list:
    """The verifiers, in report order, that read rule."""
    return [v for v in VERIFIERS if rule in v[2]]


def outcome(monkeypatch, d: int, rule: str, label, fix, verifiers=VERIFIERS) -> list[list[str]]:
    """The failing checks of the verifiers as [name, witness] pairs; ["error", message] for a raise."""
    inject(monkeypatch, RULES[rule][0], rule, label, fix)
    found = []
    for module, name, _ in verifiers:
        try:
            report = getattr(module, name)(Modulus(d))
        except ValueError as exc:
            found.append(["error", str(exc)])
            continue
        found += [[c.axiom, c.counterexample] for c in report.checks if not c.ok]
    return found


@lru_cache(maxsize=None)
def _checks(module, verifier: str) -> tuple[str, ...]:
    return tuple(c.axiom for c in getattr(module, verifier)(Modulus(3)).checks)


def check_names(verifiers=VERIFIERS) -> list[str]:
    return [check for module, name, _ in verifiers for check in _checks(module, name)]


def restricted(found: list, verifiers) -> list:
    """The entries of a catalogue entry that the verifiers report, errors included."""
    names = set(check_names(verifiers)) | {"error"}
    return [entry for entry in found if entry[0] in names]


def record() -> dict:
    out = {}
    for d in DIMS:
        for name, rule, label, fix in mutants(d):
            with pytest.MonkeyPatch.context() as mp:
                out[name] = outcome(mp, d, rule, label, fix)
    return out


@pytest.fixture(scope="module")
def catalogue():
    return json.loads(CATALOGUE.read_text())


@pytest.mark.parametrize("module, verifier, reads", VERIFIERS, ids=[v[1] for v in VERIFIERS])
def test_each_verifier_reads_only_its_rules(monkeypatch, module, verifier, reads):
    # every other rule raises if called, and the verifier still passes
    def refuse(*args):
        raise AssertionError(f"{verifier} read a rule it does not list")

    for rule, (owner, _) in RULES.items():
        if rule not in reads:
            monkeypatch.setattr(owner, rule, refuse)
    assert getattr(module, verifier)(Modulus(5)).passed


@pytest.mark.parametrize("rule", list(RULES))
@pytest.mark.parametrize("d", DIMS)
def test_battery_reproduces_the_catalogue(catalogue, d, rule):
    verifiers = reading(rule)
    wrong = []
    for name, r, label, fix in mutants(d):
        if r != rule:
            continue
        with pytest.MonkeyPatch.context() as mp:
            got = outcome(mp, d, rule, label, fix, verifiers)
        if got != restricted(catalogue[name], verifiers):
            wrong.append((name, got, catalogue[name]))
    assert wrong == []


def test_catalogue_lists_every_mutant(catalogue):
    assert sorted(catalogue) == sorted(name for d in DIMS for name, *_ in mutants(d))


def test_every_check_is_failed_by_some_mutant(catalogue):
    failed = {check for found in catalogue.values() for check, _ in found}
    checks = check_names()
    assert len(checks) == 33
    assert [c for c in checks if c not in failed] == list(UNFAILABLE)


def test_every_check_fails_on_some_committed_input(catalogue):
    # the catalogue and the nan fault together fail each of the 33 checks: none passes vacuously
    failed = {check for found in catalogue.values() for check, _ in found}
    with pytest.MonkeyPatch.context() as mp:
        failed.update(check for check, _ in outcome(mp, 5, *NAN_FAULT, reading(NAN_FAULT[0])))
    assert [c for c in check_names() if c not in failed] == []


def _whole_basis(monkeypatch, basis: int, cycled: bool) -> None:
    """Patch mub._states: every state of one basis times e^(0.3i), or its states cycled m -> m+1."""
    original = mub._states

    def faulty(mod, m, b):
        hit = np.asarray(b) == basis
        if cycled:
            return original(mod, np.where(hit, (np.asarray(m) + 1) % mod.d, m), b)
        return original(mod, m, b) * np.where(hit, np.exp(0.3j), 1)[..., None]

    monkeypatch.setattr(mub, "_states", faulty)


# the failing checks of a whole-basis fault: a common phase leaves every projector as it was,
# while cycled states keep the bases unbiased and the line operators' net but not their labels
WHOLE_BASIS_FAILURES = {
    False: [],
    True: [
        "mub.eigenrelation",
        "op.line_involution",
        "op.cross_term_distillation",
        "op.point_route_equality",
        "op.line_route_equality",
    ],
}


@lru_cache(maxsize=None)
def whole_basis_family(d: int) -> tuple:
    """(basis, cycled, failing checks, block battery report, dense battery report) per mutant.

    The failing checks are those of the verifiers that read mub._states, in report order.
    """
    out = []
    for basis in range(-1, d):
        for cycled in (False, True):
            with pytest.MonkeyPatch.context() as mp:
                _whole_basis(mp, basis, cycled)
                reports = [getattr(m, name)(Modulus(d)) for m, name, _ in reading("_states")]
                dense = dense_operator_battery(Modulus(d))[0]
            failed = [c.axiom for r in reports for c in r.checks if not c.ok]
            out.append((basis, cycled, failed, reports[-1], dense))
    return tuple(out)


@pytest.mark.parametrize("d", DIMS)
def test_whole_basis_faults_match_the_dense_battery(d):
    # ROADMAP item 2's phases and shifts of one whole basis, which keep its structure
    for basis, cycled, failed, block, dense in whole_basis_family(d):
        assert block == dense, (basis, cycled)
        assert failed == WHOLE_BASIS_FAILURES[cycled], (basis, cycled)


def test_whole_basis_family_holds_a_passing_and_a_failing_mutant():
    verdicts = {not failed for d in DIMS for _, _, failed, _, _ in whole_basis_family(d)}
    assert verdicts == {True, False}


def _collided(monkeypatch, column: int) -> None:
    """Patch geometry._line_points: column keeps its intercept -half(column) on every line but
    takes the slope column + 1 mod d of the next column, row(column) = (column + 1) m_minus1 -
    half(column) + m0."""
    original = geometry._line_points

    def collided(mod, m_minus1, m0):
        m, b = original(mod, m_minus1, m0)
        a, m0 = np.expand_dims(m_minus1, -1), np.expand_dims(m0, -1)
        row = ((column + 1) * a - mod.half(column) + m0) % mod.d
        return Point(np.where(b == column, row, m), b)

    monkeypatch.setattr(geometry, "_line_points", collided)


@pytest.mark.parametrize("d", DIMS)
def test_a_column_with_another_columns_slope_matches_the_oracles(d):
    # ROADMAP item 2's coefficient collisions: two columns of one slope make lines that meet in
    # both, so the net test must fail and the exact scans and passes decide, as the oracles do
    mod = Modulus(d)
    for column in range(d):
        with pytest.MonkeyPatch.context() as mp:
            _collided(mp, column)
            report = geometry.verify_dapg_axioms(mod)
            assert report == gram_dapg_axioms(mod), column
            assert "dapg.lines_meet_once" in [c.axiom for c in report.checks if not c.ok]
            assert operators.verify_operator_identities(mod) == dense_operator_battery(mod)[0]


def _chirp_collided(monkeypatch, basis: int) -> None:
    """Patch mub._states: basis takes the chirp of basis + 1 mod d, so it is that basis."""
    original = mub._states

    def collided(mod, m, b):
        return original(mod, m, np.where(np.asarray(b) == basis, (basis + 1) % mod.d, b))

    monkeypatch.setattr(mub, "_states", collided)


@pytest.mark.parametrize("d", DIMS)
def test_a_basis_with_another_basis_chirp_matches_the_dense_battery(d):
    # ROADMAP item 2's basis chirp collisions: two equal bases are not unbiased
    mod = Modulus(d)
    for basis in range(d):
        with pytest.MonkeyPatch.context() as mp:
            _chirp_collided(mp, basis)
            reports = [mub.verify_eigenrelation(mod), mub.verify_unbiasedness(mod)]
            assert [c.axiom for r in reports for c in r.checks if not c.ok] == [
                "mub.eigenrelation",
                "mub.unbiased",
            ], basis
            assert operators.verify_operator_identities(mod) == dense_operator_battery(mod)[0]


def _class_collided(monkeypatch, slope: int) -> None:
    """Patch geometry._apg_line_points: class slope (d for the verticals) takes the slope
    slope + 1 mod d + 1, so its lines are those of the next class."""
    original = geometry._apg_line_points

    def collided(mod, r, s):
        return original(mod, np.where(np.asarray(r) == slope, (slope + 1) % (mod.d + 1), r), s)

    monkeypatch.setattr(geometry, "_apg_line_points", collided)


@pytest.mark.parametrize("d", DIMS + (11,))
def test_an_affine_class_with_another_class_slope_matches_the_oracles(d):
    # ROADMAP item 2's affine class collisions: two equal classes make no net, and the exact
    # scans decide, as the Gram oracles do
    mod = Modulus(d)
    for slope in range(d + 1):
        with pytest.MonkeyPatch.context() as mp:
            _class_collided(mp, slope)
            report = geometry.verify_apg_axioms(mod)
            assert report == gram_apg_axioms(mod), slope
            assert [c.axiom for c in report.checks if not c.ok] == [
                "apg.counts",
                "apg.unique_join",
                "apg.parallel_postulate",
                "apg.cross_class_meet_once",
            ], slope
            assert geometry.verify_duality(mod) == gram_duality(mod), slope


def changes(old: dict, new: dict) -> tuple[int, int, int, int, int, int]:
    """How many mutants are new, are gone, change their failing checks, change a witness, and how
    many texts and op.* entries change.

    A witness counts only for a check that fails in both catalogues; an op.* entry is a mutant's
    list of failing op.* checks with their witnesses.
    """
    added = removed = verdicts = witnesses = texts = ops = 0
    for name in old.keys() | new.keys():
        added += name not in old
        removed += name not in new
        if name not in old or name not in new:
            continue
        before, after = dict(old[name]), dict(new[name])
        moved = sum(before[check] != after[check] for check in before.keys() & after.keys())
        verdicts += list(before) != list(after)
        witnesses += moved > 0
        texts += moved
        op_before = [(c, w) for c, w in old[name] if c.startswith("op.")]
        ops += op_before != [(c, w) for c, w in new[name] if c.startswith("op.")]
    return added, removed, verdicts, witnesses, texts, ops


if __name__ == "__main__":
    found = record()
    old = json.loads(CATALOGUE.read_text())
    added, removed, verdicts, witnesses, texts, ops = changes(old, found)
    print(f"{added} of {len(found)} mutants are new; {removed} of {len(old)} are gone;")
    print(f"{verdicts} of the others change their failing checks;")
    print(f"{witnesses} change the witness of a check failed before and after ({texts} texts);")
    print(f"{ops} change their op.* entry")
    rows = (f"{json.dumps(name)}: {json.dumps(out)}" for name, out in found.items())
    CATALOGUE.write_text("{\n" + ",\n".join(rows) + "\n}\n")

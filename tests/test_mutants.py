"""What the operator battery catches: every single-label fault of the rules it reads.

A mutant corrupts the answer of one array rule for one label, through
faults.inject, at d = 5 and 7. The rules are the ones verify_operator_identities
reads: geometry._line_points (the points of each line), mub._states (the
chirp rule behind mub_family), operators._point_operators and
operators._line_operators (the direct routes). The fault families are
enumerated whole, for every label:

- another label's answer: the answer of the label with one field advanced by
  one, cyclically (each field in turn);
- shifted by 1: one row of a line's points moved to the next row mod d; a
  state's amplitudes moved to the next index; an operator's rows moved down;
- one amplitude scaled by 1 + 1e-6, and one amplitude times omega: each
  amplitude of a state; each row of an operator, which for a line operator is
  its one nonzero entry in that row;
- conjugated: the whole answer of a state or an operator.

mutants.json maps each mutant to the failing checks of the battery, each with
its witness text: the first offending label (or pair of labels) in label
order, and its deviation. The dense battery of tests/oracle.py must give the
same catalogue. Regenerate it only when a change of verdict or witness is
intended, from the repository root:

    PYTHONPATH=src python tests/test_mutants.py

Before it rewrites the file, it prints how many mutants' failing-check lists
differ from the committed catalogue, and how many witness texts differ.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from faults import inject, replace_with

from mubgeo import geometry, mub, operators
from mubgeo.core import Modulus, omega_power
from mubgeo.operators import verify_operator_identities

CATALOGUE = Path(__file__).with_name("mutants.json")
DIMS = (5, 7)

# rule -> module that holds it, and whether its labels are points (m, b) or lines (m_minus1, m0)
RULES = {
    "_line_points": (geometry, "line"),
    "_states": (mub, "point"),
    "_point_operators": (operators, "point"),
    "_line_operators": (operators, "line"),
}

# checks that no single fault of these rules can fail, with the reason (also in the README)
UNFAILABLE = {
    "op.point_hermitian": "each projector is the outer product of one state with itself,"
    " which is Hermitian to the last bit whatever the state",
    "op.line_hermitian": "each line operator is a sum of such outer products minus I,"
    " Hermitian to the last bit whatever states or points the rules give",
}


def labels(d: int, kind: str) -> list[tuple[int, int]]:
    if kind == "point":
        return [(m, b) for b in range(-1, d) for m in range(d)]
    return [(a, m0) for a in range(d) for m0 in range(d)]


def _neighbours(d: int, kind: str, label: tuple[int, int]) -> list[tuple[int, int]]:
    """The labels with one field advanced by one, cyclically over its range."""
    x, y = label
    if kind == "point":
        return [((x + 1) % d, y), (x, (y + 2) % (d + 1) - 1)]
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


def _row_up(c, d):
    def fix(answer):
        answer[0][c] = (answer[0][c] + 1) % d

    return fix


def mutants(d: int):
    """(name, rule, label, fix) for every mutant at d, in a fixed order."""
    mod = Modulus(d)
    omega = omega_power(d, 1)
    for rule, (module, kind) in RULES.items():
        original = getattr(module, rule)
        for label in labels(d, kind):
            tag = f"d={d} {rule} {label[0]},{label[1]}"
            for other in _neighbours(d, kind, label):
                fix = replace_with(original(mod, *other))
                yield f"{tag} answer of {other[0]},{other[1]}", rule, label, fix
            if rule == "_line_points":
                for c in range(d + 1):
                    yield f"{tag} row {c - 1} shifted", rule, label, _row_up(c, d)
                continue
            yield f"{tag} shifted", rule, label, _edit(lambda a: np.roll(a, 1, axis=0))
            yield f"{tag} conjugated", rule, label, _edit(np.conj)
            for n in range(d):
                yield f"{tag} amplitude {n} scaled", rule, label, _at(n, 1 + 1e-6)
                yield f"{tag} amplitude {n} times omega", rule, label, _at(n, omega)


def outcome(monkeypatch, d: int, rule: str, label, fix) -> list[list[str]]:
    """The battery's failing checks as [name, witness] pairs, or [["error", message]]."""
    module = RULES[rule][0]
    inject(monkeypatch, module, rule, label, fix)
    mub.mub_family.cache_clear()
    try:
        report = verify_operator_identities(Modulus(d))
    except ValueError as exc:
        return [["error", str(exc)]]
    finally:
        mub.mub_family.cache_clear()
    return [[c.axiom, c.counterexample] for c in report.checks if not c.ok]


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


@pytest.mark.parametrize("rule", list(RULES))
@pytest.mark.parametrize("d", DIMS)
def test_battery_reproduces_the_catalogue(catalogue, d, rule):
    wrong = []
    for name, r, label, fix in mutants(d):
        if r != rule:
            continue
        with pytest.MonkeyPatch.context() as mp:
            got = outcome(mp, d, rule, label, fix)
        if got != catalogue[name]:
            wrong.append((name, got, catalogue[name]))
    assert wrong == []


def test_catalogue_lists_every_mutant(catalogue):
    assert sorted(catalogue) == sorted(name for d in DIMS for name, *_ in mutants(d))


def test_every_check_is_failed_by_some_mutant(catalogue):
    failed = {check for found in catalogue.values() for check, _ in found}
    checks = [c.axiom for c in verify_operator_identities(Modulus(3)).checks]
    assert [c for c in checks if c not in failed] == list(UNFAILABLE)


def changes(old: dict, new: dict) -> tuple[int, int, int]:
    """How many mutants change their failing checks, how many change a witness, and how many texts.

    A witness counts only for a check that fails in both catalogues.
    """
    verdicts = witnesses = texts = 0
    for name in old.keys() | new.keys():
        before, after = dict(old.get(name, [])), dict(new.get(name, []))
        moved = sum(before[check] != after[check] for check in before.keys() & after.keys())
        verdicts += list(before) != list(after)
        witnesses += moved > 0
        texts += moved
    return verdicts, witnesses, texts


if __name__ == "__main__":
    found = record()
    verdicts, witnesses, texts = changes(json.loads(CATALOGUE.read_text()), found)
    print(f"{verdicts} of {len(found)} mutants change their failing checks;")
    print(f"{witnesses} change the witness of a check failed before and after ({texts} texts)")
    rows = (f"{json.dumps(name)}: {json.dumps(out)}" for name, out in found.items())
    CATALOGUE.write_text("{\n" + ",\n".join(rows) + "\n}\n")

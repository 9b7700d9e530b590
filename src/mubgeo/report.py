"""Pass/fail reports produced by the exhaustive structural checkers."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np


@dataclass(frozen=True)
class Check:
    """One verified proposition: an identifier, a verdict, and a witness on failure."""

    axiom: str
    ok: bool
    counterexample: str = ""


@dataclass(frozen=True)
class AxiomReport:
    d: int
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "passed": self.passed,
            "checks": [
                {"axiom": c.axiom, "ok": c.ok, "counterexample": c.counterexample}
                for c in self.checks
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_findings(cls, d: int, findings: dict[str, str]) -> "AxiomReport":
        """One check per axiom, in order; a check passes when it has no counterexample."""
        return cls(d, tuple(Check(axiom, not bad, bad) for axiom, bad in findings.items()))

    @classmethod
    def combined(cls, reports: Iterable["AxiomReport"]) -> "AxiomReport":
        reports = tuple(reports)
        if not reports:
            raise ValueError("cannot combine zero reports")
        dims = {r.d for r in reports}
        if len(dims) != 1:
            raise ValueError(f"cannot combine reports for different dimensions {sorted(dims)}")
        return cls(reports[0].d, tuple(c for r in reports for c in r.checks))


def witness(mask: np.ndarray, describe: Callable[..., str]) -> str:
    """describe(*index) at the first true entry of mask in row-major order, else ""."""
    hits = np.argwhere(mask)
    return describe(*(int(i) for i in hits[0])) if len(hits) else ""


def offending(devs, tol: float, describe: Callable[..., str]) -> str:
    """describe(*index) at the first deviation not within tol, a nan included, else ""."""
    return witness(~(np.asarray(devs) <= tol), describe)


def first_witnesses(blocks: Iterable, rows: Callable, *tests: Callable[..., str]) -> list[str]:
    """Each test's first witness in the rows of the blocks, read in order, or "".

    rows(block) builds a block's rows and test(block, built) names their first offending
    entry, or gives "". A test with a witness is not asked again, and once every test has
    one no later block is built.
    """
    found = [""] * len(tests)
    for block in blocks:
        built = rows(block)
        found = [bad or test(block, built) for bad, test in zip(found, tests)]
        if all(found):
            break
    return found

"""Static checks on the package source, read with ast."""

import ast
from pathlib import Path

import pytest

import mubgeo

MODULES = sorted(p for p in Path(mubgeo.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names the source imports (from __future__ aside) and never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_are_found():
    source = "import os.path\nimport numpy as np\nfrom a import b, c as e\nnp.f(e)\n"
    assert unused_imports(source) == ["b", "os"]


def unused_privates(source: str) -> list[str]:
    """Module-level functions, classes and constants named _x that the module never reads."""
    tree = ast.parse(source)
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(t.id for t in targets if isinstance(t, ast.Name))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(n for n in defined - used if n.startswith("_") and not n.endswith("__"))


def test_unused_privates_are_found():
    source = "_A = 1\n_B: int = 2\n__all__ = []\nC = _B\n"
    source += "def _f():\n    return _g()\ndef _g(): pass\n"
    assert unused_privates(source) == ["_A", "_f"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_private_name_is_used(path):
    # a helper orphaned by a deletion fails here
    assert unused_privates(path.read_text()) == []


@pytest.mark.parametrize("name", ["geometry.py", "mub.py", "operators.py"])
def test_verifier_modules_cache_nothing(name):
    # a table cached on mod outlives a fault injected into the rule it was built from, and holds
    # its memory after the call; the verifiers evaluate their rules anew on each call
    tree = ast.parse((Path(mubgeo.__file__).parent / name).read_text())
    imported = {a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names}
    imported |= {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
    assert "functools" not in imported


# total lines of src/mubgeo while ROADMAP items 3, 4, 8 and 9 land; raise it only on purpose
SRC_LINE_BUDGET = 2160


def test_src_stays_within_its_line_budget():
    paths = Path(mubgeo.__file__).parent.glob("*.py")
    lines = sum(len(path.read_text().splitlines()) for path in paths)
    assert lines <= SRC_LINE_BUDGET, f"src/mubgeo has {lines} lines; budget {SRC_LINE_BUDGET}"


def exceeds_tolerance(source: str) -> list[int]:
    """Lines that fail a value only when it exceeds eps or tol (x > tol, tol < x and their >=, <=).

    nan compares false, so such a check passes a nan deviation; report.offending fails it.
    """
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Compare):
            continue
        sides = [node.left, *node.comparators]
        for left, op, right in zip(sides, node.ops, sides[1:]):
            bound = right if isinstance(op, (ast.Gt, ast.GtE)) else left  # the side exceeded
            names = {n.id for n in ast.walk(bound) if isinstance(n, ast.Name)}
            if isinstance(op, (ast.Gt, ast.GtE, ast.Lt, ast.LtE)) and names & {"eps", "tol"}:
                lines.append(node.lineno)
    return lines


def test_comparisons_with_a_tolerance_are_found():
    source = "a = x > eps\nb = 2 * tol <= y\nc = x <= tol\nd = x > 2 * y\ne = 0 < x >= d * eps\n"
    assert exceeds_tolerance(source) == [1, 2, 5]


@pytest.mark.parametrize("name", ["mub.py", "operators.py"])
def test_checks_decide_through_offending(name):
    # every float check of the verifiers fails a deviation not within its tolerance, nan included
    assert exceeds_tolerance((Path(mubgeo.__file__).parent / name).read_text()) == []


# the label checks: each returns the label, with int64 fields, that the views must read
LABEL_CHECKS = {"check_point", "check_line", "_slope_intercept", "check"}


def discarded_checks(source: str) -> list[int]:
    """Lines of a statement that calls a label check and drops the label it returns.

    A view that reads the caller's label instead computes in the caller's dtype, where it wraps.
    """
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            func = node.value.func
            if getattr(func, "attr", getattr(func, "id", None)) in LABEL_CHECKS:
                lines.append(node.lineno)
    return lines


def test_discarded_label_checks_are_found():
    source = "check_point(mod, p)\np = check_line(mod, q)\nself.check(mod, x)\n"
    source += "g._slope_intercept(mod, a)\nf(check_point(mod, p))\ncheck_eps(eps)\n"
    assert discarded_checks(source) == [1, 3, 4]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_label_check_is_read(path):
    assert discarded_checks(path.read_text()) == []

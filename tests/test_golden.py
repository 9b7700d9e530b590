"""Byte-identity of the CLI's output, pinned by SHA-256 digests in golden.json.

Each case runs cli.main in process and records its exit code and the digests of
its stdout and stderr. Regenerate golden.json only when a change of output is
intended, from the repository root:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from mubgeo import cli

GOLDEN = Path(__file__).with_name("golden.json")


def groups() -> dict[str, list[list[str]]]:
    """Argument lists by group: verify --scope all per d, show over every label per kind and d."""
    verify = [["verify", "--scope", "all", "--d", str(d)] for d in (3, 5, 7, 11, 13)]
    out = {f"verify d={argv[-1]}": [argv] for argv in verify}
    for d in (3, 5, 7):
        lines = [["--j", f"{a},{m0}"] for a in range(d) for m0 in range(d)]
        points = [["--alpha", f"{m},{b}"] for b in range(-1, d) for m in range(d)]
        for kind, labels in [
            ("line", lines),
            ("point", points),
            ("operator", lines + points),
            ("state", points),
        ]:
            out[f"show {kind} d={d}"] = [["show", kind, "--d", str(d), *x] for x in labels]
    return out


def run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    digest = lambda s: hashlib.sha256(s.getvalue().encode()).hexdigest()  # noqa: E731
    return {"exit": code, "stdout": digest(out), "stderr": digest(err)}


def record(group: list[list[str]]) -> dict:
    return {" ".join(argv): run(argv) for argv in group}


@pytest.mark.parametrize("name", list(groups()))
def test_output_matches_the_golden_digests(name):
    golden = json.loads(GOLDEN.read_text())
    assert record(groups()[name]) == golden[name]


def test_golden_file_covers_every_group():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(groups())


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({k: record(v) for k, v in groups().items()}, indent=1) + "\n")

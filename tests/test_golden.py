"""Byte-identity of the CLI's output, pinned by SHA-256 digests in golden.json.

Each case runs cli.main in process and records its exit code and the digests of
its stdout and stderr. The phase-space commands read input files that
write_inputs makes from a seeded generator, in the working directory, so their
argument lists name the same relative paths wherever the test runs.
Regenerate golden.json only when a change of output is intended, from the
repository root:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest

from mubgeo import cli

GOLDEN = Path(__file__).with_name("golden.json")
PHASE_SPACE_DIMS = (31, 41)


def _text(x: float) -> str:
    return format(float(x), ".17g")


def write_inputs(directory: Path) -> None:
    """For each d of PHASE_SPACE_DIMS: a Hermitian matrix JSON, a quasi CSV and a probability CSV.

    The matrix is exactly Hermitian, every probability column is normalised
    within rounding, and .17g round-trips each value, so every command accepts
    its input.
    """
    for d in PHASE_SPACE_DIMS:
        rng = np.random.default_rng(d)
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = (g + g.conj().T) / 2
        rows = lambda part: ",\n".join("[" + ", ".join(map(_text, r)) + "]" for r in part)  # noqa: E731
        (directory / f"matrix-{d}.json").write_text(
            f'{{"d": {d},\n"re": [{rows(h.real)}],\n"im": [{rows(h.imag)}]}}\n'
        )
        values = rng.standard_normal((d, d))
        quasi = [f"{a},{m0},{_text(values[a, m0])}" for a in range(d) for m0 in range(d)]
        (directory / f"quasi-{d}.csv").write_text("\n".join(["m_minus1,m0,value", *quasi]) + "\n")
        p = rng.random((d + 1, d))
        p /= p.sum(axis=1, keepdims=True)
        probs = [f"{m},{b},{_text(p[b + 1, m])}" for b in range(-1, d) for m in range(d)]
        (directory / f"probabilities-{d}.csv").write_text("\n".join(["m,b,value", *probs]) + "\n")


def groups() -> dict[str, list[list[str]]]:
    """Argument lists by group: verify --scope all per d, show over every label per kind and d,
    and map (csv and json), reconstruct and tomography per d on the inputs of write_inputs."""
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
    for d in PHASE_SPACE_DIMS:
        map_argv = ["map", "--d", str(d), "--input", f"matrix-{d}.json", "--format"]
        out[f"map d={d}"] = [map_argv + ["csv"], map_argv + ["json"]]
        out[f"reconstruct d={d}"] = [["reconstruct", "--d", str(d), "--input", f"quasi-{d}.csv"]]
        out[f"tomography d={d}"] = [["tomography", "--d", str(d), "--input", f"probabilities-{d}.csv"]]
    return out


def run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    digest = lambda s: hashlib.sha256(s.getvalue().encode()).hexdigest()  # noqa: E731
    return {"exit": code, "stdout": digest(out), "stderr": digest(err)}


def record(group: list[list[str]]) -> dict:
    return {" ".join(argv): run(argv) for argv in group}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("inputs")
    write_inputs(directory)
    return directory


@pytest.mark.parametrize("name", list(groups()))
def test_output_matches_the_golden_digests(name, inputs, monkeypatch):
    monkeypatch.chdir(inputs)
    golden = json.loads(GOLDEN.read_text())
    assert record(groups()[name]) == golden[name]


def test_golden_file_covers_every_group():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(groups())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        write_inputs(Path(scratch))
        os.chdir(scratch)
        GOLDEN.write_text(json.dumps({k: record(v) for k, v in groups().items()}, indent=1) + "\n")

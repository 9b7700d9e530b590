"""The harness's own test: every workload in smoke mode (d = 3, 5), both trace modes.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402
from reference import EXPECTED_CHECKS, check_verify, compare, tolerance  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Metrics named after a rung of a full-size ladder; smoke mode names its own rungs.
RUNG = re.compile(r"^(cli\..+\.d\d+\.\w+|verify\.checks_\w+\.d\d+)$")


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_is_correct_and_complete(workload, trace):
    out = _run("--workload", workload, "--smoke", "--seconds", "1", "--trace", str(trace), "--seed", "7")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    for metric in listed:
        if not RUNG.match(metric["name"]):
            assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert set(result["metrics"]) == set(run.per_layer_units("smoke") if trace else run.END_TO_END)


def test_benchmark_json_lists_what_the_harness_emits():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.per_layer_units("full")
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_gate_rejects_dropped_checks_and_wrong_numbers():
    checks = [{"axiom": name, "ok": True, "counterexample": ""} for name in EXPECTED_CHECKS]
    good = json.dumps({"d": 5, "passed": True, "checks": checks})
    assert check_verify(good, 5) == ([], len(EXPECTED_CHECKS), len(EXPECTED_CHECKS))
    dropped = json.dumps({"d": 5, "passed": True, "checks": checks[:-1]})
    assert check_verify(dropped, 5)[0]
    want = np.eye(5)
    assert compare("x", want + 0.1 * tolerance(5, 1.0), want, tolerance(5, 1.0)) == []
    assert compare("x", want + 1e-6, want, tolerance(5, 1.0))


def test_headroom_guard_refuses_when_memory_is_short(tmp_path):
    short = run.Run("phasespace-cli", 1, 1.0, False, "full", tmp_path)
    with pytest.raises(run.BenchmarkError, match="MemAvailable"):
        run.check_headroom(short, available=100.0)
    run.check_headroom(short, available=1e9)


def test_refuses_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    out = _run("--workload", "verify-ladder", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout

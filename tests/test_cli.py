import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from conftest import random_density

from mubgeo import cli
from mubgeo.core import Modulus
from mubgeo.io import (
    matrix_to_json,
    parse_matrix_json,
    parse_quasi_csv,
    probabilities_to_csv,
    quasi_to_csv,
)
from mubgeo.phasespace import map_operator, probabilities_from_state
from mubgeo.report import AxiomReport, Check

MOD3 = Modulus(3)

# every check of verify --scope all, in report order
ALL_CHECKS = [
    "dapg.counts",
    "dapg.lines_meet_once",
    "dapg.points_join_once",
    "dapg.degrees",
    "dapg.columns_partition",
    "dapg.cross_column_connected",
    "apg.counts",
    "apg.unique_join",
    "apg.parallel_postulate",
    "apg.parallel_classes",
    "apg.cross_class_meet_once",
    "apg.non_collinear_triple",
    "duality.pencil_common_point",
    "duality.class_to_column_bijection",
    "duality.point_pencil_roundtrip",
    "mub.eigenrelation",
    "mub.orthonormal",
    "mub.unbiased",
    "op.point_hermitian",
    "op.line_hermitian",
    "op.point_projector",
    "op.column_completeness",
    "op.global_sum",
    "op.line_sum",
    "op.point_from_lines",
    "op.line_trace",
    "op.line_gram",
    "op.line_involution",
    "op.cross_term_distillation",
    "op.point_route_equality",
    "op.line_route_equality",
    "op.point_gram_cases",
    "op.incidence_trace",
]


def run_cli(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "mubgeo", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def test_verify_all_small_prime():
    result = run_cli("verify", "--scope", "all", "--d", "3")
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["passed"] is True
    assert report["d"] == 3
    assert [c["axiom"] for c in report["checks"]] == ALL_CHECKS
    assert "checks passed" in result.stderr


def test_verify_rejects_composite():
    result = run_cli("verify", "--scope", "all", "--d", "6")
    assert result.returncode == 2
    assert "not prime" in result.stderr


def test_verify_rejects_two():
    result = run_cli("verify", "--scope", "geometry", "--d", "2")
    assert result.returncode == 2


def test_verify_scope_operators():
    result = run_cli("verify", "--scope", "operators", "--d", "5")
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert all(c["ok"] for c in report["checks"])
    assert "25 lines" in result.stderr


def test_verify_failure_exits_one(monkeypatch, capsys):
    failing = AxiomReport(3, (Check("dapg.counts", False, "synthetic"),))
    monkeypatch.setattr(cli, "verify_dapg_axioms", lambda mod: failing)
    code = cli.main(["verify", "--scope", "geometry", "--d", "3"])
    assert code == 1
    out = json.loads(capsys.readouterr().out)
    assert out["passed"] is False


def test_bad_eps_env_is_input_error(monkeypatch, capsys):
    monkeypatch.setenv("MUBGEO_EPS", "banana")
    assert cli.main(["verify", "--scope", "mub", "--d", "3"]) == 2


def test_eps_env_is_honored(monkeypatch):
    monkeypatch.setenv("MUBGEO_EPS", "1e-6")
    assert cli.main(["verify", "--scope", "mub", "--d", "3"]) == 0
    monkeypatch.setenv("MUBGEO_EPS", "-1")
    assert cli.main(["verify", "--scope", "mub", "--d", "3"]) == 2


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_non_finite_eps_is_input_error(monkeypatch, value):
    assert cli.main(["verify", "--scope", "mub", "--d", "3", "--eps", value]) == 2
    monkeypatch.setenv("MUBGEO_EPS", value)
    assert cli.main(["verify", "--scope", "mub", "--d", "3"]) == 2


def test_verify_refuses_eps_at_which_no_check_can_fail(monkeypatch, capsys):
    # at d = 3 the ceiling is 1/(2 d^2) = 1/18
    assert cli.main(["verify", "--scope", "all", "--d", "3", "--eps", "1e300"]) == 2
    assert "1/(2 d^2)" in capsys.readouterr().err
    monkeypatch.setenv("MUBGEO_EPS", "1e300")
    assert cli.main(["verify", "--scope", "all", "--d", "3"]) == 2
    assert "1/(2 d^2)" in capsys.readouterr().err
    monkeypatch.delenv("MUBGEO_EPS")
    assert cli.main(["verify", "--scope", "all", "--d", "3", "--eps", "1e-6"]) == 0


def test_verify_refuses_a_scope_beyond_physical_memory():
    start = time.monotonic()
    result = run_cli("verify", "--scope", "all", "--d", "1009")
    assert time.monotonic() - start < 1.0
    assert result.returncode == 2
    assert "physical memory" in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize("scope, d", [("all", 19), ("operators", 31), ("mub", 113)])
def test_verify_peak_estimate_covers_the_measured_peak(scope, d):
    # a fresh parent with one child, so RUSAGE_CHILDREN is that child's own peak (KiB); at
    # d = 113 the mub term exceeds the 64 MB floor
    code = (
        "import resource, subprocess, sys\n"
        f"argv = [sys.executable, '-m', 'mubgeo', 'verify', '--scope', {scope!r}, '--d', '{d}']\n"
        "subprocess.run(argv, stdout=subprocess.DEVNULL, check=True)\n"
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert int(result.stdout) * 1024 <= cli._peak_bytes(d, "verify", scope)


def test_verify_operators_estimate_covers_a_failing_run():
    # a scaled state and a shifted row of a line fail every bound of the sweep, so each exact
    # pass runs; the faulted child has no monkeypatch fixture, so plain setattr patches its
    # modules. As above, a fresh parent reads the child's own peak off RUSAGE_CHILDREN: a child
    # of pytest would report pytest's peak, which exec folds into the child's ru_maxrss
    faulted = (
        "import sys\n"
        "from types import SimpleNamespace\n"
        f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
        "from faults import inject\n"
        "from mubgeo import cli, geometry, mub\n"
        "def scale(answer):\n"
        "    answer[0] *= 1 + 1e-6\n"
        "def shift(answer):\n"
        "    answer[0][5] = (answer[0][5] + 1) % 31\n"
        "patch = SimpleNamespace(setattr=setattr)\n"
        "inject(patch, mub, '_states', (2, 2), scale)\n"
        "inject(patch, geometry, '_line_points', (1, 2), shift)\n"
        "sys.exit(cli.main(['verify', '--scope', 'operators', '--d', '31']))\n"
    )
    code = (
        "import resource, subprocess, sys\n"
        f"argv = [sys.executable, '-c', {faulted!r}]\n"
        "child = subprocess.run(argv, capture_output=True, text=True)\n"
        "sys.stderr.write(child.stderr)\n"
        "print(child.returncode, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert "2/15 checks passed" in result.stderr
    status, peak_kib = result.stdout.split()
    assert status == "1"
    assert int(peak_kib) * 1024 <= cli._peak_bytes(31, "verify", "operators")


def test_operator_battery_at_d101_fits_in_2_gib(monkeypatch):
    # the block battery is admitted
    monkeypatch.setattr(cli.os, "sysconf", lambda name: 2**19 if name == "SC_PHYS_PAGES" else 4096)
    monkeypatch.setattr(cli, "verify_operator_identities", lambda mod, eps: AxiomReport(mod.d, ()))
    assert cli.main(["verify", "--scope", "operators", "--d", "101"]) == 0


def test_verify_all_at_d101_fits_in_2_gib(monkeypatch, capsys):
    # the counting geometry checks hold O(d^3) entries, so no scope of --scope all is refused;
    # the Gram geometry checks were estimated at 6.4 GiB here
    monkeypatch.setattr(cli.os, "sysconf", lambda name: 2**19 if name == "SC_PHYS_PAGES" else 4096)
    for name in (
        "verify_dapg_axioms",
        "verify_apg_axioms",
        "verify_duality",
        "verify_eigenrelation",
        "verify_unbiasedness",
        "verify_operator_identities",
    ):
        monkeypatch.setattr(cli, name, lambda mod, eps=None: AxiomReport(mod.d, ()))
    assert cli._peak_bytes(101, "verify", "all") < 2**31
    assert cli.main(["verify", "--scope", "all", "--d", "101"]) == 0
    assert capsys.readouterr().err == "scope=all d=101: 0/0 checks passed (10302 points, 10201 lines swept)\n"


@pytest.mark.parametrize(
    "argv, what",
    [
        (["verify", "--scope", "mub", "--d", "3"], "verify --scope mub at d=3"),
        (["show", "operator", "--d", "3", "--j", "1,2"], "show operator at d=3"),
        (["show", "operator", "--d", "3", "--alpha", "1,2"], "show operator at d=3"),
    ],
)
def test_a_peak_beyond_physical_memory_is_refused(monkeypatch, capsys, argv, what):
    # 4 pages of 4 KiB: every estimate exceeds it
    monkeypatch.setattr(cli.os, "sysconf", lambda name: 4 if name == "SC_PHYS_PAGES" else 4096)
    assert cli.main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"error: {what} needs about 0.1 GiB, more than the 0.0 GiB")


def test_show_operator_peak_estimate_covers_the_measured_peak():
    # the point rule at a column b >= 0 is the largest show operator
    code = (
        "import resource, subprocess, sys\n"
        "argv = [sys.executable, '-m', 'mubgeo', 'show', 'operator', '--d', '1009']\n"
        "subprocess.run(argv + ['--alpha', '1,2'], stdout=subprocess.DEVNULL, check=True)\n"
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert int(result.stdout) * 1024 <= cli._peak_bytes(1009, "show", "operator")


# the per-label views of the array rules; verify must evaluate the rules over arrays
PER_LABEL = [
    "line_points",
    "lines_through_point",
    "apg_line_points",
    "duality_common_point",
    "point_operator_direct",
    "line_operator_direct",
    "mub_state",
]


@pytest.mark.parametrize("d", [5, 7])
def test_verify_calls_no_per_label_function(monkeypatch, capsys, d):
    def refuse(*args):
        raise AssertionError("verify evaluated a rule one label at a time")

    modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "mubgeo"]
    for module in modules:
        for name in PER_LABEL:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    assert cli.main(["verify", "--scope", "all", "--d", str(d)]) == 0
    assert "33/33 checks passed" in capsys.readouterr().err


def test_verify_does_not_import_numpy_ma():
    code = (
        "import contextlib, io, sys\n"
        "from mubgeo.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['verify', '--scope', 'all', '--d', '3']) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_show_line():
    result = run_cli("show", "line", "--d", "3", "--j", "1,2")
    assert result.returncode == 0
    assert result.stdout == "1,-1\n2,0\n1,1\n0,2\n"


def test_show_point():
    result = run_cli("show", "point", "--d", "3", "--alpha", "0,2")
    assert result.returncode == 0
    assert result.stdout == "0,1\n1,2\n2,0\n"


def test_show_operator_line():
    result = run_cli("show", "operator", "--d", "3", "--j", "1,2")
    assert result.returncode == 0
    matrix = parse_matrix_json(result.stdout)
    w = np.exp(2j * np.pi / 3)
    expected = np.array([[0, 0, w], [0, 1, 0], [w**2, 0, 0]])
    assert np.abs(matrix - expected).max() <= 1e-10


def test_show_operator_point():
    result = run_cli("show", "operator", "--d", "3", "--alpha", "1,-1")
    assert result.returncode == 0
    assert np.array_equal(parse_matrix_json(result.stdout), np.diag([0, 1, 0]).astype(complex))


def test_show_state_is_column_vector():
    result = run_cli("show", "state", "--d", "3", "--alpha", "0,0")
    assert result.returncode == 0
    data = json.loads(result.stdout)
    assert data["d"] == 3
    assert len(data["re"]) == 3 and len(data["re"][0]) == 1


def test_show_label_out_of_range():
    result = run_cli("show", "line", "--d", "3", "--j", "5,0")
    assert result.returncode == 2
    assert "invalid line label" in result.stderr


def test_show_operator_needs_one_label():
    result = run_cli("show", "operator", "--d", "3")
    assert result.returncode == 2


def test_missing_subcommand_is_usage_error():
    result = run_cli()
    assert result.returncode == 2


def test_map_output_and_byte_stability(tmp_path):
    source = tmp_path / "mixed.json"
    source.write_text(matrix_to_json(np.eye(3, dtype=complex) / 3))
    first = run_cli("map", "--d", "3", "--input", str(source))
    second = run_cli("map", "--d", "3", "--input", str(source))
    assert first.returncode == 0
    assert first.stdout == second.stdout
    rows = first.stdout.splitlines()
    assert rows[0] == "m_minus1,m0,value"
    assert len(rows) == 10


def test_map_json_format(tmp_path):
    source = tmp_path / "mixed.json"
    source.write_text(matrix_to_json(np.eye(3, dtype=complex) / 3))
    result = run_cli("map", "--d", "3", "--input", str(source), "--format", "json")
    assert result.returncode == 0
    assert json.loads(result.stdout)["d"] == 3


def test_map_rejects_non_hermitian(tmp_path):
    matrix = np.eye(3, dtype=complex)
    matrix[0, 2] = 0.25
    source = tmp_path / "skew.json"
    source.write_text(matrix_to_json(matrix))
    result = run_cli("map", "--d", "3", "--input", str(source))
    assert result.returncode == 2
    assert "not Hermitian" in result.stderr
    assert "(0,2)" in result.stderr or "(2,0)" in result.stderr


def test_map_refuses_a_norm_past_the_float_range(tmp_path):
    # entries 2e306 e^(2 pi i theta) at d = 101: exit 2 with the reason alone, nothing from numpy
    d = 101
    theta = np.random.default_rng(0).uniform(size=(d, d))
    source = tmp_path / "huge.json"
    source.write_text(matrix_to_json(2e306 * np.exp(2j * np.pi * theta)))
    result = run_cli("map", "--d", str(d), "--input", str(source))
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == "error: input's Frobenius norm exceeds the float max / d = 1.78e+306\n"


def test_map_refuses_an_integer_entry_past_the_float_range(tmp_path):
    # exit 2 with the entry refusal, not a traceback and exit 1
    source = tmp_path / "huge.json"
    zeros = [[0] * 3 for _ in range(3)]
    source.write_text(json.dumps({"d": 3, "re": [[10**400, 0, 0], *zeros[1:]], "im": zeros}))
    result = run_cli("map", "--d", "3", "--input", str(source))
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: matrix entry 1000")
    assert result.stderr.endswith(" is not a finite number\n")


def test_map_rejects_missing_file(tmp_path):
    result = run_cli("map", "--d", "3", "--input", str(tmp_path / "absent.json"))
    assert result.returncode == 2


def test_map_rejects_dimension_mismatch(tmp_path):
    source = tmp_path / "five.json"
    source.write_text(matrix_to_json(np.eye(5, dtype=complex) / 5))
    result = run_cli("map", "--d", "3", "--input", str(source))
    assert result.returncode == 2


def test_map_reconstruct_round_trip(tmp_path, rng):
    rho = random_density(rng, 3)
    source = tmp_path / "rho.json"
    quasi_path = tmp_path / "rho.csv"
    source.write_text(matrix_to_json(rho))
    assert run_cli("map", "--d", "3", "--input", str(source), "--output", str(quasi_path)).returncode == 0
    result = run_cli("reconstruct", "--d", "3", "--input", str(quasi_path))
    assert result.returncode == 0
    assert np.abs(parse_matrix_json(result.stdout) - rho).max() <= 1e-10


def test_reconstruct_missing_row(tmp_path):
    source = tmp_path / "partial.csv"
    source.write_text("m_minus1,m0,value\n0,0,1.0\n")
    result = run_cli("reconstruct", "--d", "3", "--input", str(source))
    assert result.returncode == 2
    assert "missing" in result.stderr


@pytest.mark.parametrize(
    "command, text, message",
    [
        (
            "reconstruct",
            "m_minus1,m0,value\n0,0,1.0\n",
            "400440120 line labels missing (first: (0,1), (0,2), (0,3), (0,4))",
        ),
        (
            "tomography",
            "m,b,value\n0,-1,1.0\n",
            "400460131 point labels missing (first: (1,-1), (2,-1), (3,-1), (4,-1))",
        ),
    ],
)
def test_one_row_file_is_refused_at_once_at_large_d(tmp_path, command, text, message):
    # a table sized by --d = 20011 would take several GB; the parser builds none
    source = tmp_path / "one_row.csv"
    source.write_text(text)
    start = time.monotonic()
    result = run_cli(command, "--d", "20011", "--input", str(source))
    assert time.monotonic() - start < 1.0
    assert result.returncode == 2
    assert result.stderr == f"error: {message}\n"


def test_tomography_round_trip(tmp_path, rng):
    rho = random_density(rng, 3)
    probs = probabilities_from_state(MOD3, rho)
    source = tmp_path / "probs.csv"
    source.write_text(probabilities_to_csv(probs))
    quasi_path = tmp_path / "v.csv"
    matrix_path = tmp_path / "rho.json"
    result = run_cli(
        "tomography",
        "--d", "3",
        "--input", str(source),
        "--output-quasi", str(quasi_path),
        "--output-matrix", str(matrix_path),
    )
    assert result.returncode == 0
    rebuilt = parse_matrix_json(matrix_path.read_text())
    assert np.abs(rebuilt - rho).max() <= 3e-10
    quasi = parse_quasi_csv(quasi_path.read_text(), MOD3)
    assert quasi.normalization() == pytest.approx(1, abs=1e-10)


def test_tomography_rejects_unnormalized(tmp_path):
    rows = ["m,b,value"]
    for b in range(-1, 3):
        for m in range(3):
            rows.append(f"{m},{b},0.3")
    source = tmp_path / "bad.csv"
    source.write_text("\n".join(rows) + "\n")
    result = run_cli("tomography", "--d", "3", "--input", str(source))
    assert result.returncode == 2
    assert "b=-1" in result.stderr


@pytest.mark.parametrize(
    "exc, line",
    [
        (MemoryError(), "error: out of memory at d=3\n"),
        (
            MemoryError("Unable to allocate 8.00 GiB"),
            "error: out of memory at d=3: Unable to allocate 8.00 GiB\n",
        ),
    ],
    ids=["bare", "numpy"],
)
def test_memory_error_is_refused_with_exit_two(monkeypatch, capsys, tmp_path, exc, line):
    source = tmp_path / "mixed.csv"
    source.write_text(quasi_to_csv(map_operator(MOD3, np.eye(3) / 3)))

    def exhausted(quasi):
        raise exc

    monkeypatch.setattr(cli, "reconstruct", exhausted)
    assert cli.main(["reconstruct", "--d", "3", "--input", str(source)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == line

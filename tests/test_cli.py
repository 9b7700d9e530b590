import json
import subprocess
import sys

import numpy as np
import pytest
from conftest import random_density

from mubgeo import cli
from mubgeo.core import Modulus
from mubgeo.io import matrix_to_json, parse_matrix_json, parse_quasi_csv, probabilities_to_csv
from mubgeo.phasespace import probabilities_from_state
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

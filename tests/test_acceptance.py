"""End-to-end checks for the quantities the package promises to get right.

Each test prints exactly one PASS/FAIL line (visible under ``pytest -s``) so a
full run doubles as a checklist.
"""

import json
import subprocess
import sys
import time

import numpy as np
from conftest import random_density, random_hermitian_trace_one
from oracle import line_operator_sum, point_operator, probabilities

from mubgeo.core import DEFAULT_EPS, Modulus
from mubgeo.geometry import Line, Point, verify_apg_axioms, verify_dapg_axioms, verify_duality
from mubgeo.io import matrix_to_json, parse_matrix_json, parse_quasi_csv, probabilities_to_csv
from mubgeo.mub import mub_state, verify_eigenrelation, verify_unbiasedness
from mubgeo.operators import (
    line_operator_direct,
    point_operator_direct,
    verify_operator_identities,
)
from mubgeo.phasespace import (
    MubProbabilities,
    map_operator,
    pair_expectation,
    probabilities_from_state,
    quasi_from_probabilities,
    reconstruct,
)

W = np.exp(2j * np.pi / 3)


class criterion:
    """Prints one ``ACCEPTANCE n <label>: PASS|FAIL`` line per block."""

    def __init__(self, number, label):
        self.tag = f"ACCEPTANCE {number} {label}"

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"{self.tag}: {verdict}")
        return False


def test_acceptance_1_reference_operators_d3():
    with criterion(1, "d=3 reference operators within 1e-10"):
        mod = Modulus(3)
        tol = 1e-10

        fixtures = {
            Point(1, -1): np.diag([0, 1, 0]).astype(complex),
            Point(2, 0): np.array([[1, W**2, W], [W, 1, W**2], [W**2, W, 1]]) / 3,
            Point(1, 1): np.array([[1, W, W], [W**2, 1, 1], [W**2, 1, 1]]) / 3,
            Point(0, 2): np.array([[1, 1, W], [1, 1, W], [W**2, W**2, 1]]) / 3,
        }
        for alpha, expected in fixtures.items():
            for route in (point_operator, point_operator_direct):
                assert np.abs(route(mod, alpha) - expected).max() <= tol

        line_fixtures = {
            Line(1, 2): np.array([[0, 0, W], [0, 1, 0], [W**2, 0, 0]]),
            Line(0, 1): np.array([[1, 0, 0], [0, 0, W], [0, W**2, 0]]),
            Line(2, 0): np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]]),
        }
        for j, expected in line_fixtures.items():
            for route in (line_operator_sum, line_operator_direct):
                assert np.abs(route(mod, j) - expected).max() <= tol

        # independent oracle: rebuild one line operator from raw projectors,
        # with the incidence list written out by hand
        points = [Point(2, -1), Point(0, 0), Point(0, 1), Point(0, 2)]
        oracle = -np.eye(3, dtype=complex)
        for alpha in points:
            state = mub_state(mod, alpha.b, alpha.m)
            oracle += np.outer(state, state.conj())
        assert np.abs(oracle - line_fixtures[Line(2, 0)]).max() <= tol

        average = (
            line_operator_sum(mod, Line(0, 1))
            + line_operator_sum(mod, Line(1, 2))
            + line_operator_sum(mod, Line(2, 0))
        ) / 3
        assert np.abs(average - fixtures[Point(0, 2)]).max() <= tol


def test_acceptance_2_geometry_axioms_through_d13():
    with criterion(2, "geometry axioms for d in {3,5,7,11,13}"):
        start = time.perf_counter()
        for d in (3, 5, 7, 11, 13):
            mod = Modulus(d)
            for report in (verify_dapg_axioms(mod), verify_apg_axioms(mod), verify_duality(mod)):
                assert report.passed, report.to_json()
        assert time.perf_counter() - start < 10


def test_acceptance_3_mub_family_through_d13():
    with criterion(3, "eigenrelation and unbiasedness for d in {3,5,7,11,13}"):
        for d in (3, 5, 7, 11, 13):
            mod = Modulus(d)
            assert verify_eigenrelation(mod, eps=1e-10).passed
            assert verify_unbiasedness(mod, eps=1e-10).passed


def test_acceptance_4_operator_identities_through_d11():
    with criterion(4, "operator identity battery for d in {3,5,7,11}"):
        for d in (3, 5, 7, 11):
            report = verify_operator_identities(Modulus(d), eps=1e-10)
            assert report.passed, report.to_json()


def test_acceptance_5_phase_space_round_trips():
    with criterion(5, "map/reconstruct/pairing/tomography on random inputs"):
        start = time.perf_counter()
        for d in (3, 5, 7):
            mod = Modulus(d)
            rng = np.random.default_rng(900 + d)
            for _ in range(100):
                hermitian = random_hermitian_trace_one(rng, d)
                quasi = map_operator(mod, hermitian)
                assert abs(quasi.normalization() - 1) <= d * d * DEFAULT_EPS
                assert np.abs(reconstruct(quasi) - hermitian).max() <= 1e-10

                other = random_hermitian_trace_one(rng, d)
                lhs = pair_expectation(quasi, map_operator(mod, other))
                rhs = np.trace(hermitian @ other).real
                assert abs(lhs - rhs) <= d * d * 1e-10

                probs = MubProbabilities(mod, probabilities(mod, hermitian))  # not PSD
                tomographic = quasi_from_probabilities(probs)
                assert np.abs(tomographic.values - quasi.values).max() <= d * 1e-10
        assert time.perf_counter() - start < 30


def test_acceptance_6_cli_round_trip(tmp_path):
    with criterion(6, "CLI verify/map/reconstruct/tomography round trip"):
        def run(*args):
            return subprocess.run(
                [sys.executable, "-m", "mubgeo", *args],
                capture_output=True,
                text=True,
            )

        verify = run("verify", "--scope", "all", "--d", "3")
        assert verify.returncode == 0
        assert json.loads(verify.stdout)["passed"] is True
        assert run("verify", "--scope", "all", "--d", "6").returncode == 2

        rho = random_density(np.random.default_rng(906), 3)
        source = tmp_path / "rho.json"
        source.write_text(matrix_to_json(rho))
        first = run("map", "--d", "3", "--input", str(source))
        second = run("map", "--d", "3", "--input", str(source))
        assert first.returncode == 0
        assert first.stdout == second.stdout

        quasi_path = tmp_path / "rho.csv"
        quasi_path.write_text(first.stdout)
        rebuilt = run("reconstruct", "--d", "3", "--input", str(quasi_path))
        assert rebuilt.returncode == 0
        assert np.abs(parse_matrix_json(rebuilt.stdout) - rho).max() <= 1e-10

        probs_path = tmp_path / "probs.csv"
        probs_path.write_text(probabilities_to_csv(probabilities_from_state(Modulus(3), rho)))
        tomo = run("tomography", "--d", "3", "--input", str(probs_path), "--output-quasi", str(quasi_path))
        assert tomo.returncode == 0
        direct = parse_quasi_csv(first.stdout, Modulus(3))
        recovered = parse_quasi_csv(quasi_path.read_text(), Modulus(3))
        assert np.abs(recovered.values - direct.values).max() <= 3 * 1e-10

"""Reference answers, file formats and the correctness gate of the benchmark.

Nothing here imports mubgeo: the expected coefficients come from the closed
form of the line operators (entry omega^(-(n - n') m0) where
n + n' = 2 m_minus1 mod d), and the expected probabilities from the Gauss-phase
basis states, so a wrong answer from the package cannot also be the reference.
"""

from __future__ import annotations

import json
import math

import numpy as np

# The check names of `mubgeo verify --scope all`, in report order. A run that
# drops, renames or reorders a check fails the gate, so removing checks cannot
# pass as a speed-up.
EXPECTED_CHECKS = (
    "dapg.counts", "dapg.lines_meet_once", "dapg.points_join_once", "dapg.degrees",
    "dapg.columns_partition", "dapg.cross_column_connected",
    "apg.counts", "apg.unique_join", "apg.parallel_postulate", "apg.parallel_classes",
    "apg.cross_class_meet_once", "apg.non_collinear_triple",
    "duality.pencil_common_point", "duality.class_to_column_bijection",
    "duality.point_pencil_roundtrip",
    "mub.eigenrelation", "mub.orthonormal", "mub.unbiased",
    "op.point_hermitian", "op.line_hermitian", "op.point_projector",
    "op.column_completeness", "op.global_sum", "op.line_sum", "op.point_from_lines",
    "op.line_trace", "op.line_gram", "op.line_involution", "op.cross_term_distillation",
    "op.point_route_equality", "op.line_route_equality", "op.point_gram_cases",
    "op.incidence_trace",
)

# Float64 round-off of a length-d sum of entries bounded by the input norm is
# about d * 1e-16 * norm; the gate allows a thousand times that.
TOL_UNIT = 1e-13

QUASI_HEADER = "m_minus1,m0,value"
PROBABILITY_HEADER = "m,b,value"


def tolerance(d: int, norm: float) -> float:
    """Largest entrywise error accepted for an answer of size `norm` at dimension d."""
    return TOL_UNIT * d * max(1.0, norm)


def _omega_table(d: int) -> np.ndarray:
    return np.exp(2j * np.pi * np.arange(d) / d)


class Reference:
    """Closed-form coefficients and probabilities for one dimension, O(d^3) per state."""

    def __init__(self, d: int) -> None:
        self.d = d
        omega = _omega_table(d)
        a = np.arange(d)[:, None]
        n = np.arange(d)[None, :]
        # Line (a, m0) is supported on n + n' = 2a with phase omega^(-(n - n') m0).
        self._partner = (2 * a - n) % d
        diff = (n - self._partner) % d
        m0 = np.arange(d)
        self._line_phase = omega[(-diff[:, :, None] * m0[None, None, :]) % d]
        # Basis b >= 0, state m: omega^(half(b) n(n-1) - n m) / sqrt(d); basis -1 is the identity.
        half = pow(2, -1, d)
        nn = np.arange(d)[:, None, None]
        bb = np.arange(d)[None, :, None]
        mm = np.arange(d)[None, None, :]
        expo = ((bb * half % d) * (nn * (nn - 1)) - nn * mm) % d
        self._bases = (omega[expo] / math.sqrt(d)).reshape(d, d * d)

    def quasi(self, matrix: np.ndarray) -> np.ndarray:
        """Coefficients tr(B P_(a, m0)) as a real d x d table."""
        gathered = matrix[self._partner, np.arange(self.d)[None, :]]
        return np.einsum("an,anm->am", gathered, self._line_phase).real

    def probabilities(self, rho: np.ndarray) -> np.ndarray:
        """Outcome probabilities as a (d+1) x d table, row b+1 holding basis b."""
        d = self.d
        out = np.empty((d + 1, d))
        out[0] = np.diag(rho).real
        out[1:] = np.sum(self._bases.conj() * (rho @ self._bases), axis=0).real.reshape(d, d)
        return out


def random_density(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


# --- file formats read and written by `mubgeo` -------------------------------

def matrix_json(matrix: np.ndarray) -> str:
    return json.dumps({"d": matrix.shape[0], "re": matrix.real.tolist(), "im": matrix.imag.tolist()})


def quasi_csv(values: np.ndarray) -> str:
    d = values.shape[0]
    rows = [QUASI_HEADER] + [f"{a},{b},{float(values[a, b])!r}" for a in range(d) for b in range(d)]
    return "\n".join(rows) + "\n"


def probabilities_csv(values: np.ndarray) -> str:
    d = values.shape[1]
    rows = [PROBABILITY_HEADER] + [
        f"{m},{b},{float(values[b + 1, m])!r}" for b in range(-1, d) for m in range(d)
    ]
    return "\n".join(rows) + "\n"


def parse_matrix(text: str, d: int) -> np.ndarray:
    data = json.loads(text)
    if data.get("d") != d:
        raise ValueError(f"matrix has d={data.get('d')!r}, expected {d}")
    matrix = np.array(data["re"], dtype=float) + 1j * np.array(data["im"], dtype=float)
    if matrix.shape != (d, d):
        raise ValueError(f"matrix has shape {matrix.shape}, expected {(d, d)}")
    return matrix


def parse_quasi(text: str, d: int) -> np.ndarray:
    lines = text.splitlines()
    if not lines or lines[0] != QUASI_HEADER:
        raise ValueError("quasi-distribution CSV lacks its header")
    rows = lines[1:]
    expected = [f"{a},{b}" for a in range(d) for b in range(d)]
    if [r.rsplit(",", 1)[0] for r in rows] != expected:
        raise ValueError("quasi-distribution CSV rows are not the d^2 labels in order")
    return np.array([float(r.rsplit(",", 1)[1]) for r in rows]).reshape(d, d)


# --- the gate ----------------------------------------------------------------

def check_verify(report_text: str, d: int) -> tuple[list[str], int, int]:
    """Problems with a `verify --scope all` report, and its (total, passed) counts."""
    try:
        report = json.loads(report_text)
    except json.JSONDecodeError as exc:
        return [f"verify d={d}: report is not JSON ({exc})"], 0, 0
    checks = report.get("checks", [])
    names = tuple(c.get("axiom") for c in checks)
    passed = sum(1 for c in checks if c.get("ok") is True)
    problems = []
    if report.get("d") != d:
        problems.append(f"verify d={d}: report is for d={report.get('d')!r}")
    if names != EXPECTED_CHECKS:
        problems.append(f"verify d={d}: check names differ from the expected {len(EXPECTED_CHECKS)}")
    if passed != len(checks) or report.get("passed") is not True:
        problems.append(f"verify d={d}: {len(checks) - passed} checks failed")
    return problems, len(checks), passed


def compare(label: str, got: np.ndarray, want: np.ndarray, tol: float) -> list[str]:
    if got.shape != want.shape:
        return [f"{label}: shape {got.shape}, expected {want.shape}"]
    err = float(np.abs(got - want).max())
    if not err <= tol:
        return [f"{label}: max error {err:.3e} exceeds {tol:.3e}"]
    return []

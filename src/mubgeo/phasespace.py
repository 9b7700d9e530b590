"""Quasi-distributions over the line set, exact reconstruction, and tomography.

A Hermitian operator B maps to real coefficients V(j) = tr(B P_j), one per
line. The map inverts exactly: B = (1/d) sum_j V(j) P_j. Expectation values
reduce to the pairing tr(rho B) = (1/d) sum_j V_rho(j) V_B(j), and the
coefficients of a state are recoverable from its basis-measurement
probabilities alone: V(j) = sum over the points of j of p(point), minus 1.

No operator is built. P_(a, m0) is supported on the anti-diagonal n + n' = 2a
with phases omega^(-(n - n') m0), so the map is one length-d FFT per
anti-diagonal and reconstruction its inverse; probabilities and tomography
follow the incidence rule of the dual plane one column at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_EPS, Modulus, as_square_matrix, hermiticity_defect
from .errors import (
    ColumnNotNormalizedError,
    DimensionMismatchError,
    IncompleteProbabilitiesError,
    MissingLineError,
    NonHermitianInputError,
)
from .geometry import Line, Point, check_line, check_point, line_row, lines_through_point


@dataclass(frozen=True, eq=False)
class QuasiDistribution:
    """Real coefficients indexed by line labels: values[m_minus1, m0]."""

    mod: Modulus
    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values)
        if np.iscomplexobj(arr):
            raise ValueError("quasi-distribution values must be real")
        arr = arr.astype(float)
        d = self.mod.d
        if arr.shape != (d, d):
            raise MissingLineError(
                f"need one value per line, a {d}x{d} table; got shape {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("quasi-distribution values must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def value(self, line: Line) -> float:
        check_line(self.mod, line)
        return float(self.values[line.m_minus1, line.m0])

    def normalization(self) -> float:
        """(1/d) times the sum of all values; equals the trace of the mapped operator."""
        return float(self.values.sum() / self.mod.d)


@dataclass(frozen=True, eq=False)
class MubProbabilities:
    """Basis-measurement probabilities indexed by point labels: values[b+1, m]."""

    mod: Modulus
    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values)
        if np.iscomplexobj(arr):
            raise ValueError("probabilities must be real")
        arr = arr.astype(float)
        d = self.mod.d
        if arr.shape != (d + 1, d):
            raise IncompleteProbabilitiesError(
                f"need one value per point, a {d + 1}x{d} table; got shape {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("probabilities must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def value(self, point: Point) -> float:
        check_point(self.mod, point)
        return float(self.values[point.b + 1, point.m])

    def column_sums(self) -> np.ndarray:
        """Sum over m for each column b = -1..d-1; each must be 1 for a true state."""
        return self.values.sum(axis=1)

    def check_range(self, eps: float = DEFAULT_EPS) -> None:
        """Require every value inside [-eps, 1 + eps]."""
        lo = float(self.values.min())
        hi = float(self.values.max())
        if lo < -eps or hi > 1.0 + eps:
            raise ValueError(f"probabilities outside [0, 1]: min {lo:.6g}, max {hi:.6g}")


def _line_coefficients(b: np.ndarray) -> np.ndarray:
    """tr(B P_(a, m0)) for every line as a d x d table.

    V(a, m0) = omega^(2 a m0) times the FFT of the anti-diagonal
    c_a[n] = B[2a - n, n], read at frequency 2 m0.
    """
    d = len(b)
    k = np.arange(d)
    a = k[:, None]
    spectrum = np.fft.fft(b[(2 * a - k) % d, k], axis=1)
    return spectrum[:, 2 * k % d] * np.exp(2j * np.pi * (2 * a * k % d) / d)


def _rows_by_column(mod: Modulus):
    """For each column b = -1..d-1, the row where every line crosses it (a d x d table)."""
    line = Line(*np.ogrid[: mod.d, : mod.d])
    yield np.broadcast_to(line.m_minus1, (mod.d, mod.d))
    for b in range(mod.d):
        yield line_row(mod, line, b)


def map_operator(mod: Modulus, matrix, eps: float = DEFAULT_EPS) -> QuasiDistribution:
    """Coefficients tr(B P_j) of a Hermitian matrix B over all lines.

    Hermiticity and the imaginary residue are held to eps * max(1, |B|_F).
    """
    b = as_square_matrix(matrix, mod.d)
    tol = eps * max(1.0, float(np.hypot.reduce(np.abs(b), axis=None)))  # |B|_F, no overflow
    defect, (i, j) = hermiticity_defect(b)
    if defect > tol:
        raise NonHermitianInputError(
            f"input is not Hermitian within {tol:g}:"
            f" max asymmetry {defect:.3e} at entry ({i},{j})"
        )
    vals = _line_coefficients(b)
    worst_imag = float(np.abs(vals.imag).max())
    if worst_imag > tol:
        raise NonHermitianInputError(f"coefficients carry imaginary part {worst_imag:.3e}")
    return QuasiDistribution(mod, vals.real)


def reconstruct(quasi: QuasiDistribution) -> np.ndarray:
    """The unique Hermitian matrix whose coefficients are the given values.

    B[n, n'] = (1/d) sum_m0 V(half(n + n'), m0) omega^(-(n - n') m0): the FFT
    of V along m0, read at row half(n + n') and frequency n - n'.
    """
    mod = quasi.mod
    n, k = np.indices((mod.d, mod.d))
    spectrum = np.fft.fft(quasi.values, axis=1)
    return spectrum[mod.half(n + k), (n - k) % mod.d] / mod.d


def pair_expectation(first: QuasiDistribution, second: QuasiDistribution) -> float:
    """(1/d) sum of products of coefficients; equals tr of the operator product."""
    if first.mod != second.mod:
        raise DimensionMismatchError(
            f"cannot pair distributions for d={first.mod.d} and d={second.mod.d}"
        )
    return float((first.values * second.values).sum() / first.mod.d)


def validate_density_matrix(
    mod: Modulus, matrix, eps: float = DEFAULT_EPS, check_psd: bool = True
) -> np.ndarray:
    """Require a Hermitian trace-one matrix; optionally require it PSD as well."""
    rho = as_square_matrix(matrix, mod.d)
    defect, (i, j) = hermiticity_defect(rho)
    if defect > eps:
        raise NonHermitianInputError(
            f"state is not Hermitian within {eps:g}:"
            f" max asymmetry {defect:.3e} at entry ({i},{j})"
        )
    trace = complex(np.trace(rho))
    if abs(trace - 1.0) > mod.d * eps:
        raise ValueError(f"state must have unit trace, got {trace:.12g}")
    if check_psd:
        lowest = float(np.linalg.eigvalsh(rho).min())
        if lowest < -mod.d * eps:
            raise ValueError(f"state has negative eigenvalue {lowest:.6g}")
    return rho


def probabilities_from_state(
    mod: Modulus, rho, eps: float = DEFAULT_EPS, check_psd: bool = True
) -> MubProbabilities:
    """Outcome probabilities tr(rho A) for every basis state projector A.

    A projector is the average of the d line operators through its point, so
    p(alpha) = (1/d) sum over the lines j through alpha of V(j).
    """
    rho = validate_density_matrix(mod, rho, eps, check_psd)
    coefficients = _line_coefficients(rho)
    vals = np.zeros((mod.d + 1, mod.d), dtype=complex)
    for column, rows in zip(vals, _rows_by_column(mod)):
        np.add.at(column, rows, coefficients)
    vals /= mod.d
    worst_imag = float(np.abs(vals.imag).max())
    if worst_imag > eps:
        raise NonHermitianInputError(f"probabilities carry imaginary part {worst_imag:.3e}")
    return MubProbabilities(mod, vals.real)


def quasi_from_probabilities(
    probs: MubProbabilities, eps: float = DEFAULT_EPS
) -> QuasiDistribution:
    """Tomography: coefficients from measured probabilities alone.

    Each column must sum to 1 within eps (every basis is measured completely);
    then V(j) is the sum of the d+1 incident probabilities minus 1.
    """
    mod = probs.mod
    sums = probs.column_sums()
    off = np.abs(sums - 1.0)
    worst = int(np.argmax(off))
    if off[worst] > eps:
        raise ColumnNotNormalizedError(
            f"column b={worst - 1} sums to {sums[worst]:.12g}, expected 1 within {eps:g}"
        )
    vals = sum(column[rows] for column, rows in zip(probs.values, _rows_by_column(mod)))
    return QuasiDistribution(mod, vals - 1.0)


def marginalize(quasi: QuasiDistribution, point: Point) -> float:
    """(1/d) times the sum of coefficients over the lines through the point.

    Recovers the outcome probability of that point for a state's distribution.
    """
    lines = lines_through_point(quasi.mod, point)
    return float(sum(quasi.values[line] for line in lines) / quasi.mod.d)

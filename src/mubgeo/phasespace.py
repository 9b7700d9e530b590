"""Quasi-distributions over the line set, exact reconstruction, and tomography.

A Hermitian operator B maps to real coefficients V(j) = tr(B P_j), one per
line. The map inverts exactly: B = (1/d) sum_j V(j) P_j. Expectation values
reduce to the pairing tr(rho B) = (1/d) sum_j V_rho(j) V_B(j), and the
coefficients of a state are recoverable from its basis-measurement
probabilities alone: V(j) = sum over the points of j of p(point), minus 1.

No operator is built. P_(a, m0) is supported on the anti-diagonal n + n' = 2a
with phases omega^(-(n - n') m0), so the map is one length-d FFT per
anti-diagonal and reconstruction its inverse. Each basis b >= 0 is a chirp
omega^(half(b) n(n-1)) times a DFT, so its probabilities are one FFT along each
diagonal rho[n, n + k], read at frequency -bk and phased by
omega^(half(b) k(k-1)), then one FFT along k: O(d^2 log d). Tomography inverts
the pencil sums as Fourier slices of FFT2(V) (Fourier-slice theorem).

A state must be positive semidefinite: no eigenvalue below -d eps. A Cholesky
factor of rho + (d eps / 2) I proves that in O(d^3 / 3) where the shift exceeds
the factorisation's rounding; where it does not, or the factorisation fails,
eigvalsh decides as the only evidence, so verdicts and messages are its own.

The index and phase tables of these transforms depend on d alone. Each kernel
builds the ones it reads once per process, keeps them read-only, and holds
them for the last four d it was called with, so that a sweep over d does not
keep every table it built. The map kernel reads the anti-diagonal gather
index, the frequency pick and the phases omega^(2ak) (24 d^2 + 8 d bytes); the
probability kernel the diagonal gather, the frequency pick and the chirp phases
(32 d^2 bytes); tomography the slice index and phases (24 d (d+1) bytes);
reconstruct its index (8 d^2 bytes). That is 88 d^2 + 32 d bytes for one d,
86 KB at d = 31, 14 MB at d = 401 and 90 MB at d = 1009. The tables of map,
reconstruct and tomography are the arrays those kernels used to build on every
call, so their results keep their bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import DEFAULT_EPS, Modulus, as_square_matrix, check_eps, hermiticity_defect
from .errors import (
    ColumnNotNormalizedError,
    DimensionMismatchError,
    IncompleteProbabilitiesError,
    MissingLineError,
    NonHermitianInputError,
    NormOutOfRangeError,
)
from .geometry import check_line, check_point


@dataclass(frozen=True, eq=False)
class _LabelTable:
    """A read-only table of one real, finite value per label of one dual-plane label set.

    A subclass states each fact of its table once, for this class and io's CSV reader and writer:
    the noun of its messages, the label word, the error of a table that misses labels, the rows
    beyond d, the label check, and the map from label (i, j) to cell [r, c] with its inverse.
    """

    mod: Modulus
    values: np.ndarray

    def __post_init__(self) -> None:
        if np.iscomplexobj(self.values):
            raise ValueError(f"{self.noun} must be real")
        arr = np.array(self.values, dtype=float)
        shape = (self.mod.d + self.extra, self.mod.d)
        if arr.shape != shape:
            raise self.error(
                f"need one value per {self.word}, a {shape[0]}x{shape[1]} table; got shape {arr.shape}"
            )
        if not np.isfinite(arr).all():
            raise ValueError(f"{self.noun} must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def value(self, label) -> float:
        return float(self.values[self.cell(*self.check(self.mod, label))])


class QuasiDistribution(_LabelTable):
    """Real coefficients indexed by line labels: values[m_minus1, m0]."""

    noun, word, error, extra = "quasi-distribution values", "line", MissingLineError, 0
    check = staticmethod(check_line)
    cell = label = staticmethod(lambda i, j: (i, j))

    def normalization(self) -> float:
        """(1/d) times the sum of all values; equals the trace of the mapped operator."""
        return float(self.values.sum() / self.mod.d)


class MubProbabilities(_LabelTable):
    """Basis-measurement probabilities indexed by point labels: values[b+1, m]."""

    noun, word, error, extra = "probabilities", "point", IncompleteProbabilitiesError, 1
    check = staticmethod(check_point)
    cell = staticmethod(lambda m, b: (b + 1, m))  # the reference column b = -1 first
    label = staticmethod(lambda r, c: (c, r - 1))

    def column_sums(self) -> np.ndarray:
        """Sum over m for each column b = -1..d-1; each must be 1 for a true state."""
        return self.values.sum(axis=1)


def _read_only(*tables: np.ndarray) -> tuple[np.ndarray, ...]:
    """The tables, made read-only: a cached table is shared by every later call."""
    for table in tables:
        table.setflags(write=False)
    return tables


@lru_cache(maxsize=4)
def _line_tables(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat index of B[2a - k, k], frequency pick 2k and phases omega^(2ak), as tables [a, k]."""
    k = np.arange(d)
    a = k[:, None]
    return _read_only((2 * a - k) % d * d + k, 2 * k % d, np.exp(2j * np.pi * (2 * a * k % d) / d))


def _line_coefficients(b: np.ndarray) -> np.ndarray:
    """tr(B P_(a, m0)) for every line as a d x d table.

    V(a, m0) = omega^(2 a m0) times the FFT of the anti-diagonal
    c_a[n] = B[2a - n, n], read at frequency 2 m0.
    """
    gather, pick, phases = _line_tables(len(b))
    return np.fft.fft(b.take(gather), axis=1)[:, pick] * phases


def _scale(b: np.ndarray) -> float:
    """max(1, |B|_F), inf past the float range; hypot.reduce only where the plain norm overflows."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(b))
        if not np.isfinite(norm):
            norm = float(np.hypot.reduce(np.abs(b), axis=None))
    return max(1.0, norm)


def _check_hermitian(b: np.ndarray, tol: float, what: str) -> None:
    """Pass on the largest |b[i,j] - conj(b[j,i])|; only a failure locates its entry."""
    if np.abs(b - b.conj().T).max() <= tol:
        return
    defect, (i, j) = hermiticity_defect(b)
    raise NonHermitianInputError(
        f"{what} is not Hermitian within {tol:g}: max asymmetry {defect:.3e} at entry ({i},{j})"
    )


def _real(vals: np.ndarray, b: np.ndarray, tol: float, what: str) -> np.ndarray:
    """vals.real, once their imaginary residue is within d * max(tol, 4 * 2^-52 * max(1, |B|_F))."""
    worst = float(np.abs(vals.imag).max())
    if worst > len(b) * tol and worst > 4 * len(b) * np.finfo(float).eps * _scale(b):
        raise NonHermitianInputError(f"{what} carry imaginary part {worst:.3e}")
    return vals.real


@lru_cache(maxsize=4)
def _chirps(mod: Modulus) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The diagonal route's tables: a gather [k, n], a pick [b, k] and phases [b, k].

    The gather is the flat index of rho[n, n + k]; the pick that of frequency -bk
    in row k of a d x d table; the phases omega^(half(b) k(k-1)) / d.
    """
    d = mod.d
    j = np.arange(d)
    i = j[:, None]  # the row: k of the gather, b of the pick and phases
    phases = np.exp(2j * np.pi * j / d)[mod.half(i) * (j * (j - 1) % d) % d] / d
    return _read_only(j * d + (j + i) % d, j * d + -i * j % d, phases)


def _chirp_probabilities(mod: Modulus, rho: np.ndarray) -> np.ndarray:
    """<psi|rho|psi> for every basis state psi as a complex (d+1) x d table [b+1, m].

    Row 0 is the diagonal of rho. For b >= 0, with D[k, n] = rho[n, n + k] the k-th diagonal,
    p(m, b) = (1/d) sum_k omega^(-km) omega^(half(b) k(k-1)) sum_n D[k, n] omega^(bnk):
    one FFT along each diagonal, read at frequency -bk and phased, then one FFT along k.
    """
    gather, pick, phases = _chirps(mod)
    vals = np.empty((mod.d + 1, mod.d), dtype=complex)
    vals[0] = rho.diagonal()
    np.fft.fft(np.fft.fft(rho.take(gather), axis=1).take(pick) * phases, axis=1, out=vals[1:])
    return vals


@lru_cache(maxsize=4)
def _slices(mod: Modulus) -> tuple[np.ndarray, np.ndarray]:
    """Flat index into FFT2(V) and conjugated phase of frequency k of column b, as [b+1, k]."""
    k = np.arange(mod.d)
    j = np.r_[1, k][:, None]  # column -1 runs along direction (1, 0), column b along (b, 1)
    m = np.r_[0, np.ones(mod.d, dtype=int)][:, None]
    phases = np.exp(2j * np.pi * k / mod.d).conj()[k * mod.half(j * m) % mod.d]
    return _read_only(k * j % mod.d * mod.d + k * m, phases)  # row k j, column k m


@lru_cache(maxsize=4)
def _reconstruct_index(mod: Modulus) -> np.ndarray:
    """Flat index of row half(n + n'), frequency n - n' into a d x d table, as a table [n, n']."""
    n, k = np.indices((mod.d, mod.d))
    return _read_only(mod.half(n + k) * mod.d + (n - k) % mod.d)[0]


def map_operator(mod: Modulus, matrix, eps: float = DEFAULT_EPS) -> QuasiDistribution:
    """Coefficients tr(B P_j) of a Hermitian matrix B over all lines.

    Hermiticity is held to eps * max(1, |B|_F), the imaginary residue (d entries) to d times that.
    A norm above the float max / d is refused: the coefficients, up to sqrt(d) |B|_F, could
    overflow, and eps times an infinite norm would pass anything.
    """
    b = as_square_matrix(matrix, mod.d)
    scale, limit = _scale(b), np.finfo(float).max / mod.d
    if scale > limit:
        raise NormOutOfRangeError(f"input's Frobenius norm exceeds the float max / d = {limit:.4g}")
    tol = check_eps(eps) * scale
    _check_hermitian(b, tol, "input")
    return QuasiDistribution(mod, _real(_line_coefficients(b), b, tol, "coefficients"))


def reconstruct(quasi: QuasiDistribution) -> np.ndarray:
    """The unique Hermitian matrix whose coefficients are the given values.

    B[n, n'] = (1/d) sum_m0 V(half(n + n'), m0) omega^(-(n - n') m0): the FFT
    of V along m0, read at row half(n + n') and frequency n - n'.
    """
    mod = quasi.mod
    return np.fft.fft(quasi.values, axis=1).take(_reconstruct_index(mod)) / mod.d


def pair_expectation(first: QuasiDistribution, second: QuasiDistribution) -> float:
    """(1/d) sum of products of coefficients; equals tr of the operator product."""
    if first.mod != second.mod:
        raise DimensionMismatchError(
            f"cannot pair distributions for d={first.mod.d} and d={second.mod.d}"
        )
    return float((first.values * second.values).sum() / first.mod.d)


def _certified_above(rho: np.ndarray, floor: float) -> bool:
    """True when a Cholesky factor of rho + (floor/2) I proves every eigenvalue of rho > -floor.

    The factor is exact for rho + (floor/2) I + E with |E|_2 below about
    (d+1) d 2^-52 |rho + (floor/2) I|_2 (Cholesky backward error, Higham, Accuracy and
    Stability of Numerical Algorithms, section 10.1), so a factor proves the bound only where
    floor/2 exceeds that; elsewhere, and when the factorisation fails, this says nothing.
    Both the factorisation and eigvalsh read the lower triangle.
    """
    d = len(rho)
    shift = floor / 2
    # the lower triangle is within floor of rho in Frobenius norm (entries Hermitian within
    # eps = floor / d), so |rho_lower + shift I|_2 <= |rho|_F + 3 shift
    if shift <= (d + 1) * d * np.finfo(float).eps * (_scale(rho) + 3 * shift):
        return False
    shifted = rho.copy()
    shifted.flat[:: d + 1] += shift
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def validate_density_matrix(mod: Modulus, matrix, eps: float = DEFAULT_EPS) -> np.ndarray:
    """Require a Hermitian, trace-one, positive semidefinite matrix.

    No eigenvalue may lie below -d eps. A Cholesky certificate settles most states;
    eigvalsh decides the rest, so a verdict and its message are those of eigvalsh alone.
    """
    eps, rho = check_eps(eps), as_square_matrix(matrix, mod.d)
    with np.errstate(over="ignore"):  # a defect or trace past the float range reads inf, and fails
        _check_hermitian(rho, eps, "state")
        trace = complex(np.trace(rho))
    if abs(trace - 1.0) > mod.d * eps:
        raise ValueError(f"state must have unit trace, got {trace:.12g}")
    if not _certified_above(rho, mod.d * eps):
        lowest = float(np.linalg.eigvalsh(rho).min())
        if lowest < -mod.d * eps:
            raise ValueError(f"state has negative eigenvalue {lowest:.6g}")
    return rho


def probabilities_from_state(mod: Modulus, rho, eps: float = DEFAULT_EPS) -> MubProbabilities:
    """Outcome probabilities tr(rho A) for every basis state projector A.

    Basis -1 reads the diagonal of rho; each basis b >= 0 is a chirp times a DFT, which
    _chirp_probabilities evaluates along the diagonals of rho.
    """
    rho = validate_density_matrix(mod, rho, eps)
    return MubProbabilities(mod, _real(_chirp_probabilities(mod, rho), rho, eps, "probabilities"))


def quasi_from_probabilities(
    probs: MubProbabilities, eps: float = DEFAULT_EPS
) -> QuasiDistribution:
    """Tomography: coefficients from measured probabilities alone.

    Each column must sum to 1 within eps (every basis is measured completely);
    then V(j) is the sum of the d+1 incident probabilities minus 1, found by inverting the slices.
    """
    mod, eps = probs.mod, check_eps(eps)
    sums = probs.column_sums()
    off = np.abs(sums - 1.0)
    worst = int(np.argmax(off))
    if off[worst] > eps:
        raise ColumnNotNormalizedError(
            f"column b={worst - 1} sums to {sums[worst]:.12g}, expected 1 within {eps:g}"
        )
    index, phases = _slices(mod)
    w = np.empty((mod.d, mod.d), dtype=complex)
    w.put(index, np.fft.fft(probs.values, axis=1) * phases)  # each frequency on one slice
    w[0, 0] = sums.sum() - mod.d  # on every slice: sum(V) / d
    return QuasiDistribution(mod, np.fft.ifft2(w).real * mod.d)


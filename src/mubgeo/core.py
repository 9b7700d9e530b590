"""Residue arithmetic mod an odd prime, roots of unity, and small matrix helpers.

Everything is pure: no function mutates its arguments, and matrices are plain
numpy complex arrays.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatchError, NotPrimeError, UnsupportedDimensionError

DEFAULT_EPS = 1e-10


def check_eps(eps: float, d: int | None = None) -> float:
    """eps as a float, once it is positive and finite and, given d, below 1/(2 d^2).

    The operator battery holds the 1/d gap of its point Gram cases to d * eps, so at or
    above that ceiling a wrong operator could pass every check.
    """
    eps = float(eps)
    if not (eps > 0 and math.isfinite(eps)):
        raise ValueError(f"eps must be positive and finite, got {eps}")
    ceiling = 1.0 / (2 * d * d) if d else math.inf
    if eps >= ceiling:
        raise ValueError(
            f"eps {eps:g} is not below 1/(2 d^2) = {ceiling:.3g}: held to d*eps, the 1/d gap"
            " of the point Gram cases could no longer fail"
        )
    return eps


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class Modulus:
    """An odd prime dimension d; the handle for all residue arithmetic."""

    d: int

    def __post_init__(self) -> None:
        if not hasattr(self.d, "__index__") or isinstance(self.d, bool):
            raise UnsupportedDimensionError(f"dimension must be an integer, got {self.d!r}")
        d = operator.index(self.d)  # a numpy integer is kept as its int, to compare and hash alike
        if d < 3:
            raise UnsupportedDimensionError(
                f"d={d} is not supported: residues are halved, so d must be an odd prime >= 3"
            )
        if not is_prime(d):
            raise NotPrimeError(f"d={d} is not prime")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "_two_inverse", pow(2, -1, d))

    def half(self, a: int) -> int:
        """a times the inverse of 2, mod d. Well defined because d is odd."""
        return (a * self._two_inverse) % self.d


def omega_power(d: int, k: int) -> complex:
    """e^(2 pi i k / d), with k reduced mod d before the division."""
    if d < 1:
        raise UnsupportedDimensionError(f"d={d} must be positive")
    return complex(np.exp(2j * np.pi * (k % d) / d))


@lru_cache(maxsize=None)
def roots_of_unity(d: int) -> tuple[complex, ...]:
    """omega_power(d, k) for k = 0..d-1, as Python scalars.

    Tables are indexed by exponents reduced mod d. Scale the scalars before
    building an array from them: numpy's array exp and its complex-by-int
    division can differ from the scalar path in the last ulp.
    """
    return tuple(omega_power(d, k) for k in range(d))


def as_square_matrix(values, expected_d: int | None = None) -> np.ndarray:
    """Coerce to a square complex matrix with finite entries, or raise."""
    m = np.asarray(values, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    if expected_d is not None and m.shape[0] != expected_d:
        raise DimensionMismatchError(
            f"expected a {expected_d}x{expected_d} matrix, got {m.shape[0]}x{m.shape[1]}"
        )
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def hermiticity_defect(a: np.ndarray) -> tuple[float, tuple[int, int]]:
    """Largest |a[i,j] - conj(a[j,i])| and the entry where it occurs."""
    a = np.asarray(a, dtype=complex)
    diff = np.abs(a - a.conj().T)
    i, j = np.unravel_index(int(np.argmax(diff)), diff.shape)
    return float(diff[i, j]), (int(i), int(j))


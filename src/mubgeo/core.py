"""Residue arithmetic mod an odd prime, roots of unity, and small matrix helpers.

Everything is pure: no function mutates its arguments, and matrices are plain
numpy complex arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    NoInverseError,
    NotPrimeError,
    UnsupportedDimensionError,
)

DEFAULT_EPS = 1e-10


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
        d = self.d
        if not isinstance(d, int) or isinstance(d, bool):
            raise UnsupportedDimensionError(f"dimension must be an integer, got {d!r}")
        if d < 3:
            raise UnsupportedDimensionError(
                f"d={d} is not supported: residues are halved, so d must be an odd prime >= 3"
            )
        if not is_prime(d):
            raise NotPrimeError(f"d={d} is not prime")
        object.__setattr__(self, "_two_inverse", pow(2, -1, d))

    def reduce(self, a: int) -> int:
        return a % self.d

    def inverse(self, a: int) -> int:
        """Multiplicative inverse of a mod d; a must not reduce to 0."""
        r = a % self.d
        if r == 0:
            raise NoInverseError(f"0 has no multiplicative inverse mod {self.d}")
        return pow(r, -1, self.d)

    def half(self, a: int) -> int:
        """a times the inverse of 2, mod d. Well defined because d is odd."""
        return (a * self._two_inverse) % self.d


def omega_power(d: int, k: int) -> complex:
    """e^(2 pi i k / d), with k reduced mod d before the division."""
    if d < 1:
        raise UnsupportedDimensionError(f"d={d} must be positive")
    return complex(np.exp(2j * np.pi * (k % d) / d))


def as_square_matrix(values, expected_d: int | None = None) -> np.ndarray:
    """Coerce to a square complex matrix with finite entries, or raise."""
    m = np.asarray(values, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    if expected_d is not None and m.shape[0] != expected_d:
        raise DimensionMismatchError(
            f"expected a {expected_d}x{expected_d} matrix, got {m.shape[0]}x{m.shape[1]}"
        )
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix entries must be finite")
    return m


def hermiticity_defect(a: np.ndarray) -> tuple[float, tuple[int, int]]:
    """Largest |a[i,j] - conj(a[j,i])| and the entry where it occurs."""
    a = np.asarray(a, dtype=complex)
    diff = np.abs(a - a.conj().T)
    i, j = np.unravel_index(int(np.argmax(diff)), diff.shape)
    return float(diff[i, j]), (int(i), int(j))


"""The d+1 mutually unbiased bases of an odd prime dimension.

Basis -1 is the computational (reference) basis. For b = 0..d-1, state m has
amplitudes omega^(half(b) n(n-1) - n m) / sqrt(d) at position n, which makes
each basis the eigenbasis of X Z^b with state m carrying eigenvalue omega^m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import DEFAULT_EPS, Modulus, roots_of_unity
from .geometry import CB_COLUMN
from .report import AxiomReport, Check


def z_matrix(mod: Modulus) -> np.ndarray:
    """Clock matrix: diagonal of omega^n."""
    return np.diag(roots_of_unity(mod.d))


def x_matrix(mod: Modulus) -> np.ndarray:
    """Cyclic shift sending position n to n+1 mod d."""
    return np.roll(np.eye(mod.d, dtype=complex), 1, axis=0)


def mub_state(mod: Modulus, b: int, m: int) -> np.ndarray:
    """State m of basis b as a length-d amplitude vector, reference-basis order.

    The amplitude at position 0 is exactly 1/sqrt(d) for every b >= 0, which
    pins the overall phase convention. The exponent half(b) n(n-1) - n m is
    taken mod d, with n(n-1) reduced first so that it stays below d^2.
    """
    d = mod.d
    if not (CB_COLUMN <= b < d and 0 <= m < d):
        raise ValueError(f"invalid state label (m={m}, b={b}) for d={d}")
    if b == CB_COLUMN:
        v = np.zeros(d, dtype=complex)
        v[m] = 1.0
        return v
    hb = mod.half(b)
    scale = 1.0 / math.sqrt(d)
    n = np.arange(d)
    return np.array([w * scale for w in roots_of_unity(d)])[(hb * (n * (n - 1) % d) - n * m) % d]


def basis_matrix(mod: Modulus, b: int) -> np.ndarray:
    """Matrix whose columns are the states of basis b, in order m = 0..d-1."""
    return np.column_stack([mub_state(mod, b, m) for m in range(mod.d)])


@dataclass(frozen=True, eq=False)
class MubFamily:
    """All d+1 bases of one dimension; bases[b+1] holds basis b, states as columns."""

    mod: Modulus
    bases: tuple[np.ndarray, ...]

    def basis(self, b: int) -> np.ndarray:
        if not CB_COLUMN <= b < self.mod.d:
            raise ValueError(f"invalid basis label b={b} for d={self.mod.d}")
        return self.bases[b + 1]


@lru_cache(maxsize=None)
def mub_family(mod: Modulus) -> MubFamily:
    mats = []
    for b in range(CB_COLUMN, mod.d):
        mat = basis_matrix(mod, b)
        mat.setflags(write=False)
        mats.append(mat)
    return MubFamily(mod, tuple(mats))


def verify_eigenrelation(mod: Modulus, eps: float = DEFAULT_EPS) -> AxiomReport:
    """Check X Z^b state(m,b) = omega^m state(m,b) for every basis and state.

    Basis -1 is checked against Z alone, whose eigenbasis it is.
    """
    d = mod.d
    x = x_matrix(mod)
    z = z_matrix(mod)
    phases = np.array(roots_of_unity(d))
    family = mub_family(mod)
    bad = ""
    for b in range(CB_COLUMN, d):
        basis = family.basis(b)
        op = z if b == CB_COLUMN else x @ np.linalg.matrix_power(z, b)
        residual = op @ basis - basis * phases[np.newaxis, :]
        norms = np.linalg.norm(residual, axis=0)
        worst = int(np.argmax(norms))
        if norms[worst] > eps:
            bad = f"state (m={worst}, b={b}) has residual {norms[worst]:.3e}"
            break
    return AxiomReport(d, (Check("mub.eigenrelation", not bad, bad),))


def verify_unbiasedness(mod: Modulus, eps: float = DEFAULT_EPS) -> AxiomReport:
    """Check each basis is orthonormal and cross-basis overlaps all have magnitude 1/sqrt(d)."""
    d = mod.d
    family = mub_family(mod)
    target = 1.0 / math.sqrt(d)
    eye = np.eye(d)
    bad_on = ""
    bad_cross = ""
    for b1 in range(CB_COLUMN, d):
        gram = family.basis(b1).conj().T @ family.basis(b1)
        dev = float(np.abs(gram - eye).max())
        if dev > eps and not bad_on:
            bad_on = f"basis b={b1} deviates from orthonormality by {dev:.3e}"
        for b2 in range(b1 + 1, d):
            overlap = np.abs(family.basis(b1).conj().T @ family.basis(b2))
            dev = float(np.abs(overlap - target).max())
            if dev > eps and not bad_cross:
                bad_cross = f"bases b={b1}, b={b2} overlap off 1/sqrt(d) by {dev:.3e}"
    return AxiomReport(
        d,
        (
            Check("mub.orthonormal", not bad_on, bad_on),
            Check("mub.unbiased", not bad_cross, bad_cross),
        ),
    )

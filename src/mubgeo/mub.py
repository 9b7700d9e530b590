"""The d+1 mutually unbiased bases of an odd prime dimension.

Basis -1 is the computational (reference) basis. For b = 0..d-1, state m has
amplitudes omega^(half(b) n(n-1) - n m) / sqrt(d) at position n, which makes
each basis the eigenbasis of X Z^b with state m carrying eigenvalue omega^m.
"""

from __future__ import annotations

import math

import numpy as np

from .core import DEFAULT_EPS, Modulus, check_eps, roots_of_unity
from .geometry import CB_COLUMN, _int64, _integral
from .report import AxiomReport, offending


def mub_state(mod: Modulus, b: int, m: int) -> np.ndarray:
    """State m of basis b as a length-d amplitude vector, reference-basis order.

    The amplitude at position 0 is exactly 1/sqrt(d) for every b >= 0, which
    pins the overall phase convention. The exponent half(b) n(n-1) - n m is
    taken mod d, with n(n-1) reduced first so that it stays below d^2.
    """
    d = mod.d
    if not (_integral(b, m) and CB_COLUMN <= b < d and 0 <= m < d):
        raise ValueError(f"invalid state label (m={m}, b={b}) for d={d}")
    return _states(mod, *_int64(m, b))


def _states(mod: Modulus, m, b) -> np.ndarray:
    """mub_state over label arrays (m, b): one amplitude vector per label, on the last axis.

    The exponents are built in place in one int64 table, and one gather reads them off the
    roots over sqrt(d), followed by 1 and 0 at d and d+1 for the reference basis.
    """
    d = mod.d
    n = np.arange(d)
    m, b = np.expand_dims(m, -1), np.expand_dims(b, -1)
    scale = 1.0 / math.sqrt(d)
    table = np.array([w * scale for w in roots_of_unity(d)] + [1.0, 0.0])
    exponents = np.empty(np.broadcast_shapes(m.shape, b.shape, n.shape), dtype=np.int64)
    np.multiply(-n, m, out=exponents)
    exponents += mod.half(b) * (n * (n - 1) % d)
    exponents %= d
    np.copyto(exponents, d + (n != m), where=b == CB_COLUMN)
    return table[exponents]


def _point_states(mod: Modulus) -> np.ndarray:
    """Every state by point_index as [point, n], from one call of _states, built on each call."""
    return _states(mod, np.arange(mod.d), np.arange(CB_COLUMN, mod.d)[:, None]).reshape(-1, mod.d)


def _overlaps(states: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """max |G - I| per column and max ||G| - 1/sqrt(d)| per pair of columns, G the states' Gram."""

    def column(c):  # one GEMM against itself and the later columns, whose arrays go on return
        gram = states[c * d : (c + 1) * d].conj() @ states[c * d :].T
        later = np.abs(np.abs(gram[:, d:]) - 1 / math.sqrt(d)).reshape(d, -1, d)
        return np.abs(gram[:, :d] - np.eye(d)).max(), later.max(axis=(0, 2))

    on, cross = np.empty(d + 1), np.zeros((d + 1, d + 1))  # cross[c, c'] for c < c' only
    for c in range(d + 1):
        on[c], cross[c, c + 1 :] = column(c)
    return on, cross


def verify_eigenrelation(mod: Modulus, eps: float = DEFAULT_EPS) -> AxiomReport:
    """Check X Z^b state(m,b) = omega^m state(m,b) for every basis and state.

    Basis -1 is checked against Z alone, whose eigenbasis it is. X Z^b is monomial:
    (X Z^b v)[n] = omega^(b(n-1)) v[n-1], a gather and a phase, one basis of _states at a time.
    """
    d, eps = mod.d, check_eps(eps, mod.d)
    roots = np.array(roots_of_unity(d))
    n = np.arange(d)

    def residuals(b):  # of each state m of basis b, in place; the arrays go on return
        basis = _states(mod, n, b)  # [m, n]
        moved = basis * roots if b == CB_COLUMN else roots[b * (n - 1) % d] * basis[:, n - 1]
        moved -= np.multiply(roots[:, None], basis, out=basis)
        return np.linalg.norm(moved, axis=1)

    norms = np.array([residuals(b) for b in range(CB_COLUMN, d)])
    worst = norms.max(axis=1)
    return AxiomReport.from_findings(
        d,
        {
            "mub.eigenrelation": offending(
                worst, eps, lambda i: f"state (m={int(np.argmax(norms[i]))}, b={i - 1})"
                f" has residual {worst[i]:.3e}",
            )
        },
    )


def verify_unbiasedness(mod: Modulus, eps: float = DEFAULT_EPS) -> AxiomReport:
    """Check each basis is orthonormal and cross-basis overlaps all have magnitude 1/sqrt(d)."""
    d, eps = mod.d, check_eps(eps, mod.d)
    on, cross = _overlaps(_point_states(mod), d)
    return AxiomReport.from_findings(
        d,
        {
            "mub.orthonormal": offending(
                on, eps, lambda i: f"basis b={i - 1} deviates from orthonormality by {on[i]:.3e}"
            ),
            "mub.unbiased": offending(
                cross, eps, lambda i, j: f"bases b={i - 1}, b={j - 1} overlap off 1/sqrt(d)"
                f" by {cross[i, j]:.3e}",
            ),
        },
    )

"""Rank-one projectors carried by dual-plane points and the Hermitian
involutions carried by its lines, each constructible by two independent routes.

A point (m, b) carries the projector onto basis state m of basis b. A line
carries the sum of its d+1 incident projectors minus the identity; that
operator is Hermitian, squares to the identity, has unit trace, and is
supported on the anti-diagonal n + n' = 2 m_minus1 mod d with phases
omega^(-(n - n') m0). Traces of products reproduce the incidence structure.
"""

from __future__ import annotations

import numpy as np

from .core import DEFAULT_EPS, Modulus, roots_of_unity
from .geometry import (
    CB_COLUMN,
    Line,
    Point,
    all_lines,
    all_points,
    check_line,
    check_point,
    format_line,
    format_point,
    incidence_matrix,
)
from .mub import mub_family
from .report import AxiomReport, witness


def point_operator_direct(mod: Modulus, point: Point) -> np.ndarray:
    """Projector of a point from its entrywise phase rule, no state involved.

    For b >= 0 the (n, n') entry is omega^((n - n')(half(b)(n + n' - 1) - m))/d;
    the reference column gives the diagonal unit at (m, m).
    """
    check_point(mod, point)
    return _point_operators(mod, *point)


def _point_operators(mod: Modulus, m, b) -> np.ndarray:
    """point_operator_direct over label arrays: one d x d matrix per label, on the last two axes.

    The phase rule is evaluated only for the labels with b >= 0.
    """
    d = mod.d
    shape = np.broadcast_shapes(np.shape(m), np.shape(b))
    m, b = (np.broadcast_to(x, shape).ravel() for x in (m, b))
    ref = b == CB_COLUMN
    out = np.zeros((len(m), d, d), dtype=complex)
    out[ref, m[ref], m[ref]] = 1  # the reference column: the diagonal unit at (m, m)
    n, n2 = np.arange(d)[:, None], np.arange(d)
    s = (n - n2) * (mod.half(b[~ref, None, None]) * (n + n2 - 1) - m[~ref, None, None]) % d
    out[~ref] = np.array([w / d for w in roots_of_unity(d)])[s]
    return out.reshape(shape + (d, d))


def line_operator_direct(mod: Modulus, line: Line) -> np.ndarray:
    """Line operator from its anti-diagonal closed form, no projectors involved.

    Entry (n, n') is omega^(-(n - n') m0) when n + n' = 2 m_minus1 mod d, else 0.
    """
    check_line(mod, line)
    return _line_operators(mod, *line)


def _line_operators(mod: Modulus, m_minus1, m0) -> np.ndarray:
    """line_operator_direct over label arrays: one d x d matrix per label, on the last two axes."""
    d = mod.d
    n = np.arange(d)
    m_minus1, m0 = np.expand_dims(m_minus1, -1), np.expand_dims(m0, -1)
    n2 = (2 * m_minus1 - n) % d
    phases = np.array(roots_of_unity(d))[(n2 - n) * m0 % d]
    out = np.zeros(n2.shape + (d,), dtype=complex)
    np.put_along_axis(out, n2[..., None], phases[..., None], axis=-1)
    return out


def _over_lines(n: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """n^T stack as one real product on its float view: per line with n = N, per point with N^T."""
    d = stack.shape[-1]
    return (n.T @ stack.reshape(len(stack), -1).view(float)).view(complex).reshape(-1, d, d)


def _worst(devs: np.ndarray, tol: float, what: str, *names) -> str:
    """The largest deviation, named by one function of the index per axis, if it exceeds tol."""
    at = np.unravel_index(int(np.argmax(devs)), devs.shape)
    if devs[at] <= tol:
        return ""
    labels = " vs ".join(name(int(i)) for name, i in zip(names, at))
    return f"{what} {labels} deviates by {devs[at]:.3e}"


def _trace_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """tr(a[i] @ b[j]) for every pair (i, j), as one matrix product."""
    return a.reshape(len(a), -1) @ b.transpose(0, 2, 1).reshape(len(b), -1).T


def verify_operator_identities(mod: Modulus, eps: float = DEFAULT_EPS) -> AxiomReport:
    """Exhaustively check every algebraic identity the operator families satisfy.

    Summed identities are held to d*eps, floored at 16 d^2 2^-52: their rounding
    alone reached 3.2 d^2 2^-52 over d = 3..47 (op.global_sum at d = 41). The
    agreement between the two independent construction routes is held to eps
    itself. The expected incidence traces are the incidence matrix N. The point
    projectors A are the outer products of the states of mub_family and the line
    operators are N^T A - I; both are held entry by entry to the direct routes,
    each evaluated for every label in one call of its array rule.
    """
    d = mod.d
    n = incidence_matrix(mod)
    eye = np.eye(d)
    states = mub_family(mod).transpose(0, 2, 1).reshape(len(n), d)  # point_index order
    a_stack = states[:, :, None] * states[:, None, :].conj()
    p_stack = _over_lines(n, a_stack) - eye
    tol = d * max(eps, 16 * d * np.finfo(float).eps)
    findings: dict[str, str] = {}

    def point(i: int) -> str:
        return format_point(all_points(mod)[i])

    def line(j: int) -> str:
        return format_line(all_lines(mod)[j])

    dev = np.abs(a_stack - a_stack.conj().transpose(0, 2, 1)).max(axis=(1, 2))
    findings["op.point_hermitian"] = _worst(dev, eps, "point operator", point)

    dev = np.abs(p_stack - p_stack.conj().transpose(0, 2, 1)).max(axis=(1, 2))
    findings["op.line_hermitian"] = _worst(dev, eps, "line operator", line)

    a_sq = a_stack @ a_stack
    dev = np.abs(a_sq - a_stack).max(axis=(1, 2))
    bad = _worst(dev, tol, "projector law for point", point)
    if not bad:
        dev = np.abs(a_stack.trace(axis1=1, axis2=2) - 1.0)
        bad = _worst(dev, eps, "trace of point operator", point)
    findings["op.point_projector"] = bad

    dev = np.abs(a_stack.reshape(d + 1, d, d, d).sum(axis=1) - eye).max(axis=(1, 2))
    findings["op.column_completeness"] = witness(
        dev > tol, lambda c: f"column b={c - 1} resolution deviates by {dev[c]:.3e}"
    )

    dev = float(np.abs(a_stack.sum(axis=0) - (d + 1) * eye).max())
    findings["op.global_sum"] = "" if dev <= tol else f"total deviates from (d+1)I by {dev:.3e}"

    dev = float(np.abs(p_stack.sum(axis=0) - d * eye).max())
    findings["op.line_sum"] = "" if dev <= tol else f"total deviates from dI by {dev:.3e}"

    averages = _over_lines(n.T, p_stack) / d
    dev = np.abs(averages - a_stack).max(axis=(1, 2))
    findings["op.point_from_lines"] = _worst(dev, tol, "line average at point", point)

    dev = np.abs(p_stack.trace(axis1=1, axis2=2) - 1.0)
    findings["op.line_trace"] = _worst(dev, tol, "trace of line operator", line)

    dev = np.abs(_trace_products(p_stack, p_stack) - d * np.eye(d * d))
    findings["op.line_gram"] = _worst(dev, tol, "line gram", line, line)

    dev = np.abs(p_stack @ p_stack - eye).max(axis=(1, 2))
    findings["op.line_involution"] = _worst(dev, tol, "square of line operator", line)

    s = p_stack + eye  # the sum of each line's projectors
    dev = np.abs(s @ s - _over_lines(n, a_sq) - s).max(axis=(1, 2))
    findings["op.cross_term_distillation"] = witness(
        dev > tol, lambda j: f"cross terms on line {line(j)} deviate by {dev[j]:.3e}"
    )

    column, row = np.divmod(np.arange(len(n)), d)
    dev = np.abs(a_stack - _point_operators(mod, row, column - 1)).max(axis=(1, 2))
    findings["op.point_route_equality"] = _worst(dev, eps, "point routes at", point)

    dev = np.abs(p_stack - _line_operators(mod, *np.divmod(np.arange(d * d), d))).max(axis=(1, 2))
    findings["op.line_route_equality"] = _worst(dev, eps, "line routes at", line)

    same_column = np.kron(np.eye(d + 1), np.ones((d, d)))
    expected = (1.0 - same_column) / d + np.eye(len(n))
    dev = np.abs(_trace_products(a_stack, a_stack) - expected)
    findings["op.point_gram_cases"] = _worst(dev, tol, "point gram", point, point)

    dev = np.abs(_trace_products(a_stack, p_stack) - n)
    findings["op.incidence_trace"] = _worst(dev, tol, "incidence trace", point, line)

    return AxiomReport.from_findings(d, findings)

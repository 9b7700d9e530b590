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
    d = mod.d
    if point.b == CB_COLUMN:
        out = np.zeros((d, d), dtype=complex)
        out[point.m, point.m] = 1.0
        return out
    hb = mod.half(point.b)
    n, n2 = np.indices((d, d))
    s = (n - n2) * (hb * (n + n2 - 1) - point.m) % d
    return np.array([w / d for w in roots_of_unity(d)])[s]


def line_operator_direct(mod: Modulus, line: Line) -> np.ndarray:
    """Line operator from its anti-diagonal closed form, no projectors involved.

    Entry (n, n') is omega^(-(n - n') m0) when n + n' = 2 m_minus1 mod d, else 0.
    """
    check_line(mod, line)
    d = mod.d
    n = np.arange(d)
    n2 = (2 * line.m_minus1 - n) % d
    out = np.zeros((d, d), dtype=complex)
    out[n, n2] = np.array(roots_of_unity(d))[(n2 - n) * line.m0 % d]
    return out


def _over_lines(n: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """n^T stack as one real product on its float view: per line with n = N, per point with N^T."""
    d = stack.shape[-1]
    return (n.T @ stack.reshape(len(stack), -1).view(float)).view(complex).reshape(-1, d, d)


def _worst(devs: np.ndarray, tol: float, what: str, *labels) -> str:
    """The largest deviation, named by one label per axis, if it exceeds tol."""
    at = np.unravel_index(int(np.argmax(devs)), devs.shape)
    if devs[at] <= tol:
        return ""
    names = " vs ".join(str(axis[i]) for axis, i in zip(labels, at))
    return f"{what} {names} deviates by {devs[at]:.3e}"


def _trace_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """tr(a[i] @ b[j]) for every pair (i, j), as one matrix product."""
    return a.reshape(len(a), -1) @ b.transpose(0, 2, 1).reshape(len(b), -1).T


def verify_operator_identities(mod: Modulus, eps: float = DEFAULT_EPS) -> AxiomReport:
    """Exhaustively check every algebraic identity the operator families satisfy.

    Summed identities are held to d*eps; the agreement between the two
    independent construction routes is held to eps itself. The expected
    incidence traces are the incidence matrix N. The point projectors A are
    the outer products of the states of mub_family and the line operators
    are N^T A - I; both are held to the direct routes entry by entry.
    """
    d = mod.d
    points = all_points(mod)
    lines = all_lines(mod)
    pt_labels = [format_point(p) for p in points]
    ln_labels = [format_line(ln) for ln in lines]
    n = incidence_matrix(mod)
    eye = np.eye(d)
    states = mub_family(mod).transpose(0, 2, 1).reshape(len(points), d)  # point_index order
    a_stack = states[:, :, None] * states[:, None, :].conj()
    p_stack = _over_lines(n, a_stack) - eye
    tol = d * eps
    findings: dict[str, str] = {}

    dev = np.abs(a_stack - a_stack.conj().transpose(0, 2, 1)).max(axis=(1, 2))
    findings["op.point_hermitian"] = _worst(dev, eps, "point operator", pt_labels)

    dev = np.abs(p_stack - p_stack.conj().transpose(0, 2, 1)).max(axis=(1, 2))
    findings["op.line_hermitian"] = _worst(dev, eps, "line operator", ln_labels)

    a_sq = a_stack @ a_stack
    dev = np.abs(a_sq - a_stack).max(axis=(1, 2))
    bad = _worst(dev, tol, "projector law for point", pt_labels)
    if not bad:
        dev = np.abs(a_stack.trace(axis1=1, axis2=2) - 1.0)
        bad = _worst(dev, eps, "trace of point operator", pt_labels)
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
    findings["op.point_from_lines"] = _worst(dev, tol, "line average at point", pt_labels)

    dev = np.abs(p_stack.trace(axis1=1, axis2=2) - 1.0)
    findings["op.line_trace"] = _worst(dev, tol, "trace of line operator", ln_labels)

    dev = np.abs(_trace_products(p_stack, p_stack) - d * np.eye(len(lines)))
    findings["op.line_gram"] = _worst(dev, tol, "line gram", ln_labels, ln_labels)

    dev = np.abs(p_stack @ p_stack - eye).max(axis=(1, 2))
    findings["op.line_involution"] = _worst(dev, tol, "square of line operator", ln_labels)

    s = p_stack + eye  # the sum of each line's projectors
    dev = np.abs(s @ s - _over_lines(n, a_sq) - s).max(axis=(1, 2))
    findings["op.cross_term_distillation"] = witness(
        dev > tol, lambda j: f"cross terms on line {ln_labels[j]} deviate by {dev[j]:.3e}"
    )

    direct = np.stack([point_operator_direct(mod, p) for p in points])
    dev = np.abs(a_stack - direct).max(axis=(1, 2))
    findings["op.point_route_equality"] = _worst(dev, eps, "point routes at", pt_labels)

    direct = np.stack([line_operator_direct(mod, ln) for ln in lines])
    dev = np.abs(p_stack - direct).max(axis=(1, 2))
    findings["op.line_route_equality"] = _worst(dev, eps, "line routes at", ln_labels)

    same_column = np.kron(np.eye(d + 1), np.ones((d, d)))
    expected = (1.0 - same_column) / d + np.eye(len(points))
    dev = np.abs(_trace_products(a_stack, a_stack) - expected)
    findings["op.point_gram_cases"] = _worst(dev, tol, "point gram", pt_labels, pt_labels)

    dev = np.abs(_trace_products(a_stack, p_stack) - n)
    findings["op.incidence_trace"] = _worst(dev, tol, "incidence trace", pt_labels, ln_labels)

    return AxiomReport.from_findings(d, findings)

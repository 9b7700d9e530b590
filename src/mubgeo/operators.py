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
    _line_point_index,
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

    The phase rule is evaluated only for the labels with b >= 0, in place in one
    integer table of exponents: (n + n' - 1) times half(b), minus m, times
    (n - n'), reduced mod d once. It stays below 2 d^3, so int64 holds it.
    """
    d = mod.d
    shape = np.broadcast_shapes(np.shape(m), np.shape(b))
    m, b = (np.broadcast_to(x, shape).ravel() for x in (m, b))
    ref = b == CB_COLUMN
    out = np.zeros((len(m), d, d), dtype=complex)
    out[ref, m[ref], m[ref]] = 1  # the reference column: the diagonal unit at (m, m)
    n = np.arange(d)
    s = np.empty((np.count_nonzero(~ref), d, d), dtype=np.int64)
    np.add(n[:, None], n - 1, out=s)
    s *= mod.half(b[~ref, None, None])
    s -= m[~ref, None, None]
    s *= n[:, None] - n
    s %= d
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




def _trace_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """tr(a[i] @ b[j]) for every pair (i, j), as one matrix product."""
    return a.reshape(len(a), -1) @ b.transpose(0, 2, 1).reshape(len(b), -1).T


def _block(d: int) -> int:
    """Labels per block: d (a column, or an m_minus1) from d = 32 on; below, up to 2^15 / d^2."""
    return d * max(1, 2**15 // d**3)


def _deviations(mod: Modulus, eps: float) -> list[tuple[str, float, float]]:
    """(check, deviation, tolerance) for every bound of the battery, in report order.

    A point block is a column b, a line block the d lines with one m_minus1
    (several of either while they hold under 2^15 entries); each holds O(d^3)
    entries. Each line operator is built from the d+1 states on the line's
    rows, as Psi^T conj(Psi) - I, and held to the anti-diagonal route in the
    same pass as its Hermiticity, trace, square and the running sum. The rest
    is read off that structure: tr(A_p A_q) = |<psi_p|psi_q>|^2,
    A_p^2 - A_p = (|psi_p|^2 - 1) A_p. Once the line routes agree to delta,
    tr(P_j P_k) is that of the routes, which vanishes across two m_minus1,
    within 2 d delta + (d delta)^2; <psi|P_(a, m0)|psi> over every m0 is one
    length-d DFT of an anti-diagonal of A on the route, within delta |psi|_1^2;
    and the cross terms are the square's deviation plus the norms'. The line
    average at a point sums the column sums when the collinearity counts are
    those of the plane. op.point_projector has two bounds, law then trace.
    """
    d = mod.d
    eye = np.eye(d)
    tol = d * max(eps, 16 * d * np.finfo(float).eps)
    states = mub_family(mod).transpose(0, 2, 1).reshape(-1, d)  # point_index order
    size = np.abs(states)
    norms = (size * size).sum(axis=1)
    at = _line_point_index(mod)  # [line_index, b + 1]
    labels = np.arange(d)
    plus, minus = (labels[:, None] + labels) % d, (labels[:, None] - labels) % d  # [a, t]
    dft = np.array(roots_of_unity(d))[-2 * labels[:, None] * labels % d]  # [t, m0]
    incident = np.argsort(at, axis=None, kind="stable")  # entries of at by point
    incident_points = at.ravel()[incident]
    step = _block(d) // d  # columns, or m_minus1, per block

    per_point = np.empty((3, len(states)))  # Hermiticity, trace, route
    columns = np.empty((d + 1, d, d), dtype=complex)
    point_gram = incidence = 0.0
    one_per_column = bool((at // d == np.arange(d + 1)).all())
    counts_hold = one_per_column
    for c0 in range(0, d + 1, step):
        cols = np.arange(c0, min(c0 + step, d + 1))
        block = slice(c0 * d, c0 * d + len(cols) * d)
        psi = states[block]
        a = psi[:, :, None] * psi[:, None, :].conj()
        route = _point_operators(mod, np.tile(labels, len(cols)), np.repeat(cols - 1, d))
        per_point[0, block] = np.abs(a - a.conj().transpose(0, 2, 1)).max(axis=(1, 2))
        per_point[1, block] = np.abs(a.trace(axis1=1, axis2=2) - 1.0)
        per_point[2, block] = np.abs(a - route).max(axis=(1, 2))
        columns[cols] = a.reshape(-1, d, d, d).sum(axis=1)
        same_column = np.kron(np.eye(len(cols)), np.ones((d, d)))  # within the block
        overlaps = np.abs(psi.conj() @ states[block.start :].T) ** 2 - 1 / d  # with later columns
        overlaps[:, : len(psi)] += same_column / d - np.eye(len(psi))
        point_gram = np.maximum(point_gram, np.abs(overlaps).max())
        # <psi|P_(a, m0)|psi> = sum_t A[a - t, a + t] omega^(-2 t m0) on the route
        traces = a[:, minus, plus].reshape(-1, d) @ dft
        traces = traces.reshape(len(psi), -1)  # [point, line_index]
        lo, hi = np.searchsorted(incident_points, [block.start, block.stop])
        traces[incident_points[lo:hi] - block.start, incident[lo:hi] // (d + 1)] -= 1.0
        incidence = np.maximum(incidence, np.abs(traces).max())
        if counts_hold:  # lines through both p and q, for each p of the block
            pairs = (at[:, cols] - block.start)[:, :, None] * len(states) + at[:, None, :]
            counts = np.bincount(pairs.ravel(), minlength=len(psi) * len(states))
            expected = np.ones((len(psi), len(states)))
            expected[:, block] += d * np.eye(len(psi)) - same_column
            counts_hold = np.array_equal(counts.reshape(len(psi), -1), expected)

    per_line = np.empty((4, len(at)))  # Hermiticity, trace, square, route
    line_total = np.zeros((d, d), dtype=complex)
    line_gram = 0.0
    for a0 in range(0, d, step):
        groups = np.arange(a0, min(a0 + step, d))
        block = slice(a0 * d, a0 * d + len(groups) * d)
        psi = states[at[block]]  # [line, point of the line, n]
        p = psi.transpose(0, 2, 1) @ psi.conj() - eye
        route = _line_operators(mod, np.repeat(groups, d), np.tile(labels, len(groups)))
        per_line[0, block] = np.abs(p - p.conj().transpose(0, 2, 1)).max(axis=(1, 2))
        per_line[1, block] = np.abs(p.trace(axis1=1, axis2=2) - 1.0)
        per_line[2, block] = np.abs(p @ p - eye).max(axis=(1, 2))
        per_line[3, block] = np.abs(p - route).max(axis=(1, 2))
        line_total += p.sum(axis=0)
        # tr(D_j D_k) = sum_n D_j[n, 2a - n] D_k[2a - n, n] within one m_minus1 a, 0 across
        line = np.arange(len(p))[:, None]
        partner = (2 * np.repeat(groups, d)[:, None] - labels) % d
        forward = route[line, labels, partner].reshape(-1, d, d)
        back = route[line, partner, labels].reshape(-1, d, d)
        gram = forward @ back.transpose(0, 2, 1)
        line_gram = np.maximum(line_gram, np.abs(gram - d * eye).max())

    law = np.abs(norms - 1) * size.max(axis=1) ** 2  # the largest entry of A_p^2 - A_p
    delta = per_line[3].max()  # how far the line operators are from their routes
    total = columns.sum(axis=0)
    averages = np.abs(total - columns - d * eye).max() / d if counts_hold else np.inf
    bounds = [
        ("op.point_hermitian", per_point[0].max(), eps),
        ("op.line_hermitian", per_line[0].max(), eps),
        ("op.point_projector", law.max(), tol),
        ("op.point_projector", per_point[1].max(), eps),
        ("op.column_completeness", np.abs(columns - eye).max(), tol),
        ("op.global_sum", np.abs(total - (d + 1) * eye).max(), tol),
        ("op.line_sum", np.abs(line_total - d * eye).max(), tol),
        ("op.point_from_lines", averages, tol),
        ("op.line_trace", per_line[1].max(), tol),
        ("op.line_gram", line_gram + 2 * d * delta + (d * delta) ** 2, tol),
        ("op.line_involution", per_line[2].max(), tol),
        ("op.cross_term_distillation", (per_line[2] + law[at].sum(axis=1)).max(), tol),
        ("op.point_route_equality", per_point[2].max(), eps),
        ("op.line_route_equality", delta, eps),
        ("op.point_gram_cases", point_gram, tol),
        ("op.incidence_trace", incidence + delta * (size.sum(axis=1) ** 2).max(), tol),
    ]
    if not one_per_column:  # the line sweep counts a repeated point twice: settle nothing here
        return [(name, np.inf, tol) for name, _, tol in bounds]
    return bounds


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


def _worst_trace(a, b, expected, tol: float, what: str, row, col) -> str:
    """_worst of |tr(a[i] @ b[j]) - expected(rows)[i, j]| over all pairs, by blocks of rows."""
    top, where = np.empty(len(a)), np.empty(len(a), dtype=int)
    step = _block(a.shape[-1])
    for i in range(0, len(a), step):
        rows = slice(i, min(i + step, len(a)))
        devs = np.abs(_trace_products(a[rows], b) - expected(rows))
        top[rows], where[rows] = devs.max(axis=1), devs.argmax(axis=1)
    i = int(np.argmax(top))
    if top[i] <= tol:
        return ""
    return f"{what} {row(i)} vs {col(int(where[i]))} deviates by {top[i]:.3e}"


def _witnesses(mod: Modulus, eps: float, names) -> dict[str, str]:
    """The witness of each named check by its exhaustive formula, or "" if it holds after all.

    verify runs this only for the checks its block sweeps failed, so that a
    witness names the first offending label and its deviation exactly as the
    exhaustive battery does. It holds the dense point and line stacks (the
    projectors A, and N^T A - I from the incidence matrix N) and forms each
    Gram one block of rows at a time.
    """
    d = mod.d
    n = incidence_matrix(mod)
    eye = np.eye(d)
    states = mub_family(mod).transpose(0, 2, 1).reshape(len(n), d)
    a_stack = states[:, :, None] * states[:, None, :].conj()
    p_stack = _over_lines(n, a_stack) - eye
    tol = d * max(eps, 16 * d * np.finfo(float).eps)

    def point(i: int) -> str:
        return format_point(all_points(mod)[i])

    def line(j: int) -> str:
        return format_line(all_lines(mod)[j])

    def each(stack):  # largest entry per operator
        return np.abs(stack).max(axis=(1, 2))

    def projector() -> str:
        bad = _worst(each(a_stack @ a_stack - a_stack), tol, "projector law for point", point)
        dev = np.abs(a_stack.trace(axis1=1, axis2=2) - 1.0)
        return bad or _worst(dev, eps, "trace of point operator", point)

    def total(dev, what: str) -> str:
        return "" if dev <= tol else f"total deviates from {what} by {float(dev):.3e}"

    def cross_terms() -> str:
        s = p_stack + eye  # the sum of each line's projectors
        dev = each(s @ s - _over_lines(n, a_stack @ a_stack) - s)
        what = "cross terms on line {} deviate by {:.3e}"
        return witness(dev > tol, lambda j: what.format(line(j), dev[j]))

    def columns() -> str:
        dev = each(a_stack.reshape(d + 1, d, d, d).sum(axis=1) - eye)
        what = "column b={} resolution deviates by {:.3e}"
        return witness(dev > tol, lambda c: what.format(c - 1, dev[c]))

    def point_gram(rows: slice) -> np.ndarray:  # rows start and end at column boundaries
        expected = np.full((rows.stop - rows.start, len(n)), 1.0 / d)
        for i in range(0, len(expected), d):  # a column against itself
            expected[i : i + d, rows.start + i : rows.start + i + d] = eye
        return expected

    def line_gram(rows: slice) -> np.ndarray:
        return d * np.eye(rows.stop - rows.start, d * d, rows.start)

    column, row = np.divmod(np.arange(len(n)), d)
    lines = np.divmod(np.arange(d * d), d)
    witnesses = {
        "op.point_hermitian": lambda: _worst(
            each(a_stack - a_stack.conj().transpose(0, 2, 1)), eps, "point operator", point
        ),
        "op.line_hermitian": lambda: _worst(
            each(p_stack - p_stack.conj().transpose(0, 2, 1)), eps, "line operator", line
        ),
        "op.point_projector": projector,
        "op.column_completeness": columns,
        "op.global_sum": lambda: total(np.abs(a_stack.sum(axis=0) - (d + 1) * eye).max(), "(d+1)I"),
        "op.line_sum": lambda: total(np.abs(p_stack.sum(axis=0) - d * eye).max(), "dI"),
        "op.point_from_lines": lambda: _worst(
            each(_over_lines(n.T, p_stack) / d - a_stack), tol, "line average at point", point
        ),
        "op.line_trace": lambda: _worst(
            np.abs(p_stack.trace(axis1=1, axis2=2) - 1.0), tol, "trace of line operator", line
        ),
        "op.line_gram": lambda: _worst_trace(
            p_stack, p_stack, line_gram, tol, "line gram", line, line
        ),
        "op.line_involution": lambda: _worst(
            each(p_stack @ p_stack - eye), tol, "square of line operator", line
        ),
        "op.cross_term_distillation": cross_terms,
        "op.point_route_equality": lambda: _worst(
            each(a_stack - _point_operators(mod, row, column - 1)), eps, "point routes at", point
        ),
        "op.line_route_equality": lambda: _worst(
            each(p_stack - _line_operators(mod, *lines)), eps, "line routes at", line
        ),
        "op.point_gram_cases": lambda: _worst_trace(
            a_stack, a_stack, point_gram, tol, "point gram", point, point
        ),
        "op.incidence_trace": lambda: _worst_trace(
            a_stack, p_stack, lambda rows: n[rows], tol, "incidence trace", point, line
        ),
    }
    return {name: witnesses[name]() for name in names}


def verify_operator_identities(mod: Modulus, eps: float = DEFAULT_EPS) -> AxiomReport:
    """Check every algebraic identity the operator families satisfy, block by block.

    The point projectors A are the outer products of the states of mub_family
    and the line operators are the sums of their incident projectors minus I,
    found through the rows of _line_points; both are held entry by entry to the
    direct routes, each rule evaluated once per block of d labels. The other
    identities are read off the structure those checks confirm (see
    _deviations): O(d^3) entries live at once and O(d^5) time. Summed identities
    are held to d*eps, floored at 16 d^2 2^-52: their rounding alone reached
    3.2 d^2 2^-52 over d = 3..47 (op.global_sum at d = 41). The route
    equalities and the Hermiticity checks are held to eps itself. A check that
    fails is named by its exhaustive formula (_witnesses).
    """
    deviations = _deviations(mod, eps)
    failing = {name for name, dev, tol in deviations if not dev <= tol}
    findings = dict.fromkeys((name for name, _, _ in deviations), "")
    if failing:
        findings.update(_witnesses(mod, eps, failing))
    return AxiomReport.from_findings(mod.d, findings)

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

from .core import DEFAULT_EPS, Modulus, check_eps, roots_of_unity
from .geometry import (
    CB_COLUMN,
    Line,
    Point,
    _has_plane_counts,
    _line_point_index,
    _namers,
    _point_at,
    check_line,
    check_point,
)
from .mub import _overlaps, _point_states
from .report import AxiomReport, first_witnesses, offending


def point_operator_direct(mod: Modulus, point: Point) -> np.ndarray:
    """Projector of a point from its entrywise phase rule, no state involved.

    For b >= 0 the (n, n') entry is omega^((n - n')(half(b)(n + n' - 1) - m))/d;
    the reference column gives the diagonal unit at (m, m).
    """
    return _point_operators(mod, *check_point(mod, point))


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
    return _line_operators(mod, *check_line(mod, line))


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


def _blocks(total: int, d: int) -> list[slice]:
    """Label blocks in order, of whole columns b of points or m_minus1 of lines: as many as fit
    2^12 operator entries, at least one. So d <= 7 takes one block, and from d = 13 a block is one
    column, O(d^3) entries; a larger budget made d = 13 and 19 slower.
    """
    step = d * max(1, 2**12 // d**3)
    return [slice(i, min(i + step, total)) for i in range(0, total, step)]


def _tables(mod: Modulus) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The states by point_index, the point_index of each line's points, which count, and |psi|^2.

    A point counts once in its row [line_index, b + 1], in its first column, as in N.
    """
    states = _point_states(mod)
    at = _line_point_index(mod)
    order = np.argsort(at, axis=1, kind="stable")
    first = np.ones(at.shape, dtype=bool)
    np.put_along_axis(first, order[:, 1:], np.diff(np.take_along_axis(at, order, axis=1)) != 0, 1)
    return states, at, first, (np.abs(states) ** 2).sum(axis=1)


def _projectors(psi: np.ndarray) -> np.ndarray:
    """The point operators psi psi^dagger of a block of states."""
    return psi[:, :, None] * psi[:, None, :].conj()


def _line_sums(states: np.ndarray, at: np.ndarray, first: np.ndarray, block: slice) -> np.ndarray:
    """The line operators of a block of lines: Psi^T conj(Psi) - I over the points that count."""
    psi = states[at[block]]  # [line, point of the line, n]
    psi[~first[block]] = 0
    return psi.transpose(0, 2, 1) @ psi.conj() - np.eye(states.shape[1])


def _each(stack: np.ndarray) -> np.ndarray:
    """The largest entry of each operator of a stack."""
    return np.abs(stack).max(axis=(1, 2))


def _deviations(mod: Modulus, tables: tuple, eps: float) -> list[tuple]:
    """(check, deviation, tolerance, witness text, label kinds) per bound, in report order.

    The tables are _tables(mod). The blocks are _blocks, of whole columns, and the column sums are
    taken one column at a time whatever the block. Each line operator is built from the states
    of the distinct points on its row, as Psi^T conj(Psi) - I, and only the two route checks
    read the direct routes. The rest is read off the objects each
    identity is about: A_p^2 - A_p = (|psi_p|^2 - 1) A_p, and tr(A_p A_q) = |G|^2,
    G the states' Gram, bounded off mub._overlaps: |G - I| <= on in a column gives
    abs(|G|^2 - I) <= on (2 + on), ||G| - 1/sqrt(d)| <= x across two gives
    abs(|G|^2 - 1/d) <= x (x + 2/sqrt(d)); an entry in a column rounds to ~10 times
    one across, so the two are kept apart. With the plane's collinearity counts
    (geometry._has_plane_counts), line j holds one point of p's column and d
    across, so tr(A_p P_j) - N[p, j] is one Gram deviation in a column plus d
    across two, less |psi_p|^2 - 1; tr(P_j P_k) sums tr(A_q P_j) over the d+1
    points q of k, less tr(P_j), so the line Gram is within d+1 times the
    incidence bound plus the norms'. The cross terms are the square's deviation
    plus the norms', the line average at a point the column sums under the same
    counts. op.point_projector has two bounds, law then trace.

    The deviation is one per (p)oint, (l)ine or (c)olumn where the sweep measures the
    check's own formula, else one number: a total or a bound.
    """
    d = mod.d
    eye = np.eye(d)
    tol = d * max(eps, 16 * d * np.finfo(float).eps)
    states, at, first, norms = tables
    index = np.arange(len(states))

    per_point = np.empty((3, len(states)))  # Hermiticity, trace, route
    columns = np.empty((d + 1, d, d), dtype=complex)  # [b + 1]
    for block in _blocks(len(states), d):
        a = _projectors(states[block])
        per_point[0, block] = _each(a - a.conj().transpose(0, 2, 1))
        per_point[1, block] = np.abs(a.trace(axis1=1, axis2=2) - 1.0)
        per_point[2, block] = _each(a - _point_operators(mod, *_point_at(mod, index[block])))
        columns[block.start // d : block.stop // d] = a.reshape(-1, d, d, d).sum(axis=1)
    on, off = (np.max(x) for x in _overlaps(states, d))
    same, cross = on * (2 + on), off * (off + 2 / np.sqrt(d))  # bounds on abs(|G|^2 - 1, 0, 1/d)

    per_line = np.empty((4, len(at)))  # Hermiticity, trace, square, route
    line_columns = np.empty((d, d, d), dtype=complex)  # [m_minus1]
    for block in _blocks(len(at), d):
        p = _line_sums(states, at, first, block)
        per_line[0, block] = _each(p - p.conj().transpose(0, 2, 1))
        per_line[1, block] = np.abs(p.trace(axis1=1, axis2=2) - 1.0)
        per_line[2, block] = _each(p @ p - eye)
        per_line[3, block] = _each(p - _line_operators(mod, *divmod(index[block], d)))
        line_columns[block.start // d : block.stop // d] = p.reshape(-1, d, d, d).sum(axis=1)

    plane = _has_plane_counts(at)
    unit = np.abs(norms - 1).max()
    law = np.abs(norms - 1) * np.abs(states).max(axis=1) ** 2  # the largest entry of A_p^2 - A_p
    total = columns.sum(axis=0)
    resolution = _each(columns - eye)
    averages = _each(total - columns - d * eye).repeat(d) / d if plane else np.inf
    sums = np.abs(total - (d + 1) * eye).max(), np.abs(line_columns.sum(axis=0) - d * eye).max()
    cross_terms = (per_line[2] + law[at].sum(axis=1)).max()
    point_gram = np.maximum(same, cross)
    incidence = same + d * cross + unit if plane else np.inf
    line_gram = (d + 1) * (incidence + unit)
    return [
        ("op.point_hermitian", per_point[0], eps, "point operator {} deviates by", "p"),
        ("op.line_hermitian", per_line[0], eps, "line operator {} deviates by", "l"),
        ("op.point_projector", law, tol, "projector law for point {} deviates by", "p"),
        ("op.point_projector", per_point[1], eps, "trace of point operator {} deviates by", "p"),
        ("op.column_completeness", resolution, tol, "column b={} resolution deviates by", "c"),
        ("op.global_sum", sums[0], tol, "total deviates from (d+1)I by", ""),
        ("op.line_sum", sums[1], tol, "total deviates from dI by", ""),
        ("op.point_from_lines", averages, tol, "line average at point {} deviates by", "p"),
        ("op.line_trace", per_line[1], tol, "trace of line operator {} deviates by", "l"),
        ("op.line_gram", line_gram, tol, "line gram {} vs {} deviates by", "ll"),
        ("op.line_involution", per_line[2], tol, "square of line operator {} deviates by", "l"),
        ("op.cross_term_distillation", cross_terms, tol, "cross terms on line {} deviate by", "l"),
        ("op.point_route_equality", per_point[2], eps, "point routes at {} deviates by", "p"),
        ("op.line_route_equality", per_line[3], eps, "line routes at {} deviates by", "l"),
        ("op.point_gram_cases", point_gram, tol, "point gram {} vs {} deviates by", "pp"),
        ("op.incidence_trace", incidence, tol, "incidence trace {} vs {} deviates by", "pl"),
    ]


def _first_offending_rows(mod: Modulus, tables: tuple, check: str, tol: float, named) -> str:
    """A check's first witness from its exact deviations, rows of points or lines in order.

    The rows are rebuilt from the sweep's tables block by block as in the sweep, O(d^3) entries
    at a time; named(start, devs) names a block's first deviation above tol, or gives "".
    tr(A_p A_q) = |<psi_p|psi_q>|^2 and tr(P_j A_q) = <psi_q|P_j|psi_q>, one point block at a
    time; against a line k they sum over its points that count: tr(X P_k) = sum_q tr(X A_q) -
    tr(X). The line average at p is (sum_q c_pq A_q - c_pp I) / d with c = N N^T, from the rows
    of N; the cross terms of a line are P^2 + P - sum_q |psi_q|^2 A_q, as A_q^2 = |psi_q|^2 A_q.
    """
    d = mod.d
    states, at, first, norms = tables
    points, lines = _blocks(len(states), d), _blocks(len(at), d)

    def on_lines(t):  # the sum of t[:, q] over the points q of each line that count
        return sum(t[:, at[:, c]] * first[:, c] for c in range(d + 1))

    def incidence(block):  # the rows of N for the points of block
        return on_lines(np.eye(block.stop - block.start, len(states), block.start))

    def gram(block):  # tr(A_p A_q) for the points p of block and every q
        return np.abs(states[block].conj() @ states.T) ** 2

    def line_gram(block, p):
        def quadratic(b):  # <psi_q|P_j|psi_q> for the points q of block b
            z = (p.reshape(-1, d) @ states[b].T).reshape(len(p), d, -1)
            return np.einsum("jaq,qa->jq", z, states[b].conj())

        traces = on_lines(np.hstack([quadratic(b) for b in points]))  # tr(P_j (P_k + I))
        traces -= p.trace(axis1=1, axis2=2)[:, None] + d * np.eye(len(p), len(at), block.start)
        return np.abs(traces)

    def cross_terms(block, p):
        squares = _line_sums(states * np.sqrt(norms)[:, None], at, first, block)  # sum A_q^2 - I
        return _each(p @ p + p - squares - np.eye(d))

    def line_average(block, a):
        rows = incidence(block)
        s = sum(rows @ incidence(b).T @ _projectors(states[b]).reshape(-1, d * d) for b in points)
        return _each((s.reshape(a.shape) - rows.sum(axis=1)[:, None, None] * np.eye(d)) / d - a)

    def point_gram(block, a):
        same = np.arange(block.start, block.stop)[:, None] // d == np.arange(len(states)) // d
        return np.abs(gram(block) - np.where(same, np.eye(len(a), len(states), block.start), 1 / d))

    def incidence_trace(block, a):
        return np.abs(on_lines(gram(block)) - norms[block, None] - incidence(block))

    rows, deviations = {
        "op.point_from_lines": (points, line_average),
        "op.line_gram": (lines, line_gram),
        "op.cross_term_distillation": (lines, cross_terms),
        "op.point_gram_cases": (points, point_gram),
        "op.incidence_trace": (points, incidence_trace),
    }[check]

    def build(b):
        return _projectors(states[b]) if rows is points else _line_sums(states, at, first, b)

    return first_witnesses(rows, build, lambda b, x: named(b.start, deviations(b, x)))[0]


def verify_operator_identities(mod: Modulus, eps: float = DEFAULT_EPS) -> AxiomReport:
    """Check every algebraic identity the operator families satisfy, block by block.

    The projectors and the line operators are built from the states and held to
    the direct routes; the rest is read off them, not off the routes (_deviations),
    in O(d^3) entries and O(d^5) time. Summed identities are held to d*eps, floored
    at 16 d^2 2^-52: their rounding alone reached 3.2 d^2 2^-52 over d = 3..47
    (op.global_sum at d = 41). The routes and the Hermiticity are held to eps, which must be
    below 1/(2 d^2), or the 1/d gap of the point Gram cases could no longer fail.
    A failing check names its first offending label, or pair, in label order and
    its deviation; where the sweep holds one number for it, _first_offending_rows decides.
    """
    point, line = _namers(mod)
    label = {"p": point, "l": line, "c": lambda c: str(c - 1)}  # a name by index, c of a column b
    tables = _tables(mod)
    findings: dict[str, str] = {}
    for check, devs, tol, what, kinds in _deviations(mod, tables, check_eps(eps, mod.d)):

        def named(start, devs):  # the first deviation not within tol; devs' row 0 is label start
            def text(*at):
                names = (label[k](i + s) for k, i, s in zip(kinds, at, (start, 0)))
                return what.format(*names) + f" {devs[at]:.3e}"

            return offending(devs, tol, text)

        exact = np.ndim(devs) < len(kinds) and not devs <= tol
        findings[check] = findings.get(check) or (
            _first_offending_rows(mod, tables, check, tol, named) if exact else named(0, devs)
        )
    return AxiomReport.from_findings(mod.d, findings)

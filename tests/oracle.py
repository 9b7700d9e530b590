"""The per-label construction routes of the operators, and dense operator stacks.

The package builds line operators from their anti-diagonal closed form, the
battery's projectors and line operators block by block from the bases, and
the phase-space functions without building any operator. The tests hold these against slow
references: a point projector as the outer product of one state, a line
operator as the sum of its d+1 incident projectors minus the identity, and
every point and line operator stacked in point_index and line_index order.
It also builds the two Clifford gates that permute the line operators, the
clock and shift matrices, and the bases as one array. It evaluates the
phase-space kernels with every index and phase table built anew on each call,
which the package's cached tables must match bit for bit, and keeps the
Fourier-slice route of the basis probabilities as a second route.

dense_operator_battery is the exhaustive operator battery: every identity held
entry by entry on the dense d(d+1) x d x d stacks and the (d(d+1))^2 Grams,
each failing check named by its first offending label (or pair, row by row)
in label order. It is the reference that the package no longer holds: the
package's block battery, which names a witness from its sweep or from an exact
pass over blocks of rows, must give the same report, and deviations within
rounding of these, wherever the two are compared.

gram_dapg_axioms, gram_apg_axioms and gram_duality are the exhaustive geometry
and duality checks: every check read off a Gram of the 0/1 incidence matrices
N and M of incidence_matrix and apg_incidence_matrix (N^T N, N N^T, M M^T,
M^T M and N M), each failing check named by its first offending pair, point or
line in row-major order. The package's counting
verifiers must give the same report. They read the label rules through the
geometry module, so that a fault injected there reaches them too.
"""

import numpy as np

from mubgeo import geometry, mub, operators
from mubgeo.core import DEFAULT_EPS, roots_of_unity
from mubgeo.geometry import (
    CB_COLUMN,
    ApgPoint,
    Line,
    Point,
    SlopedLine,
    VerticalLine,
    check_line,
    check_point,
    format_line,
    format_point,
    line_index,
    line_points,
    point_index,
)
from mubgeo.mub import mub_state
from mubgeo.report import AxiomReport, witness


def all_points(mod):
    """Every dual-plane point in point_index order: column by column from the reference column."""
    return [Point(m, b) for b in range(CB_COLUMN, mod.d) for m in range(mod.d)]


def all_lines(mod):
    """Every dual-plane line in line_index order: lexicographic in (m_minus1, m0)."""
    return [Line(a, m0) for a in range(mod.d) for m0 in range(mod.d)]


def apg_points(mod):
    """Every affine point, lexicographic in (xi, eta)."""
    return [ApgPoint(xi, eta) for xi in range(mod.d) for eta in range(mod.d)]


def apg_lines(mod):
    """Every affine line in the order of M's columns: sloped ones lexicographic, then verticals."""
    sloped = [SlopedLine(r, s) for r in range(mod.d) for s in range(mod.d)]
    return sloped + [VerticalLine(xi) for xi in range(mod.d)]


def incidence_matrix(mod):
    """The dual plane's incidence matrix N, read off the points of every line at once.

    N[point_index, line_index] is 1 where the point lies on the line, else 0:
    d(d+1) rows, d^2 columns, float64 so that products count exactly.
    """
    rows = geometry._line_point_index(mod)
    n = np.zeros((mod.d * (mod.d + 1), len(rows)))
    n[rows, np.arange(len(rows))[:, None]] = 1.0
    return n


def apg_incidence_matrix(mod):
    """The affine plane's incidence matrix M, read off the points of every affine line at once.

    M[a, k] is 1 where affine point a lies on the k-th line of _apg_line_labels:
    d^2 rows, d(d+1) columns, float64. Row a = xi*d + eta is also the
    line_index of the dual-plane line that the point labels.
    """
    rows = line_index(mod, Line(*geometry._apg_line_points(mod, *geometry._apg_line_labels(mod))))
    m = np.zeros((mod.d * mod.d, len(rows)))
    m[rows, np.arange(len(rows))[:, None]] = 1.0
    return m


def mub_family(mod):
    """All d+1 bases as one array [b+1, n, m]: state m of basis b is [b+1][:, m]."""
    return np.swapaxes(mub._point_states(mod).reshape(mod.d + 1, mod.d, mod.d), 1, 2)


def z_matrix(mod):
    """Clock matrix: diagonal of omega^n."""
    return np.diag(roots_of_unity(mod.d))


def x_matrix(mod):
    """Cyclic shift sending position n to n+1 mod d."""
    return np.roll(np.eye(mod.d, dtype=complex), 1, axis=0)


def point_operator(mod, point):
    """Projector onto the basis state labelled by the point (outer-product route)."""
    check_point(mod, point)
    v = mub_state(mod, point.b, point.m)
    return np.outer(v, v.conj())


def line_operator_sum(mod, line):
    """Line operator as the sum of its incident projectors minus the identity."""
    check_line(mod, line)
    acc = -np.eye(mod.d, dtype=complex)
    for p in line_points(mod, line):
        acc = acc + point_operator(mod, p)
    return acc


def point_operator_stack(mod):
    """All d(d+1) point projectors, in point_index order."""
    return np.stack([point_operator(mod, p) for p in all_points(mod)])


def line_operator_stack(mod):
    """All d^2 line operators by the sum route, in line_index order."""
    return np.stack([line_operator_sum(mod, line) for line in all_lines(mod)])


def clifford_gates(mod):
    """The phase gate S = diag(omega^half(n(n-1))) and the Fourier gate F = omega^(n n') / sqrt(d).

    S P_(a, m0) S^dagger = P_(a, m0 - a + half(1)) and F P_(a, m0) F^dagger = P_(m0, -a).
    """
    n = np.arange(mod.d)
    roots = np.array(roots_of_unity(mod.d))
    return np.diag(roots[mod.half(n * (n - 1))]), roots[np.outer(n, n) % mod.d] / np.sqrt(mod.d)


def line_coefficients(b):
    """tr(B P_(a, m0)) for every line: omega^(2 a m0) times the FFT of B[2a - n, n] at 2 m0.

    The phases are bound to a name before the product. numpy reuses a large
    temporary operand in place, which can swap the operands of the product, and
    a complex product rounds its imaginary part differently by operand order.
    """
    d = len(b)
    k = np.arange(d)
    a = k[:, None]
    spectrum = np.fft.fft(b[(2 * a - k) % d, k], axis=1)
    phases = np.exp(2j * np.pi * (2 * a * k % d) / d)
    return spectrum[:, 2 * k % d] * phases


def slices(mod):
    """Row and column into FFT2(V), and phase, of frequency k of column b = -1..d-1, as [b+1, k]."""
    k = np.arange(mod.d)
    j = np.r_[1, k][:, None]
    m = np.r_[0, np.ones(mod.d, dtype=int)][:, None]
    return (k * j % mod.d, k * m), np.exp(2j * np.pi * k / mod.d)[k * mod.half(j * m) % mod.d]


def reconstruct(values, mod):
    """B[n, n'] = the FFT of V along m0 at row half(n + n'), frequency n - n', over d."""
    n, k = np.indices((mod.d, mod.d))
    spectrum = np.fft.fft(values, axis=1)
    return spectrum[mod.half(n + k), (n - k) % mod.d] / mod.d


def chirp_probabilities(mod, rho):
    """<psi|rho|psi> as a complex (d+1) x d table: diag(rho), then for each basis b >= 0 the FFT
    along k of omega^(half(b) k(k-1)) / d times the FFT of the diagonal rho[n, n + k] at -bk.
    """
    d = mod.d
    n = np.arange(d)
    spectrum = np.fft.fft(rho[n, (n + n[:, None]) % d], axis=1)  # [k, frequency]
    b, k = n[:, None], n
    phases = np.exp(2j * np.pi * n / d)[mod.half(b) * (k * (k - 1) % d) % d] / d
    vals = np.empty((d + 1, d), dtype=complex)
    vals[0] = np.diag(rho)
    vals[1:] = np.fft.fft(spectrum[k, -b * k % d] * phases, axis=1)
    return vals


def probabilities(mod, rho):
    """p(m, b) by the diagonal route, real part."""
    return chirp_probabilities(mod, rho).real


def probabilities_by_slices(mod, rho):
    """p(., b) as the inverse FFT of slice b of FFT2(V), times its phases, over d.

    The second route: summing V over the pencil of lines through each point is a
    discrete Radon transform, so each basis is one Fourier slice of FFT2(V).
    """
    index, phases = slices(mod)
    return (np.fft.ifft(np.fft.fft2(line_coefficients(rho))[index] * phases, axis=1) / mod.d).real


def quasi_from_probabilities(values, mod):
    """V from the probabilities: each frequency on its slice, (0, 0) from the total."""
    index, phases = slices(mod)
    w = np.empty((mod.d, mod.d), dtype=complex)
    w[index] = np.fft.fft(values, axis=1) * phases.conj()
    w[0, 0] = values.sum(axis=1).sum() - mod.d
    return np.fft.ifft2(w).real * mod.d


def _over_lines(n, stack):
    """n^T stack, each sum gathered from its own operators: per line with n = N, per point with N^T.

    The operators of each column of n are padded to the largest count with a zero operator,
    so a nan operator reaches only the sums that hold it (a product with n would spread it).
    """
    counts = n.sum(axis=0).astype(int)
    column, row = np.nonzero(n.T)  # by column, rows ascending
    index = np.full((len(counts), counts.max()), len(stack))
    index[column, np.arange(len(row)) - np.repeat(np.cumsum(counts) - counts, counts)] = row
    return np.concatenate([stack, np.zeros((1,) + stack.shape[1:])])[index].sum(axis=1)


def _first(devs, tol, what, *names):
    """The first deviation not within tol (nan included) in label order, named per axis."""
    return witness(
        ~(devs <= tol),
        lambda *at: f"{what} {' vs '.join(name(i) for name, i in zip(names, at))}"
        f" deviates by {devs[at]:.3e}",
    )


def _trace_products(a, b):
    """tr(a[i] @ b[j]) for every pair (i, j), as one matrix product."""
    return a.reshape(len(a), -1) @ b.transpose(0, 2, 1).reshape(len(b), -1).T


def dense_operator_battery(mod, eps=DEFAULT_EPS):
    """The report of every operator identity, and (check, deviation, tolerance) per bound.

    A check with two bounds (op.point_projector: the projector law, then the
    trace) gives two entries. The deviation is the largest over the whole check.
    The direct routes are read through the operators module, so that a fault
    injected there reaches this battery too.
    """
    d = mod.d
    n = incidence_matrix(mod)
    eye = np.eye(d)
    states = mub._point_states(mod)  # point_index order
    a_stack = states[:, :, None] * states[:, None, :].conj()
    p_stack = _over_lines(n, a_stack) - eye
    tol = d * max(eps, 16 * d * np.finfo(float).eps)
    findings = {}
    deviations = []

    def held(name, dev, bound):
        deviations.append((name, float(np.max(dev)), bound))
        return dev

    def each(stack):
        return np.abs(stack).max(axis=(1, 2))

    def point(i):
        return format_point(all_points(mod)[i])

    def line(j):
        return format_line(all_lines(mod)[j])

    dev = held("op.point_hermitian", each(a_stack - a_stack.conj().transpose(0, 2, 1)), eps)
    findings["op.point_hermitian"] = _first(dev, eps, "point operator", point)

    dev = held("op.line_hermitian", each(p_stack - p_stack.conj().transpose(0, 2, 1)), eps)
    findings["op.line_hermitian"] = _first(dev, eps, "line operator", line)

    a_sq = a_stack @ a_stack
    dev = held("op.point_projector", each(a_sq - a_stack), tol)
    bad = _first(dev, tol, "projector law for point", point)
    dev = held("op.point_projector", np.abs(a_stack.trace(axis1=1, axis2=2) - 1.0), eps)
    if not bad:
        bad = _first(dev, eps, "trace of point operator", point)
    findings["op.point_projector"] = bad

    dev = each(a_stack.reshape(d + 1, d, d, d).sum(axis=1) - eye)
    held("op.column_completeness", dev, tol)
    findings["op.column_completeness"] = witness(
        ~(dev <= tol), lambda c: f"column b={c - 1} resolution deviates by {dev[c]:.3e}"
    )

    dev = held("op.global_sum", float(np.abs(a_stack.sum(axis=0) - (d + 1) * eye).max()), tol)
    findings["op.global_sum"] = "" if dev <= tol else f"total deviates from (d+1)I by {dev:.3e}"

    dev = held("op.line_sum", float(np.abs(p_stack.sum(axis=0) - d * eye).max()), tol)
    findings["op.line_sum"] = "" if dev <= tol else f"total deviates from dI by {dev:.3e}"

    dev = held("op.point_from_lines", each(_over_lines(n.T, p_stack) / d - a_stack), tol)
    findings["op.point_from_lines"] = _first(dev, tol, "line average at point", point)

    dev = held("op.line_trace", np.abs(p_stack.trace(axis1=1, axis2=2) - 1.0), tol)
    findings["op.line_trace"] = _first(dev, tol, "trace of line operator", line)

    dev = held("op.line_gram", np.abs(_trace_products(p_stack, p_stack) - d * np.eye(d * d)), tol)
    findings["op.line_gram"] = _first(dev, tol, "line gram", line, line)

    dev = held("op.line_involution", each(p_stack @ p_stack - eye), tol)
    findings["op.line_involution"] = _first(dev, tol, "square of line operator", line)

    s = p_stack + eye  # the sum of each line's projectors
    dev = held("op.cross_term_distillation", each(s @ s - _over_lines(n, a_sq) - s), tol)
    findings["op.cross_term_distillation"] = witness(
        ~(dev <= tol), lambda j: f"cross terms on line {line(j)} deviate by {dev[j]:.3e}"
    )

    column, row = np.divmod(np.arange(len(n)), d)
    dev = each(a_stack - operators._point_operators(mod, row, column - 1))
    held("op.point_route_equality", dev, eps)
    findings["op.point_route_equality"] = _first(dev, eps, "point routes at", point)

    dev = each(p_stack - operators._line_operators(mod, *np.divmod(np.arange(d * d), d)))
    held("op.line_route_equality", dev, eps)
    findings["op.line_route_equality"] = _first(dev, eps, "line routes at", line)

    same_column = np.kron(np.eye(d + 1), np.ones((d, d)))
    expected = (1.0 - same_column) / d + np.eye(len(n))
    dev = held("op.point_gram_cases", np.abs(_trace_products(a_stack, a_stack) - expected), tol)
    findings["op.point_gram_cases"] = _first(dev, tol, "point gram", point, point)

    dev = held("op.incidence_trace", np.abs(_trace_products(a_stack, p_stack) - n), tol)
    findings["op.incidence_trace"] = _first(dev, tol, "incidence trace", point, line)

    return AxiomReport.from_findings(d, findings), deviations


def _distinct_columns(gram):
    """How many distinct columns a 0/1 matrix X has, read off its Gram matrix X^T X.

    Columns i and j are equal exactly when they share as many ones as each holds.
    """
    size = np.diag(gram)
    same = (gram == size[:, None]) & (gram == size[None, :])
    return len(gram) - int(np.triu(same, 1).any(axis=0).sum())


def gram_dapg_axioms(mod):
    """Exhaustively check the defining properties of the dual plane.

    Covers: counts (d^2 distinct lines, d(d+1) points); any two lines meet in
    exactly one point; any two points of different columns lie on exactly one
    common line; every point lies on d lines and every line holds d+1 points,
    one per column; no line joins two points of one column; the cross-column
    connectivity that makes the geometry a single block.
    Read off N: N^T N = dI + J; N N^T is 1 across columns, 0 within one.
    """
    d = mod.d
    n = incidence_matrix(mod)
    meet = n.T @ n
    join = n @ n.T
    column, row = np.divmod(np.arange(len(n)), d)  # point i is (row, column - 1)
    pairs = np.triu(np.ones(join.shape, dtype=bool), 1)
    same = pairs & (column[:, None] == column[None, :])
    cross = pairs & (column[:, None] != column[None, :])

    def point(i: int) -> str:
        return format_point(all_points(mod)[i])

    def two_points(i: int, j: int) -> str:
        return f"points {point(i)} and {point(j)}"

    def line(j: int) -> str:
        return format_line(all_lines(mod)[j])

    distinct = _distinct_columns(meet)
    ok_counts = distinct == d * d
    pencils = np.zeros_like(n)
    pencils[np.arange(len(n))[:, None], line_index(mod, geometry._pencil(mod, row, column - 1))] = 1.0
    bad_degree = witness(
        (pencils != n).any(axis=1) | (pencils.sum(axis=1) != d),
        lambda i: f"point {point(i)} lies on {int(n[i].sum())} lines",
    )
    profile = n.reshape(d + 1, d, -1).sum(axis=1).astype(int)
    bad_degree = bad_degree or witness(
        (profile != 1).any(axis=0),
        lambda j: f"line {line(j)} has column profile"
        f" {np.repeat(np.arange(CB_COLUMN, d), profile[:, j]).tolist()}",
    )

    bad_part = witness(
        same & (join != 0),
        lambda i, j: f"{two_points(i, j)} of column {column[i] - 1} share {int(join[i, j])} lines",
    )

    return AxiomReport.from_findings(
        d,
        {
            "dapg.counts": "" if ok_counts else f"{distinct} distinct lines, {len(n)} points",
            "dapg.lines_meet_once": witness(
                np.triu(meet != 1, 1),
                lambda i, j: f"lines {line(i)} and {line(j)} share {int(meet[i, j])} points",
            ),
            "dapg.points_join_once": witness(
                cross & (join != 1),
                lambda i, j: f"{two_points(i, j)} lie on {int(join[i, j])} common lines",
            ),
            "dapg.degrees": bad_degree,
            "dapg.columns_partition": bad_part,
            "dapg.cross_column_connected": witness(
                cross & (join == 0), lambda i, j: f"{two_points(i, j)} are disconnected"
            ),
        },
    )


def gram_apg_axioms(mod):
    """Exhaustively check that the affine construction is an affine plane of order d.

    Covers: counts (d^2 points, d(d+1) distinct lines, d points per line);
    a unique line joins any two distinct points; the parallel postulate;
    d+1 parallel classes of d mutually disjoint lines; lines of different
    classes meet in exactly one point; a non-collinear triple exists.
    Read off M: M M^T = dI + J; M^T M is dI within a class, J across classes;
    M [M^T M = 0] is 1 off the line.
    """
    d = mod.d
    labels = geometry._apg_line_labels(mod)
    slope = labels[0]  # d for the verticals
    m = apg_incidence_matrix(mod)
    join = m @ m.T
    meet = m.T @ m
    parallels = m @ (meet == 0)
    same_class = slope[:, None] == slope[None, :]

    def point(a: int) -> str:
        return f"({a // d},{a % d})"

    def line(k: int) -> str:
        return repr(geometry._apg_line(mod, *labels[:, k]))

    ok_counts = _distinct_columns(meet) == d * (d + 1) and (m.sum(axis=0) == d).all()
    collinear = m[[0, d, 1]].all(axis=0).any()

    return AxiomReport.from_findings(
        d,
        {
            "apg.counts": "" if ok_counts else "wrong point/line counts",
            "apg.unique_join": witness(
                np.triu(join != 1, 1),
                lambda a, b: f"points {point(a)} and {point(b)} lie on {int(join[a, b])} lines",
            ),
            "apg.parallel_postulate": witness(
                ((m == 0) & (parallels != 1)).T,
                lambda k, a: f"{int(parallels[a, k])} parallels to {line(k)} through {point(a)}",
            ),
            "apg.parallel_classes": witness(
                np.triu(same_class & (meet != 0), 1),
                lambda k, l: f"parallel lines {line(k)} and {line(l)} intersect",
            ),
            "apg.cross_class_meet_once": witness(
                np.triu(~same_class & (meet != 1), 1),
                lambda k, l: f"lines {line(k)} and {line(l)} of different classes"
                f" share {int(meet[k, l])} points",
            ),
            "apg.non_collinear_triple": "(0,0),(1,0),(0,1) collinear" if collinear else "",
        },
    )


def gram_duality(mod):
    """Exhaustively check the correspondence between the two geometries.

    Every affine line indexes a pencil of dual-plane lines sharing exactly one
    point; the affine-line -> common-point map is a bijection onto the dual
    points sending parallel classes onto columns (slope r to column -r mod d,
    verticals to the reference column); and the pencil through a fixed affine
    point maps exactly onto the point set of its dual line.
    """
    d = mod.d
    labels = geometry._apg_line_labels(mod)
    n = incidence_matrix(mod)
    m = apg_incidence_matrix(mod)
    common = geometry._common_point(mod, *labels)
    at = point_index(mod, common)
    pi = np.zeros((len(n), len(at)))
    pi[at, np.arange(len(at))] = 1.0
    # row a of M is dual line a, so (N M)[p, k] counts the lines of pencil k through p;
    # column k must reach its full count at the k-th common point alone
    full = n @ m == m.sum(axis=0)
    bad_pencil = witness(
        (full != (pi > 0)).any(axis=0),
        lambda k: f"pencil of {geometry._apg_line(mod, *labels[:, k])!r} shares"
        f" {geometry._sorted_points(mod, np.flatnonzero(full[:, k]))}",
    )

    distinct = np.count_nonzero(np.bincount(at))
    if distinct != d * (d + 1):
        bad_bijection = f"{distinct} distinct common points, expected {d * (d + 1)}"
    else:
        columns = common.b.reshape(d + 1, d)
        expected = np.array([(-r) % d for r in range(d)] + [CB_COLUMN])
        bad_bijection = witness(
            (columns != expected[:, None]).any(axis=1),
            lambda r: (f"slope {r} maps" if r < d else "verticals map")
            + f" to columns {sorted(set(columns[r].tolist()))}",
        )

    image = pi @ m.T > 0  # must have the support of N
    bad_roundtrip = witness(
        (image != (n > 0)).any(axis=0),
        lambda a: f"pencil through ({a // d},{a % d}) maps onto"
        f" {geometry._sorted_points(mod, np.flatnonzero(image[:, a]))}",
    )

    return AxiomReport.from_findings(
        d,
        {
            "duality.pencil_common_point": bad_pencil,
            "duality.class_to_column_bijection": bad_bijection,
            "duality.point_pencil_roundtrip": bad_roundtrip,
        },
    )

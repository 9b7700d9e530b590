"""A dual affine plane over Z_d, the affine plane itself, and the duality between them.

The dual plane has d(d+1) points arranged in d+1 columns: a reference column
b = -1 plus one column per b = 0..d-1, each holding rows m = 0..d-1. A line is
labelled by its rows in columns -1 and 0 and visits every column exactly once:

    row(-1) = m_minus1
    row(b)  = half(b) * (2*m_minus1 - 1) + m0      (mod d, b = 0..d-1)

The affine plane on the d*d points (xi, eta) has sloped lines eta = r*xi + s
and vertical lines xi = const. Its points correspond one-to-one with dual-plane
lines via (xi, eta) = (m_minus1, m0); under that reading, the d dual-plane
lines indexed by an affine line all pass through a single dual-plane point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from .core import Modulus
from .report import AxiomReport, witness

CB_COLUMN = -1


class Point(NamedTuple):
    """Dual-plane point: row m in column b (b = -1 is the reference column)."""

    m: int
    b: int


class Line(NamedTuple):
    """Dual-plane line, labelled by its rows in columns -1 and 0."""

    m_minus1: int
    m0: int


class ApgPoint(NamedTuple):
    xi: int
    eta: int


@dataclass(frozen=True)
class SlopedLine:
    """Affine line eta = r*xi + s (mod d)."""

    r: int
    s: int


@dataclass(frozen=True)
class VerticalLine:
    """Affine line xi = const."""

    xi: int


ApgLine = Union[SlopedLine, VerticalLine]


def _first(label, ok):
    """label itself when its fields are scalars, else its first entry where ok is false."""
    if np.ndim(ok) == 0:
        return label
    return type(label)(*(np.broadcast_to(f, ok.shape).flat[np.argmin(ok)].item() for f in label))


def check_point(mod: Modulus, point: Point) -> None:
    """Raise ValueError unless every point is valid; the fields may be arrays."""
    ok = (0 <= point.m) & (point.m < mod.d) & (CB_COLUMN <= point.b) & (point.b < mod.d)
    if not np.all(ok):
        raise ValueError(f"invalid point label {format_point(_first(point, ok))} for d={mod.d}")


def check_line(mod: Modulus, line: Line) -> None:
    """Raise ValueError unless every line is valid; the fields may be arrays."""
    ok = (0 <= line.m_minus1) & (line.m_minus1 < mod.d) & (0 <= line.m0) & (line.m0 < mod.d)
    if not np.all(ok):
        raise ValueError(f"invalid line label {format_line(_first(line, ok))} for d={mod.d}")


def format_point(point: Point) -> str:
    return f"({point.m},{point.b})"


def format_line(line: Line) -> str:
    return f"({line.m_minus1},{line.m0})"


def all_points(mod: Modulus) -> tuple[Point, ...]:
    """Every dual-plane point, column-major starting at the reference column."""
    return tuple(Point(m, b) for b in range(CB_COLUMN, mod.d) for m in range(mod.d))


def all_lines(mod: Modulus) -> tuple[Line, ...]:
    """Every dual-plane line, lexicographic in (m_minus1, m0)."""
    return tuple(Line(a, b) for a in range(mod.d) for b in range(mod.d))


def _unstack(labels) -> tuple:
    """A label whose fields are equal-length arrays, as a tuple of labels."""
    return tuple(map(type(labels), *(f.tolist() for f in labels)))


def line_points(mod: Modulus, line: Line) -> tuple[Point, ...]:
    """The d+1 points of a line, one per column, in column order -1, 0, .., d-1."""
    check_line(mod, line)
    return _unstack(_line_points(mod, *line))


def _line_points(mod: Modulus, m_minus1, m0) -> Point:
    """The points of lines (m_minus1, m0), over label arrays: fields of shape (..., d+1).

    Column -1 holds row m_minus1, column b >= 0 row half(b)(2 m_minus1 - 1) + m0 mod d.
    """
    b = np.arange(CB_COLUMN, mod.d)
    m_minus1, m0 = np.expand_dims(m_minus1, -1), np.expand_dims(m0, -1)
    m = np.where(b == CB_COLUMN, m_minus1, (mod.half(b) * (2 * m_minus1 - 1) + m0) % mod.d)
    return Point(m, np.broadcast_to(b, m.shape))


def lines_through_point(mod: Modulus, point: Point) -> tuple[Line, ...]:
    """The d lines through a point, in ascending m_minus1 (m0 for the reference column)."""
    check_point(mod, point)
    return _unstack(_pencil(mod, *point))


def _pencil(mod: Modulus, m, b) -> Line:
    """The lines through points (m, b), over label arrays: fields of shape (..., d).

    Through column b >= 0 line t has m_minus1 = t and m0 = m - half(b)(2t - 1).
    """
    t = np.arange(mod.d)
    m, b = np.expand_dims(m, -1), np.expand_dims(b, -1)
    ref = b == CB_COLUMN
    return Line(np.where(ref, m, t), np.where(ref, t, (m - mod.half(b) * (2 * t - 1)) % mod.d))


def parallel_class(mod: Modulus, b: int) -> tuple[Point, ...]:
    """All d points of one column; columns partition the point set."""
    if not CB_COLUMN <= b < mod.d:
        raise ValueError(f"invalid column {b} for d={mod.d}")
    return _unstack(_parallel_class(mod, b))


def _parallel_class(mod: Modulus, b) -> Point:
    """The points of columns b, over label arrays: fields of shape (..., d)."""
    return Point(*np.broadcast_arrays(np.arange(mod.d), np.expand_dims(b, -1)))


def apg_points(mod: Modulus) -> tuple[ApgPoint, ...]:
    return tuple(ApgPoint(xi, eta) for xi in range(mod.d) for eta in range(mod.d))


def apg_lines(mod: Modulus) -> tuple[ApgLine, ...]:
    """All d(d+1) affine lines: sloped ones lexicographic in (r, s), then verticals."""
    return tuple(_apg_line(mod, r, s) for r, s in _apg_line_labels(mod).T)


def _apg_line_labels(mod: Modulus) -> np.ndarray:
    """(r, s) of every affine line in apg_lines order, as rows of one array; r = d codes xi = s."""
    return np.indices((mod.d + 1, mod.d)).reshape(2, -1)


def _apg_line(mod: Modulus, r, s) -> ApgLine:
    return VerticalLine(int(s)) if r == mod.d else SlopedLine(int(r), int(s))


def _slope_intercept(mod: Modulus, apg_line: ApgLine) -> tuple[int, int]:
    """The fields (r, s) that the array rules take for a valid affine line; r = d for xi = s."""
    if isinstance(apg_line, VerticalLine):
        if not 0 <= apg_line.xi < mod.d:
            raise ValueError(f"invalid vertical line xi={apg_line.xi} for d={mod.d}")
        return mod.d, apg_line.xi
    if not isinstance(apg_line, SlopedLine):
        raise TypeError(f"not an affine line: {apg_line!r}")
    if not (0 <= apg_line.r < mod.d and 0 <= apg_line.s < mod.d):
        raise ValueError(f"invalid sloped line (r={apg_line.r}, s={apg_line.s}) for d={mod.d}")
    return apg_line.r, apg_line.s


def apg_line_points(mod: Modulus, apg_line: ApgLine) -> tuple[ApgPoint, ...]:
    """The d affine points on an affine line."""
    return _unstack(_apg_line_points(mod, *_slope_intercept(mod, apg_line)))


def _apg_line_points(mod: Modulus, r, s) -> ApgPoint:
    """The points of affine lines (r, s), over label arrays: fields of shape (..., d)."""
    t = np.arange(mod.d)
    r, s = np.expand_dims(r, -1), np.expand_dims(s, -1)
    vertical = r == mod.d
    return ApgPoint(np.where(vertical, s, t), np.where(vertical, t, (r * t + s) % mod.d))


def duality_common_point(mod: Modulus, apg_line: ApgLine) -> Point:
    """The single dual-plane point shared by all lines indexed along an affine line.

    This is the closed form; verify_duality checks it against the pencils read off N M.
    A vertical line xi = s' collects the lines with m_minus1 = s', which meet in
    (s', -1). A sloped line eta = r*xi + s collects lines meeting in row
    s + half(r) of column -r mod d; slope 0 lands in column 0 at row s.
    """
    return Point(*(int(f) for f in _common_point(mod, *_slope_intercept(mod, apg_line))))


def _common_point(mod: Modulus, r, s) -> Point:
    """duality_common_point of affine lines (r, s), over label arrays."""
    vertical = r == mod.d
    m = np.where(vertical, s, (s + mod.half(r)) % mod.d)
    return Point(m, np.where(vertical, CB_COLUMN, (-r) % mod.d))


def point_index(mod: Modulus, point: Point):
    """Position of a point, column-major with the reference column first; fields may be arrays."""
    check_point(mod, point)
    return (point.b + 1) * mod.d + point.m


def line_index(mod: Modulus, line: Line):
    """Position of a line in the lexicographic (m_minus1, m0) enumeration; fields may be arrays."""
    check_line(mod, line)
    return line.m_minus1 * mod.d + line.m0


def _line_point_index(mod: Modulus) -> np.ndarray:
    """point_index of the points of every line, one _line_points call: [line_index, b + 1]."""
    return point_index(mod, _line_points(mod, *np.divmod(np.arange(mod.d * mod.d), mod.d)))


def incidence_matrix(mod: Modulus) -> np.ndarray:
    """The dual plane's incidence matrix N, read off the points of every line at once.

    N[point_index, line_index] is 1 where the point lies on the line, else 0:
    d(d+1) rows, d^2 columns, float64 so that products count exactly.
    """
    rows = _line_point_index(mod)
    n = np.zeros((mod.d * (mod.d + 1), len(rows)))
    n[rows, np.arange(len(rows))[:, None]] = 1.0
    return n


def apg_incidence_matrix(mod: Modulus) -> np.ndarray:
    """The affine plane's incidence matrix M, read off the points of every affine line at once.

    M[a, k] is 1 where affine point a lies on the k-th line of apg_lines: d^2
    rows, d(d+1) columns, float64. Row a = xi*d + eta follows apg_points, which
    is also the line_index of the dual-plane line that the point labels.
    """
    r, s = _apg_line_labels(mod)
    m = np.zeros((mod.d * mod.d, len(r)))
    m[line_index(mod, Line(*_apg_line_points(mod, r, s))), np.arange(len(r))[:, None]] = 1.0
    return m


def _distinct_columns(gram: np.ndarray) -> int:
    """How many distinct columns a 0/1 matrix X has, read off its Gram matrix X^T X.

    Columns i and j are equal exactly when they share as many ones as each holds.
    """
    size = np.diag(gram)
    same = (gram == size[:, None]) & (gram == size[None, :])
    return len(gram) - int(np.triu(same, 1).any(axis=0).sum())


def _sorted_points(mod: Modulus, indices) -> list[Point]:
    points = all_points(mod)
    return sorted(points[i] for i in indices)


def verify_dapg_axioms(mod: Modulus) -> AxiomReport:
    """Exhaustively check the defining properties of the dual plane.

    Covers: counts (d^2 distinct lines, d(d+1) points); any two lines meet in
    exactly one point; any two points of different columns lie on exactly one
    common line; every point lies on d lines and every line holds d+1 points,
    one per column; columns partition the points and are totally disconnected;
    the cross-column connectivity that makes the geometry a single block.
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
    pencils[np.arange(len(n))[:, None], line_index(mod, _pencil(mod, row, column - 1))] = 1.0
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

    members = point_index(mod, _parallel_class(mod, np.arange(CB_COLUMN, d)))
    ok_part = (np.bincount(members.ravel(), minlength=len(n)) == 1).all()
    bad_part = witness(
        same & (join != 0),
        lambda i, j: f"{two_points(i, j)} of column {column[i] - 1} share {int(join[i, j])} lines",
    ) or ("" if ok_part else "columns do not partition the point set")

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


def verify_apg_axioms(mod: Modulus) -> AxiomReport:
    """Exhaustively check that the affine construction is an affine plane of order d.

    Covers: counts (d^2 points, d(d+1) distinct lines, d points per line);
    a unique line joins any two distinct points; the parallel postulate;
    d+1 parallel classes of d mutually disjoint lines; lines of different
    classes meet in exactly one point; a non-collinear triple exists.
    Read off M: M M^T = dI + J; M^T M is dI within a class, J across classes;
    M [M^T M = 0] is 1 off the line.
    """
    d = mod.d
    labels = _apg_line_labels(mod)
    slope = labels[0]  # d for the verticals
    m = apg_incidence_matrix(mod)
    join = m @ m.T
    meet = m.T @ m
    parallels = m @ (meet == 0)
    same_class = slope[:, None] == slope[None, :]
    sizes = np.bincount(slope)
    sizes = sizes[sizes > 0]

    def point(a: int) -> str:
        return f"({a // d},{a % d})"

    def line(k: int) -> str:
        return repr(_apg_line(mod, *labels[:, k]))

    ok_counts = (
        len(slope) == d * (d + 1)
        and _distinct_columns(meet) == d * (d + 1)
        and (m.sum(axis=0) == d).all()
    )
    if len(sizes) != d + 1 or (sizes != d).any():
        bad_classes = f"{len(sizes)} classes with sizes {sorted(sizes.tolist())}"
    else:
        bad_classes = witness(
            np.triu(same_class & (meet != 0), 1),
            lambda k, l: f"parallel lines {line(k)} and {line(l)} intersect",
        )
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
            "apg.parallel_classes": bad_classes,
            "apg.cross_class_meet_once": witness(
                np.triu(~same_class & (meet != 1), 1),
                lambda k, l: f"lines {line(k)} and {line(l)} of different classes"
                f" share {int(meet[k, l])} points",
            ),
            "apg.non_collinear_triple": "(0,0),(1,0),(0,1) collinear" if collinear else "",
        },
    )


def verify_duality(mod: Modulus) -> AxiomReport:
    """Exhaustively check the correspondence between the two geometries.

    Every affine line indexes a pencil of dual-plane lines sharing exactly one
    point; the affine-line -> common-point map is a bijection onto the dual
    points sending parallel classes onto columns (slope r to column -r mod d,
    verticals to the reference column); and the pencil through a fixed affine
    point maps exactly onto the point set of its dual line.
    """
    d = mod.d
    labels = _apg_line_labels(mod)
    n = incidence_matrix(mod)
    m = apg_incidence_matrix(mod)
    common = _common_point(mod, *labels)
    at = point_index(mod, common)
    pi = np.zeros((len(n), len(at)))
    pi[at, np.arange(len(at))] = 1.0
    # row a of M is dual line a, so (N M)[p, k] counts the lines of pencil k through p;
    # column k must reach its full count at the k-th common point alone
    full = n @ m == m.sum(axis=0)
    bad_pencil = witness(
        (full != (pi > 0)).any(axis=0),
        lambda k: f"pencil of {_apg_line(mod, *labels[:, k])!r} shares"
        f" {_sorted_points(mod, np.flatnonzero(full[:, k]))}",
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
        f" {_sorted_points(mod, np.flatnonzero(image[:, a]))}",
    )

    return AxiomReport.from_findings(
        d,
        {
            "duality.pencil_common_point": bad_pencil,
            "duality.class_to_column_bijection": bad_bijection,
            "duality.point_pencil_roundtrip": bad_roundtrip,
        },
    )

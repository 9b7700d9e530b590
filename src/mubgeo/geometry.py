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
from itertools import chain
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


def check_point(mod: Modulus, point: Point) -> None:
    if not (0 <= point.m < mod.d and CB_COLUMN <= point.b < mod.d):
        raise ValueError(f"invalid point label {format_point(point)} for d={mod.d}")


def check_line(mod: Modulus, line: Line) -> None:
    if not (0 <= line.m_minus1 < mod.d and 0 <= line.m0 < mod.d):
        raise ValueError(f"invalid line label {format_line(line)} for d={mod.d}")


def check_apg_line(mod: Modulus, apg_line: ApgLine) -> None:
    if isinstance(apg_line, VerticalLine):
        if not 0 <= apg_line.xi < mod.d:
            raise ValueError(f"invalid vertical line xi={apg_line.xi} for d={mod.d}")
    elif isinstance(apg_line, SlopedLine):
        if not (0 <= apg_line.r < mod.d and 0 <= apg_line.s < mod.d):
            raise ValueError(
                f"invalid sloped line (r={apg_line.r}, s={apg_line.s}) for d={mod.d}"
            )
    else:
        raise TypeError(f"not an affine line: {apg_line!r}")


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


def line_points(mod: Modulus, line: Line) -> tuple[Point, ...]:
    """The d+1 points of a line, one per column, in column order -1, 0, .., d-1."""
    check_line(mod, line)
    rows = line_row(mod, line, np.arange(mod.d)).tolist()
    return (Point(line.m_minus1, CB_COLUMN),) + tuple(map(Point, rows, range(mod.d)))


def line_row(mod: Modulus, line: Line, b: int):
    """The row at which a line crosses column b >= 0: half(b)(2 m_minus1 - 1) + m0 mod d.

    The label and b may hold integer arrays that broadcast; the rows then come back as one.
    """
    return (mod.half(b) * (2 * line.m_minus1 - 1) + line.m0) % mod.d


def lines_through_point(mod: Modulus, point: Point) -> tuple[Line, ...]:
    """The d lines through a point, in ascending m_minus1 (m0 for the reference column)."""
    check_point(mod, point)
    if point.b == CB_COLUMN:
        return tuple(Line(point.m, m0) for m0 in range(mod.d))
    hb = mod.half(point.b)
    return tuple(Line(t, (point.m - hb * (2 * t - 1)) % mod.d) for t in range(mod.d))


def parallel_class(mod: Modulus, b: int) -> tuple[Point, ...]:
    """All d points of one column; columns partition the point set."""
    if not CB_COLUMN <= b < mod.d:
        raise ValueError(f"invalid column {b} for d={mod.d}")
    return tuple(Point(m, b) for m in range(mod.d))


def apg_points(mod: Modulus) -> tuple[ApgPoint, ...]:
    return tuple(ApgPoint(xi, eta) for xi in range(mod.d) for eta in range(mod.d))


def apg_lines(mod: Modulus) -> tuple[ApgLine, ...]:
    """All d(d+1) affine lines: sloped ones lexicographic in (r, s), then verticals."""
    sloped = tuple(SlopedLine(r, s) for r in range(mod.d) for s in range(mod.d))
    vertical = tuple(VerticalLine(xi) for xi in range(mod.d))
    return sloped + vertical


def apg_line_points(mod: Modulus, apg_line: ApgLine) -> tuple[ApgPoint, ...]:
    """The d affine points on an affine line."""
    check_apg_line(mod, apg_line)
    if isinstance(apg_line, VerticalLine):
        return tuple(ApgPoint(apg_line.xi, eta) for eta in range(mod.d))
    eta = (apg_line.r * np.arange(mod.d) + apg_line.s) % mod.d
    return tuple(map(ApgPoint, range(mod.d), eta.tolist()))


def duality_common_point(mod: Modulus, apg_line: ApgLine) -> Point:
    """The single dual-plane point shared by all lines indexed along an affine line.

    This is the closed form; verify_duality checks it against the pencils read off N M.
    A vertical line xi = s' collects the lines with m_minus1 = s', which meet in
    (s', -1). A sloped line eta = r*xi + s collects lines meeting in row
    s + half(r) of column -r mod d; slope 0 lands in column 0 at row s.
    """
    check_apg_line(mod, apg_line)
    if isinstance(apg_line, VerticalLine):
        return Point(apg_line.xi, CB_COLUMN)
    return Point((apg_line.s + mod.half(apg_line.r)) % mod.d, (-apg_line.r) % mod.d)


def point_index(mod: Modulus, point: Point) -> int:
    """Position of a point in the column-major enumeration (reference column first)."""
    check_point(mod, point)
    return (point.b + 1) * mod.d + point.m


def line_index(mod: Modulus, line: Line) -> int:
    """Position of a line in the lexicographic (m_minus1, m0) enumeration."""
    check_line(mod, line)
    return line.m_minus1 * mod.d + line.m0


def _label_array(labels) -> np.ndarray:
    """A sequence of two-field labels as a (2, len) integer array, one row per field."""
    return np.fromiter(chain.from_iterable(labels), dtype=np.int64).reshape(-1, 2).T


def _point_indices(mod: Modulus, points) -> np.ndarray:
    """point_index of each point in a sequence, as one integer array."""
    m, b = _label_array(points)
    bad = (m < 0) | (m >= mod.d) | (b < CB_COLUMN) | (b >= mod.d)
    if bad.any():
        check_point(mod, Point(*points[int(np.argmax(bad))]))
    return (b + 1) * mod.d + m


def _line_indices(mod: Modulus, lines) -> np.ndarray:
    """line_index of each line (or affine point read as one) in a sequence, as one array."""
    a, m0 = _label_array(lines)
    bad = (a < 0) | (a >= mod.d) | (m0 < 0) | (m0 >= mod.d)
    if bad.any():
        check_line(mod, Line(*lines[int(np.argmax(bad))]))
    return a * mod.d + m0


def _scatter(rows: int, groups, indices) -> np.ndarray:
    """0/1 float matrix whose column k is 1 at indices(groups[k]), in one scatter."""
    at = indices([x for g in groups for x in g])
    out = np.zeros((rows, len(groups)))
    out[at, np.repeat(np.arange(len(groups)), [len(g) for g in groups])] = 1.0
    return out


def incidence_matrix(mod: Modulus) -> np.ndarray:
    """The dual plane's incidence matrix N, built from line_points.

    N[point_index, line_index] is 1 where the point lies on the line, else 0:
    d(d+1) rows, d^2 columns, float64 so that products count exactly.
    """
    groups = [line_points(mod, line) for line in all_lines(mod)]
    return _scatter(mod.d * (mod.d + 1), groups, lambda p: _point_indices(mod, p))


def apg_incidence_matrix(mod: Modulus) -> np.ndarray:
    """The affine plane's incidence matrix M, built from apg_line_points.

    M[a, k] is 1 where affine point a lies on the k-th line of apg_lines: d^2
    rows, d(d+1) columns, float64. Row a = xi*d + eta follows apg_points, which
    is also the line_index of the dual-plane line that the point labels.
    """
    groups = [apg_line_points(mod, apg_line) for apg_line in apg_lines(mod)]
    return _scatter(mod.d * mod.d, groups, lambda p: _line_indices(mod, p))


def _distinct_columns(gram: np.ndarray) -> int:
    """How many distinct columns a 0/1 matrix X has, read off its Gram matrix X^T X.

    Columns i and j are equal exactly when they share as many ones as each holds.
    """
    size = np.diag(gram)
    same = (gram == size[:, None]) & (gram == size[None, :])
    return len(gram) - int(np.triu(same, 1).any(axis=0).sum())


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
    lines = all_lines(mod)
    points = all_points(mod)
    n = incidence_matrix(mod)
    meet = n.T @ n
    join = n @ n.T
    column = np.arange(len(points)) // d
    pairs = np.triu(np.ones(join.shape, dtype=bool), 1)
    same = pairs & (column[:, None] == column[None, :])
    cross = pairs & (column[:, None] != column[None, :])

    def two_points(i: int, j: int) -> str:
        return f"points {format_point(points[i])} and {format_point(points[j])}"

    distinct = _distinct_columns(meet)
    ok_counts = len(lines) == d * d and len(points) == d * (d + 1) and distinct == d * d

    groups = [lines_through_point(mod, p) for p in points]
    pencils = _scatter(len(lines), groups, lambda ln: _line_indices(mod, ln)).T
    bad_degree = witness(
        (pencils != n).any(axis=1) | (pencils.sum(axis=1) != d),
        lambda i: f"point {format_point(points[i])} lies on {int(n[i].sum())} lines",
    )
    profile = n.reshape(d + 1, d, -1).sum(axis=1).astype(int)
    bad_degree = bad_degree or witness(
        (profile != 1).any(axis=0),
        lambda j: f"line {format_line(lines[j])} has column profile"
        f" {np.repeat(np.arange(CB_COLUMN, d), profile[:, j]).tolist()}",
    )

    members = _point_indices(mod, [p for b in range(CB_COLUMN, d) for p in parallel_class(mod, b)])
    ok_part = (np.bincount(members, minlength=len(points)) == 1).all()
    bad_part = witness(
        same & (join != 0),
        lambda i, j: f"{two_points(i, j)} of column {points[i].b} share {int(join[i, j])} lines",
    ) or ("" if ok_part else "columns do not partition the point set")

    return AxiomReport.from_findings(
        d,
        {
            "dapg.counts": "" if ok_counts else f"{distinct} distinct lines, {len(points)} points",
            "dapg.lines_meet_once": witness(
                np.triu(meet != 1, 1),
                lambda i, j: f"lines {format_line(lines[i])} and {format_line(lines[j])}"
                f" share {int(meet[i, j])} points",
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
    lines = apg_lines(mod)
    points = apg_points(mod)
    m = apg_incidence_matrix(mod)
    join = m @ m.T
    meet = m.T @ m
    parallels = m @ (meet == 0)
    slope = np.array([d if isinstance(line, VerticalLine) else line.r for line in lines])
    same_class = slope[:, None] == slope[None, :]
    sizes = np.bincount(slope)
    sizes = sizes[sizes > 0]

    def point(a: int) -> str:
        return f"({points[a].xi},{points[a].eta})"

    ok_counts = (
        len(points) == d * d
        and len(lines) == d * (d + 1)
        and _distinct_columns(meet) == d * (d + 1)
        and (m.sum(axis=0) == d).all()
    )
    if len(sizes) != d + 1 or (sizes != d).any():
        bad_classes = f"{len(sizes)} classes with sizes {sorted(sizes.tolist())}"
    else:
        bad_classes = witness(
            np.triu(same_class & (meet != 0), 1),
            lambda k, l: f"parallel lines {lines[k]!r} and {lines[l]!r} intersect",
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
                lambda k, a: f"{int(parallels[a, k])} parallels to {lines[k]!r} through {point(a)}",
            ),
            "apg.parallel_classes": bad_classes,
            "apg.cross_class_meet_once": witness(
                np.triu(~same_class & (meet != 1), 1),
                lambda k, l: f"lines {lines[k]!r} and {lines[l]!r} of different classes"
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
    lines = apg_lines(mod)
    points = all_points(mod)
    n = incidence_matrix(mod)
    m = apg_incidence_matrix(mod)
    mapped = [duality_common_point(mod, apg_line) for apg_line in lines]
    pi = _scatter(len(points), [(p,) for p in mapped], lambda p: _point_indices(mod, p))
    # row a of M is dual line a, so (N M)[p, k] counts the lines of pencil k through p;
    # column k must reach its full count at the k-th common point alone
    full = n @ m == m.sum(axis=0)
    bad_pencil = witness(
        (full != (pi > 0)).any(axis=0),
        lambda k: f"pencil of {lines[k]!r} shares"
        f" {sorted(points[i] for i in np.flatnonzero(full[:, k]))}",
    )

    if len(set(mapped)) != d * (d + 1):
        bad_bijection = f"{len(set(mapped))} distinct common points, expected {d * (d + 1)}"
    else:
        columns = np.array([p.b for p in mapped]).reshape(d + 1, d)
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
        f" {sorted(points[i] for i in np.flatnonzero(image[:, a]))}",
    )

    return AxiomReport.from_findings(
        d,
        {
            "duality.pencil_common_point": bad_pencil,
            "duality.class_to_column_bijection": bad_bijection,
            "duality.point_pencil_roundtrip": bad_roundtrip,
        },
    )

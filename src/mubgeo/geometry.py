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
from .report import AxiomReport, first_witnesses, witness

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


def _integral(*fields) -> bool:
    """Whether every field is an integer, or an array of them; a bool is not one."""
    return all(np.asarray(f).dtype.kind in "iu" for f in fields)


def _int64(*fields) -> tuple:
    """The fields of a valid label, numpy ones as int64 and a Python int as it is.

    numpy computes in a field's own dtype, where -r, b + 1 and half(b) * (...) wrap. The cast
    wraps a uint64 past int64, so it follows the range test; an int64 field passes uncopied.
    """
    return tuple(f if isinstance(f, int) else np.asarray(f, dtype=np.int64) for f in fields)


def check_point(mod: Modulus, point: Point) -> Point:
    """The point with int64 fields; ValueError unless every point is valid. Fields may be arrays."""
    ok = (0 <= point.m) & (point.m < mod.d) & (CB_COLUMN <= point.b) & (point.b < mod.d)
    if not (_integral(*point) and np.all(ok)):
        raise ValueError(f"invalid point label {format_point(_first(point, ok))} for d={mod.d}")
    return Point(*_int64(*point))


def check_line(mod: Modulus, line: Line) -> Line:
    """The line with int64 fields; ValueError unless every line is valid. Fields may be arrays."""
    ok = (0 <= line.m_minus1) & (line.m_minus1 < mod.d) & (0 <= line.m0) & (line.m0 < mod.d)
    if not (_integral(*line) and np.all(ok)):
        raise ValueError(f"invalid line label {format_line(_first(line, ok))} for d={mod.d}")
    return Line(*_int64(*line))


def format_point(point: Point) -> str:
    return f"({point.m},{point.b})"


def format_line(line: Line) -> str:
    return f"({line.m_minus1},{line.m0})"


def _unstack(labels) -> tuple:
    """A label whose fields are equal-length arrays, as a tuple of labels."""
    return tuple(map(type(labels), *(f.tolist() for f in labels)))


def line_points(mod: Modulus, line: Line) -> tuple[Point, ...]:
    """The d+1 points of a line, one per column, in column order -1, 0, .., d-1."""
    return _unstack(_line_points(mod, *check_line(mod, line)))


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
    return _unstack(_pencil(mod, *check_point(mod, point)))


def _pencil(mod: Modulus, m, b) -> Line:
    """The lines through points (m, b), over label arrays: fields of shape (..., d).

    Through column b >= 0 line t has m_minus1 = t and m0 = m - half(b)(2t - 1).
    """
    t = np.arange(mod.d)
    m, b = np.expand_dims(m, -1), np.expand_dims(b, -1)
    ref = b == CB_COLUMN
    return Line(np.where(ref, m, t), np.where(ref, t, (m - mod.half(b) * (2 * t - 1)) % mod.d))


def _apg_line_labels(mod: Modulus) -> np.ndarray:
    """(r, s) of every affine line, sloped ones in order then verticals; r = d codes xi = s."""
    return np.indices((mod.d + 1, mod.d)).reshape(2, -1)


def _apg_line(mod: Modulus, r, s) -> ApgLine:
    return VerticalLine(int(s)) if r == mod.d else SlopedLine(int(r), int(s))


def _slope_intercept(mod: Modulus, apg_line: ApgLine) -> tuple:
    """The int64 (r, s) that the array rules take for a valid affine line; r = d for xi = s."""
    if isinstance(apg_line, VerticalLine):
        if not (_integral(apg_line.xi) and 0 <= apg_line.xi < mod.d):
            raise ValueError(f"invalid vertical line xi={apg_line.xi} for d={mod.d}")
        return _int64(mod.d, apg_line.xi)
    if not isinstance(apg_line, SlopedLine):
        raise TypeError(f"not an affine line: {apg_line!r}")
    r, s = apg_line.r, apg_line.s
    if not (_integral(r, s) and 0 <= r < mod.d and 0 <= s < mod.d):
        raise ValueError(f"invalid sloped line (r={r}, s={s}) for d={mod.d}")
    return _int64(r, s)


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

    This is the closed form; verify_duality checks it against the pencils it counts.
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
    point = check_point(mod, point)
    return (point.b + 1) * mod.d + point.m


def line_index(mod: Modulus, line: Line):
    """Position of a line in the lexicographic (m_minus1, m0) enumeration; fields may be arrays."""
    line = check_line(mod, line)
    return line.m_minus1 * mod.d + line.m0


def _point_at(mod: Modulus, i) -> Point:
    """The point at point_index i, the inverse of point_index; i may be an array."""
    return Point(i % mod.d, i // mod.d - 1)


def _namers(mod: Modulus) -> tuple:
    """The witness names of a point and of a line, by their index."""
    return lambda i: format_point(_point_at(mod, i)), lambda j: format_line(Line(*divmod(j, mod.d)))


def _line_point_index(mod: Modulus) -> np.ndarray:
    """point_index of the points of every line, one _line_points call: [line_index, b + 1]."""
    return point_index(mod, _line_points(mod, *np.divmod(np.arange(mod.d * mod.d), mod.d)))


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct values of an integer array, ascending, by one sort."""
    keys = np.sort(keys, axis=None)
    return keys[np.concatenate(([True], keys[1:] != keys[:-1]))]


def _one_sided(x: np.ndarray, y: np.ndarray, width: int, size: int) -> np.ndarray:
    """Per group key // width, the count of keys in x or y alone; equal sorted keys compare once."""
    if np.array_equal(x, y):
        return np.zeros(size, dtype=np.intp)
    return np.bincount(np.setxor1d(x, y, assume_unique=True) // width, minlength=size)


def _grouped(x, y, size: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct pairs (x, y), y < width, as (ptr, y): x = i pairs with y[ptr[i]:ptr[i + 1]]."""
    x, y = np.divmod(_distinct(x * width + y), width)
    return np.searchsorted(x, np.arange(size + 1)), y


def _members(grouped, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(position in keys, member) for every member of each key of a grouping, key by key."""
    ptr, values = grouped
    n = ptr[keys + 1] - ptr[keys]
    at = np.arange(n.sum()) + np.repeat(ptr[keys] - np.cumsum(n) + n, n)
    return np.repeat(np.arange(len(keys)), n), values[at]


def _gram_rows(by_row, by_column, width: int, d: int):
    """The rows of X Y, d at a time in order, as first_witnesses reads them: (blocks, build).

    X and Y are 0/1 with their pairs grouped by row, and Y has width columns; build(rows) counts
    the entries of those rows.
    """

    def build(rows):
        owner, columns = _members(by_row, rows)
        inner, partners = _members(by_column, columns)
        g = np.bincount(owner[inner] * width + partners, minlength=len(rows) * width)
        return g.reshape(len(rows), width)

    return np.arange(len(by_row[0]) - 1).reshape(-1, d), build


def _pairs(name, text: str, low: int, high: int | None = None, cls=None, within=True):
    """A test of rows of X X^T: text at the first pair j > i whose count n is not in [low, high].

    high is low unless given. With classes cls, only the pairs of one class (within) or of two are
    tested, and c is the class of i; text is formatted with the names i and j, n and c.
    """

    def test(rows, g):
        bad = (np.arange(g.shape[1]) > rows[:, None]) & ((g < low) | (g > (high or low)))
        if cls is not None:
            bad &= (cls[rows][:, None] == cls) == within
        return witness(
            bad,
            lambda i, j: text.format(
                i=name(rows[i]), j=name(j), n=g[i, j], c=None if cls is None else cls[rows[i]]
            ),
        )

    return test


def _is_net(rows: np.ndarray) -> bool:
    """Whether the d^2 rows take each pair of values 0..d-1 once in every two of their d+1 columns.

    For the lines as their rows per column (the affine points as their lines per class): two
    lines then agree in one column at most, each point lies on d lines, and as sum_p C(d, 2) =
    C(d^2, 2), two lines meet once. Two points of different columns join once.
    """
    d = rows.shape[1] - 1
    columns = np.ascontiguousarray(rows.T)
    for b, first in enumerate(columns * d):
        if any(np.bincount(first + c, minlength=d * d).max() != 1 for c in columns[b + 1 :]):
            return False
    return True


def _has_plane_counts(at: np.ndarray) -> bool:
    """Whether each line of at holds one point per column and the lines form a net.

    Then N N^T holds the plane's collinearity counts: d on its diagonal, 0 between two
    points of one column and 1 across two columns.
    """
    d = at.shape[1] - 1
    return bool((at // d == np.arange(d + 1)).all()) and _is_net(at % d)


def _sorted_points(mod: Modulus, indices: np.ndarray) -> list[Point]:
    return sorted(_unstack(_point_at(mod, indices)))


def verify_dapg_axioms(mod: Modulus) -> AxiomReport:
    """Exhaustively check the defining properties of the dual plane.

    Covers: counts (d^2 distinct lines, d(d+1) points); any two lines meet in
    exactly one point; any two points of different columns lie on exactly one
    common line; every point lies on d lines and every line holds d+1 points,
    one per column; no line joins two points of one column; the cross-column
    connectivity that makes the geometry a single block. The columns are fixed
    by the labels, so only the lines can break these. When each line holds one
    point per column and the lines form a net, the pair checks hold; else the
    rows of N^T N and N N^T are scanned in order.
    """
    d = mod.d
    size = d * (d + 1)
    at = _line_point_index(mod)  # [line, b + 1]
    every = _point_at(mod, np.arange(size))
    pencils = line_index(mod, _pencil(mod, *every))
    lines = np.arange(d * d)[:, None]
    point, line = _namers(mod)

    through = _distinct(at * (d * d) + lines)  # (point, line) of each incidence, once
    degree = np.bincount(through // (d * d), minlength=size)
    pencil = _distinct(np.arange(size)[:, None] * d * d + pencils)
    differs = _one_sided(through, pencil, d * d, size)
    bad_degree = witness(
        (differs > 0) | (np.bincount(pencil // (d * d), minlength=size) != d),
        lambda i: f"point {point(i)} lies on {degree[i]} lines",
    )
    ordered = np.sort(at, axis=1)
    bad_degree = bad_degree or witness(
        (ordered // d != np.arange(d + 1)).any(axis=1),
        lambda j: f"line {line(j)} has column profile {(np.unique(at[j]) // d - 1).tolist()}",
    )

    distinct, meet, join, same, apart = d * d, "", "", "", ""
    if not _has_plane_counts(at):
        ordered[:, 1:][np.diff(ordered, axis=1) == 0] = -1  # a repeated point counts once
        distinct = len(np.unique(np.sort(ordered, axis=1), axis=0))
        by_line, by_point = _grouped(lines, at, d * d, size), _grouped(at, lines, size, d * d)
        text = "lines {i} and {j} share {n} points"
        (meet,) = first_witnesses(*_gram_rows(by_line, by_point, d * d, d), _pairs(line, text, 1))
        col = every.b
        join, same, apart = first_witnesses(
            *_gram_rows(by_point, by_line, size, d),
            _pairs(point, "points {i} and {j} lie on {n} common lines", 1, cls=col, within=False),
            _pairs(point, "points {i} and {j} of column {c} share {n} lines", 0, cls=col),
            _pairs(point, "points {i} and {j} are disconnected", 1, size, cls=col, within=False),
        )

    return AxiomReport.from_findings(
        d,
        {
            "dapg.counts": "" if distinct == d * d else f"{distinct} distinct lines, {size} points",
            "dapg.lines_meet_once": meet,
            "dapg.points_join_once": join,
            "dapg.degrees": bad_degree,
            "dapg.columns_partition": same,
            "dapg.cross_column_connected": apart,
        },
    )


def verify_apg_axioms(mod: Modulus) -> AxiomReport:
    """Exhaustively check that the affine construction is an affine plane of order d.

    Covers: counts (d^2 points, d(d+1) distinct lines, d points per line);
    a unique line joins any two distinct points; the parallel postulate;
    d+1 parallel classes of d mutually disjoint lines; lines of different
    classes meet in exactly one point; a non-collinear triple exists.
    The d+1 classes are the d+1 slopes of _apg_line_labels, d lines each in
    label order, so only the lines can break these. When each class covers
    the points once and the points, as their line in each class, form a net,
    all but the triple hold; else the counts are taken and the rows of M^T M
    and M M^T are scanned in order.
    """
    d = mod.d
    labels = _apg_line_labels(mod)
    slope = labels[0]  # d for the verticals
    table = line_index(mod, Line(*_apg_line_points(mod, *labels)))  # [line, t]: xi*d + eta
    count = len(table)
    line_of = np.full((d + 1, d * d), -1)  # [class, point]: its line in the class, -1 if none
    line_of[np.arange(d + 1)[:, None, None], table.reshape(d + 1, d, d)] = np.arange(d)[:, None]
    net = (line_of >= 0).all() and _is_net(line_of.T)  # d^2 entries: each point once
    ok_counts, join, postulate, classes, cross = True, "", "", "", ""
    if not net:
        ordered = np.sort(table, axis=1)
        ok_counts = (np.diff(ordered, axis=1) != 0).all()
        ok_counts = ok_counts and len(np.unique(ordered, axis=0)) == count
        lines = np.arange(count)[:, None]
        by_line = _grouped(lines, table, count, d * d)
        by_point = _grouped(table, lines, d * d, count)
        point = _namers(mod)[1]  # affine point xi*d + eta, named as its dual line (xi, eta)

        def line(k) -> str:
            return repr(_apg_line(mod, *labels[:, k]))

        def parallels(rows, meet):  # [i, a]: how many lines disjoint from rows[i] pass through a
            k, disjoint = np.nonzero(meet == 0)
            inner, a = _members(by_line, disjoint)
            found = np.bincount(k[inner] * d * d + a, minlength=len(rows) * d * d)
            found = found.reshape(len(rows), -1)
            off = np.ones(found.shape, dtype=bool)
            off[_members(by_line, rows)] = False
            return witness(
                off & (found != 1),
                lambda i, a: f"{found[i, a]} parallels to {line(rows[i])} through {point(a)}",
            )

        text = "lines {i} and {j} of different classes share {n} points"
        postulate, cross, classes = first_witnesses(
            *_gram_rows(by_line, by_point, count, d),
            parallels,
            _pairs(line, text, 1, cls=slope, within=False),
            _pairs(line, "parallel lines {i} and {j} intersect", 0, cls=slope),
        )
        text = "points {i} and {j} lie on {n} lines"
        (join,) = first_witnesses(*_gram_rows(by_point, by_line, d * d, d), _pairs(point, text, 1))
    collinear = np.logical_and.reduce([(table == a).any(axis=1) for a in (0, d, 1)]).any()

    return AxiomReport.from_findings(
        d,
        {
            "apg.counts": "" if ok_counts else "wrong point/line counts",
            "apg.unique_join": join,
            "apg.parallel_postulate": postulate,
            "apg.parallel_classes": classes,
            "apg.cross_class_meet_once": cross,
            "apg.non_collinear_triple": "(0,0),(1,0),(0,1) collinear" if collinear else "",
        },
    )


def verify_duality(mod: Modulus) -> AxiomReport:
    """Exhaustively check the correspondence between the two geometries.

    Every affine line indexes a pencil of dual-plane lines sharing exactly one
    point; the affine-line -> common-point map is a bijection onto the dual
    points sending parallel classes onto columns (slope r to column -r mod d,
    verticals to the reference column); and the pencil through a fixed affine
    point maps exactly onto the point set of its dual line. The pencils are
    counted (rows of M^T N^T) only when the round trip, the bijection, or the
    distinctness of the d points of each affine line and of the lines fails; else
    a second point shared by the pencil of k, the common point of k', puts k on k'.
    """
    d = mod.d
    size = d * (d + 1)
    labels = _apg_line_labels(mod)
    at = _line_point_index(mod)  # [dual line, b + 1]
    table = line_index(mod, Line(*_apg_line_points(mod, *labels)))  # [affine line, t]
    common = _common_point(mod, *labels)
    where = point_index(mod, common)

    ordered = np.sort(table, axis=1)
    ordered = ordered[np.lexsort(ordered.T[::-1])]  # the point sets of the affine lines, sorted
    apart = (ordered[:, 1:] != ordered[:, :-1]).all() and (ordered[1:] != ordered[:-1]).any(1).all()
    del ordered

    distinct = np.count_nonzero(np.bincount(where))
    if distinct != size:
        bad_bijection = f"{distinct} distinct common points, expected {size}"
    else:
        columns = common.b.reshape(d + 1, d)
        expected = np.array([(-r) % d for r in range(d)] + [CB_COLUMN])
        bad_bijection = witness(
            (columns != expected[:, None]).any(axis=1),
            lambda r: (f"slope {r} maps" if r < d else "verticals map")
            + f" to columns {sorted(set(columns[r].tolist()))}",
        )

    # (a, p): p the common point of an affine line through a, or a point of dual line a
    image = _distinct(table * size + where[:, None])
    support = _distinct(np.arange(d * d)[:, None] * size + at)
    differs = _one_sided(image, support, size, d * d)
    bad_roundtrip = witness(
        differs > 0,
        lambda a: f"pencil through ({a // d},{a % d}) maps onto"
        f" {_sorted_points(mod, image[image // size == a] % size)}",
    )

    bad_pencil = ""
    if not (apart and distinct == size and not differs.any()):
        pencils = _grouped(np.arange(len(table))[:, None], table, len(table), d * d)

        def shares(rows, g):  # the points on every distinct line of the pencil, as M counts them
            full = g == np.diff(pencils[0])[rows][:, None]
            return witness(
                (full != (np.arange(size) == where[rows][:, None])).any(axis=1),
                lambda i: f"pencil of {_apg_line(mod, *labels[:, rows[i]])!r} shares"
                f" {_sorted_points(mod, np.flatnonzero(full[i]))}",
            )

        rows = _gram_rows(pencils, _grouped(np.arange(d * d)[:, None], at, d * d, size), size, d)
        (bad_pencil,) = first_witnesses(*rows, shares)

    return AxiomReport.from_findings(
        d,
        {
            "duality.pencil_common_point": bad_pencil,
            "duality.class_to_column_bijection": bad_bijection,
            "duality.point_pencil_roundtrip": bad_roundtrip,
        },
    )

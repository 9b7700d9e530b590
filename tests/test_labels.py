"""A label field of any integer dtype: each per-label view computes in int64, or raises the error.

NumPy does a numpy integer's arithmetic in its own dtype, and a Python-int operand does not widen
it (NEP 50), so a rule fed an int8 or a uint16 label wraps in -r, b + 1 or half(b) * (...). The
label checks hand the views int64 fields. Each view must give exactly the answer of the Python-int
label for an in-range label, and the same error with the same text for an out-of-range one.
"""

from functools import lru_cache

import numpy as np
import pytest

from mubgeo.core import Modulus
from mubgeo.geometry import (
    Line,
    Point,
    SlopedLine,
    VerticalLine,
    apg_line_points,
    duality_common_point,
    line_index,
    line_points,
    lines_through_point,
    point_index,
)
from mubgeo.mub import mub_state
from mubgeo.operators import line_operator_direct, point_operator_direct
from mubgeo.phasespace import MubProbabilities, QuasiDistribution

DTYPES = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64)
DIMS = (3, 13, 211, 1009)


@lru_cache(maxsize=1)
def _tables(d: int) -> tuple[QuasiDistribution, MubProbabilities]:
    """A table of each label set whose value at a label is the label's cell, counted row by row."""
    mod = Modulus(d)
    quasi = QuasiDistribution(mod, np.arange(d * d, dtype=float).reshape(d, d))
    return quasi, MubProbabilities(mod, np.arange((d + 1) * d, dtype=float).reshape(d + 1, d))


# every public per-label view: (name, label type, view of mod and label)
VIEWS = (
    ("line_points", Line, line_points),
    ("line_index", Line, line_index),
    ("line_operator_direct", Line, line_operator_direct),
    ("QuasiDistribution.value", Line, lambda mod, line: _tables(mod.d)[0].value(line)),
    ("lines_through_point", Point, lines_through_point),
    ("point_index", Point, point_index),
    ("point_operator_direct", Point, point_operator_direct),
    ("MubProbabilities.value", Point, lambda mod, point: _tables(mod.d)[1].value(point)),
    ("mub_state", Point, lambda mod, point: mub_state(mod, point.b, point.m)),
    ("apg_line_points.sloped", SlopedLine, apg_line_points),
    ("apg_line_points.vertical", VerticalLine, apg_line_points),
    ("duality_common_point.sloped", SlopedLine, duality_common_point),
    ("duality_common_point.vertical", VerticalLine, duality_common_point),
)

# how a field reaches a view besides a Python int
KINDS = (lambda dtype, v: dtype(v), lambda dtype, v: np.array(v, dtype=dtype))


def _fields(d: int, dtype, label) -> tuple[list, list]:
    """(in range, out of range) field tuples of a label type that dtype can hold at d.

    In range, each field is the largest that is valid, where the rules' sums wrap soonest, or 0,
    with b = -1 for a signed point. Out of range, one field is d, -2, or past the int64 range.
    """
    info = np.iinfo(dtype)
    top = min(d - 1, int(info.max))
    bad = [v for v in (d, -2, 2**63 + 1) if info.min <= v <= info.max]
    if label is VerticalLine:
        return [(top,)], [(v,) for v in bad]
    good = [(top, top), (0, top)] + [(top, -1)] * (label is Point and info.min < 0)
    return good, [f for v in bad for f in ((0, v), (v, 0))]


def _answer(view, mod, label):
    """The view's answer, or the type and text of its label error; no view answers with a str."""
    try:
        return view(mod, label)
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


@lru_cache(maxsize=None)
def _python_int_answer(d: int, label, view, fields: tuple):
    return _answer(view, Modulus(d), label(*fields))


def _same(got, want) -> bool:
    if isinstance(want, np.ndarray) or isinstance(got, np.ndarray):
        return isinstance(got, np.ndarray) and got.dtype == want.dtype and np.array_equal(got, want)
    return got == want


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("label, view", [v[1:] for v in VIEWS], ids=[v[0] for v in VIEWS])
def test_a_label_of_any_integer_dtype_gives_the_python_int_answer(d, label, view):
    mod = Modulus(d)
    wrong = []
    for dtype in DTYPES:
        good, bad = _fields(d, dtype, label)
        for fields in good + bad:
            want = _python_int_answer(d, label, view, fields)
            assert (fields in bad) == isinstance(want, str), (fields, want)
            for kind in KINDS:
                got = _answer(view, mod, label(*(kind(dtype, f) for f in fields)))
                if not _same(got, want):
                    wrong.append((np.dtype(dtype).name, fields, type(kind(dtype, 0)).__name__))
    assert wrong == []


D5, D211 = Modulus(5), Modulus(211)


@pytest.mark.parametrize(
    "got, want",
    [
        # the row in column 1: int8 2 m_minus1 - 1 wrapped to row 80
        (lambda: line_points(D211, Line(np.int8(100), np.int8(3)))[2], Point(208, 1)),
        # uint8 (b + 1) d + m wrapped to 252
        (lambda: point_index(D211, Point(np.uint8(100), np.uint8(7))), 1788),
        # off by 0.14 (max-abs) in uint8
        (lambda: mub_state(D211, np.uint8(7), np.uint8(100)), mub_state(D211, 7, 100)),
        # uint32 -r wrapped to column 0
        (lambda: duality_common_point(D5, SlopedLine(np.uint32(1), np.uint32(0))), Point(3, 4)),
        # int8 b + 1 wrapped to row 84, which read 17729.0
        (lambda: _tables(211)[1].value(Point(np.int8(5), np.int8(127))), 27013.0),
        # a uint64 field met the rules' int64 aranges in float64 and crashed
        (lambda: mub_state(D5, np.uint64(1), np.uint64(2)), mub_state(D5, 1, 2)),
    ],
    ids=["line_points", "point_index", "mub_state", "duality_common_point", "value", "uint64"],
)
def test_a_narrow_label_no_longer_wraps(got, want):
    assert _same(got(), want)

"""Byte-stable file formats: matrix JSON and the two CSV table layouts.

Floats are printed with 17 significant digits, enough to round-trip float64
exactly, so write -> read -> write is the identity on bytes. The phase-space
tables are finite by construction; matrix_to_json checks its matrix once.
One reader and one writer serve both CSV tables, driven by their table's class.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from itertools import islice
from sys import float_info

import numpy as np

from .core import Modulus
from .phasespace import MubProbabilities, QuasiDistribution


# A CSV table's header, its name in messages, and its table class, which holds the label facts
_Layout = namedtuple("_Layout", "header name table")
_LINES = _Layout("m_minus1,m0,value", "quasi-distribution CSV", QuasiDistribution)
_POINTS = _Layout("m,b,value", "probability CSV", MubProbabilities)


def _rows(table: np.ndarray, layout: _Layout, entry: str, sep: str):
    """Each row as one string: entry (two %d for the label, one %%.17g) per cell, joined by sep."""
    i, j = layout.table.label(*np.indices(table.shape))
    for row, labels in zip(table.tolist(), zip(i.tolist(), j.tolist())):
        yield sep.join(map(entry.__mod__, zip(*labels))) % tuple(row)


def matrix_to_json(matrix) -> str:
    """Serialize a complex matrix as {"d", "re", "im"}; d is the row count."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    row = "    [" + ", ".join(["%.17g"] * m.shape[1]) + "]"

    def block(part: np.ndarray) -> str:
        return ",\n".join(row % tuple(r) for r in part.tolist())

    return (
        "{\n"
        f'  "d": {m.shape[0]},\n'
        '  "re": [\n' + block(m.real) + "\n  ],\n"
        '  "im": [\n' + block(m.imag) + "\n  ]\n"
        "}\n"
    )


def parse_matrix_json(text: str) -> np.ndarray:
    """Read a square complex matrix from its JSON form, validating shape and entries."""
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("matrix file must be a JSON object")
    for key in ("d", "re", "im"):
        if key not in data:
            raise ValueError(f"matrix file is missing key {key!r}")
    d = data["d"]
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise ValueError(f"matrix file has invalid dimension {d!r}")
    parts = []
    for key in ("re", "im"):
        rows = data[key]
        if (
            not isinstance(rows, list)
            or len(rows) != d
            or any(not isinstance(r, list) or len(r) != d for r in rows)
        ):
            raise ValueError(f"matrix file key {key!r} must be a {d}x{d} array")
        for v in (v for r in rows for v in r):  # an int past the float range compares exactly
            if type(v) not in (int, float) or not abs(v) <= float_info.max:  # bool is no number
                raise ValueError(f"matrix entry {v!r} is not a finite number")
        parts.append(np.array(rows, dtype=float))
    return parts[0] + 1j * parts[1]


def _to_csv(table: np.ndarray, layout: _Layout) -> str:
    """The header, then one row per label in cell order; one text block per row of the table."""
    return layout.header + "\n" + "".join(_rows(table, layout, "%d,%d,%%.17g\n", ""))


def _read_csv(text: str, mod: Modulus, layout: _Layout):
    """Read a table, naming the first offender; only the file's rows are held until it is full."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != layout.header:
        raise ValueError(f"{layout.name} must start with header {layout.header!r}")
    d, name, kind = mod.d, layout.name, layout.table
    word, size = kind.word, (d + kind.extra) * d
    cells: dict[int, float] = {}  # by flat cell index r * d + c
    for ln in lines[1:]:
        fields = ln.split(",")
        if len(fields) != 3:
            raise ValueError(f"{name} rows need 3 fields, got {fields!r}")
        try:
            i, j, v = int(fields[0]), int(fields[1]), float(fields[2])
        except ValueError as exc:
            raise ValueError(f"malformed {name} row {fields!r}: {exc}") from exc
        if not math.isfinite(v):
            raise ValueError(f"{name} value {fields[2]!r} is not finite")
        r, c = kind.cell(i, j)
        if not (0 <= c < d and 0 <= r * d + c < size):  # r within the d + extra rows
            raise kind.error(f"{word} label ({i},{j}) is out of range for d={d}")
        if r * d + c in cells:
            raise kind.error(f"duplicate row for {word} ({i},{j})")
        cells[r * d + c] = v
    if len(cells) < size:  # name the first four missing; the scan stops after them
        missing = islice((k for k in range(size) if k not in cells), 4)
        shown = ", ".join("(%d,%d)" % kind.label(*divmod(k, d)) for k in missing)
        raise kind.error(f"{size - len(cells)} {word} labels missing (first: {shown})")
    table = np.empty(size)
    table[np.fromiter(cells, np.intp, size)] = np.fromiter(cells.values(), float, size)
    return kind(mod, table.reshape(-1, d))


def quasi_to_csv(quasi: QuasiDistribution) -> str:
    """One row per line label, lexicographic in (m_minus1, m0)."""
    return _to_csv(quasi.values, _LINES)


def quasi_to_json(quasi: QuasiDistribution) -> str:
    """Same content as the CSV, as a JSON object with a values array."""
    entry = '    {"m_minus1": %d, "m0": %d, "value": %%.17g}'
    values = ",\n".join(_rows(quasi.values, _LINES, entry, ",\n"))
    return "{\n" + f'  "d": {quasi.mod.d},\n' + '  "values": [\n' + values + "\n  ]\n}\n"


def parse_quasi_csv(text: str, mod: Modulus) -> QuasiDistribution:
    """Read a quasi-distribution, requiring each line label exactly once."""
    return _read_csv(text, mod, _LINES)


def probabilities_to_csv(probs: MubProbabilities) -> str:
    """One row per point label, column-major with the reference column (b=-1) first."""
    return _to_csv(probs.values, _POINTS)


def parse_probabilities_csv(text: str, mod: Modulus) -> MubProbabilities:
    """Read a probability table, requiring each point label exactly once."""
    return _read_csv(text, mod, _POINTS)

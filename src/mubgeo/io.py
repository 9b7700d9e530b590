"""Byte-stable file formats: matrix JSON and the two CSV table layouts.

Floats are printed with 17 significant digits, enough to round-trip float64
exactly, so write -> read -> write is the identity on bytes.
"""

from __future__ import annotations

import json
import math
from itertools import islice

import numpy as np

from .core import Modulus
from .errors import IncompleteProbabilitiesError, MissingLineError
from .phasespace import MubProbabilities, QuasiDistribution

QUASI_HEADER = "m_minus1,m0,value"
PROBABILITY_HEADER = "m,b,value"


def format_float(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x!r}")
    return format(x, ".17g")


def _rows_block(rows: np.ndarray) -> str:
    lines = []
    for row in rows:
        lines.append("    [" + ", ".join(format_float(v) for v in row) + "]")
    return ",\n".join(lines)


def matrix_to_json(matrix) -> str:
    """Serialize a complex matrix as {"d", "re", "im"}; d is the row count."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix entries must be finite")
    return (
        "{\n"
        f'  "d": {m.shape[0]},\n'
        '  "re": [\n' + _rows_block(m.real) + "\n  ],\n"
        '  "im": [\n' + _rows_block(m.imag) + "\n  ]\n"
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
        for r in rows:
            for v in r:
                if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
                    raise ValueError(f"matrix entry {v!r} is not a finite number")
        parts.append(np.array(rows, dtype=float))
    return parts[0] + 1j * parts[1]


def quasi_to_csv(quasi: QuasiDistribution) -> str:
    """One row per line label, lexicographic in (m_minus1, m0).

    Each m_minus1 is formatted into one block, so no string per entry outlives its block.
    """
    blocks = [QUASI_HEADER + "\n"]
    for a, row in enumerate(quasi.values):
        blocks.append("".join(f"{a},{b},{format_float(v)}\n" for b, v in enumerate(row.tolist())))
    return "".join(blocks)


def quasi_to_json(quasi: QuasiDistribution) -> str:
    """Same content as the CSV, as a JSON object with a values array."""
    blocks = ["{\n" + f'  "d": {quasi.mod.d},\n' + '  "values": [\n']
    for a, row in enumerate(quasi.values):
        entries = ",\n".join(
            f'    {{"m_minus1": {a}, "m0": {b}, "value": {format_float(v)}}}'
            for b, v in enumerate(row.tolist())
        )
        blocks.append((",\n" if a else "") + entries)
    blocks.append("\n  ]\n}\n")
    return "".join(blocks)


def _split_csv(text: str, header: str, label: str) -> list[list[str]]:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != header:
        raise ValueError(f"{label} must start with header {header!r}")
    return [ln.split(",") for ln in lines[1:]]


def _parse_value(fields: list[str], label: str) -> tuple[int, int, float]:
    if len(fields) != 3:
        raise ValueError(f"{label} rows need 3 fields, got {fields!r}")
    try:
        i, j, v = int(fields[0]), int(fields[1]), float(fields[2])
    except ValueError as exc:
        raise ValueError(f"malformed {label} row {fields!r}: {exc}") from exc
    if not math.isfinite(v):
        raise ValueError(f"{label} value {fields[2]!r} is not finite")
    return i, j, v


def parse_quasi_csv(text: str, mod: Modulus) -> QuasiDistribution:
    """Read a quasi-distribution, requiring each line label exactly once."""
    d = mod.d
    rows: dict[int, float] = {}  # by line_index: lexicographic in (m_minus1, m0)
    for fields in _split_csv(text, QUASI_HEADER, "quasi-distribution CSV"):
        a, b, v = _parse_value(fields, "quasi-distribution CSV")
        if not (0 <= a < d and 0 <= b < d):
            raise MissingLineError(f"line label ({a},{b}) is out of range for d={d}")
        if a * d + b in rows:
            raise MissingLineError(f"duplicate row for line ({a},{b})")
        rows[a * d + b] = v
    if len(rows) < d * d:  # name the first four missing; the scan stops after them
        missing = islice((k for k in range(d * d) if k not in rows), 4)
        shown = ", ".join(f"({k // d},{k % d})" for k in missing)
        raise MissingLineError(f"{d * d - len(rows)} line labels missing (first: {shown})")
    return QuasiDistribution(mod, np.array([rows[k] for k in range(d * d)]).reshape(d, d))


def probabilities_to_csv(probs: MubProbabilities) -> str:
    """One row per point label, column-major with the reference column (b=-1) first."""
    rows = [PROBABILITY_HEADER]
    d = probs.mod.d
    for b in range(-1, d):
        for m in range(d):
            rows.append(f"{m},{b},{format_float(probs.values[b + 1, m])}")
    return "\n".join(rows) + "\n"


def parse_probabilities_csv(text: str, mod: Modulus) -> MubProbabilities:
    """Read a probability table, requiring each point label exactly once."""
    d = mod.d
    rows: dict[int, float] = {}  # by point_index: column b = -1 first, then m
    for fields in _split_csv(text, PROBABILITY_HEADER, "probability CSV"):
        m, b, v = _parse_value(fields, "probability CSV")
        if not (0 <= m < d and -1 <= b < d):
            raise IncompleteProbabilitiesError(f"point label ({m},{b}) is out of range for d={d}")
        if (b + 1) * d + m in rows:
            raise IncompleteProbabilitiesError(f"duplicate row for point ({m},{b})")
        rows[(b + 1) * d + m] = v
    if len(rows) < d * (d + 1):  # name the first four missing; the scan stops after them
        missing = islice((k for k in range(d * (d + 1)) if k not in rows), 4)
        shown = ", ".join(f"({k % d},{k // d - 1})" for k in missing)
        raise IncompleteProbabilitiesError(
            f"{d * (d + 1) - len(rows)} point labels missing (first: {shown})"
        )
    return MubProbabilities(mod, np.array([rows[k] for k in range(d * (d + 1))]).reshape(d + 1, d))

"""Command line interface.

Exit codes: 0 success, 1 a verification check failed, 2 invalid input
(bad dimension, malformed file, non-Hermitian matrix, incomplete table).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from .core import DEFAULT_EPS, Modulus
from .geometry import (
    Line,
    Point,
    check_line,
    check_point,
    line_points,
    lines_through_point,
    verify_apg_axioms,
    verify_dapg_axioms,
    verify_duality,
)
from .io import (
    matrix_to_json,
    parse_matrix_json,
    parse_probabilities_csv,
    parse_quasi_csv,
    probabilities_to_csv,
    quasi_to_csv,
    quasi_to_json,
)
from .mub import mub_state, verify_eigenrelation, verify_unbiasedness
from .operators import (
    line_operator_direct,
    point_operator_direct,
    verify_operator_identities,
)
from .phasespace import map_operator, quasi_from_probabilities, reconstruct
from .report import AxiomReport

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2

ENV_EPS = "MUBGEO_EPS"


def _resolve_eps(args) -> float:
    if getattr(args, "eps", None) is not None:
        eps = float(args.eps)
    else:
        eps = float(os.environ.get(ENV_EPS, DEFAULT_EPS))
    if not (eps > 0 and math.isfinite(eps)):
        raise ValueError(f"eps must be positive and finite, got {eps}")
    return eps


def _parse_pair(text: str, flag: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"{flag} expects two comma-separated integers, got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ValueError(f"{flag} expects integers, got {text!r}") from exc


def _parse_line_label(mod: Modulus, text: str) -> Line:
    line = Line(*_parse_pair(text, "--j"))
    check_line(mod, line)
    return line


def _parse_point_label(mod: Modulus, text: str) -> Point:
    point = Point(*_parse_pair(text, "--alpha"))
    check_point(mod, point)
    return point


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def cmd_verify(args) -> int:
    mod = Modulus(args.d)
    eps = _resolve_eps(args)
    reports = []
    if args.scope in ("geometry", "all"):
        reports.append(verify_dapg_axioms(mod))
        reports.append(verify_apg_axioms(mod))
    if args.scope in ("duality", "all"):
        reports.append(verify_duality(mod))
    if args.scope in ("mub", "all"):
        reports.append(verify_eigenrelation(mod, eps))
        reports.append(verify_unbiasedness(mod, eps))
    if args.scope in ("operators", "all"):
        reports.append(verify_operator_identities(mod, eps))
    combined = AxiomReport.combined(reports)
    print(combined.to_json())
    n_ok = sum(1 for c in combined.checks if c.ok)
    print(
        f"scope={args.scope} d={mod.d}: {n_ok}/{len(combined.checks)} checks passed"
        f" ({mod.d * (mod.d + 1)} points, {mod.d * mod.d} lines swept)",
        file=sys.stderr,
    )
    return EXIT_OK if combined.passed else EXIT_CHECK_FAILED


def cmd_show(args) -> int:
    mod = Modulus(args.d)
    if args.kind == "line":
        if args.j is None:
            raise ValueError("show line needs --j m_minus1,m0")
        line = _parse_line_label(mod, args.j)
        text = "\n".join(f"{p.m},{p.b}" for p in line_points(mod, line)) + "\n"
    elif args.kind == "point":
        if args.alpha is None:
            raise ValueError("show point needs --alpha m,b")
        point = _parse_point_label(mod, args.alpha)
        text = "\n".join(f"{ln.m_minus1},{ln.m0}" for ln in lines_through_point(mod, point)) + "\n"
    elif args.kind == "operator":
        if (args.j is None) == (args.alpha is None):
            raise ValueError("show operator needs exactly one of --j or --alpha")
        if args.j is not None:
            matrix = line_operator_direct(mod, _parse_line_label(mod, args.j))
        else:
            matrix = point_operator_direct(mod, _parse_point_label(mod, args.alpha))
        text = matrix_to_json(matrix)
    else:  # state
        if args.alpha is None:
            raise ValueError("show state needs --alpha m,b")
        point = _parse_point_label(mod, args.alpha)
        text = matrix_to_json(mub_state(mod, point.b, point.m).reshape(mod.d, 1))
    _write_output(text, args.output)
    return EXIT_OK


def cmd_map(args) -> int:
    mod = Modulus(args.d)
    eps = _resolve_eps(args)
    matrix = parse_matrix_json(Path(args.input).read_text(encoding="utf-8"))
    quasi = map_operator(mod, matrix, eps)
    text = quasi_to_json(quasi) if args.format == "json" else quasi_to_csv(quasi)
    _write_output(text, args.output)
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    mod = Modulus(args.d)
    quasi = parse_quasi_csv(Path(args.input).read_text(encoding="utf-8"), mod)
    _write_output(matrix_to_json(reconstruct(quasi)), args.output)
    return EXIT_OK


def cmd_tomography(args) -> int:
    mod = Modulus(args.d)
    eps = _resolve_eps(args)
    probs = parse_probabilities_csv(Path(args.input).read_text(encoding="utf-8"), mod)
    quasi = quasi_from_probabilities(probs, eps)
    matrix = reconstruct(quasi)
    _write_output(quasi_to_csv(quasi), args.output_quasi)
    _write_output(matrix_to_json(matrix), args.output_matrix)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mubgeo",
        description=(
            "Unbiased bases for odd prime dimensions, the incidence geometry"
            " underneath them, and exact phase-space mappings."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run exhaustive structural checks, print a JSON report")
    p.add_argument("--scope", choices=["geometry", "duality", "mub", "operators", "all"], default="all")
    p.add_argument("--d", type=int, required=True, help="odd prime dimension")
    p.add_argument("--eps", type=float, default=None, help=f"tolerance (default {DEFAULT_EPS:g}, env {ENV_EPS})")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("show", help="print incidence lists, operators, or states")
    p.add_argument("kind", choices=["line", "point", "operator", "state"])
    p.add_argument("--d", type=int, required=True, help="odd prime dimension")
    p.add_argument("--j", help="line label m_minus1,m0")
    p.add_argument("--alpha", help="point label m,b (b=-1 for the reference column)")
    p.add_argument("--output", help="write to this path instead of stdout")
    p.set_defaults(func=cmd_show)

    p = sub.add_parser("map", help="matrix JSON -> quasi-distribution table")
    p.add_argument("--d", type=int, required=True, help="odd prime dimension")
    p.add_argument("--input", required=True, help="Hermitian matrix JSON path")
    p.add_argument("--output", help="write to this path instead of stdout")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--eps", type=float, default=None, help=f"tolerance (default {DEFAULT_EPS:g}, env {ENV_EPS})")
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("reconstruct", help="quasi-distribution CSV -> matrix JSON")
    p.add_argument("--d", type=int, required=True, help="odd prime dimension")
    p.add_argument("--input", required=True, help="quasi-distribution CSV path")
    p.add_argument("--output", help="write to this path instead of stdout")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser(
        "tomography", help="probability CSV -> quasi-distribution CSV and matrix JSON"
    )
    p.add_argument("--d", type=int, required=True, help="odd prime dimension")
    p.add_argument("--input", required=True, help="probability CSV path")
    p.add_argument("--output-quasi", help="quasi-distribution CSV destination (default stdout)")
    p.add_argument("--output-matrix", help="matrix JSON destination (default stdout)")
    p.add_argument("--eps", type=float, default=None, help=f"tolerance (default {DEFAULT_EPS:g}, env {ENV_EPS})")
    p.set_defaults(func=cmd_tomography)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR

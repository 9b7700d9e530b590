"""Command line interface.

Exit codes: 0 success, 1 a verification check failed, 2 invalid input
(bad dimension, malformed file, non-Hermitian matrix, incomplete table) or
a request that ran out of memory.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .core import DEFAULT_EPS, Modulus, check_eps
from .geometry import (
    Line,
    Point,
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

# per verify scope: its peak bytes at d and its reports; a verifier is read by name at each call
SCOPES = {
    "geometry": (lambda d: 192 * d**3, lambda m, eps: [verify_dapg_axioms(m), verify_apg_axioms(m)]),
    "duality": (lambda d: 192 * d**3, lambda m, eps: [verify_duality(m)]),
    "mub": (
        lambda d: 64 * (d + 1) * d * d,
        lambda m, eps: [verify_eigenrelation(m, eps), verify_unbiasedness(m, eps)],
    ),
    "operators": (lambda d: 400 * d**3, lambda m, eps: [verify_operator_identities(m, eps)]),
}


def _resolve_eps(args) -> float:
    if getattr(args, "eps", None) is not None:
        return check_eps(args.eps)
    return check_eps(os.environ.get(ENV_EPS, DEFAULT_EPS))


def _peak_bytes(d: int, command: str, scope: str) -> int:
    """An upper estimate, in bytes, of the peak memory of a command and scope at d.

    Counted from the largest arrays alive at once, passing or failing, plus 64 MB
    for the interpreter and numpy (~30 MB measured). Of verify: the geometry and
    duality checks hold a few sorted integer tables of the d^3 incidences, and a
    failing check d rows of a Gram of N or M at a time (tracemalloc peaks of at
    most 66 d^3 bytes passing, at d = 101 and 211, and 99 d^3 bytes failing, at
    d = 101); the operator battery, and the exact pass that decides a failed bound of it,
    a handful of complex arrays of one block each, whole columns of d labels within max(d^3,
    2^12) operator entries (tracemalloc ~132-139 d^3 bytes at d = 31..61, passing and
    failing alike, against the 400 d^3 allowed); the unbiasedness check every
    state and the Gram of one basis with every later one (tracemalloc 48.0 (d+1)
    d^2 bytes at d = 113 and 151), the eigenrelation check one basis at a time
    (0.7 and 0.4). Scopes run one after another, so --scope all needs the
    largest. Measured peaks of --scope all: ~32 MB at d = 19, ~38 MB at d = 31;
    of --scope operators: ~37 MB at d = 31 (~37 MB with every bound failed), ~49
    MB at d = 47, ~224 MB at d = 101; of --scope mub: 99 MiB at d = 113, 190 MiB
    at d = 151, both set by the unbiasedness check.

    Of show operator, 160 d^2: the JSON text of the matrix sets the peak, ~117
    bytes per entry for a point operator, whose entries all print 17 digits:
    wait4 peaks of show operator --alpha 1,2 were 50, 164 and 498 MiB at d =
    401, 1009, 2003 (--j 1,2: 33, 64 and 147 MiB). The point rule itself holds
    one int64 exponent table and two complex matrices, ~153 MiB at d = 2003.
    """
    need = {
        "verify": {name: peak(d) for name, (peak, _) in SCOPES.items()},
        "show": {"operator": 160 * d * d},
    }[command]
    return 64 * 2**20 + (max(need.values()) if scope == "all" else need[scope])


def _refuse_beyond_memory(what: str, need: int) -> None:
    """Raise ValueError when an estimated peak of need bytes exceeds physical memory."""
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ValueError(
            f"{what} needs about {need / 2**30:.1f} GiB,"
            f" more than the {have / 2**30:.1f} GiB of physical memory"
        )


def _parse_pair(text: str, flag: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"{flag} expects two comma-separated integers, got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ValueError(f"{flag} expects integers, got {text!r}") from exc


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def cmd_verify(args) -> int:
    mod = Modulus(args.d)
    eps = check_eps(_resolve_eps(args), mod.d)
    what = f"verify --scope {args.scope} at d={mod.d}"
    _refuse_beyond_memory(what, _peak_bytes(mod.d, "verify", args.scope))
    runs = [run for name, (_, run) in SCOPES.items() if args.scope in (name, "all")]
    combined = AxiomReport.combined(report for run in runs for report in run(mod, eps))
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
        line = Line(*_parse_pair(args.j, "--j"))
        text = "\n".join(f"{p.m},{p.b}" for p in line_points(mod, line)) + "\n"
    elif args.kind == "point":
        if args.alpha is None:
            raise ValueError("show point needs --alpha m,b")
        point = Point(*_parse_pair(args.alpha, "--alpha"))
        text = "\n".join(f"{ln.m_minus1},{ln.m0}" for ln in lines_through_point(mod, point)) + "\n"
    elif args.kind == "operator":
        if (args.j is None) == (args.alpha is None):
            raise ValueError("show operator needs exactly one of --j or --alpha")
        _refuse_beyond_memory(f"show operator at d={mod.d}", _peak_bytes(mod.d, "show", "operator"))
        if args.j is not None:
            matrix = line_operator_direct(mod, Line(*_parse_pair(args.j, "--j")))
        else:
            matrix = point_operator_direct(mod, Point(*_parse_pair(args.alpha, "--alpha")))
        text = matrix_to_json(matrix)
    else:  # state
        if args.alpha is None:
            raise ValueError("show state needs --alpha m,b")
        point = Point(*_parse_pair(args.alpha, "--alpha"))
        point = check_point(mod, point)  # in the words of a point label, not of a state
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

    def command(name: str, func, help: str, eps: bool = False):  # with --d and, if eps, --eps
        p = sub.add_parser(name, help=help)
        p.add_argument("--d", type=int, required=True, help="odd prime dimension")
        if eps:
            text = f"tolerance (default {DEFAULT_EPS:g}, env {ENV_EPS})"
            p.add_argument("--eps", type=float, default=None, help=text)
        p.set_defaults(func=func)
        return p

    p = command("verify", cmd_verify, "run exhaustive structural checks, print a JSON report", eps=True)
    p.add_argument("--scope", choices=[*SCOPES, "all"], default="all")

    p = command("show", cmd_show, "print incidence lists, operators, or states")
    p.add_argument("kind", choices=["line", "point", "operator", "state"])
    p.add_argument("--j", help="line label m_minus1,m0")
    p.add_argument("--alpha", help="point label m,b (b=-1 for the reference column)")
    p.add_argument("--output", help="write to this path instead of stdout")

    p = command("map", cmd_map, "matrix JSON -> quasi-distribution table", eps=True)
    p.add_argument("--input", required=True, help="Hermitian matrix JSON path")
    p.add_argument("--output", help="write to this path instead of stdout")
    p.add_argument("--format", choices=["csv", "json"], default="csv")

    p = command("reconstruct", cmd_reconstruct, "quasi-distribution CSV -> matrix JSON")
    p.add_argument("--input", required=True, help="quasi-distribution CSV path")
    p.add_argument("--output", help="write to this path instead of stdout")

    what = "probability CSV -> quasi-distribution CSV and matrix JSON"
    p = command("tomography", cmd_tomography, what, eps=True)
    p.add_argument("--input", required=True, help="probability CSV path")
    p.add_argument("--output-quasi", help="quasi-distribution CSV destination (default stdout)")
    p.add_argument("--output-matrix", help="matrix JSON destination (default stdout)")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except MemoryError as exc:
        reason = f": {exc}" if str(exc) else ""
        print(f"error: out of memory at d={args.d}{reason}", file=sys.stderr)
        return EXIT_INPUT_ERROR

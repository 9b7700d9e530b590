"""The in-process side of the benchmark; runs as a child with mubgeo on its path.

    worker.py replay --spans FILE -- ARGS...
        One traced CLI step: imports the package, wraps the traced public
        functions and runs `mubgeo ARGS...` in this process, so its caches are
        as cold as those of a real `python -m mubgeo` process.

    worker.py stream --d D --stream FILE --seconds S --out FILE [--trace]
        The library-stream client. After a cold first call it prints "ready",
        then pushes the whole state stream through map_operator -> reconstruct
        -> probabilities_from_state -> quasi_from_probabilities ->
        pair_expectation, pass after pass, until S seconds have passed.

Spans are recorded by wrapping module attributes from outside the package:
each traced function is replaced, in every mubgeo module that binds it, by a
wrapper that opens a span. Calls the package makes internally (for example the
cold stack builds inside map_operator) therefore appear as child spans, and a
function the package stops calling simply stops appearing.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from tracing import Tracer

TRACED = {
    "geometry": ("verify_dapg_axioms", "verify_apg_axioms", "verify_duality"),
    "mub": ("verify_eigenrelation", "verify_unbiasedness"),
    "operators": (
        "verify_operator_identities",
        "point_operator_stack",
        "line_operator_stack",
        "line_point_indices",
        "point_line_indices",
    ),
    "phasespace": (
        "map_operator",
        "reconstruct",
        "probabilities_from_state",
        "quasi_from_probabilities",
        "pair_expectation",
    ),
    "io": (
        "parse_matrix_json",
        "parse_quasi_csv",
        "parse_probabilities_csv",
        "quasi_to_csv",
        "matrix_to_json",
    ),
}
CACHED_TABLES = ("point_operator_stack", "line_operator_stack", "line_point_indices", "point_line_indices")


def _wrap(tracer: Tracer, name: str, fn):
    def traced(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)

    return traced


def install_spans(tracer: Tracer) -> None:
    """Wrap every traced function that the package still defines."""
    modules = [m for n, m in sys.modules.items() if n == "mubgeo" or n.startswith("mubgeo.")]
    for short, names in TRACED.items():
        module = sys.modules.get(f"mubgeo.{short}")
        for attr in names:
            original = getattr(module, attr, None)
            if original is None:
                continue
            wrapper = _wrap(tracer, f"{short}.{attr}", original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
    report = getattr(sys.modules.get("mubgeo.report"), "AxiomReport", None)
    if report is not None:
        report.to_json = _wrap(tracer, "report.to_json", report.to_json)


def stack_bytes(tables: dict, mod) -> int:
    """Bytes held by the operator stacks and index tables this process has built."""
    total = 0
    for fn in tables.values():
        info = getattr(fn, "cache_info", None)
        if info is not None and info().currsize:
            total += fn(mod).nbytes
    return total


def _cached_tables() -> dict:
    operators = sys.modules.get("mubgeo.operators")
    return {n: getattr(operators, n) for n in CACHED_TABLES if hasattr(operators, n)}


def replay(args) -> int:
    tracer = Tracer()
    tracer.enabled = True
    tracer.step = args.step
    with tracer.span("process"):
        with tracer.span("import.mubgeo"):
            import mubgeo  # noqa: F401
        from mubgeo import cli
        from mubgeo.core import Modulus

        tables = _cached_tables()
        install_spans(tracer)
        with tracer.span(f"cli.{args.argv[0]}"):
            rc = cli.main(args.argv)
    d = int(args.argv[args.argv.index("--d") + 1])
    with open(args.spans, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "stack_bytes": stack_bytes(tables, Modulus(d))}, fh)
    return rc


def stream(args) -> int:
    tracer = Tracer()
    tracer.enabled = args.trace
    with tracer.span("import.mubgeo"):
        import mubgeo
    import numpy as np

    from reference import Reference, compare, tolerance

    tables = _cached_tables()
    if args.trace:
        install_spans(tracer)
    ps = sys.modules["mubgeo.phasespace"]
    mod = mubgeo.Modulus(args.d)
    states = np.load(args.stream, allow_pickle=False)

    def chain(rho):
        quasi = ps.map_operator(mod, rho)
        back = ps.reconstruct(quasi)
        probs = ps.probabilities_from_state(mod, rho)
        tomo = ps.quasi_from_probabilities(probs)
        purity = ps.pair_expectation(quasi, tomo)
        return quasi.values, back, probs.values, tomo.values, purity

    with tracer.span("cold_call"):
        first = chain(states[0])
    print("ready", flush=True)

    ref = Reference(args.d)
    problems: list[str] = []

    def check(k: int, rho, out) -> None:
        quasi, back, probs, tomo, purity = out
        norm = float(np.linalg.norm(rho))
        want = ref.quasi(rho)
        d, label = args.d, f"state {k}"
        problems.extend(
            compare(f"{label} map_operator", quasi, want, tolerance(d, norm))
            + compare(f"{label} reconstruct", back, rho, tolerance(d, float(np.linalg.norm(quasi))))
            + compare(f"{label} probabilities_from_state", probs, ref.probabilities(rho), tolerance(d, norm))
            + compare(f"{label} quasi_from_probabilities", tomo, want, tolerance(d, float(np.linalg.norm(probs))))
            + compare(f"{label} pair_expectation", np.array(purity), np.array(norm**2), tolerance(d, norm**2))
        )

    check(0, states[0], first)
    attempted, failed = 1, int(bool(problems))
    passes = []
    deadline = time.perf_counter() + args.seconds
    while True:
        # In a traced run the passes alternate untraced/traced, so the
        # difference of their medians is the tracing overhead.
        traced = args.trace and len(passes) % 2 == 1
        tracer.enabled = traced
        outputs, latencies = [], []
        start = time.perf_counter()
        for k, rho in enumerate(states):
            tracer.step = f"{len(passes)}.{k}"
            t = time.perf_counter()
            with tracer.span("state"):
                outputs.append(chain(rho))
            latencies.append(time.perf_counter() - t)
        wall = time.perf_counter() - start
        tracer.enabled = False
        for k, (rho, out) in enumerate(zip(states, outputs)):
            before = len(problems)
            check(k, rho, out)
            attempted += 1
            failed += len(problems) > before
        passes.append({"wall_s": wall, "latencies_s": latencies, "traced": traced})
        now = time.perf_counter()
        if now + wall > deadline and (len(passes) >= 2 or not args.trace):
            break
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "passes": passes,
                "attempted": attempted,
                "failed": failed,
                "problems": problems[:20],
                "spans": tracer.spans,
                "stack_bytes": stack_bytes(tables, mod),
            },
            fh,
        )
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description="benchmark worker (run by perfbench/run.py)")
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("replay")
    p.add_argument("--spans", required=True)
    p.add_argument("--step", required=True)
    p.add_argument("argv", nargs=argparse.REMAINDER)
    p = sub.add_parser("stream")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--stream", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    if args.mode == "replay":
        if args.argv[:1] == ["--"]:
            args.argv = args.argv[1:]
        return replay(args)
    return stream(args)


if __name__ == "__main__":
    raise SystemExit(main())

"""The mubgeo benchmark: one closed-loop client driving the package from outside.

    python3 perfbench/run.py --workload verify-ladder --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --smoke --seconds 1 --trace 1

Run from the root of a checkout; the package is used from `src/` through
PYTHONPATH, never installed. One client issues the next step only after the
previous one returned. Workloads, metrics and the layer map are described in
perfbench/README.md. With --trace 0 the last line of standard output is a JSON
object carrying every end-to-end metric; with --trace 1 it carries every
per-layer metric, taken from a separate traced replay. The environment block
and every step of the run are written to perfbench/.work/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from inputs import cli_paths, write_cli_inputs, write_stream
from reference import Reference, check_verify, compare, parse_matrix, parse_quasi, tolerance
from tracing import self_times
from worker import CACHED_TABLES, TRACED

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORK = BENCH / ".work"
SRC = ROOT / "src"

NPROC = len(os.sched_getaffinity(0))
# Each child's OpenBLAS may use at most one thread per core this process may run on.
BLAS_THREADS = min(NPROC, int(os.environ.get("OPENBLAS_NUM_THREADS", NPROC)))

WORKLOADS = {
    "verify-ladder": {"full": (3, 13, 19), "smoke": (3, 5)},
    "phasespace-cli": {"full": (31, 41), "smoke": (3, 5)},
    "library-stream": {"full": (31,), "smoke": (5,)},
}
PHASESPACE_COMMANDS = ("map", "reconstruct", "tomography")
STREAM_STATES = {"full": 100, "smoke": 10}
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 150
# phasespace-cli refuses to start unless MemAvailable exceeds its last
# recorded peak_rss_mb by this much.
HEADROOM_MARGIN_MB = 512

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
}
# Every traced function, named "<module>.<function>" as in the spans.
LAYER_TIMES = tuple(f"{m}.{f}" for m, fs in TRACED.items() for f in fs) + ("report.to_json",)


def per_layer_units(mode: str = "full") -> dict[str, str]:
    """Every per-layer metric with its unit; rung names follow the workloads' dimensions."""
    units = {f"{name}.ms": "ms" for name in LAYER_TIMES}
    units["operators.stack_bytes"] = "bytes"
    units["import.mubgeo.s"] = "s"
    units["trace.overhead_s"] = "s"
    for workload, cmds in (("verify-ladder", ("verify",)), ("phasespace-cli", PHASESPACE_COMMANDS)):
        for cmd in cmds:
            for d in WORKLOADS[workload][mode]:
                units[f"cli.{cmd}.d{d}.wall_s"] = "s"
                units[f"cli.{cmd}.d{d}.cpu_s"] = "s"
                units[f"cli.{cmd}.d{d}.rss_mb"] = "MB"
    for d in WORKLOADS["verify-ladder"][mode]:
        units[f"verify.checks_total.d{d}"] = "count"
        units[f"verify.checks_passed.d{d}"] = "count"
    units["library-stream.states"] = "count"
    return units


class BenchmarkError(Exception):
    """The run cannot produce a result; the reason goes to stderr and none is printed."""


# --- children ----------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)
    env.pop("MUBGEO_EPS", None)
    return env


@dataclass
class Child:
    rc: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str = ""
    stderr: str = ""
    ready_s: float | None = None


def run_child(argv: list[str], out_path: Path, wait_ready: bool = False) -> Child:
    """Run one child to completion and read its own rusage with wait4.

    With wait_ready the child's first stdout line must be "ready"; the time
    from spawn to that line is returned as ready_s.
    """
    err_path = out_path.with_suffix(".err")
    with open(err_path, "w") as err, open(out_path, "w") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv],
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE if wait_ready else out,
            stderr=err,
            text=True,
        )
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        ready_s = None
        try:
            if wait_ready:
                if proc.stdout.readline().strip() == "ready":
                    ready_s = time.perf_counter() - start
                out.write(proc.stdout.read())
                proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        finally:
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        rc=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        stdout=out_path.read_text(encoding="utf-8"),
        stderr=err_path.read_text(encoding="utf-8"),
        ready_s=ready_s,
    )


# --- statistics --------------------------------------------------------------

def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks, q in [0, 1]."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


# --- runs --------------------------------------------------------------------

@dataclass
class Run:
    workload: str
    seed: int
    seconds: float
    trace: bool
    mode: str
    work: Path
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    steps: list[dict] = field(default_factory=list)
    notes: dict = field(default_factory=dict)
    # d -> (state, reference coefficients, reference probabilities) for phasespace-cli.
    expected: dict = field(default_factory=dict)

    @property
    def dims(self) -> tuple[int, ...]:
        return WORKLOADS[self.workload][self.mode]

    def record(self, step: dict, problems: list[str]) -> None:
        self.attempted += 1
        self.failed += bool(problems)
        self.problems.extend(problems)
        step["ok"] = not problems
        self.steps.append(step)


def import_setup(run: Run) -> float:
    """Wall time of one bare `import mubgeo.cli` process, spawn to exit."""
    child = run_child(["-c", "import mubgeo.cli"], run.work / "setup.out")
    if child.rc != 0:
        raise BenchmarkError(f"`import mubgeo.cli` failed: {child.stderr.strip()[-400:]}")
    return child.wall_s


def cli_steps(run: Run) -> list[tuple[str, int, list[str], list[Path]]]:
    """(command, d, argv after `mubgeo`, output files) for each step of one pass."""
    if run.workload == "verify-ladder":
        return [("verify", d, ["verify", "--scope", "all", "--d", str(d)], []) for d in run.dims]
    steps = []
    for d in run.dims:
        paths, out = cli_paths(run.work, d), output_paths(run, d)
        steps += [
            ("map", d, ["map", "--d", str(d), "--input", str(paths["matrix"]),
                        "--output", str(out["map"])], [out["map"]]),
            ("reconstruct", d, ["reconstruct", "--d", str(d), "--input", str(paths["quasi"]),
                                "--output", str(out["rec"])], [out["rec"]]),
            ("tomography", d, ["tomography", "--d", str(d), "--input", str(paths["probs"]),
                               "--output-quasi", str(out["tomo_quasi"]),
                               "--output-matrix", str(out["tomo_matrix"])],
             [out["tomo_quasi"], out["tomo_matrix"]]),
        ]
    return steps


def output_paths(run: Run, d: int) -> dict[str, Path]:
    return {key: run.work / f"out_d{d}.{key}" for key in ("map", "rec", "tomo_quasi", "tomo_matrix")}


def check_cli_step(run: Run, cmd: str, d: int, child: Child) -> tuple[list[str], dict]:
    """Problems with one CLI step's outputs, and the counts it reported."""
    if child.rc != 0:
        return [f"{cmd} d={d}: exit code {child.rc}: {child.stderr.strip()[-300:]}"], {}
    if cmd == "verify":
        problems, total, passed = check_verify(child.stdout, d)
        return problems, {"checks_total": total, "checks_passed": passed}
    rho, quasi, probs = run.expected[d]
    out = output_paths(run, d)
    try:
        if cmd == "map":
            got = parse_quasi(out["map"].read_text(), d)
            return compare(f"map d={d}", got, quasi, tolerance(d, float(np.linalg.norm(rho)))), {}
        if cmd == "reconstruct":
            got = parse_matrix(out["rec"].read_text(), d)
            return compare(f"reconstruct d={d}", got, rho, tolerance(d, float(np.linalg.norm(quasi)))), {}
        tol = tolerance(d, float(np.linalg.norm(probs)))
        tomo = parse_quasi(out["tomo_quasi"].read_text(), d)
        problems = compare(f"tomography d={d} coefficients", tomo, quasi, tol)
        matrix = parse_matrix(out["tomo_matrix"].read_text(), d)
        problems += compare(f"tomography d={d} matrix", matrix, rho, tol)
        if out["map"].exists():
            mapped = parse_quasi(out["map"].read_text(), d)
            problems += compare(f"tomography d={d} against map", tomo, mapped, tol)
        return problems, {}
    except (OSError, ValueError, KeyError) as exc:
        return [f"{cmd} d={d}: unreadable output ({exc})"], {}


def cli_pass(run: Run, index: int, traced: bool) -> tuple[float, list[dict]]:
    """One pass of a CLI workload, a fresh process per step: (summed step wall time, steps)."""
    wall, steps = 0.0, []
    for k, (cmd, d, argv, outputs) in enumerate(cli_steps(run)):
        tag = f"p{index}s{k}"
        for path in outputs:
            path.unlink(missing_ok=True)
        if traced:
            spans_path = run.work / f"{tag}.spans.json"
            child = run_child([str(BENCH / "worker.py"), "replay", "--spans", str(spans_path),
                               "--step", f"{index}.{k}", "--", *argv], run.work / f"{tag}.out")
        else:
            child = run_child(["-m", "mubgeo", *argv], run.work / f"{tag}.out")
        problems, counts = check_cli_step(run, cmd, d, child)
        step = {"pass": index, "cmd": cmd, "d": d, "traced": traced, "wall_s": child.wall_s,
                "cpu_s": child.cpu_s, "rss_mb": child.rss_mb, **counts}
        if traced and child.rc == 0:
            data = json.loads(spans_path.read_text())
            step["self_s"] = {name: t for (_, name), t in self_times(data["spans"]).items()}
            step["stack_bytes"] = data["stack_bytes"]
        run.record(step, problems)
        wall += child.wall_s
        steps.append(step)
    return wall, steps


def cli_workload(run: Run) -> dict:
    if run.workload == "phasespace-cli":
        check_headroom(run, mem_available_mb())
        for d in run.dims:
            rho = write_cli_inputs(run.seed, d, run.work)
            ref = Reference(d)
            run.expected[d] = (rho, ref.quasi(rho), ref.probabilities(rho))
    metrics: dict = {}
    setups: list[float] = []
    passes: list[tuple[float, list[dict]]] = []
    start = time.perf_counter()
    while True:
        # Set-up is sampled before every pass, so that it sees the same
        # stretch of machine time as the passes do.
        if not run.trace:
            setups.append(import_setup(run))
        # A traced run alternates untraced and traced passes: the untraced ones
        # give the per-invocation figures and the reference for the overhead.
        traced = run.trace and len(passes) % 2 == 1
        wall, steps = cli_pass(run, len(passes), traced)
        passes.append((wall, steps))
        if time.perf_counter() - start + wall > run.seconds and (len(passes) >= 2 or not run.trace):
            break
    if run.workload == "phasespace-cli":
        save_last_peak(run, max(s["rss_mb"] for _, steps in passes for s in steps))
    if not run.trace:
        while len(setups) < SETUP_REPEATS:
            setups.append(import_setup(run))
        run.notes["setup_samples_s"] = setups
        walls = [w for w, _ in passes]
        # A pass's figures are summed over its rungs, each rung taken at its own
        # percentile over the passes: one slow step then moves only its rung.
        rungs = [[s["wall_s"] for s in rung] for rung in zip(*(steps for _, steps in passes))]
        metrics["setup_s"] = statistics.median(setups)
        metrics["wall_s"] = sum(statistics.median(rung) for rung in rungs)
        metrics["peak_rss_mb"] = statistics.median(max(s["rss_mb"] for s in steps) for _, steps in passes)
        metrics["throughput_per_s"] = len(rungs) / metrics["wall_s"]
        metrics["latency_p50_ms"] = 1000 * sum(percentile(rung, 0.5) for rung in rungs)
        metrics["latency_p90_ms"] = 1000 * sum(percentile(rung, 0.9) for rung in rungs)
        run.notes["latency_samples"] = len(walls)
        run.notes["latency_unit"] = "one pass, summed over rungs"
        return metrics
    plain = [p for p in passes if not p[1][0]["traced"]]
    traced = [p for p in passes if p[1][0]["traced"]]
    for k, s in enumerate(plain[0][1]):
        rung = f"cli.{s['cmd']}.d{s['d']}"
        for key in ("wall_s", "cpu_s", "rss_mb"):
            metrics[f"{rung}.{key}"] = statistics.median(steps[k][key] for _, steps in plain)
        if s["cmd"] == "verify":
            metrics[f"verify.checks_total.d{s['d']}"] = s.get("checks_total", 0)
            metrics[f"verify.checks_passed.d{s['d']}"] = s.get("checks_passed", 0)
    per_pass = [layer_sums(steps) for _, steps in traced]
    for name in LAYER_TIMES:
        metrics[f"{name}.ms"] = 1000 * statistics.median(p.get(name, 0.0) for p in per_pass)
    imports = [s["self_s"]["import.mubgeo"] for _, steps in traced for s in steps if "self_s" in s]
    metrics["import.mubgeo.s"] = statistics.median(imports) if imports else 0.0
    metrics["operators.stack_bytes"] = max((s.get("stack_bytes", 0) for _, steps in traced for s in steps), default=0)
    metrics["trace.overhead_s"] = statistics.median(w for w, _ in traced) - statistics.median(w for w, _ in plain)
    run.notes["trace_share"] = trace_shares(traced)
    return metrics


def layer_sums(steps: list[dict]) -> dict[str, float]:
    out: dict[str, float] = {}
    for s in steps:
        for name, t in s.get("self_s", {}).items():
            out[name] = out.get(name, 0.0) + t
    return out


def trace_shares(traced: list[tuple[float, list[dict]]]) -> dict:
    """For each traced step of the last pass: share of its wall time in each layer's self time."""
    shares = {}
    for s in traced[-1][1]:
        if "self_s" not in s:
            continue
        by_module: dict[str, float] = {}
        for name, t in s["self_s"].items():
            module = name.split(".")[0]
            by_module[module] = by_module.get(module, 0.0) + t
        shares[f"{s['cmd']}.d{s['d']}"] = {m: t / s["wall_s"] for m, t in sorted(by_module.items())}
    return shares


def stream_workload(run: Run) -> dict:
    """SETUP_REPEATS client sessions in turn, each a fresh process streaming for its share of the time."""
    d = run.dims[0]
    stream_path = run.work / f"stream_d{d}.npy"
    write_stream(run.seed, d, STREAM_STATES[run.mode], stream_path)
    setups, rss, passes, times = [], [], [], []
    for i in range(SETUP_REPEATS):
        out = run.work / f"stream{i}.json"
        argv = [str(BENCH / "worker.py"), "stream", "--d", str(d), "--stream", str(stream_path),
                "--seconds", str(run.seconds / SETUP_REPEATS), "--out", str(out)]
        child = run_child(argv + (["--trace"] if run.trace else []), run.work / f"stream{i}.out", wait_ready=True)
        if child.rc != 0 or child.ready_s is None:
            raise BenchmarkError("library-stream worker failed: " + child.stderr.strip()[-400:])
        data = json.loads(out.read_text())
        run.attempted += data["attempted"]
        run.failed += data["failed"]
        run.problems += data["problems"]
        run.steps.append({"session": i, "passes": len(data["passes"]), "ready_s": child.ready_s,
                          "wall_s": child.wall_s, "rss_mb": child.rss_mb})
        setups.append(child.ready_s)
        rss.append(child.rss_mb)
        passes += data["passes"]
        times.append(self_times(data["spans"]))
    metrics: dict = {}
    if not run.trace:
        latencies = [t for p in passes for t in p["latencies_s"]]
        walls = [p["wall_s"] for p in passes]
        run.notes["setup_samples_s"] = setups
        metrics["setup_s"] = statistics.median(setups)
        metrics["wall_s"] = statistics.median(walls)
        metrics["peak_rss_mb"] = max(rss)
        metrics["throughput_per_s"] = len(latencies) / sum(walls)
        metrics["latency_p50_ms"] = 1000 * percentile(latencies, 0.5)
        metrics["latency_p90_ms"] = 1000 * percentile(latencies, 0.9)
        run.notes["latency_samples"] = len(latencies)
        run.notes["latency_unit"] = "one state"
        return metrics
    per_pass, setup = [], []
    for session in times:
        setup.append({name: t for (step, name), t in session.items() if step == "setup"})
        by_pass: dict[str, dict[str, float]] = {}
        for (step, name), t in session.items():
            if step != "setup":
                sums = by_pass.setdefault(step.split(".")[0], {})
                sums[name] = sums.get(name, 0.0) + t
        per_pass += by_pass.values()
    cold = {f"operators.{n}" for n in CACHED_TABLES}
    for name in LAYER_TIMES:
        samples = setup if name in cold else per_pass
        metrics[f"{name}.ms"] = 1000 * statistics.median(p.get(name, 0.0) for p in samples)
    metrics["import.mubgeo.s"] = statistics.median(p["import.mubgeo"] for p in setup)
    metrics["operators.stack_bytes"] = data["stack_bytes"]
    metrics["library-stream.states"] = STREAM_STATES[run.mode]
    walls_traced = [p["wall_s"] for p in passes if p["traced"]]
    walls_plain = [p["wall_s"] for p in passes if not p["traced"]]
    metrics["trace.overhead_s"] = statistics.median(walls_traced) - statistics.median(walls_plain)
    return metrics


# --- guard, environment, records ---------------------------------------------

def mem_available_mb() -> float:
    with open("/proc/meminfo", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("MemAvailable:"):
                return int(line.split()[1]) / 1024.0
    raise BenchmarkError("MemAvailable is missing from /proc/meminfo")


def last_peak_path(run: Run) -> Path:
    return WORK / f"{run.workload}.{run.mode}.last_peak_rss_mb"


def save_last_peak(run: Run, peak_mb: float) -> None:
    last_peak_path(run).write_text(f"{peak_mb!r}\n")


def check_headroom(run: Run, available: float) -> None:
    """Refuse phasespace-cli unless `available` MB exceeds its last peak by the margin.

    Before any peak is on record the estimate is the complex temporary of the
    dense line-stack gather, d^2 (d+1) d^2 entries of 16 bytes, plus 100 MB.
    """
    path = last_peak_path(run)
    if path.exists():
        peak, source = float(path.read_text()), f"last recorded peak_rss_mb ({path.name})"
    else:
        d = max(run.dims)
        peak, source = 16 * d**4 * (d + 1) / 2**20 + 100, f"estimate for the dense line stack at d={d}"
    if available < peak + HEADROOM_MARGIN_MB:
        raise BenchmarkError(
            f"phasespace-cli needs MemAvailable above {peak:.0f} MB ({source}) plus a"
            f" {HEADROOM_MARGIN_MB} MB margin; only {available:.0f} MB is available"
        )
    run.notes["headroom"] = {"mem_available_mb": available, "expected_peak_mb": peak, "source": source}


def git_sha() -> str:
    # The ceiling keeps git from reporting a repository that merely encloses the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": NPROC,
        "mem_available_mb": mem_available_mb(),
        "git_sha": git_sha(),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, mode: str) -> tuple[Run, dict]:
    work = WORK / f"{workload}-{mode}"
    work.mkdir(parents=True, exist_ok=True)
    for stale in work.iterdir():
        stale.unlink()
    run = Run(workload, seed, seconds, trace, mode, work)
    measured = stream_workload(run) if workload == "library-stream" else cli_workload(run)
    units = per_layer_units(mode) if trace else END_TO_END
    metrics = {name: {"value": measured.get(name, 0), "unit": unit} for name, unit in units.items()}
    return run, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small dimensions (3 and 5) so the whole harness runs in seconds")
    args = parser.parse_args(argv)
    if not (SRC / "mubgeo" / "__init__.py").is_file():
        print(f"error: no mubgeo package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    mode = "smoke" if args.smoke else "full"
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    env = environment()
    results = {}
    try:
        for workload in workloads:
            run, metrics = run_workload(workload, args.seed, args.seconds, bool(args.trace), mode)
            results[workload] = (run, metrics)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    for workload, (run, metrics) in results.items():
        record = {"workload": workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                  "mode": mode, "environment": env, "metrics": metrics, "attempted": run.attempted,
                  "failed": run.failed, "problems": run.problems, "notes": run.notes, "steps": run.steps}
        name = f"{workload}-{mode}-seed{args.seed}-trace{args.trace}.json"
        (WORK / "results" / name).write_text(json.dumps(record, indent=1, default=str))
        for metric, m in metrics.items():
            print(f"{workload}  {metric} = {m['value']:.6g} {m['unit']}")
        print(f"{workload}  fail_ratio = {run.failed / max(run.attempted, 1):.6g} "
              f"({run.failed} failed of {run.attempted} steps)")
        if "latency_samples" in run.notes:
            print(f"{workload}  latency samples = {run.notes['latency_samples']} ({run.notes['latency_unit']} each)")
        for step, shares in run.notes.get("trace_share", {}).items():
            top = sorted(shares.items(), key=lambda kv: -kv[1])
            print(f"{workload}  self-time share of {step}: " + ", ".join(f"{m} {v:.0%}" for m, v in top))
        for problem in run.problems[:10]:
            print(f"{workload}  FAILED: {problem}")
    print("environment " + json.dumps(env))
    if len(results) == 1:
        _, metrics = next(iter(results.values()))
    else:
        metrics = {f"{w}/{k}": v for w, (_, ms) in results.items() for k, v in ms.items()}
    attempted = sum(r.attempted for r, _ in results.values())
    failed = sum(r.failed for r, _ in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

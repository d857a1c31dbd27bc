"""vortexlens benchmark: seeded workloads against the CLI and the oracle layer.

    python3 bench/run_bench.py --workload trajectory --seed 1 --seconds 12 --trace 0
    python3 bench/run_bench.py --workload all --seed 1 --seconds 12

One process, one thread, closed loop: each command starts after the
previous one returns.  With --trace 0 the run prints the end-to-end metrics
(tracing off); with --trace 1 it prints the per-layer metrics from spans
recorded around calls into each module.  `--workload all` runs every
workload in both modes, each in its own process, and prints every report.
The last line of standard output is the JSON result; the exit code is 0
only when every output check passed.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
PACKAGE = ROOT / "src" / "vortexlens"
WORK_DIR = ROOT / ".bench_tmp"
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = ("trajectory", "scan", "verify")
SETUPS = 7
TAIL_BEYOND = 10

END_TO_END = {
    "cmd_p50_ms": "ms",
    "cmd_tail_ms": "ms",
    "items_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
LAYER_FIELDS = (
    ("cli.load_scenario", ("calls", "self_s")),
    ("cli.trajectory_rows", ("rows", "self_s")),
    ("cli.cmd_sweep", ("points", "self_s")),
    ("lattice.run", ("calls", "samples", "self_s")),
    ("lattice.entry_states", ("calls", "self_s")),
    ("lattice.state_at", ("calls", "self_s")),
    ("moments.lens_state_at", ("calls", "s")),
    ("moments.propagate_drift", ("calls", "s")),
    ("moments.LensOrbit.from_entry", ("calls",)),
    ("moments.transport_check", ("calls", "s")),
    ("perturbation.correction_closed_form", ("calls", "s")),
    ("perturbation.verify_closed_form", ("calls", "s")),
    ("perturbation.correction_by_quadrature", ("calls", "s")),
    ("oracle.integrate_rk4", ("calls", "steps", "s")),
    ("oracle.gauss_legendre_integral", ("calls", "nodes", "s")),
)


class BenchError(RuntimeError):
    """The benchmark itself cannot run (missing sources, failed set-up)."""


def import_package():
    """Put this checkout's src/ first on the path and import the package from it."""
    if not (PACKAGE / "cli.py").is_file():
        raise BenchError(f"no package sources at {PACKAGE}")
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import vortexlens

    if Path(vortexlens.__file__).resolve().parent != PACKAGE.resolve():
        raise BenchError(f"imported vortexlens from {vortexlens.__file__}, not {PACKAGE}")


def git_commit() -> str:
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + name):
            return line.split()[0]
    return "unknown"


def environment() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "commit": git_commit(),
    }


def measure_setup(workload: str, seed: int, tmp: Path) -> tuple[float, set[str]]:
    """Median wall time of SETUPS cold set-ups, each in a fresh interpreter."""
    times, digests = [], set()
    for i in range(SETUPS):
        directory = tmp / f"setup{i}"
        directory.mkdir()
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_once.py"), workload, str(seed), str(directory)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise BenchError(f"set-up failed: {proc.stderr.strip()[-2000:]}")
        digests.add(proc.stdout.strip())
    return statistics.median(times), digests


class Stats:
    """Timings and outcomes of the commands executed in one phase."""

    def __init__(self, count: int) -> None:
        self.times: list[list[float]] = [[] for _ in range(count)]
        self.attempted = 0
        self.failed = 0
        self.items = 0
        self.busy = 0.0
        self.errors: list[str] = []

    def per_command(self) -> list[float]:
        return [statistics.median(t) for t in self.times if t]


def run_command(commands, index: int, stats: Stats, instrumentation=None, tracer=None) -> None:
    command = commands[index]
    stats.attempted += 1
    if tracer is not None:
        tracer.command_id = index
        instrumentation.tracer = tracer
    start = time.perf_counter()
    try:
        code, text = command.execute()
    except Exception as exc:  # an uncaught exception is a failed operation
        stats.failed += 1
        stats.errors.append(f"{command.label}: {type(exc).__name__}: {exc}")
        return
    finally:
        elapsed = time.perf_counter() - start
        if instrumentation is not None:
            instrumentation.tracer = None
    try:
        errors = command.verify(code, text)
    except Exception as exc:  # output the checks cannot parse is wrong output
        errors = [f"{type(exc).__name__}: {exc}"]
    if errors:
        stats.failed += 1
        stats.errors.extend(f"{command.label}: {e}" for e in errors)
        return
    stats.times[index].append(elapsed)
    stats.busy += elapsed
    stats.items += command.items(code, text)


def warm_up(commands, stats: Stats) -> None:
    """One untimed command of each kind, so lazy imports and caches are filled."""
    first = {}
    for index, command in enumerate(commands):
        first.setdefault(command.kind, index)
    for index in first.values():
        run_command(commands, index, stats)
    stats.times = [[] for _ in commands]
    stats.busy = 0.0
    stats.items = 0


def timed_passes(commands, seconds: float, seed: int, stats: Stats) -> None:
    """Shuffled passes over all commands until `seconds` have gone by.

    The first pass always completes, so every command has a timing.
    """
    deadline = time.perf_counter() + seconds
    pass_number = 0
    while True:
        order = list(range(len(commands)))
        random.Random(f"{seed}:pass{pass_number}").shuffle(order)
        for index in order:
            if pass_number > 0 and time.perf_counter() >= deadline:
                return
            run_command(commands, index, stats)
        if time.perf_counter() >= deadline:
            return
        pass_number += 1


def tail_percentile(count: int) -> int:
    """Highest whole percentile with at least TAIL_BEYOND commands above it."""
    return math.floor(100.0 * (1.0 - TAIL_BEYOND / count))


def percentile(values: list[float], pct: int) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def end_to_end(commands, args, tmp: Path, report: dict) -> tuple[dict, Stats]:
    setup_s, setup_digests = measure_setup(args.workload, args.seed, tmp)
    report["setup_digests"] = sorted(setup_digests)
    stats = Stats(len(commands))
    warm_up(commands, stats)
    timed_passes(commands, args.seconds, args.seed, stats)
    per_command = stats.per_command()
    pct = tail_percentile(len(per_command))
    report["samples"] = {
        "commands": len(per_command),
        "timed_runs": sum(len(t) for t in stats.times),
        "tail_percentile": pct,
        "items": stats.items,
        "busy_s": stats.busy,
    }
    metrics = {
        "cmd_p50_ms": statistics.median(per_command) * 1e3,
        "cmd_tail_ms": percentile(per_command, pct) * 1e3,
        "items_per_s": stats.items / stats.busy,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: {"value": value, "unit": END_TO_END[name]} for name, value in metrics.items()}, stats


def per_layer(commands, args, tmp: Path, report: dict) -> tuple[dict, Stats]:
    import workloads
    from spans import Instrumentation, Tracer

    stats = Stats(len(commands))
    warm_up(commands, stats)
    for index in range(len(commands)):
        run_command(commands, index, stats)
    untraced_p50 = statistics.median(stats.per_command())

    instrumentation = Instrumentation()
    tracers = [Tracer() for _ in range(3)]
    instrumentation.install()
    try:
        run_command([workloads.probe(ROOT, tmp)], 0, stats, instrumentation, tracers[0])
        traced = []
        for tracer in tracers[1:]:
            traced.append(Stats(len(commands)))
            for index in range(len(commands)):
                run_command(commands, index, traced[-1], instrumentation, tracer)
    finally:
        instrumentation.uninstall()
    for phase in traced:
        stats.attempted += phase.attempted
        stats.failed += phase.failed
        stats.errors.extend(phase.errors)

    first, second = tracers[1].counts(), tracers[2].counts()
    if first != second:
        stats.failed += 1
        stats.attempted += 1
        diff = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
        stats.errors.append(f"traced passes disagree on counts: {diff}")

    summary = tracers[1].summary()
    metrics = {}
    for name, fields in LAYER_FIELDS:
        for field in fields:
            value = summary.get(name, {}).get(field, 0)
            metrics[f"{name}.{field}"] = {"value": value, "unit": "s" if field in ("s", "self_s") else "count"}
    traced_p50 = statistics.median(traced[0].per_command())
    probe_summary = tracers[0].summary()
    metrics["probe.direct_capture.LensOrbit.from_entry.calls"] = {
        "value": probe_summary["moments.LensOrbit.from_entry"]["calls"], "unit": "count"}
    metrics["probe.direct_capture.lattice.run.samples"] = {
        "value": probe_summary["lattice.run"]["samples"], "unit": "count"}
    metrics["trace.cmd_p50_ms"] = {"value": traced_p50 * 1e3, "unit": "ms"}
    metrics["trace.overhead_ms"] = {"value": (traced_p50 - untraced_p50) * 1e3, "unit": "ms"}
    metrics["trace.spans"] = {"value": len(tracers[1].name), "unit": "count"}
    report["samples"] = {"commands": len(commands), "untraced_cmd_p50_ms": untraced_p50 * 1e3}
    tracers[1].write(OUT_DIR / f"spans-{args.workload}.npz")
    return metrics, stats


def print_report(workload: str, seed: int, trace: int, metrics: dict, stats: Stats, report: dict) -> None:
    env = report["environment"]
    print(f"workload {workload}  seed {seed}  trace {trace}")
    print("environment: " + "  ".join(f"{k}={v}" for k, v in env.items()))
    samples = report["samples"]
    for name, metric in metrics.items():
        note = ""
        if name == "cmd_p50_ms":
            note = f"  (median over {samples['commands']} commands of each one's median; {samples['timed_runs']} timed runs)"
        elif name == "cmd_tail_ms":
            note = f"  (p{samples['tail_percentile']} over {samples['commands']} commands)"
        elif name == "items_per_s":
            note = f"  ({samples['items']} items in {samples['busy_s']:.3f} s of command time)"
        print(f"{name:<52} {metric['value']:>16.6g} {metric['unit']}{note}")
    failed_frac = stats.failed / stats.attempted
    print(f"{'failed_frac':<52} {failed_frac:>16.6g} 1  ({stats.failed} of {stats.attempted} operations)")
    for error in stats.errors[:20]:
        print(f"FAILED {error}")


def run_workload(args) -> int:
    import_package()
    import gen
    import workloads

    WORK_DIR.mkdir(exist_ok=True)
    OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        report = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "environment": environment()}
        inputs = tmp / "inputs"
        inputs.mkdir()
        commands = workloads.build(args.workload, ROOT, inputs, args.seed)
        if args.trace:
            metrics, stats = per_layer(commands, args, tmp, report)
        else:
            metrics, stats = end_to_end(commands, args, tmp, report)
            generated = sorted(inputs.glob(f"{args.workload}_*.json"))
            if report["setup_digests"] != [gen.digest_files(generated)]:
                stats.attempted += 1
                stats.failed += 1
                stats.errors.append("the same seed gave different scenario files")
        report["metrics"] = metrics
        report["attempted"], report["failed"] = stats.attempted, stats.failed
        report["errors"] = stats.errors
        report["golden_digests"] = {c.label: c.digest() for c in commands if c.golden is not None}
        name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        (OUT_DIR / name).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
        print_report(args.workload, args.seed, args.trace, metrics, stats, report)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    correct = stats.failed == 0
    print(json.dumps({"correct": correct, "attempted": stats.attempted, "failed": stats.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in both modes, each in a fresh process; one table."""
    results = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True,
                text=True,
                timeout=600,
            )
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]) + "\n")
            if proc.returncode not in (0, 1) or not lines:
                sys.stderr.write(proc.stderr)
                results[f"{workload}/trace{trace}"] = {"correct": False}
                continue
            results[f"{workload}/trace{trace}"] = json.loads(lines[-1])
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({"correct": correct, "results": results}))
    return 0 if correct else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measurement time of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        return run_all(args) if args.workload == "all" else run_workload(args)
    except BenchError as exc:
        sys.stderr.write(f"benchmark cannot run: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())

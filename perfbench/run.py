"""Benchmark for multijames: run one workload for one seed and print its metrics.

    python3 perfbench/run.py --workload closed-form --seed 1 --seconds 20 --trace 0

Run from the repository root.  Each line ``metric <name> <value> <unit>
n=<samples>`` names one metric; the last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, measured without any
tracing; with ``--trace 1`` a separate run records spans around the calls
into every layer and reports the per-layer metrics, plus this workload's
tracing overhead.  All load comes from this one process, one call at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from importlib import metadata
from time import perf_counter as now
from time import process_time

# numpy must not start thread pools: one client, one core's worth of work.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from gate import pair  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import ROOT, WORKLOADS, child_env  # noqa: E402

SETUP_REPEATS = 3  # set-ups per run: this process's own and two in fresh processes

# The host's speed drifts by tens of percent over minutes, as other tenants
# come and go.  Each workload names the streams whose times are scaled by
# nominal / reference: the time of a reference task over that task's time on
# the machine the baseline was taken on.  The result is seconds at that
# reference speed.  The task is sampled between operations, and each
# operation is referred to the samples just before and just after it.
# Compute-bound plain-Python streams are referred to a fixed plain-Python
# loop; command-line calls to a bare interpreter start, which tracks process
# start-up and imports.  The loop misjudges the slowdown of long,
# memory-heavy operations (numpy simulation, ingest, 100k-vertex trees): in
# trial runs over six seeds their raw CPU times spread 3-5% and the
# loop-scaled ones 7-11%, so those streams are not scaled.
LOOP_NOMINAL_S = 0.0015
START_NOMINAL_S = 0.045
REFERENCE_EVERY_S = 0.5
LOOP_SAMPLES = 5  # loop samples per sampling point; one interpreter start per point


def loop_s() -> float:
    """Median of three timings of a fixed loop of calls and float arithmetic.

    The loop allocates no tracked objects, so a garbage collection of the
    program's heap never lands in it.
    """
    times = []
    for _ in range(3):
        start = process_time()
        total = 0.0
        for i in range(8000):
            x = (i % 89 + 1) / 91.0
            total += pair(x, 1.0 - 0.5 * x)
        times.append(process_time() - start)
    return statistics.median(times)


def start_s() -> float:
    """Wall time of one ``python -c pass``."""
    start = now()
    _python("-c", "pass")
    return now() - start


def reference_samples(wl) -> list[float]:
    """Reference samples for one sampling point, as nominal over measured time."""
    if not wl.scaled_streams:
        return [1.0]
    if wl.in_process:
        return [LOOP_NOMINAL_S / loop_s() for _ in range(LOOP_SAMPLES)]
    return [START_NOMINAL_S / start_s()]


def speed_scale(samples: list[float]) -> float:
    """Nominal over the mean measured reference time of the given samples."""
    return len(samples) / sum(1.0 / s for s in samples)


def _python(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=child_env(),
        capture_output=True, text=True, timeout=170,
    )


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    def version(name):
        try:
            return metadata.version(name)
        except metadata.PackageNotFoundError:
            return "absent"

    starts = [start_s() * 1000.0 for _ in range(5)]
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "python_c_pass_ms": round(statistics.median(starts), 3),
        "reference_loop_ms": round(loop_s() * 1000.0, 4),
    }


def child_setup_s(wl, args) -> float:
    """Set-up time of the workload in a fresh process, at the reference speed."""
    scale = speed_scale(reference_samples(wl))
    argv = [__file__, "--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
    proc = _python(*argv, *(["--tiny"] if args.tiny else []))
    if proc.returncode != 0:
        raise RuntimeError(f"set-up in a child process failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1]) * scale


def measure(wl, seconds: float, tr=None, cycles: int | None = None) -> list:
    """Repeat cycles until ``seconds`` have passed, or run exactly ``cycles``.

    The first cycle always completes.  An in-process operation's time is the
    CPU time this process spent producing it, which leaves out the time the
    host gives to other tenants.  Each operation's output is checked by the
    gate once its timing has been taken, and then dropped.
    """
    ops = []
    start = now()
    done = 0
    points, sampled_at = [reference_samples(wl)], now()
    point_before = []  # per op, the sampling point just before it

    def finish():
        points.append(reference_samples(wl))
        for op, i in zip(ops, point_before):
            if op.stream in wl.scaled_streams:
                op.scale = speed_scale(points[i] + points[i + 1])
        return ops

    while True:
        ops_of_cycle = wl.cycle(tr)
        while True:
            cpu = process_time()
            op = next(ops_of_cycle, None)
            if op is None:
                break
            if wl.in_process:
                op.seconds = process_time() - cpu
            op.failed = wl.gate(op)
            op.output = None
            ops.append(op)
            point_before.append(len(points) - 1)
            if cycles is None and done and now() - start >= seconds:
                return finish()
            if now() - sampled_at >= REFERENCE_EVERY_S:
                points.append(reference_samples(wl))
                sampled_at = now()
        done += 1
        if done == cycles or (cycles is None and now() - start >= seconds):
            return finish()


def print_metric(name: str, value: float, unit: str, n: int, extra: str = "") -> None:
    print(f"metric {name} {value!r} {unit} n={n}{extra}")


def report(ops, probes, metrics: dict) -> dict:
    """Print probes and metrics; return the result object."""
    attempted = sum(op.count for op in ops)
    failed = sum(op.failed for op in ops)
    for name, ok, detail in probes:
        print(f"probe {name} {'PASS' if ok else 'FAIL'} {detail}")
    gated = attempted + len(probes)
    failed_all = failed + sum(not ok for _, ok, _ in probes)
    # Timed operations and boundary probes alike; the JSON counts only the
    # timed ones, whose inputs lie where the program has no known defect.
    print_metric("ops_failed_frac", failed_all / gated, "frac", gated)
    for name, (value, unit, n) in metrics.items():
        print_metric(name, value, unit, n)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }


def run_untraced(args) -> dict:
    wl = WORKLOADS[args.workload]()
    try:
        scale = speed_scale(reference_samples(wl))
        clock = process_time if wl.in_process else now
        start = clock()
        wl.setup(args.seed, args.tiny)
        setups = [(clock() - start) * scale]
        setups += [child_setup_s(wl, args) for _ in range(SETUP_REPEATS - 1)]
        env = environment(args.seed)
        ops = measure(wl, args.seconds)
        who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
        rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
        probes = wl.probes()
        named = wl.end_to_end(ops)
    finally:
        wl.close()
    scales = [op.scale for op in ops if op.stream in wl.scaled_streams]
    env["speed_scale"] = round(statistics.median(scales), 4) if scales else 1.0
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit, n) in named.items():
        extra = f" percentile={wl.tail_percentile:.1f}" if name == "cli_tail_ms" else ""
        print_metric(name, value, unit, n, extra)
    a, b = (named[m] for m in wl.stream_metrics)
    metrics = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "peak_rss_mb": (rss_mb, "MB", 1),
        # The workload's two headline numbers as rates, so that every
        # workload reports the same names; latencies become calls per second.
        "throughput_a": (_rate(a), "1/s", a[2]),
        "throughput_b": (_rate(b), "1/s", b[2]),
    }
    return report(ops, probes, metrics)


def _rate(metric) -> float:
    value, unit, _ = metric
    return value if unit == "1/s" else 1000.0 / value


def tracing_overhead(wl, seconds: float) -> tuple[float, int]:
    """Median traced cycle time over median untraced cycle time, minus one.

    Cycles alternate, untraced first, until ``seconds`` have passed; at
    least one pair runs.
    """
    plain, traced = [], []
    start = now()
    while not plain or now() - start < seconds:
        plain.append(sum(op.seconds for op in wl.cycle()))
        traced.append(sum(op.seconds for op in wl.cycle(Tracer())))
    return statistics.median(traced) / statistics.median(plain) - 1.0, len(plain)


def run_traced(args) -> dict:
    wls = [cls() for cls in WORKLOADS.values()]
    tr = Tracer()
    ops, probes = [], []
    try:
        for wl in wls:
            wl.setup(args.seed, args.tiny)
        # One fixed sweep over every workload gives every layer's metrics,
        # so counts repeat exactly for a seed.
        for wl in wls:
            with tr.span(wl.name):
                ops += measure(wl, 0.0, tr, cycles=wl.trace_cycles)
                probes += wl.probes(tr)
        target = next(wl for wl in wls if wl.name == args.workload)
        overhead, pairs = tracing_overhead(target, args.seconds)
        metrics = {}
        for wl in wls:
            metrics.update(wl.layers(tr))
    finally:
        for wl in wls:
            wl.close()
    metrics["core.calls"] = (tr.counters.get("core.calls", 0), "count", 1)
    metrics["gate.probes_failed"] = (sum(not ok for _, ok, _ in probes), "count", len(probes))
    metrics["trace.overhead_frac"] = (overhead, "frac", pairs)
    return report(ops, probes, dict(sorted(metrics.items())))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the self-test")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "multijames" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'multijames'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    if args.setup_only:
        wl = WORKLOADS[args.workload]()
        clock = process_time if wl.in_process else now
        try:
            start = clock()
            wl.setup(args.seed, args.tiny)
            print(clock() - start)
        finally:
            wl.close()
        return 0

    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace}")
    result = run_traced(args) if args.trace else run_untraced(args)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    # One string-hash seed for every run: dict and set layouts, and with
    # them the cost of dict-heavy code, then depend only on the inputs.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())

"""vortexfmm benchmark: three workloads, end-to-end metrics and a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload field_probe --seed 1 --seconds 55 --trace 0

Each run is a closed loop with one client: the next call into the package
starts only when the previous one has returned and been checked.  The
package is imported from ``src/`` of this checkout; nothing is installed.

``--trace 0`` measures untraced for ``--seconds`` and prints the end-to-end
metrics of BENCHMARK.json.  It sets the workload up ``SETUP_REPEATS`` times,
spread evenly over the measured window so that the set-ups see the same mix
of machine states as the operations, and reports the median.  One set-up is
the package's import in a fresh interpreter plus the workload's own set-up.
``--trace 1`` sets up once, alternates untraced and traced calls for
``--seconds`` and prints the per-layer metrics of the traced calls, including
the tracing overhead against the untraced ones.
Spans of the traced calls are written to ``.perfbench_out/spans-<workload>.csv``.

The line before the last holds the run's details (seed, environment, sample
count, tail percentile, worst correct digits); the last line is the result.
``--scale small`` shrinks every workload for the benchmark's own self-check.
Accuracy floors come from ``reference.json`` (see ``record_reference.py``).

``evaluate_large`` (repeated ``engine.evaluate`` on 131072 blob particles,
the near field at a memory-bound size) runs the same way but is not among
BENCHMARK.json's workloads: it needs about 15 s of set-up per run, and with
three workloads the run budget allows only 30-s runs, whose run-to-run
spread on a 2-vCPU VM with drifting speed reached 0.27-0.34 of the median.
Run it by hand for near-field work.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"
WORKLOAD_NAMES = ("evaluate_large", "study_sweep", "field_probe")
#: One client and small translation matrices: one BLAS/OpenMP thread keeps
#: runs steady and leaves the second core to the operating system.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7
#: Run in a fresh interpreter: numpy is loaded before the clock starts, since
#: its import (about twice the package's, varying with the file cache) is not
#: the package's; harness is the one module the package does not import itself.
IMPORT_PROBE = (
    "import sys, time, numpy; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import vortexfmm, vortexfmm.harness; print(time.perf_counter() - t)"
)
#: Samples a tail percentile must leave beyond it.
TAIL_BEYOND = 10


def bootstrap() -> None:
    """Pin the thread pools, put ``src/`` first on the path and import the package.

    Exits with an error when the package sources are not in this checkout.
    """
    if not (ROOT / "src" / "vortexfmm" / "__init__.py").is_file():
        sys.exit("perfbench: src/vortexfmm not found next to perfbench/; run from a full checkout")
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    sys.path.insert(0, str(ROOT / "src"))
    import vortexfmm

    if Path(vortexfmm.__file__).resolve().parent != ROOT / "src" / "vortexfmm":
        sys.exit(f"perfbench: imported vortexfmm from {vortexfmm.__file__}, not from this checkout")


def import_time() -> float:
    """Seconds a fresh interpreter takes to import the package from this checkout."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")], capture_output=True, text=True, check=True, timeout=60
    )
    return float(proc.stdout)


def environment() -> dict:
    """Machine, interpreter and library versions and the pinned thread counts."""
    import numpy as np

    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = size
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "l2_cache": caches.get("L2"),
        "l3_cache": caches.get("L3"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


class Run:
    """Per-operation durations and outcomes of one measured phase."""

    def __init__(self) -> None:
        self.durations: list[float] = []
        self.outcomes: list = []
        self.busy_s = 0.0

    @property
    def ops_per_s(self) -> float:
        return len(self.durations) / self.busy_s

    @property
    def failed(self) -> int:
        return sum(not o.ok for o in self.outcomes)


def measure(workload, seconds: float, tracer=None, setup=None) -> list[Run]:
    """Call the workload back to back until ``seconds`` have passed; check every operation.

    With a tracer, calls alternate between untraced and traced (returned in
    that order), so both runs see the same machine state; the wrappers are
    installed only for the traced calls.  With ``setup``, it is called
    between operations at SETUP_REPEATS - 1 evenly spaced points of the
    window.
    """
    runs = [Run()] if tracer is None else [Run(), Run()]

    def mark() -> float:
        if tracer is not None:
            tracer.op_id += 1
        return time.perf_counter()

    begin = time.perf_counter()
    deadline = begin + seconds
    setups = [] if setup is None else [begin + seconds * i / SETUP_REPEATS for i in range(1, SETUP_REPEATS)]
    calls = 0
    while time.perf_counter() < deadline or setups or not all(run.durations for run in runs):
        if setups and time.perf_counter() >= setups[0]:
            setups.pop(0)
            setup()
            continue
        run = runs[calls % len(runs)]
        calls += 1
        start = time.perf_counter()
        if run is runs[0]:
            durations, output = workload.call(mark)
        else:
            with tracer.installed(), tracer.root():
                durations, output = workload.call(mark)
        run.busy_s += time.perf_counter() - start
        run.durations += durations
        run.outcomes += workload.check(output)
    return runs


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples above it, and that percentile.

    With too few samples for any such percentile, the maximum (percentile 100).
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(run: Run, setup_s: float) -> dict[str, float]:
    digits = [o.digits for o in run.outcomes if math.isfinite(o.digits)]
    return {
        "ops_per_s": run.ops_per_s,
        "op_p50_s": statistics.median(run.durations),
        "op_tail_s": tail(run.durations)[0],
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "accuracy_digits": statistics.median(digits) if digits else 0.0,
    }


def per_layer(workload, tracer, untraced: Run, traced: Run) -> dict[str, float]:
    """Per-operation self times and shares of every traced layer, counts, and tracing overhead."""
    ops = len(traced.durations)
    times = tracer.self_times()
    wall = tracer.wall_s()
    out: dict[str, float] = {}
    for name, (calls, self_s, _) in times.items():
        out[f"{name}.self_s"] = self_s / ops
        out[f"{name}.self_share"] = self_s / wall
        out[f"{name}.calls"] = calls / ops
    counts = tracer.counts
    near_s = times["engine.near_field"][2]
    direct_s = times["kernels.velocity_direct"][2]
    out["engine.near_field.pairs_per_s"] = counts["near_pairs"] / near_s if near_s else 0.0
    out["engine.near_field.flops_computed"] = counts["near_flops"] / ops
    out["engine.near_field.bytes_computed"] = counts["near_bytes"] / ops
    out["kernels.velocity_direct.pairs_per_s"] = counts["direct_pairs"] / direct_s if direct_s else 0.0
    occupancy = tracer.occupancy
    out["quadtree.leaf_occupancy_max"] = max((m for m, _ in occupancy), default=0)
    out["quadtree.empty_leaf_frac"] = statistics.fmean(f for _, f in occupancy) if occupancy else 0.0
    out["engine.m2l_count"] = counts["m2l"] / ops
    near_pairs = workload.near_pairs_per_op
    out["engine.near_pair_count"] = counts["near_pairs"] / ops if near_pairs is None else near_pairs
    out["trace.ops_per_s_untraced"] = untraced.ops_per_s
    out["trace.ops_per_s_traced"] = traced.ops_per_s
    out["trace.overhead_frac"] = 1.0 - traced.ops_per_s / untraced.ops_per_s
    out["trace.self_sum_frac"] = sum(s for _, s, _ in times.values()) / wall
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "small"), default="full")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bootstrap()
    import tracing
    import workloads

    reference = json.loads(REFERENCE.read_text())
    floors = reference["floors"][args.workload][args.scale]
    tolerance = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "accuracy_digits")
    WORK_DIR.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, args.scale, floors, tolerance, WORK_DIR)
    detail: dict = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "trace": args.trace,
        "seconds": args.seconds,
    }
    try:
        setup_times, import_times, outcomes = [], [], []

        def setup() -> None:
            import_times.append(import_time())
            start = time.perf_counter()
            outcomes.extend(workload.setup())
            setup_times.append(import_times[-1] + time.perf_counter() - start)

        setup()
        if args.trace == 0:
            runs = measure(workload, args.seconds, setup=setup)
            metrics = end_to_end(runs[0], statistics.median(setup_times))
            spec_metrics = spec["end_to_end"]
        else:
            tracer = tracing.Tracer()
            runs = measure(workload, args.seconds, tracer)
            metrics = per_layer(workload, tracer, *runs)
            spec_metrics = spec["per_layer"]
            spans = WORK_DIR / f"spans-{args.workload}.csv"
            tracer.write(spans)
            detail["spans"] = str(spans.relative_to(ROOT))
    finally:
        workload.close()

    setup_failed = sum(not o.ok for o in outcomes)
    untraced = runs[0]
    digits = [o.digits for run in runs for o in run.outcomes if math.isfinite(o.digits)]
    attempted = sum(len(run.outcomes) for run in runs)
    failed = sum(run.failed for run in runs)
    tail_s, tail_pct = tail(untraced.durations)
    detail.update(
        environment=environment(),
        import_runs_s=import_times,
        setup_runs_s=setup_times,
        setup_failed=setup_failed,
        samples=len(untraced.durations),
        op_tail_percentile=tail_pct,
        op_tail_s=tail_s,
        worst_digits=min(digits, default=None),
        accuracy_floors=floors,
    )
    result = {
        "correct": setup_failed == 0 and failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec_metrics},
    }
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

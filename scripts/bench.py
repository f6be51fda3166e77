#!/usr/bin/env python3
"""Layer ladder: per-phase timings of ``evaluate`` and the direct oracle, written to BENCH_<label>.json.

    python3 scripts/bench.py LABEL [--base DIR] [--perfbench]

For N = 4096, 16384, 65536 and 131072 uniform particles, at the occupancy
depth (8 particles per leaf), order 8 and both kernels, it times every
``FmmRunStats`` phase plus ``velocity_direct`` of 512 targets against the same
N sources, and each call's wall time as its caller sees it (``t_wall``): a
run whose near field overlaps M2L on the chunk pool returns sooner than the
sum of its phases.  The rows ``DENSE`` (keys
``<kernel>/<N>_d<depth>``) do the same at 64 particles per leaf, 4096 at
depth 3 and 16384 at depth 4, where the near field computes every leaf as
one targets x sources block; at 8 per leaf no leaf has enough pairs for
that.  It times every phase of ``evaluate_at``, and its wall time, at the
shape of perfbench's field_probe (``FIELD_PROBE``: 4096 sources, depth 6,
order 40, a 128 x 128 grid of cell-centred targets), and that workload's
set-up oracle
as ``t_oracle``: ``velocity_direct`` of 4096 of the grid targets (every
fourth) against the 4096 sources.  It also times ``run_sweep`` over
the ``study.cfg`` slice of seed ``SEED`` (90 runs): its wall time and runs/s,
the time spent in the oracle's ``velocity_direct`` calls and its share of the
wall time and the oracle's source-target pairs, and likewise the time spent
in ``engine.near_field``, ``engine.translate_pass``, the budget stage the
harness calls (``engine._budgets_at``) and the first stage
``engine._tree_work`` (``t_first``, which holds the near field and P2M),
each one's share and its number of calls, plus the number of M2L products
(``engine._translate_chunk`` calls).  A stage the sweep never called fails
the measurement rather than read 0.  Every repeat
runs in a fresh interpreter with one BLAS thread and keeps, per entry, each
time's minimum over ``CALLS`` in-process calls, so that a slow spell of the
machine during one call does not count; the file holds the median over
``REPEATS`` of these minima.

``--base DIR`` names a second checkout of this repository (for example a
``git clone`` at the parent commit).  Both checkouts are then
measured, each repeat alternating which goes first so that slow drift of the
machine hits both alike, and the file holds them side by side with the
base/head ratio of every median.  ``--perfbench`` also runs each checkout's
``perfbench/run.py`` (untraced, for BENCHMARK.json's ``run_seconds``) on both
benchmark workloads for every seed in ``PERFBENCH_SEEDS``, alternating
likewise, and keeps the result lines; with ``--base`` it also summarises
them: per workload and end-to-end metric, each side's median and quartiles
and the number of pairs the head wins.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LADDER = (4096, 16384, 65536, 131072)
TARGET_PER_LEAF = 8
#: (N, depth) at 64 particles per leaf
DENSE = ((4096, 3), (16384, 4))
ORDER = 8
DIRECT_TARGETS = 512
#: below the sigma guard (leaf half-width / 2) at every depth of the ladder
SIGMA = 0.001
SEED = 1
#: perfbench's field_probe: sources, depth, order and targets per grid side
FIELD_PROBE = {"n": 4096, "levels": 6, "order": 40, "grid": 128}
REPEATS = 5
CALLS = 3
#: ten alternating pairs of runs per workload
PERFBENCH_SEEDS = tuple(range(1, 11))
PHASES = ("t_build", "t_upward", "t_m2l", "t_downward", "t_eval", "t_near", "t_total")
KERNELS = ("point_vortex", "gaussian_blob")
WORKLOADS = ("study_sweep", "field_probe")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def measure_once() -> dict:
    """One repeat of the whole ladder in this interpreter (the package is already importable)."""
    import numpy as np
    from vortexfmm import engine, harness, kernels, model
    from vortexfmm.kernels import KernelKind

    warm = model.generate_particles("uniform_random", 1024, SEED, sigma=SIGMA)
    engine.evaluate(warm, engine.FmmConfig(3, ORDER), model.UNIT_DOMAIN)
    out: dict = {}
    rows = [(n, harness.occupancy_levels(n, TARGET_PER_LEAF), f"{n}") for n in LADDER]
    rows += [(n, levels, f"{n}_d{levels}") for n, levels in DENSE]
    for n, levels, label in rows:
        particles = model.generate_particles("uniform_random", n, SEED, sigma=SIGMA)
        targets = np.stack((particles.x[:DIRECT_TARGETS], particles.y[:DIRECT_TARGETS]), axis=1)
        for name in KERNELS:
            kind = KernelKind(name)
            calls = []
            for _ in range(CALLS):
                t0 = time.perf_counter()
                _, stats = engine.evaluate(particles, engine.FmmConfig(levels, ORDER, kind), model.UNIT_DOMAIN)
                row = {"t_wall": time.perf_counter() - t0, **{phase: getattr(stats, phase) for phase in PHASES}}
                t0 = time.perf_counter()
                kernels.velocity_direct(targets, particles, kind)
                row["t_velocity_direct"] = time.perf_counter() - t0
                calls.append(row)
            out[f"{name}/{label}"] = {**{key: min(row[key] for row in calls) for key in calls[0]}, "levels": levels}
    out[f"field_probe/{FIELD_PROBE['n']}"] = measure_field_probe()
    out[f"study.cfg/seed{SEED}"] = measure_sweep()
    return out


def measure_field_probe() -> dict:
    """Every phase of ``evaluate_at`` at the ``FIELD_PROBE`` shape and its wall time ``t_wall``, min over
    ``CALLS`` calls after one warm-up, and ``t_oracle``, min over ``CALLS`` calls."""
    import numpy as np
    from vortexfmm import engine, kernels, model

    particles = model.generate_particles("uniform_random", FIELD_PROBE["n"], SEED)
    axis = (np.arange(FIELD_PROBE["grid"]) + 0.5) / FIELD_PROBE["grid"]
    gx, gy = np.meshgrid(axis, axis)
    targets = np.stack((gx.ravel(), gy.ravel()), axis=1)
    config = engine.FmmConfig(FIELD_PROBE["levels"], FIELD_PROBE["order"])
    # the call's record, read where evaluate_at completes it, in any checkout
    records, order_run = [], engine._order_run

    def recorded(work, order):
        result = order_run(work, order)
        records.append(result[1])
        return result

    engine._order_run = recorded
    calls = []
    for _ in range(CALLS + 1):
        t0 = time.perf_counter()
        engine.evaluate_at(targets, particles, config, model.UNIT_DOMAIN)
        calls.append({"t_wall": time.perf_counter() - t0, **{phase: getattr(records[-1], phase) for phase in PHASES}})
    engine._order_run = order_run
    oracle = []
    for _ in range(CALLS):
        t0 = time.perf_counter()
        kernels.velocity_direct(targets[::4], particles, config.kernel)
        oracle.append(time.perf_counter() - t0)
    return {**{key: min(row[key] for row in calls[1:]) for key in calls[0]}, "t_oracle": min(oracle),
            "levels": FIELD_PROBE["levels"]}


def measure_sweep() -> dict:
    """The ``study.cfg`` slice of seed ``SEED`` through ``run_sweep``, min over ``CALLS`` sweeps."""
    import dataclasses
    import tempfile

    from vortexfmm import engine, harness

    config = dataclasses.replace(harness.parse_sweep_config(ROOT / "study.cfg"), seeds=(SEED,))
    # (module, attribute, key): each wrapped where its callers look it up
    wrapped = ((engine, "near_field", "near"), (engine, "translate_pass", "translate"),
               (engine, "_budgets_at", "budgets"), (engine, "_tree_work", "first"))
    originals = {key: getattr(module, name) for module, name, key in wrapped}
    direct, chunk = harness.velocity_direct, engine._translate_chunk
    totals: dict = {}
    chunks: list = []  # one entry per M2L product; appends are atomic on the chunk threads

    def timed_direct(targets, sources, kind):
        t0 = time.perf_counter()
        try:
            return direct(targets, sources, kind)
        finally:
            totals["t_oracle"] += time.perf_counter() - t0
            totals["oracle_pairs"] += len(targets) * len(sources)

    def timed(key):
        def call(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return originals[key](*args, **kwargs)
            finally:
                totals[f"t_{key}"] += time.perf_counter() - t0
                totals[f"{key}_calls"] += 1
        return call

    def counted_chunk(*args):
        chunks.append(None)
        return chunk(*args)

    calls = []
    harness.velocity_direct, engine._translate_chunk = timed_direct, counted_chunk
    for module, name, key in wrapped:
        setattr(module, name, timed(key))
    try:
        with tempfile.TemporaryDirectory() as tmp:
            for _ in range(CALLS):
                totals.update(t_oracle=0.0, oracle_pairs=0)
                totals.update({f"t_{key}": 0.0 for *_, key in wrapped})
                totals.update({f"{key}_calls": 0 for *_, key in wrapped})
                chunks.clear()
                t0 = time.perf_counter()
                harness.run_sweep(config, Path(tmp) / "sweep.csv")
                calls.append({"t_sweep": time.perf_counter() - t0, "t_oracle": totals["t_oracle"],
                              **{f"t_{key}": totals[f"t_{key}"] for *_, key in wrapped}})
    finally:
        harness.velocity_direct, engine._translate_chunk = direct, chunk
        for module, name, key in wrapped:
            setattr(module, name, originals[key])
    uncalled = [name for _, name, key in wrapped if not totals[f"{key}_calls"]]
    if uncalled:
        raise RuntimeError(f"the sweep never called {', '.join(uncalled)}: its time would read 0")
    best = {key: min(row[key] for row in calls) for key in calls[0]}
    return {
        **best,
        "runs_per_s": config.run_count / best["t_sweep"],
        "oracle_share": best["t_oracle"] / best["t_sweep"],
        **{f"{key}_share": best[f"t_{key}"] / best["t_sweep"] for *_, key in wrapped},
        "oracle_pairs": totals["oracle_pairs"],
        **{f"{key}_calls": totals[f"{key}_calls"] for *_, key in wrapped},
        "chunk_calls": len(chunks),
    }


def _env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def _repeat(checkout: Path) -> dict:
    code = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); sys.path.insert(0, sys.argv[2]); "
        "import bench; print(json.dumps(bench.measure_once()))"
    )
    args = [sys.executable, "-c", code, str(checkout / "src"), str(ROOT / "scripts")]
    done = subprocess.run(args, env=_env(), capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def _perfbench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    args = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(args, cwd=checkout, capture_output=True, text=True, check=True)
    detail, result = (json.loads(line) for line in done.stdout.splitlines()[-2:])
    return {"workload": workload, "seed": seed, "samples": detail["samples"], **result}


def _medians(runs: list[dict]) -> dict:
    return {
        key: {field: statistics.median(run[key][field] for run in runs) for field in runs[0][key]}
        for key in runs[0]
    }


def _perfbench_summary(lines: dict[str, list], metrics: list[dict]) -> dict:
    """Per workload and end-to-end metric: each side's quartiles over its runs and the number of
    pairs (same seed) in which the head reads better; per workload, each side's failed operations."""
    summary: dict = {}
    for workload in WORKLOADS:
        runs = {side: [run for run in lines[side] if run["workload"] == workload] for side in lines}
        entry: dict = {"pairs": len(runs["head"]),
                       "failed": {side: sum(run["failed"] for run in rs) for side, rs in runs.items()}}
        for metric in metrics:
            name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
            values = {side: [run["metrics"][name]["value"] for run in rs] for side, rs in runs.items()}
            pairs = zip(values["head"], values["base"], strict=True)
            entry[name] = {
                **{side: dict(zip(("q1", "median", "q3"), statistics.quantiles(v, n=4))) for side, v in values.items()},
                "head_better_pairs": sum(sign * (head - base) > 0 for head, base in pairs),
            }
        summary[workload] = entry
    return summary


def _commit(checkout: Path) -> str | None:
    done = subprocess.run(
        ["git", "-C", str(checkout), "describe", "--always", "--dirty"], capture_output=True, text=True
    )
    return done.stdout.strip() or None


def _machine() -> dict:
    import numpy

    cpu = None
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        cpu = next((line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
                    if line.startswith("model name")), None)
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "blas_threads": 1,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("label")
    parser.add_argument("--base", type=Path, help="second checkout measured alongside this one")
    parser.add_argument("--perfbench", action="store_true", help="also run perfbench/run.py on both workloads")
    args = parser.parse_args()

    sides = {"head": ROOT}
    if args.base is not None:
        sides["base"] = args.base.resolve()
    order = list(sides)
    commits = {side: _commit(path) for side, path in sides.items()}
    runs: dict[str, list] = {side: [] for side in sides}
    for r in range(REPEATS):
        for side in order if r % 2 == 0 else order[::-1]:
            runs[side].append(_repeat(sides[side]))
            print(f"repeat {r + 1}/{REPEATS} {side} done", file=sys.stderr, flush=True)

    report: dict = {
        "label": args.label,
        "machine": _machine(),
        "config": {
            "ladder": LADDER,
            "distribution": "uniform_random",
            "seed": SEED,
            "target_per_leaf": TARGET_PER_LEAF,
            "dense": DENSE,
            "order": ORDER,
            "sigma": SIGMA,
            "direct_targets": DIRECT_TARGETS,
            "repeats": REPEATS,
            "calls_per_repeat": CALLS,
            "field_probe": FIELD_PROBE,
            "sweep": f"study.cfg, seed {SEED}",
            "statistic": "median over repeats of the min over calls in each, seconds",
        },
        "checkouts": {side: {"commit": commits[side], "median": _medians(runs[side])} for side in sides},
    }
    if "base" in sides:
        head, base = (report["checkouts"][s]["median"] for s in ("head", "base"))
        report["speedup_base_over_head"] = {
            key: {f: base[key][f] / head[key][f] for f in head[key] if f.startswith("t_") and head[key][f] > 0}
            for key in head
        }
    if args.perfbench:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        seconds = spec["run_seconds"]
        lines: dict[str, list] = {side: [] for side in sides}
        # each workload alternates which side goes first from one seed to the next
        for i, seed in enumerate(PERFBENCH_SEEDS):
            for workload in WORKLOADS:
                for side in order if i % 2 == 0 else order[::-1]:
                    lines[side].append(_perfbench(sides[side], workload, seed, seconds))
                    print(f"perfbench {workload} seed {seed} {side} done", file=sys.stderr, flush=True)
        report["perfbench"] = {"seconds": seconds, **lines}
        if "base" in sides:
            report["perfbench_summary"] = _perfbench_summary(lines, spec["end_to_end"])

    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

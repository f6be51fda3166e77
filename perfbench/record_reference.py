"""Record the accuracy floors in reference.json.

A floor is the fewest correct digits (-log10 of the worst relative error
against the direct oracle) that one operation of a workload showed over
seeds 1..SEEDS; the sweep keeps one floor per truncation order p.  The
benchmark fails an operation whose digits fall short of its floor by more
than the accuracy_digits bound in BENCHMARK.json.  Run from the repository
root on the code the floors should describe:

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import time

import run

SEEDS = 20


def record() -> dict:
    run.bootstrap()
    import workloads

    run.WORK_DIR.mkdir(exist_ok=True)
    floors: dict = {}
    for name in run.WORKLOAD_NAMES:
        for scale in ("full", "small"):
            groups: dict[str, float] = {}
            for seed in range(1, SEEDS + 1):
                workload = workloads.WORKLOADS[name](seed, scale, None, 0.0, run.WORK_DIR)
                try:
                    outcomes = workload.setup()
                    if name == "study_sweep":
                        _, out = workload.call(time.perf_counter)
                        outcomes += workload.check(out)
                finally:
                    workload.close()
                if not all(o.ok for o in outcomes):
                    raise SystemExit(f"{name} {scale} seed {seed}: an operation failed its checks")
                for o in outcomes:
                    groups[o.group] = min(groups.get(o.group, o.digits), o.digits)
                print(f"{name} {scale} seed {seed}: {min(o.digits for o in outcomes):.3f} digits", flush=True)
            floors.setdefault(name, {})[scale] = groups
    return {"seeds": f"1-{SEEDS}", "environment": run.environment(), "floors": floors}


if __name__ == "__main__":
    run.REFERENCE.write_text(json.dumps(record(), indent=2, sort_keys=True) + "\n")

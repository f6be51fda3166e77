#!/usr/bin/env python3
"""Run the shipped 900-run parameter study and print a short digest.

Equivalent to `vortexfmm sweep study.cfg --resume`; safe to interrupt and
rerun, finished tuples are skipped.
"""

import statistics
import sys
from collections import defaultdict
from pathlib import Path

from vortexfmm.harness import parse_sweep_config, run_sweep

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    config = parse_sweep_config(ROOT / "study.cfg")
    out, computed = run_sweep(
        config,
        out_path=ROOT / config.out,
        resume=(ROOT / config.out).exists(),
        progress=lambda msg: print(msg, flush=True),
    )
    print(f"\n{out}: {computed} newly computed rows of {config.run_count}")

    # digest: median max_rel per (n, p), pooled over levels and seeds
    pooled = defaultdict(list)
    for line in out.read_text().splitlines()[1:]:
        cells = line.split(",")
        n, p, max_rel = int(cells[0]), int(cells[2]), cells[7]
        if max_rel != "NA":
            pooled[(n, p)].append(float(max_rel))
    print("\nmedian max_rel by (n, p):")
    ps = sorted({p for _, p in pooled})
    print("n\\p " + " ".join(f"{p:>9d}" for p in ps))
    for n in sorted({n for n, _ in pooled}):
        print(f"{n:<4d}" + " ".join(f"{statistics.median(pooled[(n, p)]):9.2e}" for p in ps))
    return 0


if __name__ == "__main__":
    sys.exit(main())

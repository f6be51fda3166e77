#!/usr/bin/env python3
"""Print hashes of vortexfmm's outputs, to check that a change leaves them bitwise equal.

    python3 scripts/hash_outputs.py SRC_DIR

``SRC_DIR`` is the ``src`` directory of the checkout to hash, this one or
another (say, a ``git clone`` at the parent commit).  Inputs are fixed and
taken from this checkout (``study.cfg`` included), and only the public API,
``run_sweep``, ``run_case`` and ``harness._ParticleSet.generated`` are
called, so two checkouts can be compared by diffing their output.  Each line
is a name and the first 16 hex digits of a SHA-256:

- ``evaluate`` at five shapes: the velocities and, together, ``m2l_count``,
  ``near_pair_count`` and ``sigma_guard_ok``; at 4096 particles and depth 3
  (64 per leaf) every near-field leaf is dense enough to be computed as one
  targets x sources block;
- ``evaluate_at`` on perfbench's field_probe grid (4096 sources, depth 6,
  order 40, 128 x 128 cell-centred targets), where every cell holds a
  target, and on the grid's lower-left 32 x 32 targets alone, where about
  94% of the leaves hold none, so M2L skips most cells;
- the direct oracle ``velocity_direct`` at four shapes (``ORACLES``):
  field_probe's (4096 of its grid targets against its 4096 sources), 2000
  particles at themselves with the blob kernel, one target, and more targets
  than one block of pairs holds (so one source per block);
- the metric columns (all but ``t_fmm_ms`` and ``t_direct_ms``) of the
  seed-1 and seed-2 ``study.cfg`` sweeps, and of the seed-1 sweep cut inside
  its first (n, l, seed) group, a torn row included, then resumed, all
  sampled(200); and of a sweep with ``oracle = always`` (``ALWAYS``: 256
  particles, depths 3 and 4, orders 2, 9 and 20, seed 1), where every
  particle is a target, every nonempty cell is live in M2L and in the
  budgets, and the orders below 20 take a prefix of the leaf multipoles held
  at 20;
- the three files ``run_single`` writes (``velocities.csv``,
  ``error_report.csv``, ``error_map.csv``) for three inputs
  (``SINGLE_RUNS``): a generated point-vortex run, a blob run on
  ``gaussian_patch``, and a particle file on the domain (-2, -1, 3);
- the metric columns of the rows ``run_case`` gives on one standalone
  particle set (``HELD``: 300 ``gaussian_patch`` particles, depth 4), run at
  orders 4, 12 and 2 in turn, once sampled(30) and once with every particle
  as a target: the set is made for no order, so order 12 asks for more leaf
  multipoles than the first row left it holding.

Outputs may depend on the BLAS thread count, so compare two checkouts under
the same ``OPENBLAS_NUM_THREADS``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: name -> (n, depth, order, kernel, sigma, domain as (xmin, ymin, side))
EVALUATIONS = {
    "evaluate/4096_d6_p40_point": (4096, 6, 40, "point_vortex", 0.005, (0.0, 0.0, 1.0)),
    "evaluate/2000_d4_p12_blob": (2000, 4, 12, "gaussian_blob", 0.005, (0.0, 0.0, 1.0)),
    "evaluate/500_d3_p60_point": (500, 3, 60, "point_vortex", 0.005, (0.0, 0.0, 1.0)),
    # cores above the sigma guard, so the flag reads False
    "evaluate/700_d5_p17_blob_offset_domain": (700, 5, 17, "gaussian_blob", 0.05, (-2.0, -1.0, 3.0)),
    "evaluate/4096_d3_p10_blob": (4096, 3, 10, "gaussian_blob", 0.005, (0.0, 0.0, 1.0)),
}
#: name -> (targets, sources, kernel, sigma); targets "grid" is every fourth
#: point of the field_probe grid, "self" the sources' own positions, an int
#: that many uniform points
ORACLES = {
    "velocity_direct/field_probe_4096_grid_targets": ("grid", 4096, "point_vortex", 0.005),
    "velocity_direct/2000_self_blob": ("self", 2000, "gaussian_blob", 0.05),
    "velocity_direct/1_target_4096": (1, 4096, "point_vortex", 0.005),
    "velocity_direct/20000_targets_300": (20000, 300, "point_vortex", 0.005),
}
#: name -> run_single's keyword arguments; a "domain" (xmin, ymin, side)
#: writes the generated particles on it to a file, and the run reads that file
SINGLE_RUNS = {
    "run_single/1000_d3_p8_point": {"n": 1000, "levels": 3, "p": 8},
    "run_single/1500_d4_p12_blob_gaussian_patch": {
        "n": 1500, "levels": 4, "p": 12, "distribution": "gaussian_patch", "kernel": "gaussian"
    },
    "run_single/800_d4_p10_point_file_offset_domain": {"n": 800, "levels": 4, "p": 10, "domain": (-2.0, -1.0, 3.0)},
}
#: the oracle = always sweep: n, levels, orders and seeds
ALWAYS = {"n_values": (256,), "l_values": (3, 4), "p_values": (2, 9, 20), "seeds": (1,), "oracle_k": None}
SEED = 1
#: sweep rows kept before the torn row when the cut sweep is resumed
CUT_ROWS = 4
#: the standalone particle set: n, distribution, depth, the orders run in turn and the oracle samples
HELD = {"n": 300, "distribution": "gaussian_patch", "levels": 4, "orders": (4, 12, 2), "oracle_k": (30, None)}


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.tobytes() if hasattr(part, "tobytes") else repr(part).encode())
    return h.hexdigest()[:16]


def metric_columns(lines) -> list[str]:
    """Sweep rows (CSV lines) without their two timing columns (11 and 12)."""
    rows = [line.split(",") for line in lines]
    return [",".join(cells[:11] + cells[13:]) for cells in rows]


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(sys.argv[1]).resolve()))
    import numpy as np
    from vortexfmm import FmmConfig, evaluate, evaluate_at, harness
    from vortexfmm.kernels import KernelKind, velocity_direct
    from vortexfmm.model import DEFAULT_SIGMA, Domain, generate_particles, write_particles

    for name, (n, levels, order, kernel, sigma, box) in EVALUATIONS.items():
        domain = Domain(*box)
        particles = generate_particles("uniform_random", n, SEED, domain, sigma)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            vel, stats = evaluate(particles, FmmConfig(levels, order, KernelKind(kernel)), domain)
        print(f"{name}/velocities {digest(vel)}")
        print(f"{name}/counters {digest(stats.m2l_count, stats.near_pair_count, stats.sigma_guard_ok)}")

    particles = generate_particles("uniform_random", 4096, SEED)
    axis = (np.arange(128) + 0.5) / 128
    gx, gy = np.meshgrid(axis, axis)
    targets = np.stack((gx.ravel(), gy.ravel()), axis=1)
    print(f"evaluate_at/field_probe {digest(evaluate_at(targets, particles, FmmConfig(6, 40)))}")
    corner = targets.reshape(128, 128, 2)[:32, :32].reshape(-1, 2)
    print(f"evaluate_at/field_probe_lower_left_32x32 {digest(evaluate_at(corner, particles, FmmConfig(6, 40)))}")

    for name, (where, n, kernel, sigma) in ORACLES.items():
        sources = generate_particles("uniform_random", n, SEED, sigma=sigma)
        if where == "grid":
            at = targets[::4]
        elif where == "self":
            at = np.stack((sources.x, sources.y), axis=1)
        else:
            at = np.random.default_rng(SEED).uniform(size=(where, 2))
        print(f"{name} {digest(velocity_direct(at, sources, KernelKind(kernel)))}")

    study = harness.parse_sweep_config(ROOT / "study.cfg")
    with tempfile.TemporaryDirectory() as tmp:
        for seed in (1, 2):
            out, _ = harness.run_sweep(dataclasses.replace(study, seeds=(seed,)), Path(tmp) / f"s{seed}.csv")
            print(f"sweep/study_seed{seed} {digest(metric_columns(out.read_text().splitlines()))}")
        cut = Path(tmp) / "s1.csv"
        lines = cut.read_text().splitlines(keepends=True)
        cut.write_text("".join(lines[:1 + CUT_ROWS]) + lines[1 + CUT_ROWS][:20])
        harness.run_sweep(dataclasses.replace(study, seeds=(1,)), cut, resume=True)
        print(f"sweep/study_seed1_resumed {digest(metric_columns(cut.read_text().splitlines()))}")
        out, _ = harness.run_sweep(dataclasses.replace(study, **ALWAYS), Path(tmp) / "always.csv")
        print(f"sweep/oracle_always_256 {digest(metric_columns(out.read_text().splitlines()))}")

        for name, kwargs in SINGLE_RUNS.items():
            kwargs = dict(kwargs)
            if "domain" in kwargs:
                path = Path(tmp) / "particles.csv"
                domain = Domain(*kwargs.pop("domain"))
                write_particles(path, generate_particles("uniform_random", kwargs.pop("n"), SEED, domain))
                kwargs["particles_path"] = path
            out_dir = Path(tmp) / name
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                harness.run_single(out_dir, seed=SEED, **kwargs)
            for file in ("velocities.csv", "error_report.csv", "error_map.csv"):
                print(f"{name}/{file} {digest((out_dir / file).read_text())}")

    rows = []
    for oracle_k in HELD["oracle_k"]:
        particle_set = harness._ParticleSet.generated(HELD["distribution"], HELD["n"], SEED, "point", DEFAULT_SIGMA,
                                                      oracle_k)
        rows += [harness.run_case(particle_set, HELD["levels"], p).csv_row() for p in HELD["orders"]]
    print(f"particle_set/300_d4_p4_12_2 {digest(metric_columns(rows))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

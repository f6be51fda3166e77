"""The benchmark's three workloads.

Each workload makes its inputs from the benchmark seed.  ``setup`` generates
the particles, computes the oracle reference and makes one warm-up operation;
it may run several times in one run, and always makes the same inputs.
``call`` makes one call into the public API and reports the end of every
operation in it through ``mark``; ``check`` judges every operation of that
call against the oracle, outside the timed region.

An operation fails when its output is non-finite, when it has fewer correct
digits than the recorded floor allows, when the geometric truncation budget
is violated (where budgets apply), or when it is not bitwise identical to the
first operation of the run on the same input.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import tempfile
import time
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from vortexfmm import engine, errors, harness, kernels, model, quadtree
from vortexfmm.kernels import KernelKind
from vortexfmm.model import UNIT_DOMAIN

MACHINE_EPS = float(np.finfo(np.float64).eps)

#: Extra generator key that separates the oracle's target sample from the
#: particle stream of the same seed.
ORACLE_STREAM = 0xB0C4


class Outcome(NamedTuple):
    """One checked operation: pass/fail, correct digits, and its accuracy-floor group."""

    ok: bool
    digits: float
    group: str


def correct_digits(max_rel: float) -> float:
    """-log10 of the worst relative error; errors below machine epsilon count as epsilon."""
    return -math.log10(max(max_rel, MACHINE_EPS))


class Workload:
    """Shared state: seed, size, the recorded accuracy floors and their tolerance."""

    name = ""
    SIZES: dict[str, dict] = {}

    def __init__(self, seed: int, scale: str, floors: dict[str, float] | None, tolerance: float, work_dir: Path):
        self.seed = seed
        self.size = self.SIZES[scale]
        self.floors = floors
        self.tolerance = tolerance
        self.work_dir = work_dir
        #: near-field pairs per operation where no traced layer counts them
        self.near_pairs_per_op: int | None = None
        #: the run's first output, kept across repeated set-ups
        self.reference = None

    def accurate(self, digits: float, group: str) -> bool:
        """True unless the digits fall short of the recorded floor by more than the tolerance."""
        if self.floors is None:
            return True
        return digits >= self.floors[group] * (1.0 - self.tolerance)

    def close(self) -> None:
        pass


class _ArrayOutput(Workload):
    """Workloads whose operation returns a velocity array checked at sampled targets."""

    group = "all"

    def check(self, velocities: np.ndarray) -> list[Outcome]:
        if self.reference is None:
            self.reference = velocities.copy()
        if not np.isfinite(velocities).all():
            return [Outcome(False, math.nan, self.group)]
        report = errors.compare(velocities[self.sample], self.direct, self.positions, self.budgets)
        violations = 0 if self.budgets is None else len(errors.bound_check(report))
        digits = correct_digits(report.max_rel)
        same = velocities.tobytes() == self.reference.tobytes()
        return [Outcome(same and violations == 0 and self.accurate(digits, self.group), digits, self.group)]

    def _oracle(self, positions: np.ndarray, kind: KernelKind) -> None:
        """Seeded target sample and its direct-summation velocities."""
        rng = np.random.default_rng([self.seed, ORACLE_STREAM])
        self.sample = np.sort(rng.choice(len(positions), size=self.size["oracle_targets"], replace=False))
        self.positions = positions[self.sample]
        self.direct = kernels.velocity_direct(self.positions, self.particles, kind)


class EvaluateLarge(_ArrayOutput):
    """Repeated ``engine.evaluate`` on one fixed set of blob particles (one time step)."""

    name = "evaluate_large"
    SIZES = {"full": {"n": 131072, "oracle_targets": 512}, "small": {"n": 4096, "oracle_targets": 128}}
    ORDER = 8
    TARGET_PER_LEAF = 8
    #: below the half-width/2 guard of a depth-7 leaf (1/512)
    SIGMA = 0.001

    def __init__(self, *args):
        super().__init__(*args)
        levels = harness.occupancy_levels(self.size["n"], self.TARGET_PER_LEAF)
        self.config = engine.FmmConfig(levels, self.ORDER, KernelKind.GAUSSIAN_BLOB)

    def setup(self) -> list[Outcome]:
        self.particles = model.generate_particles("uniform_random", self.size["n"], self.seed, sigma=self.SIGMA)
        x, y, gamma, _ = model.to_arrays(self.particles)
        self._oracle(np.stack((x, y), axis=1), self.config.kernel)
        tree = quadtree.build_tree(self.particles, self.config.levels, UNIT_DOMAIN)
        self.budgets = engine.bound_budgets(tree, gamma, self.config.order)[self.sample]
        _, velocities = self.call(time.perf_counter)
        return self.check(velocities)

    def call(self, mark: Callable[[], float]) -> tuple[list[float], np.ndarray]:
        start = time.perf_counter()
        velocities, _ = engine.evaluate(self.particles, self.config, UNIT_DOMAIN)
        return [mark() - start], velocities


class FieldProbe(_ArrayOutput):
    """Repeated ``engine.evaluate_at`` on a cell-centred grid at near-machine accuracy."""

    name = "field_probe"
    SIZES = {
        "full": {"n": 4096, "levels": 6, "grid": 128, "oracle_targets": 4096},
        "small": {"n": 1024, "levels": 5, "grid": 32, "oracle_targets": 256},
    }
    ORDER = 40

    def __init__(self, *args):
        super().__init__(*args)
        self.config = engine.FmmConfig(self.size["levels"], self.ORDER, KernelKind.POINT_VORTEX)
        axis = (np.arange(self.size["grid"]) + 0.5) / self.size["grid"]
        gx, gy = np.meshgrid(axis, axis)
        self.targets = np.stack((gx.ravel(), gy.ravel()), axis=1)
        self.budgets = None

    def setup(self) -> list[Outcome]:
        self.particles = model.generate_particles("uniform_random", self.size["n"], self.seed)
        self._oracle(self.targets, self.config.kernel)
        self.near_pairs_per_op = self._near_pairs(quadtree.build_tree(self.particles, self.config.levels, UNIT_DOMAIN))
        _, velocities = self.call(time.perf_counter)
        return self.check(velocities)

    def _near_pairs(self, tree: quadtree.Tree) -> int:
        """Computed target-source pairs of the near loop: sources in each target leaf's 3x3 block."""
        m = 2**tree.levels
        padded = np.pad(tree.counts[tree.levels].reshape(m, m), 1)
        block = sum(padded[dy : dy + m, dx : dx + m] for dy in range(3) for dx in range(3))
        ix, iy = quadtree.grid_indices(self.targets[:, 0], self.targets[:, 1], m, UNIT_DOMAIN)
        return int(block[iy, ix].sum())

    def call(self, mark: Callable[[], float]) -> tuple[list[float], np.ndarray]:
        start = time.perf_counter()
        velocities = engine.evaluate_at(self.targets, self.particles, self.config, UNIT_DOMAIN)
        return [mark() - start], velocities


class StudySweep(Workload):
    """``harness.run_sweep`` over the study.cfg grid for the benchmark seed; one row is one operation."""

    name = "study_sweep"
    SIZES = {"full": {}, "small": {"n_values": (256,), "l_values": (3, 4), "p_values": (2, 4, 6)}}
    STUDY_CFG = Path(__file__).resolve().parent.parent / "study.cfg"
    #: sweep CSV columns that vary run to run; every other column is a pure
    #: function of the config and must repeat bit for bit
    TIMING_COLUMNS = ("t_fmm_ms", "t_direct_ms")

    def __init__(self, *args):
        super().__init__(*args)
        study = harness.parse_sweep_config(self.STUDY_CFG)
        self.config = dataclasses.replace(study, seeds=(self.seed,), **self.size)
        self._tmp = tempfile.TemporaryDirectory(dir=self.work_dir, prefix="sweep-")
        self.out = Path(self._tmp.name) / "sweep.csv"
        #: metric columns of the first row seen for each (n, l, p, seed)
        self.reference: dict[tuple, tuple] = {}

    def setup(self) -> list[Outcome]:
        first = next(self.config.tuples())
        warmup = dataclasses.replace(
            self.config, n_values=first[:1], l_values=first[1:2], p_values=first[2:3]
        )
        out, _ = harness.run_sweep(warmup, self.out)
        return self.check(out, expected=1)

    def call(self, mark: Callable[[], float]) -> tuple[list[float], Path]:
        marks = []
        start = time.perf_counter()
        out, _ = harness.run_sweep(self.config, self.out, progress=lambda _line: marks.append(mark()))
        return list(np.diff([start, *marks])), out

    def check(self, out: Path, expected: int | None = None) -> list[Outcome]:
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        outcomes = [self._check_row(row) for row in rows]
        missing = (self.config.run_count if expected is None else expected) - len(rows)
        return outcomes + [Outcome(False, math.nan, "missing")] * missing

    def _check_row(self, row: dict[str, str]) -> Outcome:
        key = tuple(row[c] for c in ("n", "l", "p", "seed"))
        metrics = tuple(v for c, v in row.items() if c not in self.TIMING_COLUMNS)
        same = self.reference.setdefault(key, metrics) == metrics
        try:
            values = [float(row[c]) for c in ("max_abs", "max_rel", "rms_rel")]
        except ValueError:  # the NA token: no finite relative error
            return Outcome(False, math.nan, row["p"])
        if not all(math.isfinite(v) for v in values):
            return Outcome(False, math.nan, row["p"])
        digits = correct_digits(values[1])
        ok = same and row["bound_violations"] == "0" and self.accurate(digits, row["p"])
        return Outcome(ok, digits, row["p"])

    def close(self) -> None:
        self._tmp.cleanup()


WORKLOADS = {w.name: w for w in (EvaluateLarge, StudySweep, FieldProbe)}

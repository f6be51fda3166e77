"""Run orchestration: single evaluations, (N, levels, p) sweeps, timing studies.

The sweep harness is the desk-scale study driver: it executes every tuple of
a parameter grid against the direct oracle, appending one CSV row per run as
it goes (crash-resumable), with metric columns that are a pure function of
the config file at a fixed BLAS thread count.  Oracle cost is controllable:
``sampled(k)`` evaluates the O(N^2) reference on k targets, seeded by
(N, seed) and shared by every run of that pair, instead of all N, and each
run evaluates the FMM at those k targets alone.  Every
run, a sweep row, a single run or a standalone ``run_case``, goes through
one private ``_ParticleSet``: the particles, their oracle and the work that
runs of one depth share.

Config files are flat ``key = value`` lines; list values are comma-separated;
``#`` starts a comment.  Keys: n, levels, p, seeds, distribution, kernel,
sigma, map_grid, oracle, out.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import engine
from . import errors as errorlab
from .engine import FmmConfig, evaluate
from .kernels import KernelKind, _check_cores, velocity_direct
from .model import (
    DEFAULT_SIGMA,
    DISTRIBUTIONS,
    GENERATOR_ID,
    UNIT_DOMAIN,
    Domain,
    Particles,
    _check_count,
    enclosing_domain,
    generate_particles,
    read_particles,
)

SWEEP_HEADER = (
    "n,l,p,seed,distribution,kernel,max_abs,max_rel,rms_rel,bound_violations,"
    "sampled,t_fmm_ms,t_direct_ms,m2l_count,near_pair_count,generator_id"
)
_SWEEP_COLUMNS = SWEEP_HEADER.count(",") + 1
TIMING_HEADER = "n,l,p,t_fmm_ms,t_direct_ms,direct_extrapolated"

_KERNEL_TOKENS = {"point": KernelKind.POINT_VORTEX, "gaussian": KernelKind.GAUSSIAN_BLOB}


def _kernel_kind(token: str) -> KernelKind:
    """The kernel a config or command-line token names; ``ValueError`` for any other token."""
    try:
        return _KERNEL_TOKENS[token]
    except KeyError:
        raise ValueError(f"expected {' or '.join(_KERNEL_TOKENS)}, got {token!r}") from None


class ConfigError(ValueError):
    """Malformed sweep configuration or resume mismatch."""


def _checked(key: str, check: Callable, *args) -> None:
    """Run one of the checks a sweep's runs make; its TypeError or ValueError becomes a ConfigError
    naming ``key``."""
    try:
        check(*args)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config key {key}: {exc}") from None


@dataclass(frozen=True)
class SweepConfig:
    n_values: tuple[int, ...]
    l_values: tuple[int, ...]
    p_values: tuple[int, ...]
    seeds: tuple[int, ...]
    distribution: str = "uniform_random"
    kernel: str = "point"
    sigma: float = DEFAULT_SIGMA
    map_grid: int = errorlab.DEFAULT_MAP_GRID
    oracle_k: int | None = 200  # targets of the sampled oracle; None = all
    out: str = "sweep_results.csv"

    def __post_init__(self):
        """Put every value through the checks its runs would make, so that a bad
        config is rejected however it is built, before any output is written."""
        _checked("'kernel'", _kernel_kind, self.kernel)
        if self.distribution not in DISTRIBUTIONS:
            raise ConfigError(f"config key 'distribution': expected one of {DISTRIBUTIONS}, got {self.distribution!r}")
        if self.oracle_k is not None:
            _checked("'oracle'", _check_count, "sample size", self.oracle_k)
        for key, values in self._lists().items():
            if len(set(values)) < len(values):
                raise ConfigError(f"config key {key!r}: repeated value in {', '.join(map(str, values))}")
        for n in self.n_values:
            _checked("'n'", _check_count, "particle count", n)
        for seed in self.seeds:
            _checked("'seeds'", np.random.SeedSequence, seed)
        for levels in self.l_values:
            _checked("'levels'", FmmConfig, levels, 0)
        for p in self.p_values:
            _checked("'p'", FmmConfig, 2, p)
        _checked("'sigma'", Particles, [0.0], [0.0], [0.0], [self.sigma])
        _checked("'sigma'", _check_cores, np.array([self.sigma]), _KERNEL_TOKENS[self.kernel])
        _checked("'map_grid'", _check_count, "map grid", self.map_grid)

    def _lists(self) -> dict[str, tuple[int, ...]]:
        return {"n": self.n_values, "levels": self.l_values, "p": self.p_values, "seeds": self.seeds}

    @property
    def run_count(self) -> int:
        return math.prod(map(len, self._lists().values()))

    def tuples(self):
        """Canonical lexicographic run order: (n, levels, p, seed)."""
        return itertools.product(*map(sorted, self._lists().values()))

    def meta(self) -> dict:
        return {
            **{key: sorted(values) for key, values in self._lists().items()},
            "distribution": self.distribution,
            "kernel": self.kernel,
            "sigma": self.sigma,
            "map_grid": self.map_grid,
            "oracle": "always" if self.oracle_k is None else f"sampled({self.oracle_k})",
            "oracle_sample": "per (n, seed)",
            "generator_id": GENERATOR_ID,
        }


def _parse_int_list(value: str, key: str) -> tuple[int, ...]:
    try:
        items = tuple(int(v.strip()) for v in value.split(",") if v.strip())
    except ValueError:
        raise ConfigError(f"config key {key!r}: expected comma-separated integers, got {value!r}") from None
    if not items:
        raise ConfigError(f"config key {key!r}: empty list")
    return items


def parse_sweep_config(path) -> SweepConfig:
    """Parse a flat key = value sweep config file; absent keys keep the ``SweepConfig`` defaults.

    ``SweepConfig`` checks the values, so a bad config is rejected here,
    before any output is written.
    """
    raw: dict[str, str] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value, got {line!r}")
            key, _, value = line.partition("=")
            raw[key.strip()] = value.strip()

    known = {"n", "levels", "p", "seeds", "distribution", "kernel", "sigma", "map_grid", "oracle", "out"}
    for key in raw:
        if key not in known:
            raise ConfigError(f"unknown config key {key!r}")
    for key in ("n", "levels", "p", "seeds"):
        if key not in raw:
            raise ConfigError(f"missing required config key {key!r}")

    options: dict = {key: raw[key] for key in ("distribution", "kernel", "out") if key in raw}
    try:
        options.update((key, kind(raw[key])) for key, kind in (("sigma", float), ("map_grid", int)) if key in raw)
    except ValueError as exc:
        raise ConfigError(f"config key 'sigma'/'map_grid': {exc}") from None
    if "oracle" in raw:
        m = re.fullmatch(r"always|sampled\((\d+)\)", raw["oracle"])
        if not m:
            raise ConfigError(f"config key 'oracle': expected always or sampled(k), got {raw['oracle']!r}")
        options["oracle_k"] = None if m.group(1) is None else int(m.group(1))

    return SweepConfig(
        n_values=_parse_int_list(raw["n"], "n"),
        l_values=_parse_int_list(raw["levels"], "levels"),
        p_values=_parse_int_list(raw["p"], "p"),
        seeds=_parse_int_list(raw["seeds"], "seeds"),
        **options,
    )


class _ParticleSet:
    """One particle set on one domain and kernel, and what every run on it shares.

    Every run goes through one: a sweep keeps one for each (n, seed), and a
    single run or a standalone ``run_case`` makes its own.  The set records
    what identifies its runs: ``seed``, ``distribution`` and the ``kernel``
    token, which it rejects unless it names a kernel.  Its runs score the
    same oracle sample: ``oracle_k`` targets drawn from
    ``[seed, n, 0x0F5EED]`` when that is fewer than n (``sampled`` is then
    ``oracle_k``), otherwise all n (``sampled`` 0).  The set makes the one
    ``velocity_direct`` call on them and keeps its values and its time,
    which every run reports as its oracle cost.  A sampling set's runs
    evaluate the FMM at its sample alone: the near field, the far field and
    M2L into the cells that hold a sampled target.  The runs of one depth
    share the order-independent work, ``engine._tree_work``, with the leaf
    multipoles at ``order``, the highest order its runs will take (or the
    run's, if higher), and the live cells' bound budget amplitudes,
    ``engine._budget_gather``, both made again when the depth changes or a
    run asks for an order above the one held, the order of the first stage's
    record (``work.stats.order``).  All of it is exact: results
    are bit for bit a standalone run's, and a sampled target's velocity and
    budget are bit for bit those of an evaluation of every particle at one
    BLAS thread.
    """

    def __init__(
        self, particles: Particles, domain: Domain, kernel: str, seed: int, distribution: str, oracle_k: int | None,
        order: int = 0,
    ):
        self.kind = _kernel_kind(kernel)
        self.particles, self.domain, self.kernel = particles, domain, kernel
        self.seed, self.distribution, self.order = seed, distribution, order
        n = len(particles)
        if oracle_k is not None and oracle_k < n:
            rng = np.random.default_rng([seed, n, 0x0F5EED])
            self.sample, self.sampled = np.sort(rng.choice(n, size=oracle_k, replace=False)), oracle_k
        else:
            self.sample, self.sampled = np.arange(n), 0
        self.targets = np.stack((particles.x, particles.y), axis=1)[self.sample]
        t0 = time.perf_counter()
        self.direct = velocity_direct(self.targets, particles, self.kind)
        self.t_direct_ms = (time.perf_counter() - t0) * 1e3
        self.work = self.gathered = None

    @classmethod
    def generated(
        cls, distribution: str, n: int, seed: int, kernel: str, sigma: float, oracle_k: int | None, order: int = 0
    ) -> _ParticleSet:
        """The set of ``n`` particles that ``generate_particles`` draws from ``seed`` on the unit domain."""
        particles = generate_particles(distribution, n, seed, UNIT_DOMAIN, sigma)
        return cls(particles, UNIT_DOMAIN, kernel, seed, distribution, oracle_k, order)

    def at_depth(self, levels: int, order: int) -> tuple[engine._TreeWork, tuple]:
        """The first stage and the budget gather at depth ``levels``, holding the leaf multipoles at
        ``order`` or above."""
        if self.work is None or self.work.tree.levels != levels or self.work.stats.order < order:
            # a sampled oracle scores its sample alone, so the runs evaluate there alone
            targets = self.targets if self.sampled else None
            work = engine._tree_work(self.particles, levels, self.kind, self.domain, targets, max(self.order, order))
            self.work, self.gathered = work, engine._budget_gather(work.tree, work.gamma_sorted, work.live)
        return self.work, self.gathered


@dataclass
class CaseResult:
    """What one (levels, p) run on a particle set computed; the rest is the set's.

    ``stats`` is the run's ``FmmRunStats``: its depth, order, timings and
    counters, which describe evaluating every particle.  ``velocities`` are
    the set's oracle targets' rows, in sample order: the k sampled
    particles' when the set samples, otherwise every particle's.
    """

    particle_set: _ParticleSet
    report: errorlab.ErrorReport
    violations: int
    stats: engine.FmmRunStats
    velocities: np.ndarray

    def csv_row(self) -> str:
        rep, pset, stats = self.report, self.particle_set, self.stats
        fields = [
            str(len(pset.particles)),
            str(stats.levels),
            str(stats.order),
            str(pset.seed),
            pset.distribution,
            pset.kernel,
            format(rep.max_abs, ".10g"),
            "NA" if math.isnan(rep.max_rel) else format(rep.max_rel, ".10g"),
            "NA" if math.isnan(rep.rms_rel) else format(rep.rms_rel, ".10g"),
            str(self.violations),
            str(pset.sampled),
            format(stats.t_total * 1e3, ".3f"),
            format(pset.t_direct_ms, ".3f"),
            str(stats.m2l_count),
            str(stats.near_pair_count),
            GENERATOR_ID,
        ]
        return ",".join(fields)


def run_case(particle_set: _ParticleSet, levels: int, p: int) -> CaseResult:
    """Run the fast evaluation at depth ``levels`` and order ``p`` at a particle set's oracle
    targets, and score it against the set's oracle and the run's truncation budgets."""
    config = FmmConfig(levels, p, particle_set.kind)
    work, gathered = particle_set.at_depth(config.levels, config.order)
    velocities, stats = engine._order_run(work, config.order)
    budgets = engine._budgets_at(work.tree, gathered, config.order, work.at)
    report = errorlab.compare(velocities, particle_set.direct, particle_set.targets, budgets)
    return CaseResult(particle_set, report, len(errorlab.bound_check(report)), stats, velocities)


# ---------------------------------------------------------------------------
# Single runs
# ---------------------------------------------------------------------------


@dataclass
class SingleSummary:
    case: CaseResult
    out_files: tuple[Path, Path, Path]

    def line(self) -> str:
        case, rep = self.case, self.case.report
        t_fmm_ms, t_direct_ms = case.stats.t_total * 1e3, case.particle_set.t_direct_ms
        ratio = t_fmm_ms / t_direct_ms if t_direct_ms > 0 else math.nan
        rel = "NA" if math.isnan(rep.max_rel) else format(rep.max_rel, ".3e")
        return (
            f"max_rel={rel} max_abs={rep.max_abs:.3e} bound_violations={case.violations} "
            f"t_fmm={t_fmm_ms:.1f}ms t_direct={t_direct_ms:.1f}ms "
            f"t_fmm/t_direct={ratio:.3f}"
        )


def _atomic_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` whole or not at all, through a temporary file beside
    it, opened like any other output so that the renamed file's mode follows the umask."""
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def run_single(
    out_dir,
    n: int = 1000,
    levels: int = 3,
    p: int = 8,
    seed: int = 1,
    distribution: str = "uniform_random",
    kernel: str = "point",
    sigma: float = DEFAULT_SIGMA,
    particles_path=None,
    map_grid: int = errorlab.DEFAULT_MAP_GRID,
) -> SingleSummary:
    """One evaluation against the full direct oracle; writes three CSV files.

    Outputs (written atomically into ``out_dir``): ``velocities.csv``,
    ``error_report.csv``, ``error_map.csv``.  When ``particles_path`` is
    given it overrides the generator and the domain becomes the particles'
    enclosing square.  The map grid, depth, order and kernel are checked
    first: a bad one fails before any particle is made, any file is written
    or the oracle runs.  ``out_dir`` is made only once the run has succeeded,
    so a bad particle file or a failed run leaves nothing behind.
    """
    _check_count("map_grid", map_grid)
    FmmConfig(levels, p, _kernel_kind(kernel))
    if particles_path is not None:
        particles = read_particles(particles_path)
        if not particles:
            raise ValueError(f"{particles_path}: no particles")
        particle_set = _ParticleSet(particles, enclosing_domain(particles), kernel, seed, distribution, None)
    else:
        particle_set = _ParticleSet.generated(distribution, n, seed, kernel, sigma, None)

    case = run_case(particle_set, levels, p)
    emap = errorlab.spatial_map(case.report, particle_set.domain, map_grid)

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    vel_path = out_dir / "velocities.csv"
    rep_path = out_dir / "error_report.csv"
    map_path = out_dir / "error_map.csv"

    rep, vel, direct = case.report, case.velocities, particle_set.direct
    lines = ["index,x,y,u_fmm,v_fmm,u_direct,v_direct"]
    for i, (px, py) in enumerate(rep.positions):
        lines.append(
            f"{i},{px:.17g},{py:.17g},{vel[i, 0]:.17g},{vel[i, 1]:.17g},"
            f"{direct[i, 0]:.17g},{direct[i, 1]:.17g}"
        )
    _atomic_text(vel_path, "\n".join(lines) + "\n")

    lines = ["index,x,y,abs_err,f_abs_err,budget"]
    for i, (px, py) in enumerate(rep.positions):
        lines.append(
            f"{i},{px:.17g},{py:.17g},{rep.abs_errors[i]:.10g},{rep.f_abs_errors[i]:.10g},{rep.bound_budget[i]:.10g}"
        )
    _atomic_text(rep_path, "\n".join(lines) + "\n")
    _atomic_text(map_path, errorlab.error_map_text(emap))

    return SingleSummary(case, (vel_path, rep_path, map_path))


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def _meta_path(out_path: Path) -> Path:
    return out_path.with_name(out_path.name + ".meta.json")


def _existing_rows(out_path: Path) -> tuple[set[tuple[int, int, int, int]], int]:
    """Keys of a sweep file's complete rows and the byte length of the file up to them.

    Rows are read in order up to the first one that is not newline-terminated
    with every column and integer keys, such as a row torn by a crash; it and
    everything after it do not count as done.
    """
    done = set()
    with open(out_path, "rb") as fh:
        header = fh.readline()
        if header.strip() != SWEEP_HEADER.encode() or not header.endswith(b"\n"):
            raise ConfigError(f"{out_path}: unexpected header, not a sweep file")
        end = len(header)
        for line in fh:
            parts = line.split(b",")
            if not line.endswith(b"\n") or len(parts) != _SWEEP_COLUMNS:
                break
            try:
                done.add(tuple(int(v) for v in parts[:4]))
            except ValueError:
                break
            end += len(line)
    return done, end


def run_sweep(
    config: SweepConfig,
    out_path=None,
    resume: bool = False,
    write_maps: bool = False,
    progress: Callable[[str], None] | None = None,
) -> tuple[Path, int]:
    """Execute the config's full grid, one CSV row per run, flushed as it goes.

    With ``resume``, tuples already present in the output are skipped and the
    sidecar metadata must match the config exactly; the file is first cut back
    to its last complete row.  Returns the output path and the number of newly
    computed rows.

    Tuples run in n, l, p, seed order.  Each (n, seed)'s particles are
    generated once into a ``_ParticleSet``, with one oracle call on its one
    sample; its rows evaluate the FMM at that sample alone, score it and
    share, per depth l, the order-independent work: the first row of each
    (n, l, seed) computes it and its other orders reuse it.  Every row
    reports the one oracle call's time as ``t_direct_ms``, and its
    ``t_fmm_ms`` reads as the cost of a standalone run at the same targets,
    the recorded build and near-field time included.  ``m2l_count`` and
    ``near_pair_count`` count the work of evaluating every particle.  The sets
    are dropped when n changes.  ``progress`` receives one line per computed
    row.
    """
    out = Path(out_path) if out_path is not None else Path(config.out)
    meta_file = _meta_path(out)
    done: set[tuple[int, int, int, int]] = set()

    if resume and out.exists():
        if not meta_file.exists():
            raise ConfigError(f"cannot resume: {meta_file} is missing")
        recorded = json.loads(meta_file.read_text())
        if recorded != config.meta():
            raise ConfigError(
                f"cannot resume: config does not match {meta_file} "
                f"(recorded {recorded}, requested {config.meta()})"
            )
        done, end = _existing_rows(out)
        os.truncate(out, end)
        mode = "a"
    else:
        mode = "w"

    out.parent.mkdir(parents=True, exist_ok=True)
    _atomic_text(meta_file, json.dumps(config.meta(), indent=2) + "\n")
    maps_dir = out.with_name(out.stem + "_maps")
    if write_maps:
        maps_dir.mkdir(parents=True, exist_ok=True)

    computed = 0
    sets_n, sets = None, {}  # the particle sets of the current n, by seed
    with open(out, mode) as fh:
        if mode == "w":
            fh.write(SWEEP_HEADER + "\n")
            fh.flush()
        for n, lev, p, seed in config.tuples():
            if (n, lev, p, seed) in done:
                continue
            if n != sets_n:  # tuples run in n order: the last n's particles are done with
                sets_n, sets = n, {}
            if seed not in sets:
                sets[seed] = _ParticleSet.generated(
                    config.distribution, n, seed, config.kernel, config.sigma, config.oracle_k, max(config.p_values)
                )
            case = run_case(sets[seed], lev, p)
            # the map goes first: a row marks its tuple done, map included
            if write_maps:
                emap = errorlab.spatial_map(case.report, UNIT_DOMAIN, config.map_grid)
                _atomic_text(maps_dir / f"map_n{n}_l{lev}_p{p}_s{seed}.csv", errorlab.error_map_text(emap))
            fh.write(case.csv_row() + "\n")
            fh.flush()
            computed += 1
            if progress is not None:
                progress(f"[{computed}] n={n} l={lev} p={p} seed={seed} max_rel={case.report.max_rel:.3e}")
    return out, computed


# ---------------------------------------------------------------------------
# Timing study
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TimingRow:
    n: int
    levels: int
    p: int
    t_fmm_ms: float
    t_direct_ms: float
    direct_extrapolated: bool

    def csv_row(self) -> str:
        return (
            f"{self.n},{self.levels},{self.p},{self.t_fmm_ms:.3f},"
            f"{self.t_direct_ms:.3f},{int(self.direct_extrapolated)}"
        )


def occupancy_levels(n: int, target_per_leaf: int) -> int:
    """Tree depth that targets a fixed leaf occupancy: round(log4(n / target)), >= 2."""
    if target_per_leaf < 1:
        raise ValueError("target_per_leaf must be >= 1")
    raw = math.log(max(n / target_per_leaf, 1.0), 4.0)
    return max(2, int(math.floor(raw + 0.5)))


def timing_study(
    n_values: Sequence[int],
    p: int = 8,
    levels: int | None = None,
    target_per_leaf: int = 8,
    seed: int = 1,
    repeats: int = 3,
    direct_cutoff: int = 8192,
    out_path=None,
) -> list[TimingRow]:
    """Median-of-``repeats`` wall times for the fast and direct evaluations.

    Uniform random particles with the generator's default core radius on the
    unit domain, point-vortex kernel.

    ``levels`` fixes the depth; otherwise it follows the occupancy policy.
    One untimed evaluation per n comes first: it builds the depth's
    translation and stencil caches, which a process pays for once.  Direct
    timing is measured up to ``direct_cutoff`` particles and
    extrapolated beyond it as O(N^2) from the largest measured point,
    t = t_max * (n / n_max)^2, which stays positive (flagged per row).  Runs
    strictly sequentially.
    """
    if not n_values:
        raise ValueError("n_values is empty: no n to time")
    _check_count("repeats", repeats)
    if min(n_values) > direct_cutoff:
        raise ValueError("direct_cutoff excludes every requested n; nothing to extrapolate from")
    rows: list[tuple[int, int, float, float | None]] = []
    measured: list[tuple[int, float]] = []
    for n in sorted(n_values):
        lev = levels if levels is not None else occupancy_levels(n, target_per_leaf)
        particles = generate_particles("uniform_random", n, seed)
        config = FmmConfig(levels=lev, order=p)
        evaluate(particles, config, UNIT_DOMAIN)
        t_fmm = float(np.median([evaluate(particles, config, UNIT_DOMAIN)[1].t_total for _ in range(repeats)]))
        t_direct: float | None = None
        if n <= direct_cutoff:
            positions = np.stack((particles.x, particles.y), axis=1)
            samples = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                velocity_direct(positions, particles, KernelKind.POINT_VORTEX)
                samples.append(time.perf_counter() - t0)
            t_direct = float(np.median(samples))
            measured.append((n, t_direct))
        rows.append((n, lev, t_fmm, t_direct))

    n_max, t_max = measured[-1]

    out_rows = []
    for n, lev, t_fmm, t_direct in rows:
        extrapolated = t_direct is None
        if extrapolated:
            t_direct = t_max * (n / n_max) ** 2
        out_rows.append(
            TimingRow(n, lev, p, t_fmm * 1e3, t_direct * 1e3, extrapolated)
        )

    if out_path is not None:
        text = TIMING_HEADER + "\n" + "\n".join(r.csv_row() for r in out_rows) + "\n"
        _atomic_text(Path(out_path), text)
    return out_rows

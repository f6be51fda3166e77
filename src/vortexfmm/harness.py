"""Run orchestration: single evaluations, (N, levels, p) sweeps, timing studies.

The sweep harness is the desk-scale study driver: it executes every tuple of
a parameter grid against the direct oracle, appending one CSV row per run as
it goes (crash-resumable), with metric columns that are a pure function of
the config file at a fixed BLAS thread count.  Oracle cost is controllable:
``sampled(k)`` evaluates the O(N^2) reference on k targets, seeded by
(N, seed) and shared by every run of that pair, instead of all N.

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
from .engine import FmmConfig, bound_budgets, evaluate
from .kernels import KernelKind, _check_cores, velocity_direct
from .model import (
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
    sigma: float = 0.005
    map_grid: int = 8
    oracle_k: int | None = 200  # targets of the sampled oracle; None = all
    out: str = "sweep_results.csv"

    def __post_init__(self):
        """Put every value through the checks its runs would make, so that a bad
        config is rejected however it is built, before any output is written."""
        if self.kernel not in _KERNEL_TOKENS:
            raise ConfigError(f"config key 'kernel': expected point or gaussian, got {self.kernel!r}")
        if self.distribution not in DISTRIBUTIONS:
            raise ConfigError(f"config key 'distribution': expected one of {DISTRIBUTIONS}, got {self.distribution!r}")
        if self.oracle_k is not None and self.oracle_k < 1:
            raise ConfigError("config key 'oracle': sample size must be >= 1")
        for key, values in self._lists().items():
            if len(set(values)) < len(values):
                raise ConfigError(f"config key {key!r}: repeated value in {', '.join(map(str, values))}")
        for n in self.n_values:
            _checked("'n'", _check_count, n)
        for seed in self.seeds:
            _checked("'seeds'", np.random.SeedSequence, seed)
        for levels in self.l_values:
            _checked("'levels'", FmmConfig, levels, 0)
        for p in self.p_values:
            _checked("'p'", FmmConfig, 2, p)
        _checked("'sigma'", Particles, [0.0], [0.0], [0.0], [self.sigma])
        _checked("'sigma'", _check_cores, np.array([self.sigma]), _KERNEL_TOKENS[self.kernel])
        _checked("'map_grid'", errorlab._check_grid, self.map_grid)

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
    """One particle set on one domain and kernel, and what its runs share.

    A sweep keeps one for each (n, seed).  Its runs score the same oracle
    sample: ``oracle_k`` targets drawn from ``[seed, n, 0x0F5EED]`` when that
    is fewer than n (``sampled`` is then ``oracle_k``), otherwise all n
    (``sampled`` 0).  The set makes the one ``velocity_direct`` call on them
    and keeps its values and its time, which every run reports as its oracle
    cost.  The runs of one depth share the order-independent work,
    ``engine._tree_work``, and the bound budgets' amplitudes,
    ``engine._budget_gather``, both recomputed when the depth changes.
    Either is exact: results are bit for bit a standalone run's.
    """

    def __init__(self, particles: Particles, domain: Domain, kind: KernelKind, seed: int, oracle_k: int | None):
        self.particles, self.domain, self.kind = particles, domain, kind
        n = len(particles)
        if oracle_k is not None and oracle_k < n:
            rng = np.random.default_rng([seed, n, 0x0F5EED])
            self.sample, self.sampled = np.sort(rng.choice(n, size=oracle_k, replace=False)), oracle_k
        else:
            self.sample, self.sampled = np.arange(n), 0
        self.targets = np.stack((particles.x, particles.y), axis=1)[self.sample]
        t0 = time.perf_counter()
        self.direct = velocity_direct(self.targets, particles, kind)
        self.t_direct_ms = (time.perf_counter() - t0) * 1e3
        self.work = self.gathered = None

    def at_depth(self, levels: int) -> tuple[engine._TreeWork, np.ndarray]:
        """The order-independent work and the budget amplitudes at depth ``levels``."""
        if self.work is None or self.work.tree.levels != levels:
            self.work = engine._tree_work(self.particles, levels, self.kind, self.domain)
            self.gathered = engine._budget_gather(self.work.tree, self.work.gamma_sorted)
        return self.work, self.gathered


@dataclass
class CaseResult:
    """Everything one (n, levels, p, seed) run produces."""

    n: int
    levels: int
    p: int
    seed: int
    distribution: str
    kernel: str
    report: errorlab.ErrorReport
    violations: int
    sampled: int  # 0 = full oracle, else the sample size used
    t_fmm_ms: float
    t_direct_ms: float
    m2l_count: int
    near_pair_count: int
    velocities: np.ndarray
    direct: np.ndarray

    def csv_row(self) -> str:
        rep = self.report
        fields = [
            str(self.n),
            str(self.levels),
            str(self.p),
            str(self.seed),
            self.distribution,
            self.kernel,
            format(rep.max_abs, ".10g"),
            "NA" if math.isnan(rep.max_rel) else format(rep.max_rel, ".10g"),
            "NA" if math.isnan(rep.rms_rel) else format(rep.rms_rel, ".10g"),
            str(self.violations),
            str(self.sampled),
            format(self.t_fmm_ms, ".3f"),
            format(self.t_direct_ms, ".3f"),
            str(self.m2l_count),
            str(self.near_pair_count),
            GENERATOR_ID,
        ]
        return ",".join(fields)


def run_case(
    n: int,
    levels: int,
    p: int,
    seed: int,
    distribution: str = "uniform_random",
    kernel: str = "point",
    sigma: float = 0.005,
    domain: Domain = UNIT_DOMAIN,
    oracle_k: int | None = None,
    particles: Particles | None = None,
    _set: _ParticleSet | None = None,
) -> CaseResult:
    """Generate (or take) particles, run the fast evaluation and the oracle, compare.

    The oracle scores ``oracle_k`` targets drawn from (n, seed) alone when
    that is fewer than n, otherwise all of them.  ``_set``, kept by a sweep
    for the particles of (n, seed), supplies them, that sample's direct
    values and the depth's work it already holds; a run without one makes
    its own.
    """
    config = FmmConfig(levels, p, _KERNEL_TOKENS[kernel])
    if _set is None:
        if particles is None:
            particles = generate_particles(distribution, n, seed, domain, sigma)
        _set = _ParticleSet(particles, domain, config.kernel, seed, oracle_k)
    work, gathered = _set.at_depth(config.levels)
    velocities, stats = engine._order_run(work, config.order)
    budgets = bound_budgets(work.tree, _set.particles.gamma, config.order, _gathered=gathered)
    sample = _set.sample
    report = errorlab.compare(velocities[sample], _set.direct, _set.targets, budgets[sample])
    violations = len(errorlab.bound_check(report))
    return CaseResult(
        n=n,
        levels=levels,
        p=p,
        seed=seed,
        distribution=distribution,
        kernel=kernel,
        report=report,
        violations=violations,
        sampled=_set.sampled,
        t_fmm_ms=stats.t_total * 1e3,
        t_direct_ms=_set.t_direct_ms,
        m2l_count=stats.m2l_count,
        near_pair_count=stats.near_pair_count,
        velocities=velocities,
        direct=_set.direct,
    )


# ---------------------------------------------------------------------------
# Single runs
# ---------------------------------------------------------------------------


@dataclass
class SingleSummary:
    max_abs: float
    max_rel: float
    violations: int
    t_fmm_ms: float
    t_direct_ms: float
    out_files: tuple[Path, Path, Path]

    def line(self) -> str:
        ratio = self.t_fmm_ms / self.t_direct_ms if self.t_direct_ms > 0 else math.nan
        rel = "NA" if math.isnan(self.max_rel) else format(self.max_rel, ".3e")
        return (
            f"max_rel={rel} max_abs={self.max_abs:.3e} bound_violations={self.violations} "
            f"t_fmm={self.t_fmm_ms:.1f}ms t_direct={self.t_direct_ms:.1f}ms "
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
    sigma: float = 0.005,
    particles_path=None,
    map_grid: int = 8,
) -> SingleSummary:
    """One evaluation against the full direct oracle; writes three CSV files.

    Outputs (written atomically into ``out_dir``): ``velocities.csv``,
    ``error_report.csv``, ``error_map.csv``.  When ``particles_path`` is
    given it overrides the generator and the domain becomes the particles'
    enclosing square.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    if particles_path is not None:
        particles = read_particles(particles_path)
        if not particles:
            raise ValueError(f"{particles_path}: no particles")
        domain = enclosing_domain(particles)
        n = len(particles)
    else:
        domain = UNIT_DOMAIN
        particles = None

    case = run_case(n, levels, p, seed, distribution, kernel, sigma, domain, particles=particles)
    emap = errorlab.spatial_map(case.report, domain, map_grid)

    vel_path = out_dir / "velocities.csv"
    rep_path = out_dir / "error_report.csv"
    map_path = out_dir / "error_map.csv"

    rep = case.report
    lines = ["index,x,y,u_fmm,v_fmm,u_direct,v_direct"]
    for i in range(case.n):
        px, py = rep.positions[i]
        lines.append(
            f"{i},{px:.17g},{py:.17g},{case.velocities[i, 0]:.17g},{case.velocities[i, 1]:.17g},"
            f"{case.direct[i, 0]:.17g},{case.direct[i, 1]:.17g}"
        )
    _atomic_text(vel_path, "\n".join(lines) + "\n")

    lines = ["index,x,y,abs_err,f_abs_err,budget"]
    for i in range(case.n):
        px, py = rep.positions[i]
        budget = rep.bound_budget[i] if rep.bound_budget is not None else math.nan
        lines.append(
            f"{i},{px:.17g},{py:.17g},{rep.abs_errors[i]:.10g},{rep.f_abs_errors[i]:.10g},{budget:.10g}"
        )
    _atomic_text(rep_path, "\n".join(lines) + "\n")
    _atomic_text(map_path, errorlab.error_map_text(emap))

    return SingleSummary(
        max_abs=rep.max_abs,
        max_rel=rep.max_rel,
        violations=case.violations,
        t_fmm_ms=case.t_fmm_ms,
        t_direct_ms=case.t_direct_ms,
        out_files=(vel_path, rep_path, map_path),
    )


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
    sample; its rows score that sample and share, per depth l, the
    order-independent work: the first row of each (n, l, seed) computes it
    and its other orders reuse it.  Every row reports the one oracle call's
    time as ``t_direct_ms``, and its ``t_fmm_ms`` still reads as a standalone
    run's cost, the recorded build and near-field time included.  The sets
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
                particles = generate_particles(config.distribution, n, seed, UNIT_DOMAIN, config.sigma)
                sets[seed] = _ParticleSet(particles, UNIT_DOMAIN, _KERNEL_TOKENS[config.kernel], seed, config.oracle_k)
            case = run_case(
                n,
                lev,
                p,
                seed,
                config.distribution,
                config.kernel,
                config.sigma,
                UNIT_DOMAIN,
                config.oracle_k,
                _set=sets[seed],
            )
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
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
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

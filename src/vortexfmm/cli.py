"""Command line interface: single runs, sweeps, timing studies, particle files.

Exit codes: 0 success, 2 usage/config error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import sys

from . import harness
from .errors import DEFAULT_MAP_GRID
from .model import DEFAULT_SIGMA, DISTRIBUTIONS, UNIT_DOMAIN, generate_particles, write_particles


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vortexfmm",
        description="Fast multipole evaluation of 2D vortex particle velocity fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    single = sub.add_parser("single", help="one run against the full direct oracle")
    single.add_argument("--n", type=int, default=1000, help="particle count (generator runs)")
    single.add_argument("--levels", type=int, default=3, help="tree depth, >= 2")
    single.add_argument("--p", type=int, default=8, help="expansion truncation order")
    single.add_argument("--seed", type=int, default=1)
    single.add_argument("--distribution", choices=DISTRIBUTIONS, default="uniform_random")
    single.add_argument("--kernel", choices=tuple(harness._KERNEL_TOKENS), default="point")
    single.add_argument("--sigma", type=float, default=DEFAULT_SIGMA, help="core radius for generated sets")
    single.add_argument("--particles", metavar="FILE", help="particle CSV overriding the generator")
    single.add_argument("--out-dir", default=".", help="directory for the three output files")
    single.add_argument("--map-grid", type=int, default=DEFAULT_MAP_GRID, metavar="G", help="error map bins per side")

    sweep = sub.add_parser("sweep", help="run a full (n, levels, p, seeds) grid from a config file")
    sweep.add_argument("config", help="flat key = value config file")
    sweep.add_argument("--out", help="override the config's output path")
    sweep.add_argument("--resume", action="store_true", help="skip tuples already in the output")
    sweep.add_argument("--maps", action="store_true", help="also write per-run error maps")
    sweep.add_argument("--quiet", action="store_true", help="suppress per-run progress lines")

    timing = sub.add_parser("timing", help="fast-vs-direct scaling study")
    timing.add_argument(
        "--n-list",
        default="256,512,1024,2048,4096,8192,16384,32768",
        help="comma-separated particle counts",
    )
    timing.add_argument("--p", type=int, default=8)
    timing.add_argument("--levels", type=int, help="fixed tree depth (default: occupancy policy)")
    timing.add_argument("--target-per-leaf", type=int, default=8, help="occupancy policy target")
    timing.add_argument("--seed", type=int, default=1)
    timing.add_argument("--repeats", type=int, default=3)
    timing.add_argument("--direct-cutoff", type=int, default=8192, help="largest n with measured direct timing")
    timing.add_argument("--out", default="timing.csv")

    gen = sub.add_parser("gen", help="write a generated particle set to CSV")
    gen.add_argument("--distribution", choices=DISTRIBUTIONS, default="uniform_random")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--seed", type=int, default=1)
    gen.add_argument("--sigma", type=float, default=DEFAULT_SIGMA)
    gen.add_argument("--out", required=True, metavar="FILE")
    return parser


def _cmd_single(args) -> int:
    summary = harness.run_single(
        args.out_dir,
        n=args.n,
        levels=args.levels,
        p=args.p,
        seed=args.seed,
        distribution=args.distribution,
        kernel=args.kernel,
        sigma=args.sigma,
        particles_path=args.particles,
        map_grid=args.map_grid,
    )
    for path in summary.out_files:
        print(f"wrote {path}")
    print(summary.line())
    return 0


def _cmd_sweep(args) -> int:
    config = harness.parse_sweep_config(args.config)
    progress = None if args.quiet else lambda msg: print(msg, flush=True)
    out, computed = harness.run_sweep(
        config,
        out_path=args.out,
        resume=args.resume,
        write_maps=args.maps,
        progress=progress,
    )
    print(f"{out}: {computed} new rows ({config.run_count} total in grid)")
    return 0


def _cmd_timing(args) -> int:
    n_values = [int(v) for v in args.n_list.split(",") if v.strip()]
    rows = harness.timing_study(
        n_values,
        p=args.p,
        levels=args.levels,
        target_per_leaf=args.target_per_leaf,
        seed=args.seed,
        repeats=args.repeats,
        direct_cutoff=args.direct_cutoff,
        out_path=args.out,
    )
    print(harness.TIMING_HEADER)
    for row in rows:
        print(row.csv_row())
    crossover = next((r.n for r in rows if r.t_fmm_ms < r.t_direct_ms), None)
    if crossover is None:
        print("no crossover in the scanned range")
    else:
        print(f"fast evaluation wins from n = {crossover} on "
              f"(direct timings extrapolated above n = {args.direct_cutoff})")
    print(f"wrote {args.out}")
    return 0


def _cmd_gen(args) -> int:
    particles = generate_particles(args.distribution, args.n, args.seed, UNIT_DOMAIN, args.sigma)
    write_particles(args.out, particles)
    print(f"wrote {args.out} ({args.n} particles)")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "single": _cmd_single,
        "sweep": _cmd_sweep,
        "timing": _cmd_timing,
        "gen": _cmd_gen,
    }
    try:
        return handlers[args.command](args)
    except (harness.ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())

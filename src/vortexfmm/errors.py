"""Observed-error quantification against the direct oracle.

Error is measured on velocity vectors (Euclidean norm per target).  The
relative metrics use one global normalizer, the maximum direct speed over all
targets, because vortex fields have stagnation points where per-target
relative error is meaningless.  The underlying |f| error (2 pi times the
velocity error) is kept alongside, since the truncation budgets are stated
on f.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import TWO_PI
from .model import Domain, _check_count
from .quadtree import grid_indices


@dataclass
class ErrorReport:
    """Scalar metrics plus per-target records for one run-vs-oracle comparison."""

    max_abs: float
    max_rel: float  # nan when the direct field is identically zero
    rms_abs: float
    rms_rel: float
    abs_errors: np.ndarray  # per-target velocity error magnitudes
    f_abs_errors: np.ndarray  # per-target |f| errors (= 2 pi * abs_errors)
    positions: np.ndarray  # (N, 2) target positions
    worst_index: int
    bound_budget: np.ndarray | None = None  # per-target |f| budgets, if supplied


def compare(
    fmm_vel: np.ndarray,
    direct_vel: np.ndarray,
    positions: np.ndarray,
    bound_budget: np.ndarray | None = None,
) -> ErrorReport:
    """Build an :class:`ErrorReport` from matched velocity arrays."""
    fmm_vel = np.asarray(fmm_vel, dtype=np.float64)
    direct_vel = np.asarray(direct_vel, dtype=np.float64)
    positions = np.asarray(positions, dtype=np.float64)
    if fmm_vel.shape != direct_vel.shape or len(fmm_vel) != len(positions):
        raise ValueError(
            f"mismatched inputs: fmm {fmm_vel.shape}, direct {direct_vel.shape}, "
            f"positions {positions.shape}"
        )
    if len(fmm_vel) == 0:
        raise ValueError("need at least one target")

    diff = fmm_vel - direct_vel
    abs_errors = np.hypot(diff[:, 0], diff[:, 1])
    speed = np.hypot(direct_vel[:, 0], direct_vel[:, 1])
    vmax = float(speed.max())

    max_abs = float(abs_errors.max())
    rms_abs = float(np.sqrt(np.mean(abs_errors**2)))
    if vmax > 0.0:
        max_rel = max_abs / vmax
        rms_rel = rms_abs / vmax
    else:
        max_rel = math.nan
        rms_rel = math.nan
    return ErrorReport(
        max_abs=max_abs,
        max_rel=max_rel,
        rms_abs=rms_abs,
        rms_rel=rms_rel,
        abs_errors=abs_errors,
        f_abs_errors=TWO_PI * abs_errors,
        positions=positions,
        worst_index=int(np.argmax(abs_errors)),
        bound_budget=None if bound_budget is None else np.asarray(bound_budget, dtype=np.float64),
    )


#: Bins per side of an error map unless a caller gives another.
DEFAULT_MAP_GRID = 8


@dataclass
class ErrorMap:
    """Per-bin max/mean velocity error on a g x g spatial grid.

    Arrays are indexed ``[iy, ix]``; bins with no targets hold nan in the
    error fields and 0 in ``counts`` (serialized as the token NA, never 0).
    """

    grid_dim: int
    counts: np.ndarray
    max_err: np.ndarray
    mean_err: np.ndarray


def spatial_map(report: ErrorReport, domain: Domain, grid_dim: int) -> ErrorMap:
    """Bin per-target errors onto a grid; bin assignment follows the quadtree floor rule."""
    _check_count("grid_dim", grid_dim)
    g = grid_dim
    ix, iy = grid_indices(report.positions[:, 0], report.positions[:, 1], g, domain)
    counts = np.zeros((g, g), dtype=np.int64)
    sums = np.zeros((g, g))
    peaks = np.zeros((g, g))
    np.add.at(counts, (iy, ix), 1)
    np.add.at(sums, (iy, ix), report.abs_errors)
    np.maximum.at(peaks, (iy, ix), report.abs_errors)
    empty = counts == 0
    max_err = np.where(empty, np.nan, peaks)
    with np.errstate(invalid="ignore"):
        mean_err = np.where(empty, np.nan, sums / np.maximum(counts, 1))
    return ErrorMap(grid_dim=g, counts=counts, max_err=max_err, mean_err=mean_err)


def bound_check(report: ErrorReport) -> list[tuple[int, float, float]]:
    """Targets whose observed |f| error exceeds the report's budget.

    Returns (index, observed, budget) triples; an empty list means the bound
    holds everywhere.
    """
    budgets = report.bound_budget
    if budgets is None:
        raise ValueError("the report carries no budgets")
    if budgets.shape != report.f_abs_errors.shape:
        raise ValueError(f"budgets shape {budgets.shape} does not match targets")
    bad = np.flatnonzero(report.f_abs_errors > budgets)
    return [(int(i), float(report.f_abs_errors[i]), float(budgets[i])) for i in bad]


def error_map_text(emap: ErrorMap) -> str:
    """A map as CSV text, rows ``bin_ix,bin_iy,count,max_err,mean_err`` (row-major)."""
    lines = ["bin_ix,bin_iy,count,max_err,mean_err"]
    g = emap.grid_dim
    for iy in range(g):
        for ix in range(g):
            count = int(emap.counts[iy, ix])
            if count == 0:
                lines.append(f"{ix},{iy},0,NA,NA")
            else:
                lines.append(f"{ix},{iy},{count},{emap.max_err[iy, ix]:.10g},{emap.mean_err[iy, ix]:.10g}")
    return "\n".join(lines) + "\n"

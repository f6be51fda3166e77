"""Direct velocity evaluation: the O(N^2) oracle and the near-field kernel.

A point vortex of circulation Gamma at (xj, yj) induces

    (u, v) = Gamma / (2 pi r^2) * (-(y - yj), (x - xj)),   r^2 = (x-xj)^2 + (y-yj)^2.

The Gaussian-blob variant multiplies this by the regularization factor
(1 - exp(-r^2 / (2 sigma^2))), which removes the singularity at the core and
is indistinguishable from the point vortex beyond a few core radii.  A target
coinciding exactly with a source contributes (0, 0) by convention (the blob's
analytic limit, and the standard self-interaction rule for point vortices).
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple, Sequence

import numpy as np

from .model import Particle, Particles

TWO_PI = 2.0 * math.pi

#: Target-source pairs per block of the direct sums (here and the engine's
#: near field): 2^13 float64 elements keep each block temporary at 64 KiB.
_BLOCK = 2**13


class KernelKind(enum.Enum):
    POINT_VORTEX = "point_vortex"
    GAUSSIAN_BLOB = "gaussian_blob"


class ComplexVelocity(NamedTuple):
    """Velocity components; internally handled as the conjugate u - i v."""

    u: float
    v: float


def kernel_eval(target: tuple[float, float], source: Particle, kind: KernelKind) -> ComplexVelocity:
    """Velocity induced at ``target`` by a single source particle."""
    dx = target[0] - source.x
    dy = target[1] - source.y
    r2 = dx * dx + dy * dy
    if r2 == 0.0:
        return ComplexVelocity(0.0, 0.0)
    c = source.gamma / (TWO_PI * r2)
    if kind is KernelKind.GAUSSIAN_BLOB:
        c = c * (1.0 - math.exp(-r2 / (2.0 * source.sigma * source.sigma)))
    return ComplexVelocity(-c * dy, c * dx)


def _pair_velocity(
    xt: np.ndarray,
    yt: np.ndarray,
    xs: np.ndarray,
    ys: np.ndarray,
    gamma_s: np.ndarray,
    sigma_s: np.ndarray | None,
    kind: KernelKind,
) -> tuple[np.ndarray, np.ndarray]:
    """(u, v) terms of target-source pairs, kernel_eval arithmetic.

    The arguments broadcast to one entry per pair (``sigma_s`` for the blob
    kernel only); a coincident pair gives zero terms.
    """
    dx = xt - xs
    dy = yt - ys
    r2 = dx * dx + dy * dy
    mask = r2 > 0.0
    c = np.zeros_like(r2)
    np.divide(gamma_s, TWO_PI * r2, out=c, where=mask)
    if kind is KernelKind.GAUSSIAN_BLOB:
        c = c * (1.0 - np.exp(-r2 / (2.0 * sigma_s * sigma_s)))
    return -c * dy, c * dx


def velocity_direct(
    targets: np.ndarray | Sequence[tuple[float, float]],
    sources: Particles | Sequence[Particle],
    kind: KernelKind,
) -> np.ndarray:
    """Direct summation over all source particles at each target.

    Parameters
    ----------
    targets : (M, 2) array-like of evaluation points.
    sources : particles inducing the field.
    kind : singular or Gaussian-regularized kernel.

    Returns
    -------
    (M, 2) float64 array of (u, v) rows.

    Contributions are accumulated in ascending source index with arithmetic
    identical to :func:`kernel_eval` per term, so the result is bitwise
    reproducible and matches a scalar double loop exactly (for the blob
    kernel, one that takes numpy's exp, which can differ from ``math.exp`` in
    the last bit).  Each target's value is its own sequential sum, whatever
    other targets share the call.  The terms of a block of whole sources,
    about ``_BLOCK`` pairs, are computed at once and added to the running
    sums in source order by :func:`_add_rows`: one sequential reduction per
    block, a ``cumsum`` at M = 1 (where numpy would sum pairwise), and row
    by row for blocks of at most four sources.  So the blocking never
    changes a bit.
    """
    pts = np.asarray(targets, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"targets must have shape (M, 2), got {pts.shape}")
    tx, ty = pts.T
    src = Particles.of(sources)
    sx, sy, gamma, sigma = src.x, src.y, src.gamma, src.sigma

    u = np.zeros(len(pts))
    v = np.zeros(len(pts))
    step = max(1, _BLOCK // max(len(pts), 1))
    for lo in range(0, len(src), step):
        blk = slice(lo, lo + step)
        du, dv = _pair_velocity(tx, ty, sx[blk, None], sy[blk, None], gamma[blk, None], sigma[blk, None], kind)
        _add_rows(u, du)
        _add_rows(v, dv)
    return np.stack((u, v), axis=1)


def _add_rows(acc: np.ndarray, rows: np.ndarray) -> None:
    """``acc += rows[0]; acc += rows[1]; ...`` bit for bit, with one reduction in C.

    ``acc`` goes into the first row, and the rows are then summed in order by
    ``np.add.reduce`` over the strided axis 0 of the C-ordered (k, M) block.
    At M = 1 that axis is contiguous, and numpy would sum it pairwise, so the
    sequential ``cumsum`` takes its place.  Blocks of at most four rows
    (every block once M > 1638) keep the in-place row adds, which measured
    faster there than the reduction's set-up.  ``rows`` is overwritten.
    """
    if len(rows) <= 4:
        for row in rows:
            acc += row
        return
    rows[0] += acc
    if rows.shape[1] == 1:
        acc[:] = np.cumsum(rows[:, 0])[-1]
    else:
        np.add.reduce(rows, axis=0, out=acc)

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
import sys
from typing import NamedTuple, Sequence

import numpy as np

from .model import Particle, Particles

TWO_PI = 2.0 * math.pi

#: Target-source pairs per chunk of the engine's near field: 2^13 float64
#: elements keep each row of its pair scratch at 64 KiB.  A leaf whose q
#: targets and n sources make q n >= _BLOCK pairs is computed on its own, in
#: blocks of max(1, _BLOCK // n) targets x n sources; the other leaves'
#: pairs share chunks.
_BLOCK = 2**13
#: Target-source pairs per block of the oracle :func:`velocity_direct`, whose
#: blocks carry more Python work each (their sums go through
#: :func:`_add_rows`), so it takes twice the near field's block; the A/B that
#: chose it is recorded with ``BENCH_oracle_scratch.json`` in CHANGES.md.
_ORACLE_BLOCK = 2**14
#: The spans of points whose pairs float64 can square: from the smallest side whose square is
#: normal to the largest whose diagonal's 2 pi r^2 stays finite (about 1.5e-154 to 3.8e153).
#: Outside it a pair's r^2 underflows or overflows, and its velocity is lost or not finite.
_SCALE_WINDOW = (math.sqrt(sys.float_info.min), math.sqrt(sys.float_info.max / (4.0 * math.pi)))


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


def _check_kind(kind) -> None:
    """Reject a kernel that is not a :class:`KernelKind` (a string would run the point kernel)."""
    if not isinstance(kind, KernelKind):
        raise TypeError(f"kernel must be a KernelKind, got {kind!r}")


def _check_finite(rows: np.ndarray, what: str) -> np.ndarray:
    """``rows``; ``ValueError`` naming the first row (``what`` and its index) that is not finite."""
    finite = np.isfinite(rows)
    if not finite.all():
        i = int(np.argmin(finite.all(axis=1)))
        raise ValueError(f"{what} {i} is not finite: {tuple(rows[i].tolist())}")
    return rows


def _check_targets(targets: np.ndarray | Sequence[tuple[float, float]]) -> np.ndarray:
    """``targets`` as a finite (M, 2) float64 array, else ``ValueError``."""
    pts = np.asarray(targets, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"targets must have shape (M, 2), got {pts.shape}")
    return _check_finite(pts, "target")


def _check_scale(span: float, what: str) -> None:
    """Reject a ``span`` (the side of a square holding every pair) outside ``_SCALE_WINDOW``."""
    lo, hi = _SCALE_WINDOW
    if not lo <= span <= hi:
        raise ValueError(f"{what} {span:g} is outside [{lo:.3g}, {hi:.3g}], the scales at which "
                         "float64 can square the separations of the direct sums")


def _check_cores(sigma: np.ndarray, kind: KernelKind) -> None:
    """Reject blob cores whose 2 sigma^2 underflows float64's normal range: a coincident pair
    would then compute 0 / 0."""
    if kind is KernelKind.GAUSSIAN_BLOB and len(sigma):
        smallest = float(sigma.min())
        if smallest * 2.0 * smallest < sys.float_info.min:
            raise ValueError(f"core radius sigma {smallest:g} is too small: its 2 sigma^2 underflows float64")


def _pair_scratch(pairs: int) -> np.ndarray:
    """Scratch for :func:`_pair_velocity` calls of up to ``pairs`` pairs each."""
    return np.empty((5, pairs))


def _pair_velocity(
    xt: np.ndarray,
    yt: np.ndarray,
    xs: np.ndarray,
    ys: np.ndarray,
    gamma_s: np.ndarray,
    sigma_s: np.ndarray | None,
    kind: KernelKind,
    scratch: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """(u, v) terms of target-source pairs, kernel_eval arithmetic, computed in ``scratch``.

    The arguments broadcast to one entry per pair (``sigma_s`` for the blob
    kernel only); a coincident pair gives zero terms.  ``scratch`` comes from
    :func:`_pair_scratch` with room for every pair, and the terms returned are
    C-ordered views of it in the broadcast shape, so nothing is allocated per
    pair.  Each step is kernel_eval's operation, or one equal to it bit for
    bit: ``square(dx)`` for ``dx * dx``, ``-(c * dy)`` for ``-c * dy`` and
    ``-(r2 / s)`` for ``-r2 / s``.
    """
    shape = np.broadcast(xt, xs).shape
    size = math.prod(shape)
    dx, dy, r2, c, _ = scratch[:, :size].reshape((5, *shape))
    np.subtract(xt, xs, out=dx)
    np.subtract(yt, ys, out=dy)
    np.square(dx, out=r2)
    np.square(dy, out=c)
    r2 += c
    # c = gamma / (2 pi r2) where r2 > 0, else 2 pi * (+0) = +0; the mask is
    # a bool view of the spare row
    mask = scratch[4].view(np.bool_)[:size].reshape(shape)
    np.greater(r2, 0.0, out=mask)
    np.multiply(r2, TWO_PI, out=c)
    np.divide(gamma_s, c, out=c, where=mask)
    if kind is KernelKind.GAUSSIAN_BLOB:
        # c *= 1 - exp(-r2 / (2 sigma^2)), 2 sigma^2 in sigma_s's own shape
        s = scratch[4, :np.size(sigma_s)].reshape(np.shape(sigma_s))
        np.multiply(sigma_s, 2.0, out=s)
        s *= sigma_s
        np.divide(r2, s, out=r2)
        np.negative(r2, out=r2)
        np.exp(r2, out=r2)
        np.subtract(1.0, r2, out=r2)
        c *= r2
    np.multiply(c, dy, out=dy)
    np.negative(dy, out=dy)
    np.multiply(c, dx, out=dx)
    return dy, dx


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
    about ``_ORACLE_BLOCK`` pairs, are computed at once, in one scratch that
    the call reuses for every block, and added to the running sums in source
    order by :func:`_add_rows`: one sequential reduction per block, a
    ``cumsum`` at M = 1 (where numpy would sum pairwise), and row by row for
    blocks of at most four sources.  So the blocking never changes a bit.

    Raises ``ValueError`` naming the first target that is not finite, a
    nonzero span of the points (targets and sources) outside
    ``_SCALE_WINDOW``, a blob core whose 2 sigma^2 underflows, or the first
    target whose velocity is not finite; ``TypeError`` for a ``kind`` that
    is not a :class:`KernelKind`.
    """
    _check_kind(kind)
    pts = _check_targets(targets)
    if len(pts) == 0:
        return np.zeros((0, 2))
    tx, ty = np.ascontiguousarray(pts.T)
    src = Particles.of(sources)
    sx, sy, gamma, sigma = src.x, src.y, src.gamma, src.sigma
    xs, ys = np.concatenate((tx, sx)), np.concatenate((ty, sy))
    span = max(float(xs.max()) - float(xs.min()), float(ys.max()) - float(ys.min()))
    if span:
        _check_scale(span, "point span")
    _check_cores(sigma, kind)

    u = np.zeros(len(pts))
    v = np.zeros(len(pts))
    step = max(1, _ORACLE_BLOCK // len(pts))
    scratch = _pair_scratch(min(step, len(src)) * len(pts))
    for lo in range(0, len(src), step):
        blk = slice(lo, lo + step)
        du, dv = _pair_velocity(
            tx, ty, sx[blk, None], sy[blk, None], gamma[blk, None], sigma[blk, None], kind, scratch
        )
        _add_rows(u, du)
        _add_rows(v, dv)
    return _check_finite(np.stack((u, v), axis=1), "velocity at target")


def _add_rows(acc: np.ndarray, rows: np.ndarray) -> None:
    """``acc += rows[0]; acc += rows[1]; ...`` bit for bit, with one reduction in C.

    ``acc`` goes into the first row, and the rows are then summed in order by
    ``np.add.reduce`` over the strided axis 0 of the C-ordered (k, M) block.
    At M = 1 that axis is contiguous, and numpy would sum it pairwise, so the
    sequential ``cumsum`` takes its place.  Blocks of at most four rows
    (every block once M > 3276) keep the in-place row adds, which measured
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

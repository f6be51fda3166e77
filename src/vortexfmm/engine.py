"""The O(N) evaluation pipeline over the uniform quadtree.

Passes, in order:

1. upward: particle-to-multipole at the leaves, then multipole shifts up to
   level 2 (levels 0 and 1 carry no expansions; their interaction lists are
   empty).
2. translate: multipole-to-local across every cell's interaction list.
3. downward: local shifts from parents, completing each leaf's local
   expansion with the far field of everything outside its neighbor ring.
4. evaluation: local expansions at the targets plus direct summation over the
   leaf's own and adjacent cells.  The regularized kernel acts only here; the
   far field always sees point vortices, which is why particle cores must
   stay small next to the leaf size (warned about at sigma > half_width / 2).
   The direct sum reads each target's sources in one canonical order and
   reduces every target's terms on their own, in blocks of bounded size.  A
   dense leaf, whose targets alone have a chunk's worth of pairs (q targets x
   n sources >= ``kernels._BLOCK``), is one block of its targets broadcast
   against its n sources, read once; the pairs of all other leaves are laid
   end to end in chunks, without a per-leaf loop.  Both paths compute the
   same terms and sum each target's row alike, so the velocities are bit for
   bit those of a per-target sum.

The pipeline runs in two stages, split where the order enters.
``_tree_work`` does what depends only on the particles, targets and depth:
the tree, the leaf-sorted arrays, the sigma guard and the near field.
``_order_run`` does the rest at one order: the three passes and the far
field.  ``evaluate`` runs both with the particles themselves as targets,
``evaluate_at`` at arbitrary targets binned into leaves, and a sweep runs
the first stage once for all the orders of a tree.  ``FmmConfig`` checks its
fields when built.  The first stage rejects a domain side outside
``kernels._SCALE_WINDOW``, where float64 cannot square the near field's
separations, and blob cores whose 2 sigma^2 underflows; the second raises
rather than return a velocity that is not finite.

Every coefficient is stored in units of its own cell side h: a multipole as
a_k / h^(k+1), so that P2M sums (Gamma / h) ((z - c) / h)^k, and a local as
L_m h^m, evaluated at (z - c) / h.  A translation then depends only on the
order and on the offset in cell sides, so ``_translations`` builds each once
per order for every level, run and domain, and no power of a physical length
can over- or underflow in the passes.  On a domain whose side is a power of
two every scaling is exact, so results are bit for bit those of physical units.

``_interaction_stencil`` alone enumerates interaction-list geometry.  A cell's
list (its parent's neighbors' children minus its own neighbors) spans 27 of
40 offsets, fixed by its parity class (ix mod 2, iy mod 2).  A pass keeps all
its levels in one array with a last, zero row, and ``_pass_stencil`` joins
each class over the levels, sources outside the domain at the zero row.  So
M2L is one matrix product per class and pass (four, however deep) against
the class's 27 matrices stacked, in chunks of at most ``_CHUNK_BYTES`` (1 MiB)
of gathered coefficients, and the budgets gather their amplitudes once per
tree on the same stencil.  The chunking is fixed, so runs are bitwise
repeatable, but BLAS orders each cell's 27-term sum itself: last bits differ
from a per-offset accumulation (within 1e-15 of the largest speed), and with
more than one BLAS thread may move with a product's shape.

The chunks of a pass go in one list.  The calling thread takes them one at a
time, and when two or more are full (``_CHUNK_BYTES`` each) so does a pool of
one thread per core the process may use besides the caller's, made on first
use; smaller passes run on the calling thread alone.  Each chunk assigns rows
no other chunk writes, so the output does not depend on the
number of workers or on which thread ran which chunk, only on the BLAS
library and its thread count per product.  The pass is fastest with one BLAS
thread per product.  At 4096 particles, depth 6, order 40 (field_probe's
shape) on a 2-vCPU Xeon VM, M2L took 78-89 ms serial and 45-48 ms on two
threads with one BLAS thread; with unpinned OpenBLAS (two threads per
product) it took 58-65 ms serial and 66-74 ms on two threads.

``quadtree._quadrants`` alone maps parents to children: a level's four child
quadrants are writable views shaped like its parent level.  M2M sums one
product per quadrant, L2L adds the parent's shifted locals into each quadrant
in place, and the budgets' amplitudes go up and their totals down the same way.
"""

from __future__ import annotations

import functools
import os
import threading
import time
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from . import expansions
from .expansions import BoundParams, truncation_bound
from .kernels import (_BLOCK, KernelKind, _check_cores, _check_finite, _check_kind, _check_scale, _check_targets,
                      _pair_scratch, _pair_velocity)
from .model import Domain, Particle, Particles, _check_integer, enclosing_domain
from .quadtree import Tree, _leaf_tree, _quadrants, build_tree

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor

SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class FmmConfig:
    """Run parameters: tree depth, truncation order, near-field kernel, checked
    when built: ``TypeError`` for a depth or order that is not an integer (a
    bool included) or a kernel that is not a :class:`KernelKind`,
    ``ValueError`` for a depth below 2 or an order outside 0..``ORDER_CAP``."""

    levels: int
    order: int
    kernel: KernelKind = KernelKind.POINT_VORTEX

    def __post_init__(self) -> None:
        _check_integer("levels", self.levels)
        _check_integer("order", self.order)
        if self.levels < 2:
            raise ValueError(f"levels must be >= 2, got {self.levels}")
        expansions._check_order(self.order)
        _check_kind(self.kernel)


@dataclass
class FmmRunStats:
    """Phase timings (seconds) and exact operation counters for one run."""

    n: int
    levels: int
    order: int
    t_build: float = 0.0
    t_upward: float = 0.0
    t_m2l: float = 0.0
    t_downward: float = 0.0
    t_eval: float = 0.0
    t_near: float = 0.0
    t_total: float = 0.0
    m2l_count: int = 0
    near_pair_count: int = 0
    sigma_guard_ok: bool = True


#: Bytes of gathered source coefficients per M2L product (~60 rows at p = 40)
_CHUNK_BYTES = 2**20


@functools.lru_cache(maxsize=None)
def _interaction_stencil(level: int) -> tuple:
    """Per parity class (ix mod 2, iy mod 2), row-major: ``(offsets, dest, src)``.

    ``offsets`` are the class's 27 (dx, dy), row-major: dx from -2 - ix mod 2
    to 3 - ix mod 2, likewise dy, minus those with max(|dx|, |dy|) < 2.
    ``dest`` holds its cells, row-major, and the read-only (len(dest) x 27)
    ``src`` each one's source at every offset, -1 outside the domain.  Both
    are int32, which halves the cache (4**15 cells still fit).
    """
    m = 2**level
    classes = []
    for cy, cx in ((0, 0), (0, 1), (1, 0), (1, 1)):
        offsets = tuple((dx, dy) for dy in range(-2 - cy, 4 - cy) for dx in range(-2 - cx, 4 - cx)
                        if max(abs(dx), abs(dy)) >= 2)
        iy, ix = np.ogrid[cy:m:2, cx:m:2]
        sx, sy = ix[..., None] + [dx for dx, _ in offsets], iy[..., None] + [dy for _, dy in offsets]
        src = np.where((sx >= 0) & (sx < m) & (sy >= 0) & (sy < m), sy * m + sx, -1).reshape(-1, 27).astype(np.int32)
        dest = (iy * m + ix).ravel().astype(np.int32)
        dest.setflags(write=False)
        src.setflags(write=False)
        classes.append((offsets, dest, src))
    return tuple(classes)


def _level_start(level: int) -> int:
    """First row of ``level`` in a pass array, which holds levels 2, 3, ... in turn."""
    return (4**level - 16) // 3


def _level_views(store: np.ndarray, levels: int) -> list:
    """Per level, the rows of the pass array ``store`` holding its cells; ``None`` below level 2."""
    return [None, None] + [store[_level_start(level):_level_start(level + 1)] for level in range(2, levels + 1)]


@functools.lru_cache(maxsize=None)
def _pass_stencil(levels: int) -> tuple:
    """Per ``_interaction_stencil`` class, its read-only int32 ``(dest, src)``
    joined over levels 2..``levels`` (4^(l-1) cells each) as rows of a pass
    array; sources outside the domain point at the array's last, zero row."""
    zero, classes = _level_start(levels + 1), []
    for c in range(4):
        per_level = [(_level_start(level), *_interaction_stencil(level)[c][1:]) for level in range(2, levels + 1)]
        dest = np.concatenate([d + start for start, d, _ in per_level]).astype(np.int32)
        src = np.concatenate([np.where(s < 0, zero, s + start) for start, _, s in per_level]).astype(np.int32)
        for ids in (dest, src):
            ids.setflags(write=False)
        classes.append((dest, src))
    return tuple(classes)


#: Child center minus parent center, in child sides, per ``_quadrants`` quadrant
_SHIFTS = tuple((cx - 0.5) + 1j * (cy - 0.5) for cy in (0, 1) for cx in (0, 1))


@functools.lru_cache(maxsize=None)
def _translations(p: int) -> tuple[tuple, tuple, tuple]:
    """Read-only order-``p`` (M2M, M2L, L2L) matrices on cell-side coefficients.

    M2M and L2L are 4-tuples indexed by ``_quadrants`` quadrant, built for the
    ``_SHIFTS``.  M2L is one (27(p+1) x (p+1)) matrix per
    ``_interaction_stencil`` class, its offsets' transposed matrices stacked;
    each of the 40 is built once.  A parent's side is twice its child's, so
    M2M row m carries 2^-(m+1), L2L column m 2^-m.
    """
    halves = 0.5 ** np.arange(p + 1)
    m2m = tuple(expansions.multipole_shift_matrix(s, p, p) * (0.5 * halves)[:, None] for s in _SHIFTS)
    l2l = tuple(expansions.local_shift_matrix(s, p, p) * halves for s in _SHIFTS)
    stencil = _interaction_stencil(2)
    # local center minus source center: the source sits at the offset
    by_offset = {o: expansions.m2l_matrix(-complex(*o), p, p) for o in sorted({o for c in stencil for o in c[0]})}
    m2l = tuple(np.vstack([by_offset[o].T for o in offsets]) for offsets, _, _ in stencil)
    for matrix in (*m2m, *m2l, *l2l):
        matrix.setflags(write=False)
    return m2m, m2l, l2l


def upward_pass(tree: Tree, z_sorted: np.ndarray, gamma_sorted: np.ndarray, order: int) -> list:
    """Multipole coefficients, in cell-side units, for every cell at levels
    2..leaf, leaf upward.

    Returns a list indexed by level (``None`` below level 2) of views of one
    pass array whose last row is zero.  Empty cells carry the zero expansion.
    """
    levels, p = tree.levels, order
    n = len(z_sorted)
    side = tree.cell_side(levels)
    delta = (z_sorted - tree.centers(levels)[tree.sorted_leaf]) / side
    # one contiguous row per power: row k is row k - 1 times delta
    powers = np.empty((p + 1, n), dtype=np.complex128)
    powers[0] = gamma_sorted / side
    for k in range(1, p + 1):
        np.multiply(powers[k - 1], delta, out=powers[k])
    # reduceat over nonempty leaves only: their starts are strictly
    # increasing and the gaps of empty leaves have zero width, so consecutive
    # starts delimit exactly one leaf's particle block
    mult = _level_views(np.zeros((_level_start(levels + 1) + 1, p + 1), dtype=np.complex128), levels)
    occupied = np.flatnonzero(tree.nonempty(levels))
    mult[levels][occupied] = np.add.reduceat(powers, tree.leaf_starts[occupied], axis=1).T

    m2m, _, _ = _translations(p)
    for level in range(levels, 2, -1):
        quadrants = _quadrants(mult[level], level)
        mult[level - 1][:] = sum(q.reshape(-1, p + 1) @ m.T for q, m in zip(quadrants, m2m))
    return mult


def translate_pass(tree: Tree, multipoles: list, order: int) -> tuple[list, int]:
    """Per-level local expansions (levels 2..leaf, in cell-side units) from
    every cell's interaction list, and the number of translations from
    nonempty sources (empty ones add zero).

    ``multipoles`` are views of ``upward_pass``'s array; the locals are views
    of one laid out alike.  Per parity class, one row per cell of every level
    holds its 27 gathered source expansions (the zero row outside the
    domain), and chunks of rows are multiplied by the class's stacked matrix.
    A cell is in one class only, so its local is assigned, not accumulated,
    and no two chunks write the same row: they may run in any order on any
    thread (see ``_run_chunks``).
    """
    levels, p = tree.levels, order
    _, m2l, _ = _translations(p)
    rows = max(1, _CHUNK_BYTES // (27 * (p + 1) * 16))
    mult = multipoles[levels].base
    loc = np.empty((len(mult) - 1, p + 1), dtype=np.complex128)
    occupied = np.concatenate([*tree.counts[2:], [0]]) > 0
    count, chunks = 0, []
    for (dest, src), stacked in zip(_pass_stencil(levels), m2l):
        count += int(np.count_nonzero(occupied[src]))
        chunks += [(mult, src[a:a + rows], stacked, loc, dest[a:a + rows]) for a in range(0, len(dest), rows)]
    _run_chunks(chunks)
    return _level_views(loc, levels), count


def _translate_chunk(mult: np.ndarray, ids: np.ndarray, stacked: np.ndarray, loc: np.ndarray, dest: np.ndarray):
    """Assign ``loc[dest]`` the M2L product of the sources ``ids`` (rows of a stencil)."""
    loc[dest] = np.take(mult, ids, axis=0).reshape(len(ids), -1) @ stacked


_pool: ThreadPoolExecutor | None = None
_pool_workers = 0
_pool_lock = threading.Lock()


def _chunk_pool() -> tuple[ThreadPoolExecutor | None, int]:
    """The chunk threads and their number, made on first use: one per core
    this process may run on besides the caller's; no pool on one core."""
    global _pool, _pool_workers
    with _pool_lock:
        if _pool is None:
            cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
            if cores > 1:
                # imported here: concurrent.futures (with logging) adds ~10 ms to the package's import
                from concurrent.futures import ThreadPoolExecutor

                _pool, _pool_workers = ThreadPoolExecutor(cores - 1, "vortexfmm-m2l"), cores - 1
        return _pool, _pool_workers


def _run_chunks(chunks: list) -> None:
    """``_translate_chunk`` on every chunk, taken one at a time by the calling
    thread and, when two or more chunks are full (one more row would pass
    ``_CHUNK_BYTES`` of gathered coefficients), by the chunk pool's threads.

    Each chunk writes rows no other chunk touches, and numpy's gathers and
    BLAS products release the interpreter lock, so the chunks run in parallel
    and the result is the same whichever thread runs which chunk.  Pool
    threads that have not started when the caller runs out of chunks are
    cancelled, so a caller never waits behind another caller's chunks.  Once
    the interpreter is exiting, no pool can be made and an existing one takes
    no more work, so the caller runs every chunk itself.
    """
    pending = list(chunks)
    full = sum((len(ids) + 1) * len(stacked) * stacked.itemsize > _CHUNK_BYTES for _, ids, stacked, _, _ in chunks)
    lock = threading.Lock()

    def drain() -> None:
        while True:
            with lock:
                if not pending:
                    return
                chunk = pending.pop()
            _translate_chunk(*chunk)

    futures = []
    try:
        pool, workers = _chunk_pool() if full >= 2 else (None, 0)
        for _ in range(min(workers, len(chunks) - 1)):
            futures.append(pool.submit(drain))
    except RuntimeError:  # the interpreter is exiting: no pool is made and none takes work
        pass
    try:
        drain()
    finally:
        for future in futures:
            if not future.cancel():
                future.result()


def downward_pass(tree: Tree, locals_: list) -> list:
    """Add each parent's completed local expansion into its children (levels 3..leaf)."""
    _, _, l2l = _translations(locals_[tree.levels].shape[1] - 1)
    for level in range(3, tree.levels + 1):
        for q, matrix in zip(_quadrants(locals_[level], level), l2l):
            q += (locals_[level - 1] @ matrix.T).reshape(q.shape)
    return locals_


def far_field(tree: Tree, locals_: list, z_sorted: np.ndarray) -> np.ndarray:
    """Evaluate each target's leaf-local expansion, in cell-side units, at the
    target (f values).

    ``tree`` bins the leaf-sorted targets ``z_sorted`` (often the particles).
    """
    leaf = tree.sorted_leaf
    delta = (z_sorted - tree.centers(tree.levels)[leaf]) / tree.cell_side(tree.levels)
    # one contiguous row per coefficient, so each Horner step gathers one row
    columns = locals_[tree.levels].T.copy()
    acc = columns[-1][leaf]
    for k in range(len(columns) - 2, -1, -1):
        acc *= delta
        acc += columns[k][leaf]
    return acc


def near_field(
    tree: Tree,
    z_sorted: np.ndarray,
    gamma_sorted: np.ndarray,
    sigma_sorted: np.ndarray,
    kind: KernelKind,
    targets: Tree | None = None,
    zt_sorted: np.ndarray | None = None,
) -> tuple[np.ndarray, int]:
    """Direct (u, v) contributions from each target's own and adjacent leaves.

    Targets are the particles unless a ``targets`` tree and leaf-sorted
    ``zt_sorted`` are given.  Exact self-terms are excluded by the
    coincident-point convention.  Returns velocities in sorted target order
    plus the ordered pair count; a particle is never its own pair.

    Every target sums its sources in one canonical order: neighbourhood rows
    y-1, y, y+1, ascending sorted index within a row.  Adjacent cells of one
    row are consecutive in the row-major leaf order, so each row is one slice
    of the sorted particles, and a leaf's targets share its n sources.

    A dense leaf, whose q targets alone have q n >= ``_BLOCK`` pairs, is
    computed on its own: its n sources are read once from their three row
    slices into one small stacked block, and its targets, taken
    ``max(1, _BLOCK // n)`` at a time, are broadcast against it as a
    (rows x n) block of pairs (one target's n pairs when n > ``_BLOCK``).
    The targets of every other leaf are taken in ascending order of their
    source count n, and their pairs are laid end to end, by index, in chunks
    of about ``_BLOCK`` pairs.  Either way no temporary grows with N, and
    every block's terms are computed in one pair scratch, sized to the
    largest block.  The terms of each run of targets with equal n are a
    C-contiguous (targets x n) array, reduced with ``.sum(axis=1)``, which
    sums every row on its own, and the terms are the same operations on the
    same operands in both paths.  The result is therefore bit for bit that
    of summing every target's sources separately, whatever the path and the
    blocking.
    """
    if targets is None:
        targets, zt_sorted = tree, z_sorted
    m = 2**tree.levels
    leaves = np.flatnonzero(targets.nonempty(tree.levels))
    per_leaf = targets.counts[tree.levels][leaves]
    cy, cx = np.divmod(leaves, m)
    ny = cy[:, None] + np.arange(-1, 2)
    row = np.clip(ny, 0, m - 1) * m
    starts = tree.leaf_starts[row + np.maximum(cx - 1, 0)[:, None]]
    ends = tree.leaf_starts[row + np.minimum(cx + 1, m - 1)[:, None] + 1]
    lengths = np.where((ny >= 0) & (ny < m), ends - starts, 0)
    sizes = lengths.sum(axis=1)
    pairs = int(per_leaf @ sizes) - (len(z_sorted) if targets is tree else 0)
    dense = per_leaf * sizes >= _BLOCK

    # every target of the other leaves, leaf by leaf in ascending source
    # count: its leaf, its sorted index, its source count n and the span of
    # its pairs
    sparse = np.flatnonzero(~dense)
    by_size = sparse[np.argsort(sizes[sparse], kind="stable")]
    q = per_leaf[by_size]
    leaf = np.repeat(by_size, q)
    target = np.arange(len(leaf)) + np.repeat(targets.leaf_starts[leaves[by_size]] - (np.cumsum(q) - q), q)
    n = sizes[leaf]
    end = np.cumsum(n)
    first = end - n
    chunks = np.flatnonzero(np.diff(first // _BLOCK, prepend=-1, append=-1))
    runs = np.union1d(chunks, np.flatnonzero(np.diff(n, prepend=-1, append=-1)))
    run_at = np.searchsorted(runs, chunks)

    xs_all, ys_all, xt_all, yt_all = z_sorted.real, z_sorted.imag, zt_sorted.real, zt_sorted.imag
    blob = kind is KernelKind.GAUSSIAN_BLOB
    # a dense leaf's blocks hold at most max(_BLOCK, n) pairs
    scratch = _pair_scratch(int(max(np.max(end[chunks[1:] - 1] - first[chunks[:-1]], initial=0),
                                    np.max(np.maximum(sizes[dense], _BLOCK), initial=0))))
    vel = np.zeros((len(zt_sorted), 2))
    fields = (xs_all, ys_all, gamma_sorted, sigma_sorted) if blob else (xs_all, ys_all, gamma_sorted)
    for j in np.flatnonzero(dense).tolist():
        size = int(sizes[j])
        spans = [(s, s + w) for s, w in zip(starts[j].tolist(), lengths[j].tolist())]
        block = np.concatenate([f[s:e] for f in fields for s, e in spans]).reshape(len(fields), size)
        rows = max(1, _BLOCK // size)
        lo = int(targets.leaf_starts[leaves[j]])
        hi = lo + int(per_leaf[j])
        for a in range(lo, hi, rows):
            b = min(a + rows, hi)
            du, dv = _pair_velocity(xt_all[a:b, None], yt_all[a:b, None], *block[:3], block[3] if blob else None,
                                    kind, scratch)
            vel[a:b, 0] = du.sum(axis=1)
            vel[a:b, 1] = dv.sum(axis=1)

    u = np.empty(len(leaf))
    v = np.empty(len(leaf))
    for i in range(len(chunks) - 1):
        a, b = chunks[i], chunks[i + 1]
        # the chunk's sources: each target's three row slices, end to end
        seg = lengths[leaf[a:b]].ravel()
        src = np.arange(end[b - 1] - first[a])
        src += np.repeat(starts[leaf[a:b]].ravel() - (np.cumsum(seg) - seg), seg)
        t, k = target[a:b], n[a:b]
        du, dv = _pair_velocity(
            np.repeat(xt_all[t], k), np.repeat(yt_all[t], k), xs_all[src], ys_all[src],
            gamma_sorted[src], sigma_sorted[src] if blob else None, kind, scratch,
        )
        cuts = runs[run_at[i]:run_at[i + 1] + 1].tolist()
        for r0, r1 in zip(cuts[:-1], cuts[1:]):
            lo, hi = first[r0] - first[a], end[r1 - 1] - first[a]
            u[r0:r1] = du[lo:hi].reshape(r1 - r0, n[r0]).sum(axis=1)
            v[r0:r1] = dv[lo:hi].reshape(r1 - r0, n[r0]).sum(axis=1)
    vel[target, 0] = u
    vel[target, 1] = v
    return vel, pairs


@functools.lru_cache(maxsize=256)
def _budget_factors(side: float, radius: float, order: int) -> tuple[np.ndarray, ...]:
    """Per ``_interaction_stencil`` class, the read-only factors
    2 rho^(p+1) / ((1 - rho) (R - r)) of its 27 offsets, row-major, for cells
    of side ``side`` and radius ``radius``: the budget term per unit amplitude.
    The offsets are the same at every level, so the key is the geometry."""
    stencil = _interaction_stencil(2)
    dist = {o: np.hypot(*o) * side for c in stencil for o in c[0]}
    factor = {o: truncation_bound(BoundParams(1.0, radius / (d - radius)), order) * 2.0 / (d - radius)
              for o, d in dist.items()}
    classes = tuple(np.array([factor[o] for o in offsets]) for offsets, _, _ in stencil)
    for factors in classes:
        factors.setflags(write=False)
    return classes


def _budget_gather(tree: Tree, gamma_sorted: np.ndarray) -> np.ndarray:
    """``bound_budgets``' order-independent part: the read-only (27 x cells)
    amplitudes (summed |Gamma|, zero outside the domain) of each cell's
    sources, its columns the rows of the ``_pass_stencil`` classes in turn."""
    levels = tree.levels
    amp = np.zeros(_level_start(levels + 1) + 1)
    by_level = _level_views(amp, levels)
    by_level[levels][:] = np.bincount(tree.sorted_leaf, np.abs(gamma_sorted), 4**levels)
    for level in range(levels, 2, -1):
        by_level[level - 1][:] = sum(_quadrants(by_level[level], level)).ravel()
    gathered = np.ascontiguousarray(amp[np.concatenate([src for _, src in _pass_stencil(levels)])].T)
    gathered.setflags(write=False)
    return gathered


def bound_budgets(tree: Tree, gamma: np.ndarray, order: int, _gathered: np.ndarray | None = None) -> np.ndarray:
    """Per-particle truncation budget: the tail bound summed over every
    translation whose result that particle's leaf inherits.

    A translation between cells of radius r = sqrt(2) * half_width whose
    centers lie R apart contributes the multipole tail plus the local tail,
    2 A rho^(p+1) / (R - 2 r) with rho = r / (R - r): the geometric tail
    A rho^(p+1) / (1 - rho) times the length 2 / (R - r).  This is the
    position-independent worst case over the cell pair.  Budgets are on |f|
    error; velocity error budgets are these over 2 pi.  Each cell's terms are
    added one stencil offset at a time, in row-major order: the order of a
    per-offset loop, so bitwise its result.  Each level's totals are added
    down into its children through the ``_quadrants`` views.  The amplitudes
    are ``_gathered``, ``_budget_gather``'s result for this tree and
    ``gamma`` (a sweep keeps it for each depth), or gathered anew; the
    per-offset factors come from ``_budget_factors``, cached by geometry and
    order.
    """
    levels, p = tree.levels, order
    amp = _budget_gather(tree, gamma[tree.order]) if _gathered is None else _gathered
    factors = [_budget_factors(tree.cell_side(level), SQRT2 * tree.half_width(level), p)
               for level in range(2, levels + 1)]
    # the gather's columns run class by class, each level by level (4^(l-1) cells)
    per_column = np.repeat(np.stack([f[c] for c in range(4) for f in factors], axis=1),
                           [4**(level - 1) for _ in range(4) for level in range(2, levels + 1)], axis=1)
    budget = np.empty(_level_start(levels + 1))
    budget[np.concatenate([dest for dest, _ in _pass_stencil(levels)])] = functools.reduce(np.add, amp * per_column)
    by_level = _level_views(budget, levels)
    for level in range(3, levels + 1):
        for q in _quadrants(by_level[level], level):
            q += by_level[level - 1].reshape(q.shape)
    out = np.empty(len(gamma))
    out[tree.order] = by_level[levels][tree.sorted_leaf]
    return out


class _TreeWork(NamedTuple):
    """``_tree_work``'s result: the particle tree, sorted positions and
    circulations, the target tree and sorted targets, the sigma guard's verdict,
    the read-only sorted near field, its pair count, build and near seconds."""

    tree: Tree
    z_sorted: np.ndarray
    gamma_sorted: np.ndarray
    at: Tree
    zt_sorted: np.ndarray
    sigma_guard_ok: bool
    near_vel: np.ndarray
    near_pairs: int
    t_build: float
    t_near: float


def _tree_work(particles: Particles | Sequence[Particle], levels: int, kernel: KernelKind,
               domain: Domain | None, targets: np.ndarray | None = None) -> _TreeWork:
    """The first stage: everything that does not depend on the order.  Targets
    are the particles unless ``targets`` ((M, 2) positions) are given."""
    if not particles:
        raise ValueError("need at least one particle")
    t0 = time.perf_counter()
    particles = Particles.of(particles)
    if domain is None:
        domain = enclosing_domain(particles)
    _check_scale(domain.side, "domain side")
    _check_cores(particles.sigma, kernel)
    tree = build_tree(particles, levels, domain)
    z_sorted = (particles.x + 1j * particles.y)[tree.order]
    gamma_sorted = particles.gamma[tree.order]
    if targets is None:
        at, zt_sorted = tree, z_sorted
    else:
        at = _leaf_tree(targets[:, 0], targets[:, 1], levels, domain, "target")
        zt_sorted = (targets[:, 0] + 1j * targets[:, 1])[at.order]
    t_build = time.perf_counter() - t0

    guard = tree.half_width(levels) / 2.0
    max_sigma = float(particles.sigma.max()) if kernel is KernelKind.GAUSSIAN_BLOB else 0.0
    if max_sigma > guard:
        warnings.warn(
            f"max core radius {max_sigma:g} exceeds leaf half-width/2 = {guard:g}; "
            "the far field treats blobs as point vortices, so expect extra error",
            stacklevel=3,
        )

    t0 = time.perf_counter()
    near_vel, pairs = near_field(tree, z_sorted, gamma_sorted, particles.sigma[tree.order], kernel, at, zt_sorted)
    near_vel.setflags(write=False)
    return _TreeWork(tree, z_sorted, gamma_sorted, at, zt_sorted, max_sigma <= guard, near_vel, pairs, t_build,
                     time.perf_counter() - t0)


def _order_run(work: _TreeWork, order: int) -> tuple[np.ndarray, FmmRunStats]:
    """The second stage: the passes and the far field at order ``order``, plus
    ``work``'s near field.  Returns (u, v) rows in target order and the run
    statistics; ``t_total`` is this stage's time plus ``work``'s recorded
    build and near-field time, the cost of a standalone run.  A velocity that
    is not finite raises ``ValueError`` naming its target."""
    tree = work.tree
    stats = FmmRunStats(len(work.z_sorted), tree.levels, order, t_build=work.t_build, t_near=work.t_near,
                        near_pair_count=work.near_pairs, sigma_guard_ok=work.sigma_guard_ok)
    marks = [time.perf_counter()]
    multipoles = upward_pass(tree, work.z_sorted, work.gamma_sorted, order)
    marks.append(time.perf_counter())
    locals_, stats.m2l_count = translate_pass(tree, multipoles, order)
    marks.append(time.perf_counter())
    downward_pass(tree, locals_)
    marks.append(time.perf_counter())
    vel_sorted = expansions.f_to_velocity(far_field(work.at, locals_, work.zt_sorted))
    marks.append(time.perf_counter())
    stats.t_upward, stats.t_m2l, stats.t_downward, stats.t_eval = np.diff(marks).tolist()
    velocities = np.empty_like(vel_sorted)
    velocities[work.at.order] = vel_sorted + work.near_vel
    stats.t_total = time.perf_counter() - marks[0] + work.t_build + work.t_near
    return _check_finite(velocities, "velocity at target"), stats


def evaluate(
    particles: Particles | Sequence[Particle],
    config: FmmConfig,
    domain: Domain | None = None,
) -> tuple[np.ndarray, FmmRunStats]:
    """Velocity induced at every particle position, with run statistics.

    Returns an (N, 2) array of (u, v) rows in the original particle order.
    When no domain is given, the smallest enclosing square is used.
    """
    return _order_run(_tree_work(particles, config.levels, config.kernel, domain), config.order)


def evaluate_at(
    targets: np.ndarray | Sequence[tuple[float, float]],
    particles: Particles | Sequence[Particle],
    config: FmmConfig,
    domain: Domain | None = None,
) -> np.ndarray:
    """Velocity at arbitrary in-domain target points (not necessarily particles),
    checked for shape and finiteness as ``velocity_direct`` checks them."""
    pts = _check_targets(targets)
    return _order_run(_tree_work(particles, config.levels, config.kernel, domain, pts), config.order)[0]

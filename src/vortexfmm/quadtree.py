"""Uniform quadtree over a square domain, with neighbor and interaction lists.

The tree has levels 0..levels, level k holding 4^k logically-present cells in
row-major (iy-major) order; leaves live at the last level.  Cells are
half-open [low, high) except at the domain's max edges, where positions clamp
into the last cell, so every in-domain position maps to exactly one cell.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .model import Domain, Particle, Particles


class OutOfDomainError(ValueError):
    """A position (or particle) lies outside the domain square."""


class CellId(NamedTuple):
    level: int
    ix: int
    iy: int


def grid_indices(
    x: np.ndarray, y: np.ndarray, cells_per_side: int, domain: Domain
) -> tuple[np.ndarray, np.ndarray]:
    """Floor-rule bin indices on a ``cells_per_side``-square grid, max edge clamped."""
    m = cells_per_side
    ix = np.minimum(((x - domain.xmin) / domain.side * m).astype(np.int64), m - 1)
    iy = np.minimum(((y - domain.ymin) / domain.side * m).astype(np.int64), m - 1)
    return ix, iy


def cell_index(position: tuple[float, float], level: int, domain: Domain) -> CellId:
    """Cell containing ``position`` at ``level``.

    Raises :class:`OutOfDomainError` for positions outside the closed domain
    square; positions exactly on a max edge clamp into the last cell.
    """
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    x, y = position
    if not domain.contains(x, y):
        raise OutOfDomainError(f"position {position} outside domain {domain}")
    ix, iy = grid_indices(np.asarray([x]), np.asarray([y]), 2**level, domain)
    return CellId(level, int(ix[0]), int(iy[0]))


def neighbors(cell: CellId) -> list[CellId]:
    """Same-level cells adjacent to ``cell`` (<= 8), in row-major order."""
    m = 2**cell.level
    out = []
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            if dx == 0 and dy == 0:
                continue
            nx, ny = cell.ix + dx, cell.iy + dy
            if 0 <= nx < m and 0 <= ny < m:
                out.append(CellId(cell.level, nx, ny))
    out.sort(key=lambda c: (c.iy, c.ix))
    return out


def interaction_list(cell: CellId) -> list[CellId]:
    """Well-separated same-level cells handled by this cell's translations.

    Children of the parent's neighbors, minus the cell's own neighbors and the
    cell itself; empty below level 2.  Every member differs by at least 2 in
    one index coordinate.  Row-major order.
    """
    if cell.level < 2:
        return []
    m = 2**cell.level
    near = {(nb.ix, nb.iy) for nb in neighbors(cell)}
    near.add((cell.ix, cell.iy))
    px, py = cell.ix // 2, cell.iy // 2
    out = []
    for ny in (py - 1, py, py + 1):
        for nx in (px - 1, px, px + 1):
            if nx == px and ny == py:
                continue
            if not (0 <= nx < m // 2 and 0 <= ny < m // 2):
                continue
            for cy in (0, 1):
                for cx in (0, 1):
                    sx, sy = 2 * nx + cx, 2 * ny + cy
                    if (sx, sy) not in near:
                        out.append(CellId(cell.level, sx, sy))
    out.sort(key=lambda c: (c.iy, c.ix))
    return out


def _quadrants(a: np.ndarray, level: int) -> tuple[np.ndarray, ...]:
    """The four child grids of the C-contiguous row-major ``level`` array ``a``.

    Each is a writable (h, h, ...) view, h = 2^(level - 1), indexed like the
    parent level: child (ix, iy) is entry (iy // 2, ix // 2) of quadrant
    (iy mod 2, ix mod 2), and quadrants come in row-major (cy, cx) order.
    Trailing axes of ``a`` (expansion coefficients) are carried along.
    """
    h = 2 ** (level - 1)
    grid = a.reshape(h, 2, h, 2, *a.shape[1:])
    return tuple(grid[:, cy, :, cx] for cy in (0, 1) for cx in (0, 1))


class Tree:
    """Uniform quadtree with per-level occupancy and a leaf particle index.

    Geometry is immutable after construction; all queries are read-only.
    Particles (or evaluation targets) are stored as a permutation sorted by
    row-major leaf index so each leaf owns one contiguous slice.
    """

    def __init__(self, domain: Domain, levels: int, leaf_linear: np.ndarray):
        self.domain = domain
        self.levels = levels
        m = 2**levels
        #: row-major leaf index per particle, original particle order
        self.leaf_index = leaf_linear
        #: stable permutation grouping particles by leaf
        self.order = np.argsort(leaf_linear, kind="stable")
        self.sorted_leaf = leaf_linear[self.order]
        #: per-level subtree particle counts, counts[k] has 4^k entries
        self.counts: list[np.ndarray] = [np.zeros(0, dtype=np.int64)] * (levels + 1)
        self.counts[levels] = np.bincount(leaf_linear, minlength=m * m)
        for k in range(levels, 0, -1):
            self.counts[k - 1] = sum(_quadrants(self.counts[k], k)).ravel()
        self.leaf_starts = np.concatenate([[0], np.cumsum(self.counts[levels])])

    def cell_side(self, level: int) -> float:
        return self.domain.side / 2**level

    def half_width(self, level: int) -> float:
        return self.domain.side / 2 ** (level + 1)

    def centers(self, level: int) -> np.ndarray:
        """Complex cell centers at ``level``, row-major (4^level,) array."""
        mk = 2**level
        s = self.cell_side(level)
        cx = self.domain.xmin + (np.arange(mk) + 0.5) * s
        cy = self.domain.ymin + (np.arange(mk) + 0.5) * s
        return (cx[None, :] + 1j * cy[:, None]).ravel()

    def nonempty(self, level: int) -> np.ndarray:
        """Boolean occupancy mask over row-major cells at ``level``."""
        return self.counts[level] > 0


def _leaf_tree(x: np.ndarray, y: np.ndarray, levels: int, domain: Domain, what: str) -> Tree:
    """Bin positions into the leaves of a ``levels``-deep tree over ``domain``;
    any position outside the closed square raises :class:`OutOfDomainError`."""
    inside = (
        (x >= domain.xmin) & (x <= domain.xmax) & (y >= domain.ymin) & (y <= domain.ymax)
    )
    if not inside.all():
        bad = np.flatnonzero(~inside)
        raise OutOfDomainError(
            f"{bad.size} {what}(s) outside domain {domain}, first indices {bad[:5].tolist()}"
        )
    m = 2**levels
    ix, iy = grid_indices(x, y, m, domain)
    return Tree(domain, levels, iy * m + ix)


def build_tree(particles: Particles | Sequence[Particle], levels: int, domain: Domain) -> Tree:
    """Assign particles to leaves of a ``levels``-deep uniform quadtree.

    Requires ``levels >= 2`` (interaction lists are empty below level 2) and
    every particle inside the closed domain square.
    """
    if levels < 2:
        raise ValueError(f"tree needs at least 2 levels, got {levels}")
    particles = Particles.of(particles)
    return _leaf_tree(particles.x, particles.y, levels, domain, "particle")

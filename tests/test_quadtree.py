import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vortexfmm.model import Domain, Particle, generate_particles
from vortexfmm.quadtree import (
    CellId,
    OutOfDomainError,
    _quadrants,
    build_tree,
    cell_index,
    interaction_list,
    neighbors,
)

UNIT = Domain(0.0, 0.0, 1.0)


def leaf_members(tree, linear: int) -> np.ndarray:
    """Original indices of the particles in leaf ``linear``: its slice of ``order``."""
    return tree.order[tree.leaf_starts[linear]:tree.leaf_starts[linear + 1]]


def leaf_cells(tree) -> list[CellId]:
    """Each particle's leaf, read from where ``order`` puts it between the ``leaf_starts``."""
    linear = np.empty(len(tree.order), dtype=np.int64)
    linear[tree.order] = np.searchsorted(tree.leaf_starts, np.arange(len(tree.order)), side="right") - 1
    m = 2**tree.levels
    return [CellId(tree.levels, int(c % m), int(c // m)) for c in linear]


# independent brute-force oracle for interaction lists: enumerate every cell
# at the level and keep those whose parent is adjacent to ours but which are
# not in our 3x3 neighborhood
def brute_interaction_list(cell: CellId) -> set[CellId]:
    if cell.level < 2:
        return set()
    m = 2**cell.level
    out = set()
    for sy in range(m):
        for sx in range(m):
            if max(abs(sx - cell.ix), abs(sy - cell.iy)) <= 1:
                continue
            if max(abs(sx // 2 - cell.ix // 2), abs(sy // 2 - cell.iy // 2)) <= 1:
                out.add(CellId(cell.level, sx, sy))
    return out


class TestCellIndex:
    def test_examples(self):
        assert cell_index((0.3, 0.7), 2, UNIT) == CellId(2, 1, 2)
        assert cell_index((1.0, 1.0), 3, UNIT) == CellId(3, 7, 7)
        assert cell_index((0.42, 0.13), 0, UNIT) == CellId(0, 0, 0)

    def test_boundary_belongs_to_upper_cell(self):
        assert cell_index((0.5, 0.1), 2, UNIT) == CellId(2, 2, 0)

    def test_outside_raises(self):
        with pytest.raises(OutOfDomainError):
            cell_index((1.0001, 0.5), 2, UNIT)
        with pytest.raises(OutOfDomainError):
            cell_index((0.5, -0.0001), 2, UNIT)


class TestBuildTree:
    def test_single_particle(self):
        tree = build_tree([Particle(0.1, 0.1, 1.0, 0.01)], 2, UNIT)
        assert leaf_cells(tree) == [CellId(2, 0, 0)]
        assert tree.counts[2].sum() == 1
        assert leaf_members(tree, 0).tolist() == [0]
        for linear in range(1, 16):
            assert tree.counts[2][linear] == (0 if linear != 0 else 1)

    def test_assignment_matches_independent_loop(self):
        particles = generate_particles("uniform_random", 1000, 1)
        tree = build_tree(particles, 4, UNIT)
        assert tree.counts[4].sum() == 1000
        cells = leaf_cells(tree)
        for i, (x, y) in enumerate(zip(particles.x.tolist(), particles.y.tolist())):
            assert cells[i] == cell_index((x, y), 4, UNIT)

    def test_boundary_column_floor_rule(self):
        particles = [Particle(0.5, y, 1.0, 0.01) for y in (0.1, 0.4, 0.9)]
        tree = build_tree(particles, 2, UNIT)
        assert [cell.ix for cell in leaf_cells(tree)] == [2, 2, 2]

    def test_validations(self):
        particles = [Particle(0.5, 0.5, 1.0, 0.01)]
        with pytest.raises(ValueError):
            build_tree(particles, 1, UNIT)
        with pytest.raises(OutOfDomainError, match=r"\[0\]"):
            build_tree([Particle(2.0, 0.5, 1.0, 0.01)], 2, UNIT)

    def test_leaf_slices_partition_particles(self):
        particles = generate_particles("uniform_random", 333, 8)
        tree = build_tree(particles, 3, UNIT)
        seen = np.concatenate([leaf_members(tree, c) for c in range(4**3)])
        assert sorted(seen.tolist()) == list(range(333))


class TestNeighbors:
    def test_corner_edge_interior(self):
        assert neighbors(CellId(2, 0, 0)) == [CellId(2, 1, 0), CellId(2, 0, 1), CellId(2, 1, 1)]
        assert len(neighbors(CellId(3, 4, 4))) == 8
        assert len(neighbors(CellId(2, 0, 2))) == 5

    @settings(max_examples=100)
    @given(level=st.integers(0, 5), data=st.data())
    def test_symmetry(self, level, data):
        m = 2**level
        a = CellId(level, data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, m - 1)))
        for b in neighbors(a):
            assert a in neighbors(b)

    def test_row_major_order(self):
        ids = neighbors(CellId(3, 3, 3))
        assert ids == sorted(ids, key=lambda c: (c.iy, c.ix))


class TestInteractionList:
    def test_corner_has_12(self):
        got = interaction_list(CellId(2, 0, 0))
        assert len(got) == 12
        assert set(got) == brute_interaction_list(CellId(2, 0, 0))

    def test_interior_has_27(self):
        got = interaction_list(CellId(3, 3, 3))
        assert len(got) == 27
        assert set(got) == brute_interaction_list(CellId(3, 3, 3))

    def test_below_level_2_empty(self):
        assert interaction_list(CellId(1, 0, 0)) == []
        assert interaction_list(CellId(0, 0, 0)) == []

    @settings(max_examples=100)
    @given(level=st.integers(2, 5), data=st.data())
    def test_symmetry_separation_and_oracle(self, level, data):
        m = 2**level
        a = CellId(level, data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, m - 1)))
        got = interaction_list(a)
        assert set(got) == brute_interaction_list(a)
        for b in got:
            assert max(abs(b.ix - a.ix), abs(b.iy - a.iy)) >= 2
            assert a in interaction_list(b)

    def test_row_major_order(self):
        ids = interaction_list(CellId(3, 3, 3))
        assert ids == sorted(ids, key=lambda c: (c.iy, c.ix))


def test_partition_property_exhaustive_level_3():
    # every distinct leaf pair is either adjacent or covered by exactly one
    # ancestor level's interaction list
    level = 3
    m = 2**level
    leaves = [CellId(level, ix, iy) for iy in range(m) for ix in range(m)]
    for a in leaves:
        near = set(neighbors(a))
        for b in leaves:
            if b == a:
                continue
            hits = 0
            ax, ay, bx, by = a.ix, a.iy, b.ix, b.iy
            for k in range(level, 1, -1):
                cell_a = CellId(k, ax, ay)
                cell_b = CellId(k, bx, by)
                if cell_b in interaction_list(cell_a):
                    hits += 1
                ax, ay, bx, by = ax // 2, ay // 2, bx // 2, by // 2
            if b in near:
                assert hits == 0
            else:
                assert hits == 1


def test_cell_view_geometry():
    tree = build_tree([Particle(0.6, 0.6, 1.0, 0.01)], 3, UNIT)
    centers = tree.centers(3)
    assert centers.shape == (64,)  # no cell (8, 0) at level 3
    assert centers[4 * 8 + 4] == 0.5625 + 0.5625j
    assert leaf_members(tree, 4 * 8 + 4).tolist() == [0]
    assert tree.half_width(3) == 1.0 / 16.0
    assert tree.cell_side(3) == 0.125


def test_counts_aggregate_up_the_tree():
    particles = generate_particles("uniform_random", 400, 2)
    tree = build_tree(particles, 4, UNIT)
    for level in range(4):
        fine = tree.counts[level + 1].reshape(2 ** (level + 1), 2 ** (level + 1))
        coarse = fine[0::2, 0::2] + fine[0::2, 1::2] + fine[1::2, 0::2] + fine[1::2, 1::2]
        assert np.array_equal(tree.counts[level], coarse.ravel())


@pytest.mark.parametrize("level", [1, 2, 5])
def test_quadrants_match_per_cell_loop_and_write_through(level):
    # child (ix, iy) sits in quadrant (iy % 2, ix % 2) at parent (iy // 2) * h + ix // 2
    m, h = 2**level, 2 ** (level - 1)
    a = np.arange(4**level * 3, dtype=np.float64).reshape(4**level, 3)
    views = _quadrants(a, level)
    assert len(views) == 4
    for iy in range(m):
        for ix in range(m):
            q = views[2 * (iy % 2) + ix % 2]
            assert q.shape == (h, h, 3)
            assert np.array_equal(q.reshape(h * h, 3)[(iy // 2) * h + ix // 2], a[iy * m + ix])
    for k, q in enumerate(views):
        q += 1000.0 * (k + 1)
    for iy in range(m):
        for ix in range(m):
            expected = np.arange(3) + 3 * (iy * m + ix) + 1000.0 * (2 * (iy % 2) + ix % 2 + 1)
            assert np.array_equal(a[iy * m + ix], expected)

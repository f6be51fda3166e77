import dataclasses
import hashlib
import math
import os
import re
import subprocess
import sys
import textwrap
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import particle_list, positions_of
from vortexfmm import engine, expansions
from vortexfmm.engine import (
    FmmConfig,
    _interaction_stencil,
    _translations,
    bound_budgets,
    downward_pass,
    evaluate,
    evaluate_at,
    far_field,
    near_field,
    translate_pass,
    upward_pass,
)
from vortexfmm.errors import bound_check, compare
from vortexfmm.expansions import BoundParams, Expansion, eval_local, eval_multipole, truncation_bound
from vortexfmm.kernels import _BLOCK, TWO_PI, KernelKind, kernel_eval, velocity_direct
from vortexfmm.model import Domain, Particle, Particles, generate_particles, to_arrays
from vortexfmm.quadtree import CellId, _quadrants, build_tree, interaction_list, neighbors

UNIT = Domain(0.0, 0.0, 1.0)
POINT = KernelKind.POINT_VORTEX


def joined(*sets):
    """One particle set holding every given set's particles, in order."""
    return Particles(*(np.concatenate(field) for field in zip(*map(to_arrays, sets))))


def sorted_arrays(particles, tree):
    x, y, gamma, sigma = to_arrays(particles)
    z = (x + 1j * y)[tree.order]
    return z, gamma[tree.order], sigma[tree.order]


def linear_id(cell: CellId) -> int:
    return cell.iy * 2**cell.level + cell.ix


def first_stage(particles, levels, p, targets=None, domain=UNIT):
    """What the passes read: the first stage, ``engine._tree_work``, of the
    point kernel with P2M at order ``p``, at ``targets`` ((M, 2) positions).
    By default they are the leaves' centers, so that every cell is live and
    M2L is the full pass."""
    if targets is None:
        centers = (np.arange(2**levels) + 0.5) * (domain.side / 2**levels)
        gx, gy = np.meshgrid(domain.xmin + centers, domain.ymin + centers)
        targets = np.stack((gx.ravel(), gy.ravel()), axis=1)
    return engine._tree_work(particles, levels, POINT, domain, targets, order=p)


def canonical_near(tree, z, g, s, kind, target_tree=None, zt=None):
    """Per-target near-field reference: the 3x3 leaf block's sources in
    canonical order (row-major leaves, ascending sorted index within), each
    target's terms summed as its own 1-D array.  Returns (vel, pairs, sizes)."""
    if target_tree is None:
        target_tree, zt = tree, z
    pairs = -len(z) if target_tree is tree else 0
    m = 2**tree.levels
    src_x, src_y = tree.sorted_leaf % m, tree.sorted_leaf // m
    vel = np.zeros((len(zt), 2))
    sizes = np.zeros(len(zt), dtype=np.int64)
    for i, leaf in enumerate(target_tree.sorted_leaf):
        adjacent = np.flatnonzero((np.abs(src_x - leaf % m) <= 1) & (np.abs(src_y - leaf // m) <= 1))
        src = adjacent[np.lexsort((adjacent, src_x[adjacent], src_y[adjacent]))]
        sizes[i] = len(src)
        dx = zt[i].real - z[src].real
        dy = zt[i].imag - z[src].imag
        r2 = dx * dx + dy * dy
        c = np.zeros_like(r2)
        np.divide(g[src], TWO_PI * r2, out=c, where=r2 > 0)
        if kind is KernelKind.GAUSSIAN_BLOB:
            c = c * (1.0 - np.exp(-r2 / (2.0 * s[src] * s[src])))
        vel[i] = (-c * dy).sum(), (c * dx).sum()
    return vel, pairs + int(sizes.sum()), sizes


def per_offset_budgets(tree, gamma, p):
    """``bound_budgets`` as a loop over the 40 offsets, each adding its
    in-domain, parent-adjacent sources' terms into every cell in turn."""
    levels = tree.levels
    amp = [None] * (levels + 1)
    amp[levels] = np.zeros(4**levels)
    np.add.at(amp[levels], tree.sorted_leaf, np.abs(gamma[tree.order]))
    for level in range(levels - 1, 1, -1):
        fine = amp[level + 1].reshape(2**(level + 1), 2**(level + 1))
        amp[level] = (fine[0::2, 0::2] + fine[0::2, 1::2] + fine[1::2, 0::2] + fine[1::2, 1::2]).ravel()
    total = np.zeros((2, 2))
    for level in range(2, levels + 1):
        m = 2**level
        radius = math.sqrt(2) * tree.half_width(level)
        iy, ix = np.divmod(np.arange(m * m), m)
        cell_budget = np.zeros(m * m)
        for dy in range(-3, 4):
            for dx in range(-3, 4):
                if max(abs(dx), abs(dy)) < 2:
                    continue
                sx, sy = ix + dx, iy + dy
                ok = (sx >= 0) & (sx < m) & (sy >= 0) & (sy < m)
                ok &= (np.abs(sx // 2 - ix // 2) <= 1) & (np.abs(sy // 2 - iy // 2) <= 1)
                dist = np.hypot(dx, dy) * tree.cell_side(level)
                rho = radius / (dist - radius)
                factor = truncation_bound(BoundParams(1.0, rho), p) * 2.0 / (dist - radius)
                cell_budget[ok] += amp[level][sy[ok] * m + sx[ok]] * factor
        total = cell_budget.reshape(m, m) + np.repeat(np.repeat(total, 2, axis=0), 2, axis=1)
    out = np.empty(len(gamma))
    out[tree.order] = total.ravel()[tree.sorted_leaf]
    return out


def serial_translations(mult, levels, p):
    """``translate_pass``'s locals from its chunks run one by one on this
    thread: per stencil class, the class's cells of levels 2..leaf in turn,
    ``_CHUNK_BYTES`` of gathered sources (zero outside the domain) times the
    class's stacked matrix.  Returns the per-level locals and rows per chunk."""
    _, m2l, _ = _translations(p)
    rows = max(1, engine._CHUNK_BYTES // (27 * (p + 1) * 16))
    locals_ = [None, None] + [np.full_like(mult[level], np.nan) for level in range(2, levels + 1)]
    for c, stacked in enumerate(m2l):
        classes = [(level, *_interaction_stencil(level)[c][1:]) for level in range(2, levels + 1)]
        block = np.concatenate([np.where((src >= 0)[..., None], mult[level][src], 0.0) for level, _, src in classes])
        products = np.concatenate([block[a:a + rows].reshape(-1, 27 * (p + 1)) @ stacked
                                   for a in range(0, len(block), rows)])
        start = 0
        for level, dest, _ in classes:
            locals_[level][dest] = products[start:start + len(dest)]
            start += len(dest)
    return locals_, rows


def per_level_translations(mult, levels, p):
    """M2L as chunks of one level and class at a time: the layout before the
    levels of a pass were joined, at the same ``_CHUNK_BYTES``."""
    _, m2l, _ = _translations(p)
    rows = max(1, engine._CHUNK_BYTES // (27 * (p + 1) * 16))
    locals_ = [None] * (levels + 1)
    for level in range(2, levels + 1):
        locals_[level] = np.full_like(mult[level], np.nan)
        for (_, dest, src), stacked in zip(_interaction_stencil(level), m2l):
            for a in range(0, len(dest), rows):
                ids = src[a:a + rows]
                block = np.where((ids >= 0)[..., None], mult[level][ids], 0.0)
                locals_[level][dest[a:a + rows]] = block.reshape(len(ids), -1) @ stacked
    return locals_


def per_level_budgets(tree, gamma, p):
    """``bound_budgets`` as a loop over levels and classes, amplitudes summed up
    and gathered anew per level: the layout before the levels were joined."""
    levels = tree.levels
    amp = [None] * (levels + 1)
    amp[levels] = np.bincount(tree.sorted_leaf, np.abs(gamma[tree.order]), 4**levels)
    for level in range(levels, 2, -1):
        amp[level - 1] = sum(_quadrants(amp[level], level)).ravel()
    total = np.zeros(4)
    for level in range(2, levels + 1):
        factors = engine._budget_factors(tree.cell_side(level), engine.SQRT2 * tree.half_width(level), p)
        cell_budget = np.empty(4**level)
        for (_, dest, src), factor in zip(_interaction_stencil(level), factors):
            terms = np.where(src < 0, 0.0, amp[level][src] * factor)
            cell_budget[dest] = np.cumsum(terms, axis=1)[:, -1]
        for q in _quadrants(cell_budget, level):
            q += total.reshape(q.shape)
        total = cell_budget
    out = np.empty(len(gamma))
    out[tree.order] = total[tree.sorted_leaf]
    return out


def run_isolated(script, **env):
    """Run ``script`` in a fresh interpreter with the package and these tests
    importable and ``env`` set; returns its stdout, asserting a clean exit."""
    paths = [str(Path(engine.__file__).parents[1]), str(Path(__file__).parent), os.environ.get("PYTHONPATH")]
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(script)], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0 and done.stderr == "", done.stderr
    return done.stdout


def joined_within(threads, seconds=120.0):
    """Start ``threads`` and join each within ``seconds``; True when all ended."""
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds)
    return not any(thread.is_alive() for thread in threads)


#: one particle in each corner leaf (max edges clamp inward)
CORNERS = [Particle(0.0, 0.0, 0.5, 0.005), Particle(1.0, 1.0, -0.5, 0.005),
           Particle(1.0, 0.0, 0.3, 0.005), Particle(0.0, 1.0, -0.2, 0.005)]


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            FmmConfig(levels=1, order=4)
        with pytest.raises(ValueError):
            FmmConfig(levels=3, order=-1)
        with pytest.raises(ValueError):
            FmmConfig(levels=3, order=61)
        FmmConfig(levels=2, order=0)
        FmmConfig(np.int64(3), np.int32(6))  # numpy integers pass

    def test_kernel_must_be_a_kernel_kind(self):
        # the string used to run the point kernel, bit for bit
        with pytest.raises(TypeError, match="KernelKind"):
            FmmConfig(3, 8, "gaussian_blob")

    @pytest.mark.parametrize("levels, order", [(3, True), (True, 4), (2.5, 4), (3, 4.0), (3, "4")])
    def test_levels_and_order_must_be_integers(self, levels, order):
        # (3, True) ran as order 1; a float failed deep inside with an unrelated TypeError
        particles = generate_particles("uniform_random", 50, 1)
        with pytest.raises(TypeError, match="must be an integer"):
            evaluate(particles, FmmConfig(levels, order), UNIT)


class TestUpwardPass:
    # the pass stores a_k / h^(k+1), h the cell side; these tests read a_k

    def test_single_particle_circulation_on_every_ancestor(self):
        particles = [Particle(0.23, 0.71, 0.8, 0.01)]
        work = first_stage(particles, 4, 5)
        tree = work.tree
        mult = upward_pass(work, 5)
        for level in range(2, 5):
            cell = linear_id(
                CellId(level, int(0.23 * 2**level), int(0.71 * 2**level))
            )
            assert mult[level][cell][0] * tree.cell_side(level) == pytest.approx(0.8, rel=1e-14)
            assert np.count_nonzero(mult[level][:, 0]) == 1

    def test_level2_leading_coefficients_sum_to_total_circulation(self):
        particles = generate_particles("uniform_random", 400, 6)
        work = first_stage(particles, 4, 8)
        tree = work.tree
        z, g, _ = sorted_arrays(particles, tree)
        mult = upward_pass(work, 8)
        assert mult[2][:, 0].sum() * tree.cell_side(2) == pytest.approx(g.sum(), rel=1e-13, abs=1e-13)

    # 64, 16, 1 and 1/4 particles per leaf on average
    @pytest.mark.parametrize("n, levels, p", [(4096, 3, 20), (4096, 4, 60), (4096, 6, 40), (256, 5, 2)])
    def test_leaf_expansions_bitwise_equal_to_column_loop(self, n, levels, p):
        # the (N, p + 1) layout, one strided column per power, reduced per leaf
        particles = generate_particles("uniform_random", n, 4)
        work = first_stage(particles, levels, p)
        tree = work.tree
        z, g, _ = sorted_arrays(particles, tree)
        side = tree.cell_side(levels)
        delta = (z - tree.centers(levels)[tree.sorted_leaf]) / side
        powers = np.empty((n, p + 1), dtype=np.complex128)
        powers[:, 0] = g / side
        for k in range(1, p + 1):
            powers[:, k] = powers[:, k - 1] * delta
        occupied = np.flatnonzero(tree.nonempty(levels))
        expected = np.zeros((4**levels, p + 1), dtype=np.complex128)
        expected[occupied] = np.add.reduceat(powers, tree.leaf_starts[occupied], axis=0)
        assert upward_pass(work, p)[levels].tobytes() == expected.tobytes()

    @pytest.mark.parametrize("distribution", ["uniform_random", "gaussian_patch", "two_patches"])
    @pytest.mark.parametrize("n, levels", [(300, 3), (2000, 4), (1200, 5), (3000, 6)])
    def test_leaf_multipoles_held_at_a_higher_order_give_the_fresh_pass(self, distribution, n, levels):
        particles = generate_particles(distribution, n, 7)
        held = first_stage(particles, levels, 60)
        leaf_level = held.leaves[engine._level_start(levels):-1].copy()
        # the held order first: M2M completes the held array in place, and the lower orders read its leaf level after
        for p in (60, 33, 20, 7, 2, 1, 0):
            got, want = upward_pass(held, p), upward_pass(first_stage(particles, levels, p), p)
            for level in range(2, levels + 1):
                assert got[level].tobytes() == want[level].tobytes(), (p, level)
            assert got[levels].base.tobytes() == want[levels].base.tobytes()
        assert held.leaves[engine._level_start(levels):-1].tobytes() == leaf_level.tobytes()

    def test_leaf_multipoles_held_below_the_order_are_refused(self):
        # M2M would otherwise read a pass array narrower than its matrices
        work = first_stage(generate_particles("uniform_random", 300, 7), 3, 4)
        for run in (upward_pass, engine._order_run):
            with pytest.raises(ValueError, match="held at order 4, below the run's order 5"):
                run(work, 5)

    def test_level2_cell_far_evaluation_within_bound(self):
        particles = generate_particles("uniform_random", 500, 3)
        work = first_stage(particles, 3, 10)
        tree = work.tree
        z, g, _ = sorted_arrays(particles, tree)
        mult = upward_pass(work, 10)
        cell = CellId(2, 1, 1)
        center = tree.centers(2)[linear_id(cell)]
        assert center == 0.375 + 0.375j
        members = np.flatnonzero(
            (tree.sorted_leaf // 2 % 4 == 1) & (tree.sorted_leaf // (2 * 8) == 1)
        )
        # independent membership: positions fall inside the level-2 square
        inside = (
            (z.real >= 0.25) & (z.real < 0.5) & (z.imag >= 0.25) & (z.imag < 0.5)
        )
        assert set(members) == set(np.flatnonzero(inside))
        zt = center + 3 * 0.25  # three cell widths away
        exp = Expansion("multipole", center, mult[2][linear_id(cell)] * tree.cell_side(2) ** np.arange(1, 12))
        direct = (g[inside] / (zt - z[inside])).sum()
        radius = math.sqrt(2) * 0.125
        rho = radius / abs(zt - center)
        amplitude = float(np.abs(g[inside]).sum())
        assert abs(eval_multipole(exp, zt) - direct) <= truncation_bound(
            BoundParams(amplitude, rho), 10
        )


class TestTranslatePass:
    def test_isolated_cluster_populates_only_its_interaction_partners(self):
        # all particles inside leaf (2, 0, 0): locals are nonzero exactly on
        # cells holding that cell in their interaction list
        rng = np.random.default_rng(4)
        pts = 0.25 * rng.uniform(0.01, 0.99, size=(30, 2))
        particles = [Particle(float(x), float(y), 1.0, 0.001) for x, y in pts]
        work = first_stage(particles, 2, 6)
        mult = upward_pass(work, 6)
        locals_, count = translate_pass(work, mult, 6)
        expected_nonzero = {linear_id(c) for c in interaction_list(CellId(2, 0, 0))}
        got_nonzero = set(np.flatnonzero(np.abs(locals_[2]).sum(axis=1) > 0).tolist())
        assert got_nonzero == expected_nonzero
        assert count == len(expected_nonzero)
        for nb in neighbors(CellId(2, 0, 0)):
            assert np.all(locals_[2][linear_id(nb)] == 0)

    def test_count_matches_exhaustive_enumeration(self):
        particles = generate_particles("uniform_random", 300, 9)
        tree = build_tree(particles, 3, UNIT)
        work = first_stage(particles, 3, 4)
        _, count = translate_pass(work, upward_pass(work, 4), 4)
        expected = 0
        for level in (2, 3):
            occupied = tree.nonempty(level)
            m = 2**level
            for iy in range(m):
                for ix in range(m):
                    expected += sum(
                        occupied[linear_id(src)] for src in interaction_list(CellId(level, ix, iy))
                    )
        assert count == expected

    def test_single_far_particle_reaches_leaf_within_budget(self):
        particles = [Particle(0.05, 0.05, 1.5, 0.001)]
        p = 8
        work = first_stage(particles, 3, p)
        tree = work.tree
        z, g, _ = sorted_arrays(particles, tree)
        locals_, _ = translate_pass(work, upward_pass(work, p), p)
        downward_pass(tree, locals_)
        far_cell = CellId(3, 7, 7)
        center = tree.centers(3)[linear_id(far_cell)]
        assert center == 0.9375 + 0.9375j
        exp = Expansion("local", center, locals_[3][linear_id(far_cell)])
        exact = 1.5 / (center - z[0])
        # the single translation this leaf inherits is bounded by the worst
        # same-level pair geometry
        radius = math.sqrt(2) * tree.half_width(2)
        rho = radius / (2 * tree.cell_side(2) - radius)
        worst = truncation_bound(BoundParams(1.5, rho), p)
        assert abs(eval_local(exp, center) - exact) <= worst

    @pytest.mark.parametrize("level", [2, 3, 4, 5])
    def test_stencil_offsets_row_major_with_sentinels_outside_domain(self, level):
        m = 2**level
        for offsets, dest, src in _interaction_stencil(level):
            assert len(set(offsets)) == len(offsets) == 27
            assert list(offsets) == sorted(offsets, key=lambda o: (o[1], o[0]))
            assert all(max(abs(dx), abs(dy)) in (2, 3) for dx, dy in offsets)
            assert src.shape == (len(dest), 27)
            assert src.dtype == dest.dtype == np.int32
            for d, row in zip(dest.tolist(), src.tolist()):
                iy, ix = divmod(d, m)
                for (dx, dy), s in zip(offsets, row):
                    inside = 0 <= ix + dx < m and 0 <= iy + dy < m
                    assert s == ((iy + dy) * m + ix + dx if inside else -1)

    @pytest.mark.parametrize("level", [2, 3, 4, 5])
    def test_groups_deliver_each_interaction_list_in_order(self, level):
        # each destination's non-sentinel stencil row is its interaction list
        m = 2**level
        received = {}
        for _, dest, src in _interaction_stencil(level):
            for d, row in zip(dest.tolist(), src.tolist()):
                received[d] = [s for s in row if s >= 0]
        for iy in range(m):
            for ix in range(m):
                cell = CellId(level, ix, iy)
                expected = [linear_id(c) for c in interaction_list(cell)]
                assert received[linear_id(cell)] == expected, cell

    @pytest.mark.parametrize("level", [2, 3, 6])
    def test_every_cell_in_exactly_one_parity_class(self, level):
        m = 2**level
        classes = _interaction_stencil(level)
        cells = np.concatenate([dest for _, dest, _ in classes])
        assert np.array_equal(np.sort(cells), np.arange(m * m))
        for (cy, cx), (_, dest, _) in zip(((0, 0), (0, 1), (1, 0), (1, 1)), classes):
            assert np.all(dest % m % 2 == cx) and np.all(dest // m % 2 == cy)
            assert np.all(np.diff(dest) > 0)

    def test_cached_geometry_and_matrices_are_read_only(self):
        arrays = [a for _, dest, src in _interaction_stencil(4) for a in (dest, src)]
        m2m, m2l, l2l = _translations(5)
        arrays += [*m2m, *m2l, *l2l]
        for array in arrays:
            with pytest.raises(ValueError):
                array.flat[0] = 1
        assert _interaction_stencil(4) is _interaction_stencil(4)

    @pytest.mark.parametrize("levels", [2, 5])
    def test_matches_per_cell_reference(self, levels):
        # every cell's local is the sum of expansions.m2l_matrix over its
        # interaction_list, applied to the nonempty sources one at a time
        particles = generate_particles("uniform_random", 1500, 8)
        p = 9
        work = first_stage(particles, levels, p)
        tree = work.tree
        mult = upward_pass(work, p)
        locals_, count = translate_pass(work, mult, p)
        matrices = {}
        expected_count = 0
        for level in range(2, levels + 1):
            occupied = tree.nonempty(level)
            ref = np.zeros_like(mult[level])
            for d in range(4**level):
                cell = CellId(level, d % 2**level, d // 2**level)
                for source in interaction_list(cell):
                    s = linear_id(source)
                    if not occupied[s]:
                        continue
                    t = complex(cell.ix - source.ix, cell.iy - source.iy)
                    if t not in matrices:
                        matrices[t] = expansions.m2l_matrix(t, p, p)
                    ref[d] += matrices[t] @ mult[level][s]
                    expected_count += 1
            # relative to each coefficient's largest size on the level: single
            # coefficients can cancel, and BLAS orders each 27-term sum itself
            assert np.all(np.abs(locals_[level] - ref) <= 1e-14 * np.abs(ref).max(axis=0))
        assert count == expected_count

    @pytest.mark.parametrize("levels, p", [(6, 40), (3, 4)])
    def test_bitwise_equal_to_serial_chunk_loop(self, levels, p):
        work = first_stage(generate_particles("uniform_random", 4096, 5), levels, p)
        mult = upward_pass(work, p)
        expected, rows = serial_translations(mult, levels, p)
        per_class = sum(len(_interaction_stencil(level)[0][1]) for level in range(2, levels + 1))
        # a class's chunks run over all its levels: depth 6, p = 40: many full
        # chunks per class; depth 3, p = 4: one partial
        assert per_class > 10 * rows if levels == 6 else per_class < rows
        locals_, _ = translate_pass(work, mult, p)
        for level in range(2, levels + 1):
            assert locals_[level].tobytes() == expected[level].tobytes()

    def test_more_chunk_threads_than_cores_give_the_serial_result(self, monkeypatch):
        # four chunk threads and a short switch interval: a lost chunk would
        # leave rows of np.empty behind, a misplaced one other bits
        work = first_stage(generate_particles("uniform_random", 4096, 6), 6, 24)
        mult = upward_pass(work, 24)
        expected, _ = serial_translations(mult, 6, 24)
        results = []
        interval = sys.getswitchinterval()
        with ThreadPoolExecutor(4) as pool:
            monkeypatch.setattr(engine, "_chunk_pool", lambda: (pool, 4))
            sys.setswitchinterval(1e-6)
            try:
                threads = [threading.Thread(target=lambda: results.append(translate_pass(work, mult, 24)[0]))
                           for _ in range(3)]
                assert joined_within(threads)
            finally:
                sys.setswitchinterval(interval)
        assert len(results) == 3
        for locals_ in results:
            for level in range(2, 7):
                assert locals_[level].tobytes() == expected[level].tobytes()

    def test_shut_down_pool_leaves_the_chunks_to_the_caller(self, monkeypatch):
        # submit raises RuntimeError, as it does once the interpreter is exiting
        work = first_stage(generate_particles("uniform_random", 4096, 6), 6, 24)
        mult = upward_pass(work, 24)
        expected, _ = serial_translations(mult, 6, 24)
        pool = ThreadPoolExecutor(2)
        pool.shutdown()
        monkeypatch.setattr(engine, "_chunk_pool", lambda: (pool, 2))
        locals_, _ = translate_pass(work, mult, 24)
        for level in range(2, 7):
            assert locals_[level].tobytes() == expected[level].tobytes()

    @pytest.mark.parametrize("pool_made_before", [False, True])
    def test_evaluate_from_a_thread_outliving_the_main_thread(self, pool_made_before):
        # once the main thread has returned, concurrent.futures neither
        # imports nor takes work; the late call must still give the result
        stdout = run_isolated(f"""
            import hashlib, threading, time
            from vortexfmm import engine, model
            particles = model.generate_particles("uniform_random", 2048, 8)
            config = engine.FmmConfig(6, 8)
            if {pool_made_before}:
                engine.evaluate(particles, config, model.UNIT_DOMAIN)
            def late():
                time.sleep(0.2)
                vel, _ = engine.evaluate(particles, config, model.UNIT_DOMAIN)
                print(hashlib.sha256(vel.tobytes()).hexdigest())
            threading.Thread(target=late).start()
        """)
        vel, _ = evaluate(generate_particles("uniform_random", 2048, 8), FmmConfig(6, 8), UNIT)
        assert stdout.split() == [hashlib.sha256(vel.tobytes()).hexdigest()]

    def test_one_blas_thread_gives_the_per_level_layouts_result(self):
        # joining the levels changes every product's shape; with one BLAS
        # thread a row's bits do not depend on the shape, so the locals and
        # the budgets stay those of one level and class at a time
        stdout = run_isolated("""
            from test_engine import first_stage, per_level_budgets, per_level_translations
            from vortexfmm import engine
            from vortexfmm.model import Domain, generate_particles
            from vortexfmm.quadtree import build_tree
            for domain in (Domain(0.0, 0.0, 1.0), Domain(-2.0, -1.0, 3.0), Domain(-1.0, 0.5, 2.5)):
                particles = generate_particles("uniform_random", 3000, 9, domain)
                for levels, p in ((2, 4), (3, 60), (5, 17), (6, 40)):
                    work = first_stage(particles, levels, p, domain=domain)
                    mult = engine.upward_pass(work, p)
                    got, want = engine.translate_pass(work, mult, p)[0], per_level_translations(mult, levels, p)
                    if any(got[level].tobytes() != want[level].tobytes() for level in range(2, levels + 1)):
                        print("translate_pass", domain, levels, p)
                for levels in range(2, 7):
                    tree = build_tree(particles, levels, domain)
                    for order in (1, 4, 13, 40):
                        got = engine.bound_budgets(tree, particles.gamma, order)
                        if got.tobytes() != per_level_budgets(tree, particles.gamma, order).tobytes():
                            print("bound_budgets", domain, levels, order)
            print("done")
        """, OPENBLAS_NUM_THREADS="1")
        assert stdout == "done\n"

    def test_one_blas_thread_target_tree_keeps_every_live_local(self):
        # the cells that hold a target get the full pass's locals, bit for bit,
        # before and after L2L; every other row is zero, and the count is the
        # full pass's
        stdout = run_isolated("""
            import numpy as np
            from test_engine import first_stage
            from vortexfmm import engine
            from vortexfmm.model import generate_particles
            rng = np.random.default_rng(11)
            for distribution in ("uniform_random", "gaussian_patch"):
                particles = generate_particles(distribution, 3000, 7)
                sample = rng.choice(3000, 40, replace=False)
                at = {"sample": np.stack((particles.x, particles.y), axis=1)[sample],
                      "corner": 0.2 * rng.uniform(size=(500, 2)), "none": np.zeros((0, 2))}
                # (4, 28): the full pass ends a class on a one-row chunk
                for levels, p in ((2, 4), (3, 60), (4, 28), (5, 17), (6, 40)):
                    work = first_stage(particles, levels, p)
                    tree = work.tree
                    mult = engine.upward_pass(work, p)
                    full, count = engine.translate_pass(work, mult, p)
                    completed = engine.downward_pass(tree, engine.translate_pass(work, mult, p)[0])
                    for name, pts in at.items():
                        pruned = first_stage(particles, levels, p, pts)
                        targets = pruned.at
                        got, got_count = engine.translate_pass(pruned, mult, p)
                        ok = got_count == count
                        for level in range(2, levels + 1):
                            live = targets.nonempty(level)
                            ok &= got[level][live].tobytes() == full[level][live].tobytes()
                            ok &= not got[level][~live].any()
                        live = targets.nonempty(levels)
                        ok &= engine.downward_pass(tree, got)[levels][live].tobytes() == completed[levels][live].tobytes()
                        if not ok:
                            print(distribution, levels, p, name)
            print("done")
        """, OPENBLAS_NUM_THREADS="1")
        assert stdout == "done\n"

    def test_every_cell_live_runs_the_full_pass(self, monkeypatch):
        # field_probe's grid: a target in every leaf, so the rows are the full stencil and nothing is pruned
        axis = (np.arange(16) + 0.5) / 16
        gx, gy = np.meshgrid(axis, axis)
        grid = np.stack((gx.ravel(), gy.ravel()), axis=1)
        work = first_stage(generate_particles("uniform_random", 500, 2), 4, 9, grid)
        assert work.live is engine._pass_stencil(4)
        mult = upward_pass(work, 9)
        dests = []
        chunk = engine._translate_chunk

        def recording(*args):
            dests.append(args[-1])
            return chunk(*args)

        monkeypatch.setattr(engine, "_translate_chunk", recording)
        locals_, _ = translate_pass(work, mult, 9)
        assert np.array_equal(np.sort(np.concatenate(dests)), np.arange(engine._level_start(5)))
        assert locals_[4].tobytes() == serial_translations(mult, 4, 9)[0][4].tobytes()

    def test_each_translation_matrix_built_once_per_order(self, monkeypatch):
        build = expansions.m2l_matrix
        built = []

        def counting(t, p_to, p_from):
            built.append(t)
            return build(t, p_to, p_from)

        monkeypatch.setattr(expansions, "m2l_matrix", counting)
        _translations.cache_clear()
        particles = generate_particles("uniform_random", 2000, 2)
        evaluate(particles, FmmConfig(5, 7), UNIT)
        first = len(built)
        # another depth and another domain at the same order build nothing
        evaluate(particles, FmmConfig(3, 7), Domain(-2.0, -1.0, 3.0))
        assert len(built) == first == 40
        assert len(set(built)) == len(built)


class TestDownwardPass:
    def test_zero_parent_locals_leave_children_unchanged(self):
        particles = generate_particles("uniform_random", 50, 2)
        tree = build_tree(particles, 3, UNIT)
        p = 5
        locals_ = [None, None, np.zeros((16, p + 1), complex), np.ones((64, p + 1), complex)]
        out = downward_pass(tree, [row if row is None else row.copy() for row in locals_])
        assert np.array_equal(out[3], locals_[3])

    def test_constant_parent_local_is_inherited_additively(self):
        particles = generate_particles("uniform_random", 50, 2)
        tree = build_tree(particles, 3, UNIT)
        p = 4
        locals_ = [None, None, np.zeros((16, p + 1), complex), np.zeros((64, p + 1), complex)]
        locals_[2][:, 0] = 2.5  # constant polynomial on every level-2 cell
        out = downward_pass(tree, locals_)
        assert np.allclose(out[3][:, 0], 2.5)
        assert np.all(out[3][:, 1:] == 0)

    def test_leaf_local_encodes_far_field_of_non_neighbors(self):
        particles = generate_particles("uniform_random", 200, 12)
        p = 10
        work = first_stage(particles, 3, p, positions_of(particles))
        tree = work.tree
        z, g, _ = sorted_arrays(particles, tree)
        locals_, _ = translate_pass(work, upward_pass(work, p), p)
        downward_pass(tree, locals_)
        budgets = bound_budgets(tree, to_arrays(particles)[2], p)[tree.order]
        f_far = far_field(work, locals_)
        m = 8
        for i in range(0, 200, 17):
            leaf = int(tree.sorted_leaf[i])
            near_cells = {leaf}
            cy, cx = divmod(leaf, m)
            for nb in neighbors(CellId(3, cx, cy)):
                near_cells.add(linear_id(nb))
            outside = ~np.isin(tree.sorted_leaf, list(near_cells))
            exact = (g[outside] / (z[i] - z[outside])).sum()
            assert abs(f_far[i] - exact) <= budgets[i]


class TestNearField:
    def test_isolated_particles_have_zero_near_field(self):
        particles = [Particle(0.1, 0.1, 1.0, 0.001), Particle(0.9, 0.9, -1.0, 0.001)]
        tree = build_tree(particles, 3, UNIT)
        z, g, s = sorted_arrays(particles, tree)
        vel, pairs = near_field(tree, z, g, s, POINT, tree, z)
        assert np.all(vel == 0.0)
        assert pairs == 0

    def test_two_particles_in_one_leaf_reduce_to_kernel_eval(self):
        a = Particle(0.51, 0.52, 0.7, 0.01)
        b = Particle(0.53, 0.55, -1.1, 0.01)
        tree = build_tree([a, b], 2, UNIT)
        z, g, s = sorted_arrays([a, b], tree)
        vel, pairs = near_field(tree, z, g, s, POINT, tree, z)
        vel_orig = np.empty_like(vel)
        vel_orig[tree.order] = vel
        assert tuple(vel_orig[0]) == kernel_eval((a.x, a.y), b, POINT)
        assert tuple(vel_orig[1]) == kernel_eval((b.x, b.y), a, POINT)
        assert pairs == 2

    def test_matches_independent_neighborhood_filter(self):
        # same canonical order (row-major cells, ascending particle index
        # within), same term arithmetic, same row reduction: bit for bit
        particles = generate_particles("uniform_random", 150, 21)
        tree = build_tree(particles, 3, UNIT)
        z, g, s = sorted_arrays(particles, tree)
        vel, pairs = near_field(tree, z, g, s, POINT, tree, z)
        expected, expected_pairs, _ = canonical_near(tree, z, g, s, POINT)
        for i in range(len(particles)):
            assert vel[i, 0] == expected[i, 0] and vel[i, 1] == expected[i, 1]
        assert pairs == expected_pairs

    # source rows shorter than numpy's 8-way unrolled sum, between it and its
    # 128-element pairwise block, and longer than one block
    @pytest.mark.parametrize("kind", list(KernelKind))
    @pytest.mark.parametrize(
        "n, levels, lo, hi", [(28, 3, 1, 7), (600, 3, 8, 128), (1500, 2, 129, None)]
    )
    def test_bitwise_canonical_order_across_summation_blocks(self, kind, n, levels, lo, hi):
        particles = joined(generate_particles("uniform_random", n, 2), CORNERS)
        tree = build_tree(particles, levels, UNIT)
        z, g, s = sorted_arrays(particles, tree)
        vel, pairs = near_field(tree, z, g, s, kind, tree, z)
        expected, expected_pairs, sizes = canonical_near(tree, z, g, s, kind)
        assert sizes.min() >= lo and (hi is None or sizes.max() <= hi)
        assert np.array_equal(vel, expected)
        assert pairs == expected_pairs

    @pytest.mark.parametrize("kind", list(KernelKind))
    def test_bitwise_external_targets_with_empty_neighborhoods(self, kind):
        # sources in the lower-left quarter only: most target leaves see none
        particles = joined(generate_particles("uniform_random", 70, 3, Domain(0.0, 0.0, 0.3)), CORNERS[:1])
        tree = build_tree(particles, 4, UNIT)
        z, g, s = sorted_arrays(particles, tree)
        gx, gy = np.meshgrid(np.linspace(0.0, 1.0, 23), np.linspace(0.0, 1.0, 23))
        probes = [Particle(x, y, 0.0, 1.0) for x, y in zip(gx.ravel(), gy.ravel())]
        targets = build_tree(probes, 4, UNIT)
        zt = sorted_arrays(probes, targets)[0]
        vel, pairs = near_field(tree, z, g, s, kind, targets, zt)
        expected, expected_pairs, sizes = canonical_near(tree, z, g, s, kind, targets, zt)
        assert (sizes == 0).any() and sizes.max() > 8
        assert np.all(vel[sizes == 0] == 0.0)
        assert np.array_equal(vel, expected)
        assert pairs == expected_pairs

    @pytest.mark.parametrize("external", [False, True])
    @pytest.mark.parametrize("kind", list(KernelKind))
    def test_bitwise_mixed_leaf_occupancy(self, kind, external):
        # a patch filling the lower-left 2 x 2 leaves over a sparse background:
        # leaves whose own pairs fill a chunk (computed as one targets x
        # sources block each) beside leaves with far fewer (chunked by index)
        patch = generate_particles("gaussian_patch", 1500, 6, Domain(0.0, 0.0, 0.25), sigma=0.001)
        particles = joined(patch, generate_particles("uniform_random", 300, 7, sigma=0.001))
        tree = build_tree(particles, 3, UNIT)
        z, g, s = sorted_arrays(particles, tree)
        targets, at = tree, (tree, z)
        if external:
            probes = [Particle(x, y, 0.0, 1.0) for x, y in np.random.default_rng(8).random((600, 2))]
            targets = build_tree(probes, 3, UNIT)
            at = (targets, sorted_arrays(probes, targets)[0])
        vel, pairs = near_field(tree, z, g, s, kind, *at)
        expected, expected_pairs, sizes = canonical_near(tree, z, g, s, kind, *at)
        leaf_pairs = targets.counts[3][targets.sorted_leaf] * sizes
        assert (leaf_pairs >= _BLOCK).any() and (leaf_pairs < _BLOCK // 8).any()
        assert np.array_equal(vel, expected)
        assert pairs == expected_pairs

    @pytest.mark.parametrize("kind", list(KernelKind))
    def test_bitwise_targets_with_more_sources_than_a_chunk(self, kind):
        particles = generate_particles("uniform_random", 16000, 4, sigma=0.001)
        tree = build_tree(particles, 2, UNIT)
        z, g, s = sorted_arrays(particles, tree)
        probes = [Particle(x, y, 0.0, 1.0) for x, y in np.random.default_rng(5).random((30, 2))] + CORNERS
        targets = build_tree(probes, 2, UNIT)
        zt = sorted_arrays(probes, targets)[0]
        vel, pairs = near_field(tree, z, g, s, kind, targets, zt)
        expected, expected_pairs, sizes = canonical_near(tree, z, g, s, kind, targets, zt)
        assert sizes.max() > _BLOCK
        assert np.array_equal(vel, expected)
        assert pairs == expected_pairs


class TestEvaluate:
    def test_single_particle_sees_no_velocity(self):
        vel, stats = evaluate([Particle(0.4, 0.6, 2.0, 0.01)], FmmConfig(3, 6), UNIT)
        assert np.all(vel == 0.0)
        assert stats.n == 1

    def test_two_far_particles_high_order(self):
        particles = [Particle(0.1, 0.1, 1.0, 0.001), Particle(0.9, 0.85, -0.5, 0.001)]
        vel, _ = evaluate(particles, FmmConfig(3, 25), UNIT)
        direct = velocity_direct(positions_of(particles), particles, POINT)
        assert np.abs(vel - direct).max() <= 1e-12 * np.abs(direct).max()

    @pytest.mark.parametrize("levels", [2, 3, 4])
    def test_high_order_limit_matches_direct(self, levels):
        particles = generate_particles("uniform_random", 600, 14)
        vel, _ = evaluate(particles, FmmConfig(levels, 30), UNIT)
        direct = velocity_direct(positions_of(particles), particles, POINT)
        rep = compare(vel, direct, positions_of(particles))
        assert rep.max_rel <= 1e-10

    def test_deterministic_bitwise(self):
        particles = generate_particles("two_patches", 500, 8)
        v1, _ = evaluate(particles, FmmConfig(3, 9), UNIT)
        v2, _ = evaluate(particles, FmmConfig(3, 9), UNIT)
        assert np.array_equal(v1, v2)

    @pytest.mark.parametrize("kind", list(KernelKind))
    def test_concurrent_calls_each_give_the_single_threaded_result(self, kind):
        particles = generate_particles("uniform_random", 4096, 7, sigma=0.001)
        config = FmmConfig(6, 40, kind)
        expected, _ = evaluate(particles, config, UNIT)
        results = [None, None]
        start = threading.Barrier(2)

        def call(i):
            start.wait()
            results[i] = evaluate(particles, config, UNIT)[0]

        assert joined_within([threading.Thread(target=call, args=(i,)) for i in range(2)])
        for vel in results:
            assert vel.tobytes() == expected.tobytes()

    def test_gaussian_near_field_regularizes(self):
        # two particles sharing a leaf: the blob kernel must damp their
        # interaction by exactly the regularization factor
        a = Particle(0.50, 0.50, 1.0, 0.004)
        b = Particle(0.505, 0.50, 1.0, 0.004)
        config = FmmConfig(3, 8, KernelKind.GAUSSIAN_BLOB)
        vel, stats = evaluate([a, b], config, UNIT)
        direct = velocity_direct(positions_of([a, b]), [a, b], KernelKind.GAUSSIAN_BLOB)
        assert stats.sigma_guard_ok
        np.testing.assert_allclose(vel, direct, rtol=1e-12, atol=1e-15)

    def test_sigma_guard_warns(self):
        particles = generate_particles("uniform_random", 50, 1, UNIT, sigma=0.2)
        with pytest.warns(UserWarning, match="core radius"):
            _, stats = evaluate(particles, FmmConfig(3, 4, KernelKind.GAUSSIAN_BLOB), UNIT)
        assert not stats.sigma_guard_ok

    def test_stats_counters_and_timings(self):
        particles = generate_particles("uniform_random", 512, 4)
        vel, stats = evaluate(particles, FmmConfig(3, 6), UNIT)
        assert stats.m2l_count <= 27 * 4**3
        occupancy = np.bincount(build_tree(particles, 3, UNIT).leaf_index, minlength=64)
        assert stats.near_pair_count <= 9 * 512 * occupancy.max()
        phase_sum = (
            stats.t_build + stats.t_upward + stats.t_m2l + stats.t_downward + stats.t_eval + stats.t_near
        )
        assert stats.t_total >= 0.95 * phase_sum
        assert len(vel) == 512

    @pytest.mark.parametrize("sampled", [True, False])
    def test_each_run_completes_a_new_record_from_the_first_stages(self, sampled):
        particles = generate_particles("gaussian_patch", 600, 5)
        targets = np.stack((particles.x, particles.y), axis=1)[::7] if sampled else None
        work = engine._tree_work(particles, 4, POINT, UNIT, targets, 20)
        first = work.stats
        recorded = dataclasses.astuple(first)
        assert (first.order, first.t_m2l, first.t_downward, first.t_eval) == (20, 0.0, 0.0, 0.0)
        assert first.t_total == first.t_build + first.t_near + first.t_upward
        counted = ("n", "levels", "m2l_count", "near_pair_count", "sigma_guard_ok")
        for order in (20, 4):
            _, stats = engine._order_run(work, order)
            want = evaluate(particles, FmmConfig(4, order), UNIT)[1]
            assert stats.order == order
            assert [getattr(stats, f) for f in counted] == [getattr(want, f) for f in counted]
            assert (stats.t_build, stats.t_near) == (first.t_build, first.t_near)
            assert stats.t_upward >= first.t_upward
            assert stats.t_total >= first.t_total
        assert dataclasses.astuple(work.stats) == recorded
        with pytest.raises(dataclasses.FrozenInstanceError):
            stats.t_total = 0.0

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError):
            evaluate([], FmmConfig(3, 4), UNIT)

    @pytest.mark.parametrize(
        "field, value, kind, domain",
        [
            ("gamma", math.nan, POINT, UNIT),
            ("sigma", 0.0, KernelKind.GAUSSIAN_BLOB, UNIT),
            ("sigma", -0.01, POINT, UNIT),
            ("x", math.inf, POINT, None),
        ],
    )
    def test_rejects_bad_particle_naming_its_index(self, field, value, kind, domain):
        particles = particle_list(generate_particles("uniform_random", 201, 6))
        particles[7] = dataclasses.replace(particles[7], **{field: value})
        with pytest.raises(ValueError, match="particle 7:"):
            evaluate(particles, FmmConfig(3, 6, kind), domain)


def field_probe_shape():
    """perfbench field_probe's inputs: 4096 uniform sources, depth 6, order 40
    and a 128 x 128 grid of cell-centred targets, where M2L runs pooled."""
    axis = (np.arange(128) + 0.5) / 128
    targets = np.stack([a.ravel() for a in np.meshgrid(axis, axis)], axis=1)
    return targets, generate_particles("uniform_random", 4096, 1), FmmConfig(6, 40)


class TestNearFieldOverlap:
    """A run whose M2L pass uses the chunk pool computes its near field there."""

    @pytest.fixture
    def pool(self, monkeypatch):
        # one chunk thread on any machine, as on two cores
        with ThreadPoolExecutor(1) as pool:
            monkeypatch.setattr(engine, "_chunk_pool", lambda: (pool, 1))
            yield pool

    @staticmethod
    def near_threads(monkeypatch):
        """Patch ``engine.near_field`` to record the thread of every call."""
        threads, near = [], engine.near_field

        def recorded(*args):
            threads.append(threading.get_ident())
            return near(*args)

        monkeypatch.setattr(engine, "near_field", recorded)
        return threads

    def test_the_overlap_rule(self):
        targets, particles, config = field_probe_shape()
        work = engine._tree_work(particles, config.levels, config.kernel, UNIT, targets, config.order)
        pairs = engine._near_pairs(work.tree, work.at)[1]
        assert engine._pooled(work.live, config.order) and engine._overlaps(work.live, config.order, pairs)
        # one target: a handful of live cells, far from two full chunks
        one = engine._live_rows(build_tree([particle_list(particles)[0]], 6, UNIT))
        assert not engine._pooled(one, config.order) and not engine._overlaps(one, config.order, 0)
        # a pooled M2L pass with too few multiply-adds per near-field pair
        assert not engine._overlaps(work.live, config.order, 10**8)

    def test_pooled_and_inline_give_the_same_bits(self, monkeypatch):
        targets, particles, config = field_probe_shape()
        threads = self.near_threads(monkeypatch)
        with monkeypatch.context() as inline:
            inline.setattr(engine, "_chunk_pool", lambda: (None, 0))
            expected = evaluate_at(targets, particles, config, UNIT)
        with ThreadPoolExecutor(1) as pool:
            monkeypatch.setattr(engine, "_chunk_pool", lambda: (pool, 1))
            pooled = evaluate_at(targets, particles, config, UNIT)
        assert threads[0] == threading.get_ident() != threads[1]
        assert pooled.tobytes() == expected.tobytes()

    def test_the_near_field_runs_off_the_callers_thread(self, pool, monkeypatch):
        targets, particles, config = field_probe_shape()
        threads = self.near_threads(monkeypatch)
        evaluate_at(targets, particles, config, UNIT)
        assert len(threads) == 1 and threads[0] != threading.get_ident()

    @pytest.mark.parametrize("n, levels, p", [(600, 4, 20), (4096, 5, 8)])
    def test_small_or_low_order_runs_keep_their_near_field_inline(self, pool, monkeypatch, n, levels, p):
        # (600, 4, 20): M2L runs on the caller alone; (4096, 5, 8): on the
        # pool, with 20 multiply-adds per near-field pair
        threads = self.near_threads(monkeypatch)
        work = engine._tree_work(generate_particles("uniform_random", n, 2), levels, POINT, UNIT, None, p, overlap=True)
        assert engine._pooled(work.live, p) == (n == 4096)
        assert threads == [threading.get_ident()]

    def test_a_first_stage_without_overlap_keeps_its_near_field_inline(self, pool, monkeypatch):
        # a sweep's first stage serves several orders, so it never asks for
        # the overlap, even where its pass at the largest order is pooled
        targets, particles, config = field_probe_shape()
        threads = self.near_threads(monkeypatch)
        work = engine._tree_work(particles, config.levels, config.kernel, UNIT, targets, config.order)
        assert engine._overlaps(work.live, config.order, engine._near_pairs(work.tree, work.at)[1])
        assert threads == [threading.get_ident()] and work.stats.t_near > 0.0

    def test_an_error_in_the_pooled_near_field_reaches_the_caller(self, pool, monkeypatch):
        targets, particles, config = field_probe_shape()
        expected = evaluate_at(targets, particles, config, UNIT)

        class NearFieldError(Exception):
            pass

        def failing(*args):
            raise NearFieldError("near field failed")

        with monkeypatch.context() as patched:
            patched.setattr(engine, "near_field", failing)
            with pytest.raises(NearFieldError, match="near field failed"):
                evaluate_at(targets, particles, config, UNIT)
        assert evaluate_at(targets, particles, config, UNIT).tobytes() == expected.tobytes()

    def test_shut_down_pool_runs_the_near_field_inline(self, monkeypatch):
        # submit raises RuntimeError, as it does once the interpreter is exiting
        targets, particles, config = field_probe_shape()
        expected = evaluate_at(targets, particles, config, UNIT)
        pool = ThreadPoolExecutor(1)
        pool.shutdown()
        monkeypatch.setattr(engine, "_chunk_pool", lambda: (pool, 1))
        threads = self.near_threads(monkeypatch)
        assert evaluate_at(targets, particles, config, UNIT).tobytes() == expected.tobytes()
        assert threads == [threading.get_ident()]

    def test_concurrent_overlapped_calls_on_more_threads_than_cores(self, monkeypatch):
        # three callers share four pool threads with a short switch interval:
        # a near field added to the wrong call, or lost, would change the bits
        axis = (np.arange(64) + 0.5) / 64
        targets = np.stack([a.ravel() for a in np.meshgrid(axis, axis)], axis=1)
        particles = generate_particles("uniform_random", 2048, 6)
        configs = [FmmConfig(5, p) for p in (20, 24, 30)]
        expected = [evaluate_at(targets, particles, config, UNIT) for config in configs]
        results = [None] * len(configs)
        threads = self.near_threads(monkeypatch)
        interval = sys.getswitchinterval()
        with ThreadPoolExecutor(4) as pool:
            monkeypatch.setattr(engine, "_chunk_pool", lambda: (pool, 4))
            sys.setswitchinterval(1e-6)
            try:
                def call(i):
                    results[i] = evaluate_at(targets, particles, configs[i], UNIT)

                assert joined_within([threading.Thread(target=call, args=(i,)) for i in range(len(configs))])
            finally:
                sys.setswitchinterval(interval)
        assert len(threads) == len(configs) and threading.get_ident() not in threads
        for got, want in zip(results, expected):
            assert got.tobytes() == want.tobytes()

    def test_a_pooled_runs_record_counts_its_near_field(self, pool):
        targets, particles, config = field_probe_shape()
        t0 = time.perf_counter()
        work = engine._tree_work(particles, config.levels, config.kernel, UNIT, targets, config.order, overlap=True)
        # the first stage handed the near field on and recorded none of its time
        assert work.stats.t_near == 0.0
        assert work.stats.t_total == work.stats.t_build + work.stats.t_upward
        _, stats = engine._order_run(work, config.order)
        wall = time.perf_counter() - t0
        assert stats.t_near > 0.0
        # t_total is the elapsed time: the caller's phases, its wait for the
        # near field included, and no more than the call took
        caller = (stats.t_build, stats.t_upward, stats.t_m2l, stats.t_downward, stats.t_eval)
        assert sum(caller) <= stats.t_total <= wall

    @pytest.mark.parametrize("distribution, n, levels", [
        ("uniform_random", 50, 2), ("gaussian_patch", 300, 3), ("two_patches", 2000, 4),
        ("uniform_random", 4096, 6), ("gaussian_patch", 20000, 7),
    ])
    def test_counters_equal_the_enumerations(self, distribution, n, levels):
        # the enumerations the counters replaced: every stencil row's source,
        # and every target leaf's neighbourhood
        tree = build_tree(generate_particles(distribution, n, 3), levels, UNIT)
        occupied = np.concatenate([*tree.counts[2:], [0]]) > 0
        m2l = sum(int(np.count_nonzero(occupied[src])) for _, src in engine._pass_stencil(levels))
        assert engine._m2l_count(tree) == m2l
        at = build_tree(generate_particles("uniform_random", 300, 4), levels, UNIT)
        assert engine._near_pairs(tree, at) == (engine._neighbourhoods(tree, tree)[-1],
                                                engine._neighbourhoods(tree, at)[-1])
        assert not engine._in_degree(levels).flags.writeable


class TestBoundBudgets:
    def test_full_run_has_no_violations(self):
        particles = generate_particles("uniform_random", 500, 1)
        p = 6
        vel, _ = evaluate(particles, FmmConfig(3, p), UNIT)
        direct = velocity_direct(positions_of(particles), particles, POINT)
        budgets = bound_budgets(build_tree(particles, 3, UNIT), to_arrays(particles)[2], p)
        rep = compare(vel, direct, positions_of(particles), budgets)
        assert bound_check(rep) == []

    @pytest.mark.parametrize("levels", [2, 3, 4, 5])
    def test_two_vortices_in_each_others_interaction_list(self, levels):
        # the M2L error grows as 1 / h: a budget without a length scale
        # falls below it on fine trees
        h = 1.0 / 2**levels
        particles = [Particle(0.0, 0.0, 1.0, 0.001), Particle(0.0, 2 * h, 1.0, 0.001)]
        p = 2
        vel, _ = evaluate(particles, FmmConfig(levels, p), UNIT)
        direct = velocity_direct(positions_of(particles), particles, POINT)
        budgets = bound_budgets(build_tree(particles, levels, UNIT), to_arrays(particles)[2], p)
        assert np.all(np.hypot(*(vel - direct).T) <= budgets / TWO_PI)

    @pytest.mark.parametrize("domain", [UNIT, Domain(-2.0, -1.0, 3.0), Domain(-1.0, 0.5, 2.5)])
    def test_cached_factors_equal_an_uncached_recomputation(self, domain):
        particles = generate_particles("uniform_random", 2000, 7, domain)
        engine._budget_factors.cache_clear()
        for levels in (2, 4, 6):
            tree = build_tree(particles, levels, domain)
            for order in (1, 6, 30):
                first = bound_budgets(tree, particles.gamma, order)
                hits = engine._budget_factors.cache_info().hits
                assert bound_budgets(tree, particles.gamma, order).tobytes() == first.tobytes()
                assert engine._budget_factors.cache_info().hits == hits + levels - 1
                assert first.tobytes() == per_offset_budgets(tree, particles.gamma, order).tobytes()
                for level in range(2, levels + 1):
                    key = (tree.cell_side(level), engine.SQRT2 * tree.half_width(level), order)
                    cached, uncached = engine._budget_factors(*key), engine._budget_factors.__wrapped__(*key)
                    assert [f.tobytes() for f in cached] == [f.tobytes() for f in uncached]
                    assert not any(f.flags.writeable for f in cached)

    @pytest.mark.parametrize("domain", [UNIT, Domain(-2.0, -1.0, 3.0)])
    @pytest.mark.parametrize("levels, order", [(2, 4), (5, 7), (6, 20)])
    def test_bitwise_equal_to_per_offset_loop(self, domain, levels, order):
        particles = generate_particles("uniform_random", 3000, 4, domain)
        tree = build_tree(particles, levels, domain)
        gamma = to_arrays(particles)[2]
        got = bound_budgets(tree, gamma, order)
        assert got.tobytes() == per_offset_budgets(tree, gamma, order).tobytes()

    @pytest.mark.parametrize("levels", [2, 3])
    def test_one_live_column_sums_its_offsets_in_turn(self, levels):
        # one target: one live cell per level, so at depth 2 one column of
        # terms, which numpy's reduction would sum pairwise
        particles = generate_particles("uniform_random", 800, 6)
        tree = build_tree(particles, levels, UNIT)
        full = bound_budgets(tree, particles.gamma, 9)
        for i in (0, 377):
            at = build_tree([particle_list(particles)[i]], levels, UNIT)
            gathered = engine._budget_gather(tree, particles.gamma[tree.order], engine._live_rows(at))
            assert len(gathered[2]) == levels - 1
            assert engine._budgets_at(tree, gathered, 9, at).tobytes() == full[i:i + 1].tobytes()

    def test_budgets_positive_and_in_original_order(self):
        particles = generate_particles("uniform_random", 100, 5)
        tree = build_tree(particles, 3, UNIT)
        budgets = bound_budgets(tree, to_arrays(particles)[2], 4)
        assert budgets.shape == (100,)
        assert np.all(budgets > 0)


class TestDomainScale:
    @pytest.mark.parametrize("levels", [3, 5])
    @pytest.mark.parametrize("order", [8, 40, 60])
    @pytest.mark.parametrize("side", [1e-150, 1e-6, 1e-3, 1.0, 1e3, 1e6, 1e150])
    def test_finite_and_matches_direct_at_any_scale(self, side, order, levels):
        domain = Domain(-0.3 * side, 0.6 * side, side)
        particles = generate_particles("uniform_random", 1000, 3, domain, sigma=1e-4 * side)
        vel, _ = evaluate(particles, FmmConfig(levels, order), domain)
        assert np.isfinite(vel).all()
        if order >= 40:
            direct = velocity_direct(positions_of(particles), particles, POINT)
            assert compare(vel, direct, positions_of(particles)).max_rel <= 1e-12

    @pytest.mark.parametrize("side", [1e-200, 1e-160, 1e160, 1e300])
    def test_rejects_a_side_float64_cannot_square(self, side):
        # these returned non-finite velocities (1e-160) or about zero (the squared
        # separations underflowed or overflowed)
        domain = Domain(-0.3 * side, 0.6 * side, side)
        particles = generate_particles("uniform_random", 200, 3, domain, sigma=1e-4 * side)
        positions = positions_of(particles)
        with pytest.raises(ValueError, match=re.escape(f"domain side {side:g} is outside")):
            evaluate(particles, FmmConfig(3, 8), domain)
        with pytest.raises(ValueError, match=re.escape(f"domain side {side:g} is outside")):
            evaluate_at(positions[:5], particles, FmmConfig(3, 8), domain)
        with pytest.raises(ValueError, match="point span .* is outside"):
            velocity_direct(positions, particles, POINT)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
    def test_raises_rather_than_return_an_infinite_velocity(self):
        # in the window, but Gamma / (2 pi r^2) overflows
        particles = Particles(np.array([0.0, 1e-3]), np.array([0.0, 0.0]), np.array([1e308, 1.0]), np.full(2, 1e-4))
        with pytest.raises(ValueError, match="velocity at target 1 is not finite"):
            evaluate(particles, FmmConfig(2, 4), UNIT)
        with pytest.raises(ValueError, match="velocity at target 1 is not finite"):
            velocity_direct(positions_of(particles), particles, POINT)


class TestEvaluateAt:
    def test_grid_targets_match_direct(self):
        particles = generate_particles("uniform_random", 300, 17)
        gx, gy = np.meshgrid(np.linspace(0.05, 0.95, 7), np.linspace(0.05, 0.95, 7))
        targets = np.stack((gx.ravel(), gy.ravel()), axis=1)
        vel = evaluate_at(targets, particles, FmmConfig(3, 20), UNIT)
        direct = velocity_direct(targets, particles, POINT)
        assert np.abs(vel - direct).max() <= 1e-8 * np.abs(direct).max()

    def test_targets_on_particles_match_evaluate(self):
        # both paths run one pipeline, so the results agree bit for bit
        particles = generate_particles("uniform_random", 120, 3)
        for kind in KernelKind:
            config = FmmConfig(3, 12, kind)
            vel_particles, _ = evaluate(particles, config, UNIT)
            vel_targets = evaluate_at(positions_of(particles), particles, config, UNIT)
            assert np.array_equal(vel_targets, vel_particles), kind

    def test_one_blas_thread_subset_of_targets_gives_the_full_calls_rows(self):
        # M2L fills only the cells that hold a target, and the near and far
        # fields read each target on its own: a subset's rows are the full call's
        stdout = run_isolated("""
            import numpy as np
            from vortexfmm import engine
            from vortexfmm.kernels import KernelKind
            from vortexfmm.model import UNIT_DOMAIN, generate_particles
            axis = (np.arange(64) + 0.5) / 64
            grid = np.stack([a.ravel() for a in np.meshgrid(axis, axis)], axis=1)
            subsets = {"random": np.sort(np.random.default_rng(5).choice(len(grid), 100, replace=False)),
                       "lower_left": np.flatnonzero((grid < 0.25).all(axis=1)), "one": [2080]}
            for distribution in ("uniform_random", "gaussian_patch"):
                particles = generate_particles(distribution, 2000, 4, sigma=0.001)
                for kind in KernelKind:
                    for levels, p in ((3, 8), (5, 40), (6, 12)):
                        config = engine.FmmConfig(levels, p, kind)
                        full = engine.evaluate_at(grid, particles, config, UNIT_DOMAIN)
                        for name, subset in subsets.items():
                            got = engine.evaluate_at(grid[subset], particles, config, UNIT_DOMAIN)
                            if got.tobytes() != full[subset].tobytes():
                                print(distribution, kind, levels, p, name)
            print("done")
        """, OPENBLAS_NUM_THREADS="1")
        assert stdout == "done\n"

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_targets_as_velocity_direct_does(self, bad):
        # a NaN target was reported as outside the domain
        particles = generate_particles("uniform_random", 20, 3)
        with pytest.raises(ValueError, match="target 1 is not finite"):
            evaluate_at([(0.5, 0.5), (0.5, bad)], particles, FmmConfig(2, 4), UNIT)

    def test_rejects_out_of_domain_targets(self):
        particles = generate_particles("uniform_random", 20, 3)
        from vortexfmm.quadtree import OutOfDomainError

        with pytest.raises(OutOfDomainError):
            evaluate_at([(1.5, 0.5)], particles, FmmConfig(2, 4), UNIT)

    def test_sigma_guard_warns(self):
        particles = generate_particles("uniform_random", 50, 1, UNIT, sigma=0.2)
        config = FmmConfig(3, 4, KernelKind.GAUSSIAN_BLOB)
        with pytest.warns(UserWarning, match="core radius"):
            evaluate_at([(0.5, 0.5)], particles, config, UNIT)

    @pytest.mark.parametrize("kind", list(KernelKind))
    def test_no_targets_gives_empty_result(self, kind):
        particles = generate_particles("uniform_random", 50, 1)
        vel = evaluate_at(np.zeros((0, 2)), particles, FmmConfig(3, 5, kind), UNIT)
        assert vel.shape == (0, 2)

    @pytest.mark.parametrize("domain", [UNIT, None])
    def test_rejects_empty_particles(self, domain):
        with pytest.raises(ValueError, match="need at least one particle"):
            evaluate_at([(0.5, 0.5)], [], FmmConfig(2, 4), domain)


class TestFullBudgetRun:
    def test_n2000_within_per_target_budgets(self):
        particles = generate_particles("uniform_random", 2000, 5)
        p = 12
        vel, _ = evaluate(particles, FmmConfig(4, p), UNIT)
        direct = velocity_direct(positions_of(particles), particles, POINT)
        budgets = bound_budgets(build_tree(particles, 4, UNIT), to_arrays(particles)[2], p)
        rep = compare(vel, direct, positions_of(particles), budgets)
        assert bound_check(rep) == []


@st.composite
def geometries(draw):
    """Particles on a 256-step lattice of a random domain, with the edge cases
    the tree must bin: duplicates, one shared leaf and the max edges."""
    side = 10.0 ** draw(st.floats(-6.0, 6.0))
    domain = Domain(side * draw(st.floats(-50.0, 50.0)), side * draw(st.floats(-50.0, 50.0)), side)
    levels = draw(st.integers(2, 4))
    order = draw(st.integers(2, 8))
    kind = draw(st.sampled_from(list(KernelKind)))
    n = draw(st.integers(2, 40))
    if draw(st.booleans()):
        # every particle in one leaf (its max edges belong to the next leaf)
        width = 256 >> levels
        lx, ly = (width * draw(st.integers(0, 2**levels - 1)) for _ in range(2))
        ks = st.tuples(st.integers(lx, lx + width - 1), st.integers(ly, ly + width - 1))
    else:
        ks = st.tuples(st.integers(0, 256), st.integers(0, 256))
    lattice = draw(st.lists(ks, min_size=n, max_size=n))
    lattice += draw(st.lists(st.sampled_from(lattice), max_size=5))  # duplicates
    if draw(st.booleans()):
        lattice += [(256, 256), (256, 0), (0, 256)]  # max edges and corners
    gammas = draw(st.lists(st.floats(0.1, 1.0), min_size=len(lattice), max_size=len(lattice)))
    sigma = 1e-3 * side / 2**levels
    particles = [
        Particle(domain.xmin + side * (kx / 256), domain.ymin + side * (ky / 256), g, sigma)
        for (kx, ky), g in zip(lattice, gammas)
    ]
    return particles, domain, FmmConfig(levels, order, kind)


class TestGeometryProperties:
    @settings(max_examples=25, deadline=None)
    @given(case=geometries())
    def test_finite_and_within_budget(self, case):
        particles, domain, config = case
        vel, stats = evaluate(particles, config, domain)
        tree = build_tree(particles, config.levels, domain)
        assert stats.sigma_guard_ok
        assert np.isfinite(vel).all()
        direct = velocity_direct(positions_of(particles), particles, config.kernel)
        budgets = bound_budgets(tree, to_arrays(particles)[2], config.order)
        err = np.hypot(*(vel - direct).T)
        roundoff = 1e-12 * np.hypot(*direct.T).max()
        assert np.all(err <= budgets / TWO_PI + roundoff)

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import particle_list, positions_of, random_particles
from vortexfmm import kernels
from vortexfmm.kernels import _BLOCK, _ORACLE_BLOCK, ComplexVelocity, KernelKind, kernel_eval, velocity_direct
from vortexfmm.model import Particle, Particles, generate_particles, to_arrays

POINT = KernelKind.POINT_VORTEX
BLOB = KernelKind.GAUSSIAN_BLOB
TWO_PI = 2.0 * math.pi


def test_unit_vortex_calibration():
    vel = kernel_eval((1.0, 0.0), Particle(0.0, 0.0, TWO_PI, 0.1), POINT)
    assert vel == ComplexVelocity(0.0, 1.0)


def test_blob_is_zero_at_the_source():
    assert kernel_eval((0.0, 0.0), Particle(0.0, 0.0, 5.0, 0.1), BLOB) == (0.0, 0.0)
    assert kernel_eval((0.0, 0.0), Particle(0.0, 0.0, 5.0, 0.1), POINT) == (0.0, 0.0)


def test_blob_regularization_factor_at_unit_distance():
    vel = kernel_eval((1.0, 0.0), Particle(0.0, 0.0, TWO_PI, 1.0), BLOB)
    assert vel.u == 0.0
    assert vel.v == pytest.approx(1.0 - math.exp(-0.5), rel=1e-15)
    assert vel.v == pytest.approx(0.3934693402873666, rel=1e-12)


def test_antisymmetric_pair_cancels_at_midpoint():
    sources = [Particle(-1.0, 0.0, 1.0, 0.1), Particle(1.0, 0.0, 1.0, 0.1)]
    vel = velocity_direct([(0.0, 0.0)], sources, POINT)
    assert vel[0, 0] == 0.0 and vel[0, 1] == 0.0


def test_single_source_reduces_to_kernel_eval():
    src = Particle(0.2, 0.7, -0.8, 0.05)
    target = (0.9, 0.1)
    vel = velocity_direct([target], [src], POINT)
    assert tuple(vel[0]) == kernel_eval(target, src, POINT)
    vel_blob = velocity_direct([target], [src], BLOB)
    assert tuple(vel_blob[0]) == pytest.approx(kernel_eval(target, src, BLOB), rel=1e-15)


def test_matches_scalar_double_loop_bit_for_bit():
    # same accumulation order (ascending source index) -> 0 ulps difference
    particles = generate_particles("uniform_random", 100, 42)
    pos = positions_of(particles)
    vel = velocity_direct(pos, particles, POINT)
    for i, target in enumerate(pos):
        u = 0.0
        v = 0.0
        for src in particle_list(particles):
            du, dv = kernel_eval((target[0], target[1]), src, POINT)
            u += du
            v += dv
        assert vel[i, 0] == u and vel[i, 1] == v


def scalar_term(tx, ty, src, kind):
    """One pair's terms.  The point kernel is kernel_eval itself; the blob
    kernel is kernel_eval's arithmetic with numpy's exp, which the vectorised
    kernel uses (math.exp differs from it in the last bit for a few percent of
    arguments)."""
    if kind is POINT:
        return kernel_eval((tx, ty), src, POINT)
    dx, dy = tx - src.x, ty - src.y
    r2 = dx * dx + dy * dy
    c = 0.0 if r2 == 0.0 else src.gamma / (TWO_PI * r2)
    c = c * (1.0 - np.exp(-r2 / (2.0 * src.sigma * src.sigma)))
    return -c * dy, c * dx


def scalar_direct(targets, sources, kind):
    """Scalar double loop over ``scalar_term``, sources in ascending order."""
    out = np.zeros((len(targets), 2))
    for i, (tx, ty) in enumerate(targets.tolist()):
        u = v = 0.0
        for src in particle_list(sources):
            du, dv = scalar_term(tx, ty, src, kind)
            u += du
            v += dv
        out[i] = u, v
    return out


def oracle_input(m, n):
    sources = generate_particles("uniform_random", n, 9, sigma=0.05)
    targets = np.random.default_rng(m).uniform(size=(m, 2))
    targets[0] = sources.x[-1], sources.y[-1]  # a coincident pair
    return targets, sources


def block_shapes(b):
    """(targets, sources) around a block of ``b`` pairs: one target over a
    partial second block; two targets over a second block of three rows; a
    few targets over several blocks, the last partial (of one row at 200
    targets); the last sizes with two sources per block and the first with
    one; more targets than a block holds."""
    return [(1, b + 5), (2, b // 2 + 3), (7, 2 * (b // 7) + 5), (200, 3 * (b // 200) + 1),
            (b // 2, 5), (b // 2 + 1, 3), (b + 1, 2)]


# the oracle's own block, and the near field's, by which the oracle blocked
# before it had its own constant
@pytest.mark.parametrize("kind", [POINT, BLOB])
@pytest.mark.parametrize("m, n", block_shapes(_ORACLE_BLOCK) + block_shapes(_BLOCK) + [(37, 500)])
def test_blocked_oracle_matches_scalar_double_loop_bit_for_bit(kind, m, n):
    targets, sources = oracle_input(m, n)
    assert np.array_equal(velocity_direct(targets, sources, kind), scalar_direct(targets, sources, kind))


def test_pairwise_block_sum_fails_the_bit_for_bit_check(monkeypatch):
    # mutation check: with numpy's pairwise sum over a block's contiguous
    # source axis (one target) in place of the sequential one, the test above
    # would fail, so it does pin the order of the sum
    def pairwise(acc, rows):
        rows[0] += acc
        acc[:] = rows.sum(axis=0)

    targets, sources = oracle_input(1, _BLOCK + 5)
    monkeypatch.setattr(kernels, "_add_rows", pairwise)
    assert not np.array_equal(velocity_direct(targets, sources, POINT), scalar_direct(targets, sources, POINT))


def reference_terms(xt, yt, xs, ys, gamma, sigma, kind):
    """The pair terms with one temporary per step: the arithmetic whose bits
    the in-place kernel must keep."""
    dx = xt - xs
    dy = yt - ys
    r2 = dx * dx + dy * dy
    c = np.zeros_like(r2)
    np.divide(gamma, TWO_PI * r2, out=c, where=r2 > 0.0)
    if kind is BLOB:
        c = c * (1.0 - np.exp(-r2 / (2.0 * sigma * sigma)))
    return -c * dy, c * dx


@pytest.mark.parametrize("kind", [POINT, BLOB])
@pytest.mark.parametrize("broadcast", [False, True])
def test_pair_velocity_in_scratch_keeps_every_term(kind, broadcast):
    # 6 sources with both signs of circulation, cores near the pair distances,
    # and one target on a source (a coincident pair)
    rng = np.random.default_rng(3)
    sources = Particles(rng.uniform(size=6), rng.uniform(size=6), [1.5, -0.7, 2.0, -3.1, 0.4, -1e-3],
                        rng.uniform(0.05, 0.5, size=6))
    targets = rng.uniform(size=(5, 2))
    targets[2] = sources.x[4], sources.y[4]
    if broadcast:  # the oracle's (k, 1) x (M,) block
        xt, yt = targets.T
        xs, ys, gamma, sigma = (field[:, None] for field in (sources.x, sources.y, sources.gamma, sources.sigma))
    else:  # the near field's one entry per pair
        xt, yt = np.repeat(targets, 6, axis=0).T
        xs, ys, gamma, sigma = (np.tile(field, 5) for field in (sources.x, sources.y, sources.gamma, sources.sigma))
    scratch = kernels._pair_scratch(40)
    u, v = kernels._pair_velocity(xt, yt, xs, ys, gamma, sigma, kind, scratch)
    ref_u, ref_v = reference_terms(xt, yt, xs, ys, gamma, sigma, kind)
    assert u.shape == ref_u.shape and v.shape == ref_v.shape
    assert u.tobytes() == ref_u.tobytes() and v.tobytes() == ref_v.tobytes()
    assert np.shares_memory(u, scratch) and np.shares_memory(v, scratch)
    terms = [scalar_term(tx, ty, src, kind) for tx, ty in targets.tolist() for src in particle_list(sources)]
    if broadcast:
        terms = [terms[j * 6 + i] for i in range(6) for j in range(5)]  # (source, target) order
    assert [tuple(pair) for pair in zip(u.ravel().tolist(), v.ravel().tolist())] == terms
    coincident = 4 * 5 + 2 if broadcast else 2 * 6 + 4  # source 4 at target 2
    assert u.ravel()[coincident] == 0.0 and v.ravel()[coincident] == 0.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("column", [0, 1])
def test_non_finite_target_is_named(bad, column):
    # a NaN target used to return a finite u = 0 beside v = nan
    targets = np.full((4, 2), 0.5)
    targets[2, column] = bad
    with pytest.raises(ValueError, match="target 2 is not finite"):
        velocity_direct(targets, generate_particles("uniform_random", 10, 1), POINT)


def test_kernel_must_be_a_kernel_kind():
    # the string used to run the point kernel, bit for bit
    particles = generate_particles("uniform_random", 10, 1, sigma=0.3)
    with pytest.raises(TypeError, match="KernelKind"):
        velocity_direct(positions_of(particles), particles, "gaussian_blob")


@pytest.mark.parametrize("kind", [POINT, BLOB])
def test_no_targets_give_no_rows(kind):
    assert velocity_direct(np.zeros((0, 2)), generate_particles("uniform_random", 10, 1), kind).shape == (0, 2)


def test_self_targets_are_finite():
    particles = generate_particles("uniform_random", 64, 5)
    vel = velocity_direct(positions_of(particles), particles, POINT)
    assert np.isfinite(vel).all()


def test_relabeling_sources_changes_only_roundoff(rng):
    # Accumulation follows the given source order, so a permutation may move
    # the result by summation roundoff: bounded by n*eps times the sum of
    # term magnitudes (not by a couple of ulps, since circulations cancel).
    particles = random_particles(rng, 100)
    pos = positions_of(particles)
    v1 = velocity_direct(pos, particles, POINT)
    term_scale = np.zeros(len(pos))
    for src in particle_list(particles):
        d2 = (pos[:, 0] - src.x) ** 2 + (pos[:, 1] - src.y) ** 2
        with np.errstate(divide="ignore"):
            mag = np.where(d2 > 0, abs(src.gamma) / (TWO_PI * np.sqrt(d2)), 0.0)
        term_scale += mag
    bound = 2 * len(particles) * np.finfo(float).eps * term_scale
    for _ in range(5):
        perm = rng.permutation(len(particles))
        v2 = velocity_direct(pos, Particles(*(field[perm] for field in to_arrays(particles))), POINT)
        assert np.all(np.abs(v2 - v1).max(axis=1) <= bound)
    # identical ordering is exactly reproducible
    v3 = velocity_direct(pos, particles, POINT)
    assert np.array_equal(v1, v3)


def test_circulation_scaling_by_two_is_exact(rng):
    particles = random_particles(rng, 40)
    scaled = Particles(particles.x, particles.y, 2.0 * particles.gamma, particles.sigma)
    pos = positions_of(particles)
    assert np.array_equal(
        velocity_direct(pos, scaled, POINT), 2.0 * velocity_direct(pos, particles, POINT)
    )


@settings(max_examples=20)
@given(c=st.floats(min_value=-8.0, max_value=8.0).filter(lambda v: abs(v) > 1e-3))
def test_circulation_linearity(c):
    particles = generate_particles("uniform_random", 30, 9)
    scaled = Particles(particles.x, particles.y, c * particles.gamma, particles.sigma)
    pos = positions_of(particles)
    v1 = velocity_direct(pos, particles, POINT)
    v2 = velocity_direct(pos, scaled, POINT)
    np.testing.assert_allclose(v2, c * v1, rtol=1e-12, atol=1e-12 * abs(c) * np.abs(v1).max())


def test_blob_converges_to_point_far_from_core():
    sigma = 0.03
    src = Particle(0.0, 0.0, 1.7, sigma)
    target = (10.0 * sigma, 0.0)
    vp = kernel_eval(target, src, POINT)
    vb = kernel_eval(target, src, BLOB)
    # exp(-50) ~ 2e-22 underflows against 1.0, so the two agree to the bit
    assert abs(vb.u - vp.u) <= 1e-20 * abs(vp.u) + 1e-300
    assert abs(vb.v - vp.v) <= 1e-20 * abs(vp.v) + 1e-300

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import particle_list, positions_of, random_particles
from vortexfmm import kernels
from vortexfmm.kernels import _BLOCK, ComplexVelocity, KernelKind, kernel_eval, velocity_direct
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


def scalar_direct(targets, sources, kind):
    """Scalar double loop, sources in ascending order.  The point kernel is
    kernel_eval itself; the blob kernel is kernel_eval's arithmetic with
    numpy's exp, which velocity_direct uses (math.exp differs from it in the
    last bit for a few percent of arguments)."""
    out = np.zeros((len(targets), 2))
    for i, (tx, ty) in enumerate(targets.tolist()):
        u = v = 0.0
        for src in particle_list(sources):
            if kind is POINT:
                du, dv = kernel_eval((tx, ty), src, POINT)
            else:
                dx, dy = tx - src.x, ty - src.y
                r2 = dx * dx + dy * dy
                c = 0.0 if r2 == 0.0 else src.gamma / (TWO_PI * r2)
                c = c * (1.0 - np.exp(-r2 / (2.0 * src.sigma * src.sigma)))
                du, dv = -c * dy, c * dx
            u += du
            v += dv
        out[i] = u, v
    return out


def oracle_input(m, n):
    sources = generate_particles("uniform_random", n, 9, sigma=0.05)
    targets = np.random.default_rng(m).uniform(size=(m, 2))
    targets[0] = sources.x[-1], sources.y[-1]  # a coincident pair
    return targets, sources


# (targets, sources): one target over a partial second block; two targets over
# a second block of three rows; a few targets over several blocks, the last
# partial (of one row at 200 targets); the last sizes with two sources per
# block and the first with one; more targets than a block holds
@pytest.mark.parametrize("kind", [POINT, BLOB])
@pytest.mark.parametrize(
    "m, n",
    [
        (1, _BLOCK + 5),
        (2, _BLOCK // 2 + 3),
        (7, 2 * (_BLOCK // 7) + 5),
        (37, 500),
        (200, 3 * (_BLOCK // 200) + 1),
        (_BLOCK // 2, 5),
        (_BLOCK // 2 + 1, 3),
        (_BLOCK + 1, 2),
    ],
)
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

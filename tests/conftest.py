import numpy as np
import pytest

from vortexfmm.model import Particle, Particles, to_arrays


def positions_of(particles) -> np.ndarray:
    x, y, _, _ = to_arrays(particles)
    return np.stack((x, y), axis=1)


def particle_list(particles) -> list[Particle]:
    """One :class:`Particle` per entry, for scalar oracles and per-particle edits."""
    return [Particle(*row) for row in zip(*(field.tolist() for field in to_arrays(particles)))]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_particles(rng, n, box=(0.0, 1.0), sigma=0.01):
    lo, hi = box
    xy = rng.uniform(lo, hi, size=(n, 2))
    gamma = rng.uniform(-1.0, 1.0, n)
    return Particles(xy[:, 0], xy[:, 1], gamma, np.full(n, sigma))

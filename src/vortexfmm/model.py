"""Vortex particle domain types, distribution generators, and particle file I/O.

A particle is a regularized point vortex: a position, a signed circulation
``gamma``, and a Gaussian core radius ``sigma``; every layer takes a set of
them as one :class:`Particles`.  Generators produce seeded, fully
reproducible particle sets on a square domain; the three shipped
distributions are study stand-ins (uniform mixed-sign circulation, a single
all-positive Gaussian patch, and a pair of opposite-sign patches).
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

#: Identity of the pseudo-random generator behind ``generate_particles``.
#: Recorded in sweep output so results stay attributable to one stream.
GENERATOR_ID = "numpy-pcg64"

DISTRIBUTIONS = ("uniform_random", "gaussian_patch", "two_patches")

#: Core radius of generated particles unless a caller gives another.
DEFAULT_SIGMA = 0.005


class ParticleFileError(ValueError):
    """Raised for malformed particle CSV files (carries the offending line)."""


@dataclass(frozen=True, slots=True)
class Particle:
    """One regularized vortex: position, circulation, core radius."""

    x: float
    y: float
    gamma: float
    sigma: float


@dataclass(frozen=True, eq=False)
class Particles:
    """N regularized vortices as four float64 arrays, copied and checked once (1-D, one
    length, finite, ``sigma > 0``) and read-only, so no later write gets around the check."""

    x: np.ndarray
    y: np.ndarray
    gamma: np.ndarray
    sigma: np.ndarray

    def __post_init__(self) -> None:
        shapes = [np.shape(field) for field in (self.x, self.y, self.gamma, self.sigma)]
        if len(set(shapes)) != 1 or len(shapes[0]) != 1:
            raise ValueError(f"x, y, gamma and sigma must be 1-D arrays of one length, got shapes {shapes}")
        fields = np.array([self.x, self.y, self.gamma, self.sigma], dtype=np.float64)
        valid = np.isfinite(fields).all(axis=0) & (fields[3] > 0.0)
        if not valid.all():
            i = int(np.argmin(valid))
            bad = Particle(*fields[:, i].tolist())
            raise ValueError(f"particle {i}: need finite x, y, gamma and core radius sigma > 0, got {bad}")
        fields.setflags(write=False)
        for name, field in zip(("x", "y", "gamma", "sigma"), fields):
            object.__setattr__(self, name, field)

    def __len__(self) -> int:
        return len(self.x)

    @classmethod
    def of(cls, particles: Particles | Sequence[Particle]) -> Particles:
        """``particles`` itself, or a list of :class:`Particle` converted to arrays."""
        if isinstance(particles, cls):
            return particles
        rows = [(pt.x, pt.y, pt.gamma, pt.sigma) for pt in particles]
        return cls(*np.array(rows, dtype=np.float64).reshape(-1, 4).T)


@dataclass(frozen=True, slots=True)
class Domain:
    """Axis-aligned square ``[xmin, xmin+side] x [ymin, ymin+side]``."""

    xmin: float
    ymin: float
    side: float

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.xmin, self.ymin, self.side))):
            raise ValueError(f"domain xmin, ymin and side must be finite, got {self}")
        if not (self.side > 0.0):
            raise ValueError(f"domain side must be > 0, got {self.side}")

    @property
    def xmax(self) -> float:
        return self.xmin + self.side

    @property
    def ymax(self) -> float:
        return self.ymin + self.side

    @property
    def center(self) -> tuple[float, float]:
        return (self.xmin + 0.5 * self.side, self.ymin + 0.5 * self.side)

    def contains(self, x: float, y: float) -> bool:
        """Closed-square membership (max edges included; they clamp inward)."""
        return self.xmin <= x <= self.xmax and self.ymin <= y <= self.ymax


UNIT_DOMAIN = Domain(0.0, 0.0, 1.0)


def _check_integer(name: str, value) -> None:
    """``TypeError`` unless ``value`` is an integer; numpy integers pass, a bool does not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")


def _check_count(name: str, n: int) -> None:
    """``_check_integer``, then ``ValueError`` for ``n`` below 1."""
    _check_integer(name, n)
    if n < 1:
        raise ValueError(f"{name} must be >= 1, got {n}")


def generate_particles(
    distribution: str,
    n: int,
    seed: int,
    domain: Domain = UNIT_DOMAIN,
    sigma: float = DEFAULT_SIGMA,
) -> Particles:
    """Generate ``n`` seeded particles on ``domain``.

    Positions are uniform over the domain for every distribution; the stream
    layout (one (n, 2) position draw, then one circulation draw) is part of
    the reproducibility contract and must not change.

    Distributions
    -------------
    ``uniform_random``
        gamma uniform in [-1, 1] (mixed sign).
    ``gaussian_patch``
        gamma = exp(-r^2 / (2 s^2)) * side^2 / n with s = side / 8 and r the
        distance to the domain center; all circulations positive.
    ``two_patches``
        superposition of two such patches of opposite sign centered at
        (1/4, 1/2) and (3/4, 1/2) of the domain; net circulation near zero.
    """
    _check_count("particle count", n)
    if distribution not in DISTRIBUTIONS:
        raise ValueError(f"unknown distribution {distribution!r}, expected one of {DISTRIBUTIONS}")

    rng = np.random.default_rng(seed)
    pos = rng.uniform(size=(n, 2))
    x = domain.xmin + domain.side * pos[:, 0]
    y = domain.ymin + domain.side * pos[:, 1]

    s = domain.side / 8.0
    if distribution == "uniform_random":
        gamma = rng.uniform(-1.0, 1.0, n)
    elif distribution == "gaussian_patch":
        cx, cy = domain.center
        r2 = (x - cx) ** 2 + (y - cy) ** 2
        gamma = np.exp(-r2 / (2.0 * s * s)) * domain.side**2 / n
    else:  # two_patches
        cx1 = domain.xmin + 0.25 * domain.side
        cx2 = domain.xmin + 0.75 * domain.side
        cy = domain.ymin + 0.5 * domain.side
        r2a = (x - cx1) ** 2 + (y - cy) ** 2
        r2b = (x - cx2) ** 2 + (y - cy) ** 2
        gamma = (np.exp(-r2a / (2.0 * s * s)) - np.exp(-r2b / (2.0 * s * s))) * domain.side**2 / n

    return Particles(x, y, gamma, np.full(n, sigma))


def to_arrays(particles: Particles | Sequence[Particle]) -> tuple[np.ndarray, ...]:
    """The (x, y, gamma, sigma) read-only float64 arrays of a particle set."""
    p = Particles.of(particles)
    return p.x, p.y, p.gamma, p.sigma


def enclosing_domain(particles: Particles | Sequence[Particle]) -> Domain:
    """Smallest axis-aligned square containing every particle.

    Used when particles come from a file without an explicit domain.  Points
    on the max edges are valid (they clamp into the last cell row/column).
    Degenerate extents fall back to a unit side.
    """
    p = Particles.of(particles)
    xmin = float(p.x.min())
    ymin = float(p.y.min())
    side = float(max(p.x.max() - xmin, p.y.max() - ymin))
    if side <= 0.0:
        side = 1.0
    return Domain(xmin, ymin, side)


def write_particles(path, particles: Particles | Sequence[Particle]) -> None:
    """Write particles as CSV with header ``x,y,gamma,sigma``.

    Values carry 17 significant digits so a write/read round trip is exact.
    """
    p = Particles.of(particles)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["x", "y", "gamma", "sigma"])
        for row in zip(p.x.tolist(), p.y.tolist(), p.gamma.tolist(), p.sigma.tolist()):
            writer.writerow([format(v, ".17g") for v in row])


def read_particles(path) -> Particles:
    """Read a particle CSV written by :func:`write_particles`.

    Raises :class:`ParticleFileError` naming the 1-based line of the first
    malformed row, including non-finite values and core radii ``sigma <= 0``;
    a file with only the header yields an empty set.
    """
    rows: list[tuple[float, float, float, float]] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParticleFileError(f"{path}: empty file, expected header x,y,gamma,sigma") from None
        if [h.strip() for h in header] != ["x", "y", "gamma", "sigma"]:
            raise ParticleFileError(f"{path}: bad header {header!r}, expected x,y,gamma,sigma")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue  # tolerate blank trailing lines
            if len(row) != 4:
                raise ParticleFileError(f"{path}:{lineno}: expected 4 fields, got {len(row)}")
            try:
                x, y, gamma, sigma = (float(v) for v in row)
            except ValueError as exc:
                raise ParticleFileError(f"{path}:{lineno}: {exc}") from None
            if not all(math.isfinite(v) for v in (x, y, gamma, sigma)):
                raise ParticleFileError(f"{path}:{lineno}: non-finite value in {row!r}")
            if not sigma > 0.0:
                raise ParticleFileError(f"{path}:{lineno}: core radius sigma must be > 0, got {sigma}")
            rows.append((x, y, gamma, sigma))
    return Particles(*np.array(rows, dtype=np.float64).reshape(-1, 4).T)

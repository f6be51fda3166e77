"""Fast multipole evaluation of the velocity field of 2D vortex particles.

The package pairs an O(N) multipole engine with the O(N^2) direct summation
it approximates, plus the instrumentation to measure how far apart they are:
error reports, spatial error maps, theoretical bound budgets, and a sweep
harness over particle count, tree depth, and truncation order.
"""

from .engine import FmmConfig, FmmRunStats, evaluate, evaluate_at
from .errors import ErrorMap, ErrorReport, bound_check, compare, spatial_map
from .expansions import Expansion, truncation_bound
from .kernels import ComplexVelocity, KernelKind, kernel_eval, velocity_direct
from .model import (
    Domain,
    Particle,
    Particles,
    generate_particles,
    read_particles,
    write_particles,
)
from .quadtree import CellId, Tree, build_tree, cell_index, interaction_list, neighbors

__version__ = "0.1.0"

__all__ = [
    "CellId",
    "ComplexVelocity",
    "Domain",
    "ErrorMap",
    "ErrorReport",
    "Expansion",
    "FmmConfig",
    "FmmRunStats",
    "KernelKind",
    "Particle",
    "Particles",
    "Tree",
    "bound_check",
    "build_tree",
    "cell_index",
    "compare",
    "evaluate",
    "evaluate_at",
    "generate_particles",
    "interaction_list",
    "kernel_eval",
    "neighbors",
    "read_particles",
    "spatial_map",
    "truncation_bound",
    "velocity_direct",
    "write_particles",
]

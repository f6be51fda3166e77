"""Out-of-program tracing: wrap vortexfmm's public functions where callers look them up.

Every traced function is replaced, in each package module that holds a
reference to it, by a wrapper that records one span (name, start, end, parent
span, operation id) per call.  Spans stay in memory and are written out when
the run ends.  A layer's self time is its span's duration minus the
durations of its direct child spans; summed over all spans under a root this
equals the root's duration, so per-layer self times add up to the wall time
of the operations, and the root's own self time is the benchmark caller's
share.

Counts are taken at the same boundaries from arguments and return values:
near-field pairs, oracle pairs, translations, and leaf occupancy of every
tree built.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

import vortexfmm
from vortexfmm import engine, errors, expansions, harness, kernels, model, quadtree
from vortexfmm.kernels import KernelKind

#: Defining module -> public functions traced.  Private helpers are not
#: wrapped; their time is part of their caller's self time.
TRACED = {
    model: ("generate_particles", "to_arrays"),
    kernels: ("velocity_direct",),
    quadtree: ("build_tree",),
    expansions: ("m2l_matrix", "multipole_shift_matrix", "local_shift_matrix"),
    engine: (
        "evaluate",
        "evaluate_at",
        "upward_pass",
        "translate_pass",
        "downward_pass",
        "far_field",
        "near_field",
        "bound_budgets",
    ),
    errors: ("compare", "bound_check"),
    harness: ("run_case", "run_sweep"),
}
LAYERS = tuple(f"{mod.__name__.rsplit('.', 1)[-1]}.{name}" for mod, names in TRACED.items() for name in names)
ROOT = "bench.caller"

#: Computed near-field cost per ordered pair, counted from the kernel
#: arithmetic of engine._pair_velocity.  Flops: dx, dy, r2 (3), 2 pi r2, the
#: divide, -c, the two products and the two row sums (7); the blob factor adds
#: the exponent's scale and divide, exp, 1 - e and the product (5).  Bytes:
#: each pairwise float64 temporary numpy materialises is written once and read
#: once (16 B): 10 for the point kernel, 5 more for the blob factor, plus the
#: one-byte coincidence mask.
NEAR_FLOPS_PER_PAIR = {KernelKind.POINT_VORTEX: 12, KernelKind.GAUSSIAN_BLOB: 17}
NEAR_BYTES_PER_PAIR = {KernelKind.POINT_VORTEX: 10 * 16 + 2, KernelKind.GAUSSIAN_BLOB: 15 * 16 + 2}


class Tracer:
    """In-memory span recorder for the calls made while its wrappers are installed."""

    def __init__(self) -> None:
        self.names: list[str] = [ROOT, *LAYERS]
        self._name_id = {name: i for i, name in enumerate(self.names)}
        self.spans: list[tuple[int, float, float, int, int]] = []
        self._stack: list[int] = []
        self.op_id = 0
        self.counts: dict[str, float] = defaultdict(float)
        #: (max particles per leaf, empty-leaf fraction) of every tree built
        self.occupancy: list[tuple[int, float]] = []

    def _enter(self, name: str) -> tuple[int, float]:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append((self._name_id[name], 0.0, 0.0, parent, self.op_id))
        self._stack.append(index)
        return index, time.perf_counter()

    def _exit(self, index: int, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        name_id, _, _, parent, op = self.spans[index]
        self.spans[index] = (name_id, start, end, parent, op)

    @contextmanager
    def root(self):
        """Root span around one call the benchmark makes into the package."""
        index, start = self._enter(ROOT)
        try:
            yield
        finally:
            self._exit(index, start)

    def _wrap(self, name: str, fn):
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index, start = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(index, start)
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Patch every module-level reference to a traced function; restore on exit."""
        wrappers = {}
        for mod, names in TRACED.items():
            short = mod.__name__.rsplit(".", 1)[-1]
            for name in names:
                fn = getattr(mod, name)
                wrappers[id(fn)] = (fn, self._wrap(f"{short}.{name}", fn))
        patched = []
        for mod in (vortexfmm, *TRACED):
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    setattr(mod, attr, wrappers[id(value)][1])
                    patched.append((mod, attr, value))
        try:
            yield self
        finally:
            for mod, attr, value in patched:
                setattr(mod, attr, value)

    def self_times(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total self seconds, total inclusive seconds)."""
        child_time = np.zeros(len(self.spans))
        for name_id, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, list] = {name: [0, 0.0, 0.0] for name in self.names}
        for i, (name_id, start, end, _, _) in enumerate(self.spans):
            entry = out[self.names[name_id]]
            entry[0] += 1
            entry[1] += (end - start) - child_time[i]
            entry[2] += end - start
        return {name: tuple(v) for name, v in out.items()}

    def wall_s(self) -> float:
        """Total duration of the root spans: the wall time of the traced calls."""
        root = self._name_id[ROOT]
        return sum(end - start for name_id, start, end, _, _ in self.spans if name_id == root)

    def write(self, path) -> None:
        """Spans as CSV: name,start_s,end_s,parent,op (parent is a row index, -1 for roots)."""
        with open(path, "w") as fh:
            fh.write("name,start_s,end_s,parent,op\n")
            for name_id, start, end, parent, op in self.spans:
                fh.write(f"{self.names[name_id]},{start!r},{end!r},{parent},{op}\n")


def _count_near(tracer: Tracer, args, result) -> None:
    pairs = result[1]
    kind = args[4]
    tracer.counts["near_pairs"] += pairs
    tracer.counts["near_flops"] += pairs * NEAR_FLOPS_PER_PAIR[kind]
    tracer.counts["near_bytes"] += pairs * NEAR_BYTES_PER_PAIR[kind]


def _count_direct(tracer: Tracer, args, result) -> None:
    tracer.counts["direct_pairs"] += len(result) * len(args[1])


def _count_m2l(tracer: Tracer, args, result) -> None:
    tracer.counts["m2l"] += result[1]


def _record_tree(tracer: Tracer, args, result) -> None:
    leaves = result.counts[result.levels]
    tracer.occupancy.append((int(leaves.max()), float(np.mean(leaves == 0))))


_HOOKS = {
    "engine.near_field": _count_near,
    "kernels.velocity_direct": _count_direct,
    "engine.translate_pass": _count_m2l,
    "quadtree.build_tree": _record_tree,
}

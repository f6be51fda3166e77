"""Complex-variable multipole/local expansions for the 2D vortex kernel.

Everything works on the analytic function

    f(z) = sum_j Gamma_j / (z - z_j),

whose value converts to velocity through u - i v = f(z) / (2 pi i).  Working
with f directly (rather than a log potential) keeps every translation a pure
binomial convolution with no logarithmic term.

Representations, truncated at order p (p+1 coefficients):

    multipole about c:  f(z) = sum_{k=0..p} a_k / (z - c)^{k+1},
                        a_k = sum_j Gamma_j (z_j - c)^k
    local about c:      f(z) = sum_{m=0..p} L_m (z - c)^m

Both shift operators (multipole-to-multipole, local-to-local) are exact at
fixed order; only the particle-to-multipole truncation and the
multipole-to-local translation approximate, with the geometric tail bound
A rho^{p+1} / (1 - rho) exposed by :func:`truncation_bound`.

Coefficient sums accumulate in ascending index; no compensated summation.
The order is capped at ``ORDER_CAP`` = 60.  The functions here work in
physical units, so their center-offset powers stay inside double-precision
range only at offsets of order one; the engine scales its coefficients by
the cell side (see :mod:`vortexfmm.engine`), so there the cap does not
depend on the domain's scale.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

TWO_PI = 2.0 * math.pi

#: Largest supported truncation order.
ORDER_CAP = 60


@functools.lru_cache(maxsize=None)
def _binomials(nmax: int) -> np.ndarray:
    """Pascal table C[n, k] for n, k <= nmax (float64, correctly rounded)."""
    table = np.zeros((nmax + 1, nmax + 1))
    for n in range(nmax + 1):
        for k in range(n + 1):
            table[n, k] = float(math.comb(n, k))
    table.setflags(write=False)
    return table


def _check_order(p: int) -> None:
    if p < 0:
        raise ValueError(f"expansion order must be >= 0, got {p}")
    if p > ORDER_CAP:
        raise ValueError(f"expansion order {p} exceeds cap {ORDER_CAP}")


@dataclass(frozen=True)
class Expansion:
    """Truncated coefficient sequence tagged with its kind and center."""

    kind: str  # "multipole" | "local"
    center: complex
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if self.kind not in ("multipole", "local"):
            raise ValueError(f"unknown expansion kind {self.kind!r}")
        coeffs = np.asarray(self.coeffs, dtype=np.complex128)
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise ValueError("coefficients must be a nonempty 1-D sequence")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1


class BoundParams(NamedTuple):
    """Inputs of the geometric tail bound."""

    amplitude: float  # sum of |Gamma_j| inside the source disk
    rho: float  # (source disk radius) / (evaluation distance), in (0, 1)


def p2m(gamma, z, center: complex, p: int) -> Expansion:
    """Multipole coefficients a_k = sum_j gamma_j (z_j - center)^k, k = 0..p."""
    _check_order(p)
    gamma = np.asarray(gamma, dtype=np.float64)
    z = np.asarray(z, dtype=np.complex128)
    coeffs = np.zeros(p + 1, dtype=np.complex128)
    if gamma.size:
        term = gamma.astype(np.complex128)
        delta = z - center
        coeffs[0] = term.sum()
        for k in range(1, p + 1):
            term = term * delta
            coeffs[k] = term.sum()
    return Expansion("multipole", center, coeffs)


# ---------------------------------------------------------------------------
# Translation matrices.  The scalar operators below are thin wrappers; the
# engine applies the same matrices to whole levels at once.
# ---------------------------------------------------------------------------


def _powers(base: complex, count: int) -> np.ndarray:
    """[1, base, base^2, ...] of length ``count`` (cumulative products)."""
    out = np.empty(count, dtype=np.complex128)
    out[0] = 1.0
    for i in range(1, count):
        out[i] = out[i - 1] * base
    return out


def multipole_shift_matrix(d: complex, p_to: int, p_from: int) -> np.ndarray:
    """Matrix S with b = S @ a shifting a multipole by center offset ``d``.

    S[m, k] = C(m, k) d^{m-k} for k <= m, where ``d`` is the original center
    minus the new center.
    """
    B = _binomials(max(p_to, p_from))
    mm, kk = np.indices((p_to + 1, p_from + 1))
    diff = mm - kk
    dp = _powers(d, p_to + 1)
    S = np.where(diff >= 0, B[mm, np.minimum(kk, mm)] * dp[np.maximum(diff, 0)], 0.0)
    return S.astype(np.complex128)


def m2l_matrix(t: complex, p_to: int, p_from: int) -> np.ndarray:
    """Matrix T with L = T @ a translating a multipole into a local expansion.

    T[m, k] = (-1)^m C(k+m, k) / t^{k+m+1}, with t the local center minus the
    multipole center; requires t != 0.
    """
    if t == 0:
        raise ValueError("coincident multipole and local centers")
    B = _binomials(p_to + p_from)
    mm, kk = np.indices((p_to + 1, p_from + 1))
    inv_pows = _powers(1.0 / t, p_to + p_from + 2)[1:]  # inv_pows[q] = t^-(q+1)
    sign = np.where(mm % 2 == 0, 1.0, -1.0)
    return (sign * B[mm + kk, kk] * inv_pows[mm + kk]).astype(np.complex128)


def local_shift_matrix(s: complex, p_to: int, p_from: int) -> np.ndarray:
    """Matrix R with L' = R @ L re-centering a local expansion by ``s = new - old``.

    R[n, m] = C(m, n) s^{m-n} for m >= n, the transpose of the multipole
    shift by ``s``; copied contiguous, since BLAS may round a transposed view
    differently.
    """
    return np.ascontiguousarray(multipole_shift_matrix(s, p_from, p_to).T)


def m2m(child: Expansion, new_center: complex, p: int) -> Expansion:
    """Re-center a multipole expansion; exact for orders up to p."""
    _check_order(p)
    if child.kind != "multipole":
        raise ValueError(f"m2m needs a multipole expansion, got {child.kind}")
    d = child.center - new_center
    S = multipole_shift_matrix(d, p, child.order)
    return Expansion("multipole", new_center, S @ child.coeffs)


def m2l(source: Expansion, local_center: complex, p: int) -> Expansion:
    """Convert a well-separated multipole into a local expansion about ``local_center``."""
    _check_order(p)
    if source.kind != "multipole":
        raise ValueError(f"m2l needs a multipole expansion, got {source.kind}")
    t = local_center - source.center
    T = m2l_matrix(t, p, source.order)
    return Expansion("local", local_center, T @ source.coeffs)


def l2l(parent_local: Expansion, new_center: complex, p: int) -> Expansion:
    """Re-center a local expansion; exact (degree-p polynomial re-centering)."""
    _check_order(p)
    if parent_local.kind != "local":
        raise ValueError(f"l2l needs a local expansion, got {parent_local.kind}")
    s = new_center - parent_local.center
    R = local_shift_matrix(s, p, parent_local.order)
    return Expansion("local", new_center, R @ parent_local.coeffs)


def eval_multipole(expansion: Expansion, z) -> complex | np.ndarray:
    """Evaluate sum_k a_k / (z - center)^{k+1} by Horner recurrence in 1/(z - center)."""
    if expansion.kind != "multipole":
        raise ValueError(f"expected a multipole expansion, got {expansion.kind}")
    z = np.asarray(z, dtype=np.complex128)
    if np.any(z == expansion.center):
        raise ValueError("multipole evaluation at its own center is singular")
    w = 1.0 / (z - expansion.center)
    coeffs = expansion.coeffs
    acc = np.full_like(w, coeffs[-1])
    for k in range(len(coeffs) - 2, -1, -1):
        acc = acc * w + coeffs[k]
    out = acc * w
    return complex(out) if out.ndim == 0 else out


def eval_local(expansion: Expansion, z) -> complex | np.ndarray:
    """Evaluate sum_m L_m (z - center)^m by Horner recurrence."""
    if expansion.kind != "local":
        raise ValueError(f"expected a local expansion, got {expansion.kind}")
    z = np.asarray(z, dtype=np.complex128)
    w = z - expansion.center
    coeffs = expansion.coeffs
    acc = np.full_like(w, coeffs[-1])
    for m in range(len(coeffs) - 2, -1, -1):
        acc = acc * w + coeffs[m]
    return complex(acc) if acc.ndim == 0 else acc


def f_to_velocity(f) -> np.ndarray:
    """Convert f-values to velocity components via u - i v = f / (2 pi i).

    Returns an array with a trailing axis of length 2 holding (u, v); the
    calibration is such that a single Gamma = 2 pi vortex at the origin gives
    (0, 1) at z = 1.
    """
    f = np.asarray(f, dtype=np.complex128)
    return np.stack((f.imag / TWO_PI, f.real / TWO_PI), axis=-1)


def truncation_bound(params: BoundParams, p: int) -> float:
    """Geometric tail bound A rho^{p+1} / (1 - rho) on the truncated |f| error."""
    _check_order(p)
    amplitude, rho = params
    if not (0.0 < rho < 1.0):
        raise ValueError(f"rho must be in (0, 1), got {rho}")
    if amplitude < 0.0:
        raise ValueError(f"amplitude must be >= 0, got {amplitude}")
    return amplitude * rho ** (p + 1) / (1.0 - rho)

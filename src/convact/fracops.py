"""Left/right Riemann-Liouville fractional integrals and derivatives.

Derivatives use the Grunwald-Letnikov (GL) sum on the uniform grid, which is
first-order accurate and reproduces the singular endpoint behaviour of the
Riemann-Liouville definition for sampled values (the node-0 / node-n values
are retained as-is; accuracy claims exclude the two nodes nearest a singular
endpoint). Integrals use product quadrature with the weakly singular kernel
integrated exactly against a piecewise-linear reconstruction of the samples,
so no node needs to be excluded. At order alpha = 1 the derivative collapses
to the two-point difference and the integral to running trapezoid. Every
operator takes its order as a float and checks it with `grid.frac_order`.
"""

from __future__ import annotations

import enum
import functools
import math

import numpy as np

from .grid import Signal, frac_order

__all__ = [
    "Side",
    "CompositionKind",
    "gl_weights",
    "frac_integral",
    "frac_deriv",
    "composition_residual",
]

# Residual norms skip this many nodes next to each singular endpoint.
SINGULAR_EXCLUSION = 2


class Side(enum.Enum):
    """Left operators integrate over (0, tau); right operators over (tau, t)."""

    LEFT = enum.auto()
    RIGHT = enum.auto()


def gl_weights(alpha, count: int) -> np.ndarray:
    """First `count` Grunwald-Letnikov weights w[j] = w[j-1] * (j - 1 - alpha) / j,
    w[0] = 1.

    The array is cached per (alpha, count) and read-only, so repeated calls
    share one array instead of rerunning the recurrence."""
    a = frac_order(alpha)
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    return _gl_weight_array(a, int(count))


@functools.lru_cache(maxsize=32)
def _gl_weight_array(a: float, count: int) -> np.ndarray:
    # The loop rounds w[j-1] * (j - 1 - a) before dividing by j; a vectorised
    # cumprod rounds differently and is not bitwise the same recurrence.
    w = np.empty(count)
    w[0] = 1.0
    for j in range(1, count):
        w[j] = w[j - 1] * (j - 1 - a) / j
    w.setflags(write=False)
    return w


def frac_deriv(side: Side, u: Signal, alpha) -> Signal:
    """Riemann-Liouville fractional derivative of order alpha by the GL sum.

    LEFT:  result[k] = h^-a * sum_{j=0..k}   w[j] u[k-j]
    RIGHT: result[k] = h^-a * sum_{j=0..n-k} w[j] u[k+j]

    For alpha = 1 these are the two-point differences approximating u' and
    -u' respectively.
    """
    a = frac_order(alpha)
    n = u.grid.n_steps
    w = gl_weights(a, n + 1)
    scale = u.grid.h ** (-a)
    if side is Side.LEFT:
        vals = np.convolve(u.values, w)[: n + 1]
    elif side is Side.RIGHT:
        vals = np.convolve(u.values[::-1], w)[: n + 1][::-1]
    else:
        raise ValueError(f"unknown side {side!r}")
    return Signal(u.grid, scale * vals)


@functools.lru_cache(maxsize=32)
def _product_weights(a: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Node weights (d2, b0) of the product rule on n steps, scaled by
    h^a / Gamma(a + 2): d2[k-i-1] on u_i at node k for 0 < i < k, and b0[k]
    on u_0; the weight on u_k itself is 1. They depend on (a, n) alone, so
    they are cached and read-only, as the GL weights are."""
    pow2 = np.arange(n + 2, dtype=float) ** (a + 1.0)
    d2 = pow2[2:] - 2.0 * pow2[1:-1] + pow2[:-2]  # second difference of m^(a+1)
    k = np.arange(n + 1, dtype=float)
    b0 = np.zeros(n + 1)
    b0[1:] = (k[1:] - 1.0) ** (a + 1.0) - (k[1:] - 1.0 - a) * k[1:] ** a
    d2.setflags(write=False)
    b0.setflags(write=False)
    return d2, b0


def _left_integral_values(values: np.ndarray, h: float, a: float) -> np.ndarray:
    """Left RL integral by exact integration of the kernel against the
    piecewise-linear interpolant of `values`; result[0] = 0."""
    n = values.size - 1
    d2, b0 = _product_weights(a, n)
    scale = h**a / math.gamma(a + 2.0)
    out = np.zeros(n + 1)
    # Toeplitz part sum_{i=1..k-1} d2[k-i-1] u_i sits at offset k-2 of the
    # discrete convolution of the interior samples with d2.
    interior = np.convolve(values[1:], d2)
    for_k = np.zeros(n + 1)
    if n >= 2:
        for_k[2:] = interior[: n - 1]
    out[1:] = scale * (values[1:] + for_k[1:] + b0[1:] * values[0])
    return out


def frac_integral(side: Side, u: Signal, alpha) -> Signal:
    """Riemann-Liouville fractional integral of order alpha.

    LEFT:  result[k] ~= (1/Gamma(a)) int_0^{tau_k} u(xi) (tau_k - xi)^(a-1) dxi
    RIGHT: mirror image over (tau_k, t).

    Exact for piecewise-linear u; alpha = 1 reduces to running trapezoid.
    """
    a = frac_order(alpha)
    if side is Side.LEFT:
        vals = _left_integral_values(u.values, u.grid.h, a)
    elif side is Side.RIGHT:
        vals = _left_integral_values(u.values[::-1], u.grid.h, a)[::-1]
    else:
        raise ValueError(f"unknown side {side!r}")
    return Signal(u.grid, vals)


class CompositionKind(enum.Enum):
    """Composition identities of the fractional operators."""

    J_J = enum.auto()  # J^a J^b u = J^(a+b) u
    D_OF_J = enum.auto()  # D^a J^a u = u
    J_OF_D = enum.auto()  # J^a D^a u = u (the boundary correction is zero)


def interior_slice(n_steps: int) -> slice:
    """Nodes retained by residual norms: both singular ends excluded."""
    return slice(SINGULAR_EXCLUSION, n_steps + 1 - SINGULAR_EXCLUSION)


def composition_residual(
    kind: CompositionKind, side: Side, u: Signal, alpha, beta=None
) -> float:
    """Max interior mismatch of a composition identity, normalized by max |rhs|.

    For J_OF_D the rhs is u itself: the boundary correction of the
    reconstruction identity is proportional to the complementary-order
    integral at its own base point, an integral over an empty interval, so
    it is exactly zero on the grid.
    """
    a = frac_order(alpha)
    if kind is CompositionKind.J_J:
        if beta is None:
            raise ValueError("J_J composition needs both orders")
        b = frac_order(beta)
        if a + b > 1.0 + 1e-12:
            raise ValueError(f"J_J composition needs alpha + beta <= 1, got {a + b}")
        lhs = frac_integral(side, frac_integral(side, u, b), a)
        rhs = frac_integral(side, u, a + b)
    elif kind is CompositionKind.D_OF_J:
        lhs = frac_deriv(side, frac_integral(side, u, a), a)
        rhs = u
    elif kind is CompositionKind.J_OF_D:
        lhs = frac_integral(side, frac_deriv(side, u, a), a)
        rhs = u
    else:
        raise ValueError(f"unknown composition kind {kind!r}")
    keep = interior_slice(u.grid.n_steps)
    scale = np.max(np.abs(rhs.values[keep]))
    if scale == 0.0:
        scale = 1.0
    return float(np.max(np.abs(lhs.values[keep] - rhs.values[keep])) / scale)

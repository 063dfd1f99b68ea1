"""Uniform time grids, sampled signals, quadrature and the convolution pairing.

Everything downstream (fractional operators, action functionals, the global
stationarity solve) works on signals sampled on a uniform grid over (0, t).
The convolution of two signals is approximated with the trapezoid product
rule, which is second-order accurate, exactly linear and exactly symmetric.
A fractional order is a plain float in (0, 1]; `frac_order` checks it.
Every CSV is written by `csv_text`, or for a whole float table with
`CELL_FORMAT`: a float cell is `%.17g`, which reads back bitwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

CELL_FORMAT = "%.17g"

__all__ = [
    "CELL_FORMAT",
    "Grid",
    "Signal",
    "csv_text",
    "frac_order",
    "sample",
    "convolve",
    "convolve_at_end",
    "inner_product",
    "reflect",
]


@dataclass(frozen=True)
class Grid:
    """Uniform grid with nodes tau_k = k*h, k = 0..n_steps, over (0, t_final)."""

    t_final: float
    n_steps: int

    def __post_init__(self):
        if not (isinstance(self.n_steps, (int, np.integer)) and self.n_steps >= 2):
            raise ValueError(f"n_steps must be an integer >= 2, got {self.n_steps!r}")
        if not (math.isfinite(self.t_final) and self.t_final > 0.0):
            raise ValueError(f"t_final must be finite and > 0, got {self.t_final!r}")
        object.__setattr__(self, "n_steps", int(self.n_steps))
        object.__setattr__(self, "t_final", float(self.t_final))

    @property
    def h(self) -> float:
        """Step size t_final / n_steps."""
        return self.t_final / self.n_steps

    @property
    def n_nodes(self) -> int:
        return self.n_steps + 1

    def nodes(self) -> np.ndarray:
        """Node times tau_k = k*h as a fresh array."""
        return np.arange(self.n_steps + 1) * self.h

    def trapezoid_weights(self) -> np.ndarray:
        """Trapezoid-rule node weights: h inside, h/2 at both ends."""
        w = np.full(self.n_nodes, self.h)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w


def _as_readonly(values: np.ndarray) -> np.ndarray:
    out = np.array(values, dtype=float, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class Signal:
    """Real samples on a grid; one value per node, all finite.

    Signals are value types: the sample array is copied in and frozen, and
    every operation returns a fresh Signal. (No `__eq__` and no arithmetic:
    compare and combine `values`.)
    """

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = _as_readonly(np.asarray(self.values, dtype=float))
        if vals.shape != (self.grid.n_nodes,):
            raise ValueError(
                f"signal length {vals.shape} does not match grid node count "
                f"{self.grid.n_nodes}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("signal contains non-finite samples")
        object.__setattr__(self, "values", vals)

    def to_csv(self) -> str:
        """Two-column CSV `tau,value` at full double precision."""
        return csv_text("tau,value", zip(self.grid.nodes(), self.values))


def _cell(x) -> str:
    if x is None:
        return ""
    return CELL_FORMAT % x if isinstance(x, float) else str(x)


def csv_text(header: str, rows) -> str:
    """The header line, then one comma-joined line per row, newline-ended: a
    float cell (np.float64 too) as `CELL_FORMAT`, None empty, anything else by `str`."""
    lines = [header] + [",".join(map(_cell, row)) for row in rows]
    return "\n".join(lines) + "\n"


def frac_order(alpha) -> float:
    """A fractional order as a float, or ValueError unless it lies in (0, 1];
    alpha = 1 is the integer-order path."""
    a = float(alpha)
    if not (math.isfinite(a) and 0.0 < a <= 1.0):
        raise ValueError(f"fractional order must lie in (0, 1], got {a!r}")
    return a


def _require_same_grid(u: Signal, v: Signal):
    if u.grid != v.grid:
        raise ValueError(f"grid mismatch: {u.grid} vs {v.grid}")


def sample(f: Callable[[float], float], grid: Grid) -> Signal:
    """Sample a scalar function of time at every grid node."""
    taus = grid.nodes()
    vals = np.asarray([float(f(t)) for t in taus], dtype=float)
    if not np.all(np.isfinite(vals)):
        bad = taus[~np.isfinite(vals)][0]
        raise ValueError(f"function returned a non-finite value at tau = {bad}")
    return Signal(grid, vals)


def convolve(u: Signal, v: Signal) -> Signal:
    """Running convolution [u * v](tau_k) = int_0^{tau_k} u(xi) v(tau_k - xi) dxi.

    Trapezoid product quadrature on each prefix, in O(n) memory. Prefix k of
    the symmetrized sum conv(u, v) + conv(v, u) pairs every node twice, so the
    trapezoid rule takes it at half weight less its two end products
    u_0 v_k + v_0 u_k. Swapping u and v only swaps the operands of each +
    and x, which commute exactly in IEEE arithmetic, so the result is bitwise
    identical under interchange of u and v; result[0] = 0 always.
    """
    _require_same_grid(u, v)
    n = u.grid.n_steps
    a, b = u.values, v.values
    full = np.convolve(a, b)[: n + 1] + np.convolve(b, a)[: n + 1]
    out = 0.5 * u.grid.h * (full - (a[0] * b + b[0] * a))
    out[0] = 0.0
    return Signal(u.grid, out)


def convolve_at_end(u: Signal, v: Signal) -> float:
    """[u * v](t_final) only; same quadrature as `convolve`."""
    _require_same_grid(u, v)
    n = u.grid.n_steps
    h = u.grid.h
    a = u.values
    b = v.values[::-1]
    prod = a * b + a[::-1] * b[::-1]
    return 0.5 * h * (0.5 * (prod[0] + prod[-1]) + prod[1:-1].sum())


def inner_product(u: Signal, v: Signal) -> float:
    """Trapezoid approximation of int_0^t u(tau) v(tau) dtau."""
    _require_same_grid(u, v)
    h = u.grid.h
    p = u.values * v.values
    return h * (0.5 * (p[0] + p[-1]) + p[1:-1].sum())


def reflect(u: Signal) -> Signal:
    """Reflection about the midpoint: result[k] = u[n_steps - k]."""
    return Signal(u.grid, u.values[::-1])


"""Second-order finite-difference stencils shared by the residual and action
machinery: central differences in the interior, one-sided second-order
stencils at the endpoints."""

from __future__ import annotations

import numpy as np


def deriv1(values: np.ndarray, h: float) -> np.ndarray:
    """First derivative samples, O(h^2) everywhere."""
    v = np.asarray(values, dtype=float)
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    return out


def deriv2(values: np.ndarray, h: float) -> np.ndarray:
    """Second derivative samples, O(h^2) everywhere (needs >= 4 nodes)."""
    v = np.asarray(values, dtype=float)
    if v.shape[0] < 4:
        raise ValueError("second-derivative stencils need at least 4 nodes")
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / (h * h)
    out[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / (h * h)
    out[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / (h * h)
    return out


def deriv1_matrix(n_steps: int, h: float) -> np.ndarray:
    """Matrix form of `deriv1` acting on node-value vectors."""
    return deriv1(np.eye(n_steps + 1), h)

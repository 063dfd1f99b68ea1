"""Second-order finite-difference stencils shared by the residual and action
machinery: central differences in the interior, one-sided second-order
stencils at the endpoints."""

from __future__ import annotations

import numpy as np
from scipy import sparse


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


def deriv1_stencil(n_steps: int, h: float) -> sparse.csr_array:
    """Sparse matrix form of `deriv1` acting on node-value vectors."""
    n = n_steps
    k = np.arange(1, n)
    rows = np.concatenate([[0, 0, 0], k, k, [n, n, n]])
    cols = np.concatenate([[0, 1, 2], k - 1, k + 1, [n, n - 1, n - 2]])
    coef = np.concatenate(
        [[-3.0, 4.0, -1.0], np.full(n - 1, -1.0), np.ones(n - 1), [3.0, -4.0, 1.0]]
    )
    return sparse.csr_array((coef / (2.0 * h), (rows, cols)), shape=(n + 1, n + 1))

"""Dense references for the sparse and O(n)-memory kernels: the block-add
builder of the mixed action's K, r and the symmetric indefinite
(Bunch-Kaufman) solve with its LAPACK condition estimate, as the library ran
them before it went sparse; the trapezoid anti-diagonal, the GL derivative
matrix, the `deriv1` stencil and the dense Hamilton and Tonti products; and
the outer-product running convolution; the mixed action's value as a loop
over model-matrix entries, one `np.dot` per pairing; the dense K of a band.
The mixed references pack the values component by component (all nodes of
u_0, then u_1, ..., then J); `component_major_index` maps the library's
fold-ordered packing onto theirs, and `pack` packs (u, J) histories in the
library's order. Tests compare the library kernels against these on small
grids."""

import math

import numpy as np
from scipy.linalg import lapack, toeplitz

from convact._discrete import conv_end_linear, reflected_load_weights
from convact.fracops import Side, frac_deriv, gl_weights
from convact.grid import Signal, frac_order


def conv_end_matrix(grid):
    """Anti-diagonal pairing: x^T W y = [x * y](t_final) by trapezoid."""
    n = grid.n_steps
    mat = np.zeros((n + 1, n + 1))
    mat[np.arange(n + 1), n - np.arange(n + 1)] = grid.trapezoid_weights()
    return mat


def gl_derivative_matrix(n_steps, h, alpha):
    """Dense lower-triangular Toeplitz matrix of the LEFT GL derivative."""
    a = frac_order(alpha)
    w = gl_weights(a, n_steps + 1)
    scale = h ** (-a)
    return toeplitz(scale * w, np.zeros(n_steps + 1))


def dense_rate_pair_matrix(grid):
    n = grid.n_steps
    lmat = np.diff(np.eye(n + 1), axis=0)
    pi = np.zeros((n, n))
    pi[np.arange(n), n - 1 - np.arange(n)] = 1.0 / grid.h
    return lmat.T @ pi @ lmat


def dense_rate_value_pair_matrix(grid):
    n = grid.n_steps
    lmat = np.diff(np.eye(n + 1), axis=0)
    emat = np.zeros((n, n + 1))
    emat[np.arange(n), n - 1 - np.arange(n)] = 0.5
    emat[np.arange(n), n - np.arange(n)] = 0.5
    return lmat.T @ emat


def dense_gl_semi_pair_matrix(grid):
    """G^T R G with the dense GL derivative matrix and the all-node Riemann
    anti-diagonal R = h J."""
    gmat = gl_derivative_matrix(grid.n_steps, grid.h, 0.5)
    return gmat.T @ (grid.h * np.fliplr(np.eye(grid.n_nodes))) @ gmat


def entries_toarray(entries, n_nodes):
    """The dense matrix of a time operator's (row, col, value) triplets, whose
    positions must be distinct: the library adds them with one fancy-index
    add per term, which would drop a repeated position."""
    rows, cols, vals = entries
    assert len(set(zip(rows.tolist(), cols.tolist()))) == len(rows)
    out = np.zeros((n_nodes, n_nodes))
    out[rows, cols] = vals
    return out


def band_toarray(band):
    """The dense K of its band storage band[b + i - j, j] = K[i, j]."""
    width, n = band.shape
    K = np.zeros((n, n))
    col = np.broadcast_to(np.arange(n), (width, n))
    row = col + np.arange(width)[:, None] - width // 2
    inside = (row >= 0) & (row < n)
    K[row[inside], col[inside]] = band[inside]
    return K


def pack(layout, u, J):
    """The vector of (u, J) histories in the packing of `layout`, the
    inverse of `DofLayout.unpack`."""
    table = np.hstack([
        np.reshape(np.asarray(u, dtype=float), (layout.n_nodes, layout.n_dof)),
        np.reshape(np.asarray(J, dtype=float), (layout.n_nodes, layout.n_el)),
    ])
    return table[layout.nodes()].ravel()


def component_major_index(layout):
    """Entry p is the component-major index of the value the layout packs
    p-th: component c of node i sits at c * n_nodes + i."""
    comps = np.arange(layout.width)
    return (comps[None, :] * layout.n_nodes + layout.nodes()[:, None]).ravel()


def dense_mca_system(model, grid, scheme="reduced"):
    """K, r over all nodal values packed component by component, K as a
    dense block-by-block sum."""
    n1 = grid.n_nodes
    d, e = model.n_dof, model.n_el
    size = n1 * (d + e)
    u, j = slice(0, d), slice(d, d + e)
    p_rate = np.zeros((d + e, d + e))
    p_rate[u, u], p_rate[j, j] = 0.5 * model.M, -0.5 * model.A
    p_semi = np.zeros((d + e, d + e))
    p_semi[u, u], p_semi[j, u] = 0.5 * model.C, model.B.T
    if scheme == "reduced":
        semi = dense_rate_value_pair_matrix(grid)
    else:
        semi = dense_gl_semi_pair_matrix(grid)
    q = np.zeros((size, size))
    blocks = q.reshape(d + e, n1, d + e, n1)
    for coef, op in ((p_rate, dense_rate_pair_matrix(grid)), (p_semi, semi)):
        a, b = np.nonzero(coef)
        blocks[a, :, b, :] += coef[a, b, None, None] * op
    if scheme == "reduced":
        blocks[:, 0, :, -1] += p_semi
    r = np.zeros(size)
    f_hist = model.forcing_history(grid.nodes())
    r[: d * n1] -= reflected_load_weights(f_hist, grid.h).T.ravel()
    r[n1 - 1 : d * n1 : n1] -= model.j_hat_0
    return q + q.T, r


def loop_mca_value(model, u, J, grid, scheme="reduced"):
    """The mixed action's value term by term, skipping zero model entries,
    and the sum of the terms' magnitudes (the scale of its roundoff)."""
    h = grid.h
    d, e = model.n_dof, model.n_el

    def rate(x, y):
        return np.dot(np.diff(x), np.diff(y)[::-1]) / h

    if scheme == "direct":
        su = [frac_deriv(Side.LEFT, Signal(grid, u[:, a]), 0.5) for a in range(d)]
        sj = [frac_deriv(Side.LEFT, Signal(grid, J[:, i]), 0.5) for i in range(e)]

        def semi_ju(i, a):
            return h * np.dot(sj[i].values, su[a].values[::-1])

        def semi_uu(a, b):
            return h * np.dot(su[a].values, su[b].values[::-1])
    else:

        def rate_value(x, y):
            return np.dot(np.diff(x), (0.5 * (y[:-1] + y[1:]))[::-1]) + x[0] * y[-1]

        def semi_ju(i, a):
            return rate_value(J[:, i], u[:, a])

        def semi_uu(a, b):
            return rate_value(u[:, a], u[:, b])

    terms = []
    for a, b in zip(*np.nonzero(model.M)):
        terms.append(0.5 * model.M[a, b] * rate(u[:, a], u[:, b]))
    for i, j in zip(*np.nonzero(model.A)):
        terms.append(-0.5 * model.A[i, j] * rate(J[:, i], J[:, j]))
    for a, i in zip(*np.nonzero(model.B)):
        terms.append(model.B[a, i] * semi_ju(i, a))
    for a, b in zip(*np.nonzero(model.C)):
        terms.append(0.5 * model.C[a, b] * semi_uu(a, b))
    f_hist = model.forcing_history(grid.nodes())
    for a in range(d):
        terms.append(-conv_end_linear(u[:, a], f_hist[:, a], h))
        terms.append(-u[-1, a] * model.j_hat_0[a])
    total = 0.0
    for term in terms:
        total += term
    return total, sum(abs(term) for term in terms)


def dense_free_system(model, grid, node0, order, scheme="reduced"):
    """K, r of the free values after node-0 elimination, all dense, with the
    values taken in `order`: component-major indices, node 0's first."""
    k_full, r_full = dense_mca_system(model, grid, scheme)
    w = model.n_dof + model.n_el
    fixed, free = order[:w], order[w:]
    K = k_full[np.ix_(free, free)]
    r = r_full[free] + k_full[np.ix_(free, fixed)] @ node0
    return K, r


def dense_solve(K, r):
    """d with K d = -r by dsytrf/dsytrs, and the dsycon condition estimate."""
    K = np.asarray(K, dtype=float, order="F")
    anorm = float(np.max(np.sum(np.abs(K), axis=0)))
    ldu, ipiv, info = lapack.dsytrf(K, lower=0)
    assert info == 0
    rcond, info = lapack.dsycon(ldu, ipiv, anorm, lower=0)
    assert info == 0
    d, info = lapack.dsytrs(ldu, ipiv, -r, lower=0)
    assert info == 0
    return d, (math.inf if rcond == 0.0 else 1.0 / rcond)


def outer_product_convolve(a, b, h):
    """Running trapezoid convolution of two sample arrays summed along the
    anti-diagonals of the symmetrized n x n product matrix."""
    n = a.size - 1
    p = np.outer(a, b)
    s = p + p.T
    out = np.zeros(n + 1)
    idx = np.arange(n + 1)
    for k in range(1, n + 1):
        diag = s[idx[: k + 1], k - idx[: k + 1]]  # s[j, k - j] for j = 0..k
        out[k] = 0.5 * h * (0.5 * (diag[0] + diag[-1]) + diag[1:-1].sum())
    return out


def deriv1_stencil(n_steps, h):
    """Dense matrix form of the library's `deriv1` acting on node-value
    vectors."""
    n = n_steps
    k = np.arange(1, n)
    rows = np.concatenate([[0, 0, 0], k, k, [n, n, n]])
    cols = np.concatenate([[0, 1, 2], k - 1, k + 1, [n, n - 1, n - 2]])
    coef = np.concatenate(
        [[-3.0, 4.0, -1.0], np.full(n - 1, -1.0), np.ones(n - 1), [3.0, -4.0, 1.0]]
    )
    mat = np.zeros((n + 1, n + 1))
    mat[rows, cols] = coef / (2.0 * h)
    return mat


def dense_hamilton_system(model, grid):
    """K, r of the classical action as dense matrix products."""
    dmat = deriv1_stencil(grid.n_steps, grid.h)
    tmat = np.diag(grid.trapezoid_weights())
    q = 0.5 * model.m * dmat.T @ tmat @ dmat - 0.5 * model.k * tmat
    return q + q.T, tmat @ model.forcing_signal(grid).values


def dense_tonti_system(model, grid):
    """K, r of the Tonti action as dense matrix products."""
    dmat = deriv1_stencil(grid.n_steps, grid.h)
    wmat = conv_end_matrix(grid)
    q = (
        0.5 * model.m * dmat.T @ wmat @ dmat
        + 0.5 * model.c * dmat.T @ wmat
        + 0.5 * model.k * wmat
    )
    return q + q.T, -(wmat @ model.forcing_signal(grid).values)

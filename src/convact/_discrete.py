"""Discrete quadratic forms of the action functionals.

Every supported action is quadratic in the nodal values of its state
histories, so each kind maps to a pair (K, r) with

    I(x) = 1/2 x^T K x + r^T x,        K = K^T exactly,

over the full node-value vector x (no constraints applied here). K is a
sparse matrix, except for GURTIN, whose nested convolutions couple every pair
of nodes; its K is a matrix-free operator. The first variation in a
direction g is then g^T (K x + r), and the stationarity module eliminates the
fixed node-0 values to obtain the solvable system.

Discretization of the mixed action: the reduced scheme (default) evaluates
every convolution EXACTLY on the piecewise-linear interpolants of the nodal
histories — derivatives become cell increments, and on a uniform grid the
reflection maps cells onto cells, so each pairing is a short increment sum.
Stationarity of an exactly-evaluated functional over the trial space is a
genuine Ritz method, and its one-cell-wide stencils control the grid-period
oscillation mode that wide centered stencils leave unconstrained. The direct
scheme replaces the rewritten semi-derivative pairings with Grunwald-Letnikov
half-derivative signals paired by the trapezoid anti-diagonal rule; it is the
cross-check path. The displacement-only functionals keep nodal quadrature
(trapezoid pairings, second-order difference stencils).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from ._stencils import deriv1_stencil
from .fracops import gl_weights
from .grid import Grid
from .models import MdofModel, SdofModel

SCHEMES = ("reduced", "direct")


@dataclass(frozen=True)
class DofLayout:
    """Node-major packing of the (u, J) histories of the mixed action in fold
    order.

    Nodes go 0, 1, n, 2, n - 1, ... and each node holds its components side
    by side: u_0 ... u_{d-1}, then J_0 ... J_{e-1}. Node 0, the one the
    initial conditions pin, is x[:width] and the free values are x[width:].
    The mixed pairings couple node i with its neighbours and with the nodes
    near n - i (the reflected cells), so in this order every coupling lies a
    few places off the diagonal.
    """

    n_nodes: int
    n_dof: int
    n_el: int

    @property
    def width(self) -> int:
        return self.n_dof + self.n_el

    @property
    def size(self) -> int:
        return self.n_nodes * self.width

    def nodes(self) -> np.ndarray:
        """The node order: 0, 1, n, 2, n - 1, ..."""
        n = self.n_nodes - 1
        k = np.arange(n)
        return np.concatenate([[0], np.where(k % 2 == 0, k // 2 + 1, n - k // 2)])

    def pack(self, u: np.ndarray, J: np.ndarray) -> np.ndarray:
        table = np.hstack([
            np.reshape(np.asarray(u, dtype=float), (self.n_nodes, self.n_dof)),
            np.reshape(np.asarray(J, dtype=float), (self.n_nodes, self.n_el)),
        ])
        return table[self.nodes()].ravel()

    def unpack(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        table = np.reshape(x, (self.n_nodes, self.width))[np.argsort(self.nodes())]
        return table[:, : self.n_dof].copy(), table[:, self.n_dof :].copy()


def _symmetrize(q: np.ndarray) -> np.ndarray:
    return q + q.T


def _increments(n: int) -> sparse.csr_array:
    """Sparse cell increments: (L x)_m = x_{m+1} - x_m for cells m = 0..n-1."""
    return sparse.diags_array([-1.0, 1.0], offsets=[0, 1], shape=(n, n + 1), format="csr")


def _anti_diagonal(values: np.ndarray, rows: int, cols: int, shift: int) -> sparse.coo_array:
    """values[i] at (i, shift - i) for i = 0..len(values) - 1."""
    i = np.arange(len(values))
    return sparse.coo_array((values, (i, shift - i)), shape=(rows, cols))


def _relabel(op: sparse.sparray, rank: np.ndarray) -> sparse.coo_array:
    """op with its row and column i moved to rank[i]."""
    op = op.tocoo()
    return sparse.coo_array((op.data, (rank[op.row], rank[op.col])), shape=op.shape)


def rate_pair_matrix(grid: Grid) -> sparse.csr_array:
    """Exact [x' * y'](t) for piecewise-linear x, y as a nodal quadratic form:
    (1/h) sum_cells dx_m dy_{n-1-m}."""
    n = grid.n_steps
    lmat = _increments(n)
    pi = _anti_diagonal(np.full(n, 1.0 / grid.h), n, n, n - 1)
    return (lmat.T @ pi @ lmat).tocsr()


def rate_value_pair_matrix(grid: Grid) -> sparse.csr_array:
    """Exact [x' * y](t) for piecewise-linear x, y as a nodal quadratic form:
    sum_cells dx_m * (y at the midpoint of the reflected cell)."""
    n = grid.n_steps
    half = np.full(n, 0.5)
    emat = _anti_diagonal(half, n, n + 1, n - 1) + _anti_diagonal(half, n, n + 1, n)
    return (_increments(n).T @ emat).tocsr()


def gl_semi_pair_matrix(grid: Grid) -> sparse.csr_array:
    """[G x * G y](t) for the half-order GL derivative G = h^(-1/2) T(w),
    paired by the trapezoid anti-diagonal W: G^T W G in closed form,

        S = Pi - 1/2 (e_0 v^T + v e_0^T),   v = (w_n, ..., w_0),

    with Pi = +1 at (i, n - i) and -1 at (i, n - 1 - i). The half-order
    weights w are the coefficients of (1 - z)^(1/2), so their convolution
    square is the first difference (1, -1, 0, ...), and a Toeplitz matrix is
    persymmetric; h^(-1/2) squared cancels W's factor h. All of the GL memory
    sits in row and column 0."""
    n = grid.n_steps
    v = gl_weights(0.5, n + 1).w[::-1]
    pi = _anti_diagonal(np.ones(n + 1), n + 1, n + 1, n) - _anti_diagonal(
        np.ones(n), n + 1, n + 1, n - 1
    )
    corner = sparse.coo_array(
        (0.5 * v, (np.zeros(n + 1, dtype=int), np.arange(n + 1))), shape=(n + 1, n + 1)
    )
    return (pi - corner - corner.T).tocsr()


def reflected_load_weights(f_vals: np.ndarray, h: float) -> np.ndarray:
    """Gradient of the exact piecewise-linear [u * f](t) with respect to the
    nodal values of u; a history (n_nodes, n_dof) gives one column per dof."""
    n = f_vals.shape[0] - 1
    rf = f_vals[::-1]
    w = np.zeros(f_vals.shape)
    w[0] = h / 6.0 * (2.0 * rf[0] + rf[1])
    w[n] = h / 6.0 * (rf[n - 1] + 2.0 * rf[n])
    if n >= 2:
        w[1:n] = h / 6.0 * (rf[:-2][: n - 1] + 4.0 * rf[1:n] + rf[2:][: n - 1])
    return w


def conv_end_linear(x: np.ndarray, y: np.ndarray, h: float) -> float:
    """Exact [x * y](t_final) for the piecewise-linear interpolants."""
    ry = y[::-1]
    a, c = x[:-1], x[1:]
    b, dd = ry[:-1], ry[1:]
    return float(h / 6.0 * np.sum(2.0 * a * b + a * dd + c * b + 2.0 * c * dd))


def rate_pair_end(x: np.ndarray, y: np.ndarray, h: float) -> float:
    """Exact [x' * y'](t_final) for the piecewise-linear interpolants."""
    dx = np.diff(x)
    dy = np.diff(y)
    return float(np.dot(dx, dy[::-1]) / h)


def rate_value_pair_end(x: np.ndarray, y: np.ndarray, h: float) -> float:
    """Exact [x' * y](t_final) for the piecewise-linear interpolants."""
    dx = np.diff(x)
    mid = 0.5 * (y[:-1] + y[1:])
    return float(np.dot(dx, mid[::-1]))


def build_mca_system(
    model: MdofModel, grid: Grid, scheme: str = "reduced"
) -> tuple[sparse.csr_array, np.ndarray, DofLayout]:
    """K, r of the mixed convolved action over all nodal values of (u, J).

    Terms of the functional, with * the end-time convolution pairing:
        1/2 u'^T * M u'  -  1/2 J'^T * A J'  +  (semi J)^T * B^T (semi u)
        + 1/2 (semi u)^T * C (semi u)  -  u^T * f  -  u(t)^T jhat0
    The reduced scheme rewrites the semi-derivative pairings as
    x' * y + x(0) y(t) and evaluates every convolution exactly on the
    piecewise-linear interpolants; the direct scheme keeps the rewrite off and
    pairs GL half-derivative histories by trapezoid quadrature.

    Every term is a model matrix times a time operator, so K is a sum of
    Kronecker products, symmetrized:
        K = sym(R (x) P_R + S (x) P_S + E (x) P_S),
        P_R = [[M/2, 0], [0, -A/2]],   P_S = [[C/2, 0], [B^T, 0]],
    over the (u, J) components of a node, with R the rate pairing, S the
    scheme's semi-derivative pairing (`rate_value_pair_matrix` or
    `gl_semi_pair_matrix`) and E = e_0 e_n^T the reduced scheme's corner
    x(0) y(t) (absent in the direct scheme). Each time operator's rows and
    columns are relabelled into the fold order of `DofLayout`, so K and r are
    packed node by node with node 0 first. Every time operator is sparse, so
    K is a sparse CSR matrix with O(n) nonzeros; its entries sum their
    products in term order, as a dense block-by-block sum would.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    n1 = grid.n_nodes
    d, e = model.n_dof, model.n_el
    layout = DofLayout(n1, d, e)
    fold = layout.nodes()
    u, j = slice(0, d), slice(d, d + e)
    p_rate = np.zeros((d + e, d + e))
    p_rate[u, u], p_rate[j, j] = 0.5 * model.M, -0.5 * model.A
    p_semi = np.zeros((d + e, d + e))
    p_semi[u, u], p_semi[j, u] = 0.5 * model.C, model.B.T

    semi = rate_value_pair_matrix(grid) if scheme == "reduced" else gl_semi_pair_matrix(grid)
    terms = [(rate_pair_matrix(grid), p_rate), (semi, p_semi)]
    if scheme == "reduced":
        terms.append((sparse.csr_array(([1.0], ([0], [n1 - 1])), shape=(n1, n1)), p_semi))
    rank = np.argsort(fold)  # the fold position of each node
    q = sum(sparse.kron(_relabel(op, rank), coef) for op, coef in terms)
    k_full = _symmetrize(q).tocsr()
    k_full.eliminate_zeros()  # drops the -0.0 products of zero coefficients

    r = np.zeros((n1, d + e))
    r[:, u] -= reflected_load_weights(model.forcing_history(grid.nodes()), grid.h)
    r[-1, u] -= model.j_hat_0  # the end node
    return k_full, r[fold].ravel(), layout


def build_hamilton_system(
    model: SdofModel, grid: Grid
) -> tuple[sparse.csr_array, np.ndarray]:
    """K, r of the classical action int (m u'^2 / 2 - k u^2 / 2 + f u) dtau."""
    dmat = deriv1_stencil(grid.n_steps, grid.h)
    tmat = sparse.diags_array(grid.trapezoid_weights(), format="csr")
    q = 0.5 * model.m * dmat.T @ tmat @ dmat - 0.5 * model.k * tmat
    r = tmat @ model.forcing_signal(grid).values
    return _symmetrize(q).tocsr(), r


def build_tonti_system(
    model: SdofModel, grid: Grid
) -> tuple[sparse.csr_array, np.ndarray]:
    """K, r of the convolutional action with the half-weighted damping term:
    1/2 u' * m u' + 1/2 u' * c u + 1/2 u * k u - u * f."""
    n = grid.n_steps
    dmat = deriv1_stencil(n, grid.h)
    wmat = _anti_diagonal(grid.trapezoid_weights(), n + 1, n + 1, n).tocsr()
    q = (
        0.5 * model.m * dmat.T @ wmat @ dmat
        + 0.5 * model.c * dmat.T @ wmat
        + 0.5 * model.k * wmat
    )
    r = -(wmat @ model.forcing_signal(grid).values)
    return _symmetrize(q).tocsr(), r


def build_gurtin_system(
    model: SdofModel, grid: Grid, u0: float, v0: float
) -> tuple[sparse.linalg.LinearOperator, np.ndarray]:
    """K, r of the Gurtin convolutional action
    1/2 m [u*u] + 1/2 [c*[u*u]] + 1/2 [k tau*[u*u]] - [f*u] at the end time,
    with f carrying the initial-condition data.

    K = m W + c W_c + k W_r is a `LinearOperator` applied in O(n) memory
    (and O(n^2) time: one direct correlation). W is the trapezoid anti-diagonal: (W x)_p = w_p x_{n-p}. The
    nested convolutions sum, over prefixes j, the outer trapezoid weight
    (times t - tau_j for W_r) times the prefix pairing of nodes 0..j, which
    pairs node p with node j - p at weight h, halved at p = 0 or j - p = 0.
    So entry (p, q) comes from prefix j = p + q alone and reads
    h s_p s_q a_{p+q}, s = (1/2, 1, ..., 1), and c W_c + k W_r applied to x
    is h s times the correlation of the kernel a with s x."""
    from scipy.sparse.linalg import LinearOperator  # kept out of `import convact`

    from .actions import gurtin_forcing  # cycle-free: actions imports lazily too

    n = grid.n_steps
    w = grid.trapezoid_weights()
    kernel = model.c * w + model.k * (w * (grid.t_final - grid.nodes()))
    kernel[0] = 0.0  # the prefix j = 0 pairs nothing
    s = np.ones(n + 1)
    s[0] = 0.5

    def matvec(x):
        x = np.ravel(x)
        return model.m * (w * x[::-1]) + grid.h * s * np.correlate(kernel, s * x, "full")[n:]

    f = gurtin_forcing(model, u0, v0, grid)
    return LinearOperator((n + 1, n + 1), matvec=matvec, dtype=float), -(w * f.values[::-1])

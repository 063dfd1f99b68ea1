"""Discrete quadratic forms of the action functionals.

Every supported action is quadratic in the nodal values of its state
histories, so each kind maps to a pair (K, r) with

    I(x) = 1/2 x^T K x + r^T x,        K = K^T exactly,

over the full node-value vector x (no constraints applied here). The mixed
kinds' K is a few time-operator triplets times model-matrix blocks
(`mca_terms`). The solve assembles them, node 0's couplings included, into
one band in fold order, straight into LAPACK band storage. The first
variation reads them as a bilinear form on the node-major histories and
assembles nothing. HAMILTON and TONTI also give K as
its bilinear form (g, x) -> g^T K x, on the `deriv1` stencil and the
trapezoid weights. GURTIN's nested convolutions couple every pair of nodes,
so its K is a matvec function. The first variation in a direction g is
g^T (K x + r); the stationarity module eliminates the fixed node-0 values to
obtain the solvable system.

Discretization of the mixed action: the reduced scheme (default) evaluates
every convolution EXACTLY on the piecewise-linear interpolants of the nodal
histories — derivatives become cell increments, and on a uniform grid the
reflection maps cells onto cells, so each pairing is a short increment sum.
Stationarity of an exactly-evaluated functional over the trial space is a
genuine Ritz method, and its one-cell-wide stencils control the grid-period
oscillation mode that wide centered stencils leave unconstrained. The direct
scheme replaces the rewritten semi-derivative pairings with Grunwald-Letnikov
half-derivative signals paired by the all-node Riemann rule, whose closed form
is a signed anti-bidiagonal (`gl_semi_pair_entries`); it is the cross-check
path, first order in h. The displacement-only functionals keep nodal
quadrature (trapezoid pairings, second-order difference stencils).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from ._stencils import deriv1
from .grid import Grid, Signal, convolve
from .models import MdofModel, SdofModel

SCHEMES = ("reduced", "direct")


@dataclass(frozen=True)
class DofLayout:
    """Node-major packing of the (u, J) histories of the mixed action in fold
    order.

    Nodes go 0, n, n - 1, 1, 2, n - 2, n - 3, 3, 4, ...: the reflection pairs
    (j, n - j) in alternating orientation. Each node holds its components
    side by side: u_0 ... u_{d-1}, then J_0 ... J_{e-1}. Node 0, the one the
    initial conditions pin, is x[:width] and the free values are x[width:].
    The mixed pairings couple node i with exactly the nodes j with
    |i + j - n| <= 1 (the reflected cells), and in this order every such pair
    lies at most 2 places apart, the least possible with 3 distinct
    neighbours per interior node.
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
        """The node order: 0, n, n - 1, 1, 2, n - 2, n - 3, 3, 4, ..."""
        n = self.n_nodes - 1
        k = np.arange(n + 1)
        return np.where((k + 1) // 2 % 2 == 0, k // 2, n - k // 2)

    def unpack(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        table = np.reshape(x, (self.n_nodes, self.width))[np.argsort(self.nodes())]
        return table[:, : self.n_dof].copy(), table[:, self.n_dof :].copy()


def rate_pair_entries(grid: Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact [x' * y'](t) for piecewise-linear x, y as (row, col, value)
    triplets of the nodal form (1/h) sum_cells dx_m dy_{n-1-m}: node i pairs
    with n - 1 - i and n + 1 - i at 1/h, and with n - i at -2/h (-1/h at the
    end nodes)."""
    n = grid.n_steps
    inv_h = 1.0 / grid.h
    i = np.arange(n + 1)
    reflected = np.full(n + 1, -2.0 * inv_h)
    reflected[[0, n]] = -inv_h
    return (
        np.concatenate([i[:-1], i, i[1:]]),
        np.concatenate([n - 1 - i[:-1], n - i, n + 1 - i[1:]]),
        np.concatenate([np.full(n, inv_h), reflected, np.full(n, inv_h)]),
    )


def rate_value_pair_entries(grid: Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact [x' * y](t) for piecewise-linear x, y as (row, col, value)
    triplets of sum_cells dx_m * (y at the midpoint of the reflected cell):
    node i pairs with n - 1 - i at -1/2 and with n + 1 - i at 1/2; node 0
    pairs with n at -1/2 and node n with 0 at 1/2."""
    n = grid.n_steps
    i = np.arange(n)
    return (
        np.concatenate([i, [0, n], i + 1]),
        np.concatenate([n - 1 - i, [n, 0], n - i]),
        np.concatenate([np.full(n, -0.5), [-0.5, 0.5], np.full(n, 0.5)]),
    )


def gl_semi_pair_entries(grid: Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """[G x * G y](t) for the half-order GL derivative G = h^(-1/2) T(w),
    paired by the all-node Riemann rule R = h J (J the anti-identity), as
    (row, col, value) triplets of G^T R G in closed form: Pi, +1 at
    (i, n - i) and -1 at (i, n - 1 - i). The half-order weights w are the
    coefficients of (1 - z)^(1/2), so their convolution square is the first
    difference (1, -1, 0, ...); a Toeplitz matrix is persymmetric, so
    T^T J T = J T(w * w); and h^(-1/2) squared cancels R's factor h."""
    n = grid.n_steps
    i = np.arange(n + 1)
    return (
        np.concatenate([i, i[:-1]]),
        np.concatenate([n - i, n - 1 - i[:-1]]),
        np.concatenate([np.ones(n + 1), np.full(n, -1.0)]),
    )


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
    """Exact [x * y](t_final) for the piecewise-linear interpolants; for
    histories (n + 1, p) the pairings of matching columns are summed."""
    ry = y[::-1]
    a, c = x[:-1], x[1:]
    b, dd = ry[:-1], ry[1:]
    return float(h / 6.0 * np.sum(2.0 * a * b + a * dd + c * b + 2.0 * c * dd))


def end_pairs(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_k x[k, a] y[n - k, b], the end-time pairing of every column of
    x (n + 1, p) with every column of y (n + 1, q), as a p x q matrix. Each
    entry is one dot product of two contiguous rows, summed as `np.dot`
    sums a pair of columns."""
    rows = np.ascontiguousarray(x.T)[:, None, None, :]
    reflected = np.ascontiguousarray(y[::-1].T)[None, :, :, None]
    return (rows @ reflected)[:, :, 0, 0]


def rate_pair_end(x: np.ndarray, y: np.ndarray, h: float) -> np.ndarray:
    """Exact [x_a' * y_b'](t_final) for the piecewise-linear interpolants of
    the columns of histories x (n + 1, p) and y (n + 1, q), as a p x q
    matrix."""
    return end_pairs(np.diff(x, axis=0), np.diff(y, axis=0)) / h


def rate_value_pair_end(x: np.ndarray, y: np.ndarray, h: float) -> np.ndarray:
    """Exact [x_a' * y_b](t_final) for the piecewise-linear interpolants of
    the columns of histories x (n + 1, p) and y (n + 1, q), as a p x q
    matrix."""
    return end_pairs(np.diff(x, axis=0), 0.5 * (y[:-1] + y[1:]))


def band_matvec(band: np.ndarray, x: np.ndarray) -> np.ndarray:
    """K x for K in band storage (`build_mca_system`), one diagonal at a time
    in O(N) memory. Each row adds its terms in increasing column order,
    as a CSR product does."""
    b = len(band) // 2
    n = band.shape[1]
    y = np.zeros(n)
    for o, diagonal in zip(range(b, -b - 1, -1), band[::-1]):  # K[j + o, j]
        cols = slice(max(-o, 0), n - max(o, 0))
        y[max(o, 0) : n + min(o, 0)] += diagonal[cols] * x[cols]
    return y


def mca_terms(
    model: MdofModel, grid: Grid, scheme: str = "reduced"
) -> tuple[list, np.ndarray]:
    """The mixed convolved action over all nodal values of (u, J) as its
    quadratic terms and its linear part.

    Terms of the functional, with * the end-time convolution pairing:
        1/2 u'^T * M u'  -  1/2 J'^T * A J'  +  (semi J)^T * B^T (semi u)
        + 1/2 (semi u)^T * C (semi u)  -  u^T * f  -  u(t)^T jhat0
    The reduced scheme rewrites the semi-derivative pairings as
    x' * y + x(0) y(t) and evaluates every convolution exactly on the
    piecewise-linear interpolants; the direct scheme keeps the rewrite off and
    pairs GL half-derivative histories by the all-node Riemann rule.

    Every quadratic term is a model matrix times a time operator, so K is a
    sum of Kronecker products, symmetrized:
        K = q + q^T,   q = R (x) P_R + S (x) P_S + E (x) P_S,
        P_R = [[M/2, 0], [0, -A/2]],   P_S = [[C/2, 0], [B^T, 0]],
    over the (u, J) components of a node, with R the rate pairing, S the
    scheme's semi-derivative pairing (`rate_value_pair_entries` or
    `gl_semi_pair_entries`) and E = e_0 e_n^T the reduced scheme's corner
    x(0) y(t) (absent in the direct scheme). Each time operator is a few
    (row, col, value) triplets that pair node i only with nodes j where
    |i + j - n| <= 1.

    Returns the terms [((rows, cols, vals), P)] in term order and r as a
    node-major table (n_nodes, d + e) in node order, u then J in each row.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    n1 = grid.n_nodes
    d = model.n_dof
    w = d + model.n_el
    u, el = slice(0, d), slice(d, w)
    p_rate = np.zeros((w, w))
    p_rate[u, u], p_rate[el, el] = 0.5 * model.M, -0.5 * model.A
    p_semi = np.zeros((w, w))
    p_semi[u, u], p_semi[el, u] = 0.5 * model.C, model.B.T

    semi = rate_value_pair_entries(grid) if scheme == "reduced" else gl_semi_pair_entries(grid)
    terms = [(rate_pair_entries(grid), p_rate), (semi, p_semi)]
    if scheme == "reduced":
        terms.append(((np.array([0]), np.array([n1 - 1]), np.array([1.0])), p_semi))
    r = np.zeros((n1, w))
    r[:, u] -= reflected_load_weights(model.forcing_history(grid.nodes()), grid.h)
    r[-1, u] -= model.j_hat_0  # the end node
    return terms, r


def build_mca_system(
    model: MdofModel, grid: Grid, scheme: str = "reduced"
) -> tuple[np.ndarray, np.ndarray, DofLayout]:
    """K, r of the mixed convolved action (`mca_terms`) over all nodal
    values of (u, J), in the packing of `DofLayout`, K in LAPACK's general
    band storage band[b + i - j, j] = K[i, j] for |i - j| <= b, so row b + o
    holds the diagonal i - j = o.

    Each term's nodes are mapped to their fold positions, which puts every
    coupling of both schemes at most 2 places apart, so within b = 3 w - 1
    values for w values per node; each triplet value times each nonzero of P
    is added, in term order, straight into the band. K = q + q^T is then
    formed in place, one pair of mirrored diagonals at a time; no temporary
    is larger than the band or than one term's products. Every entry sums
    its products in term order, as a dense block-by-block sum would.
    """
    terms, r = mca_terms(model, grid, scheme)
    layout = DofLayout(grid.n_nodes, model.n_dof, model.n_el)
    fold = layout.nodes()
    w, size = layout.width, layout.size
    rank = np.argsort(fold)  # the fold position of each node
    reach = 3 * w - 1
    q = np.zeros((2 * reach + 1, size))  # q, stored as the band
    q_flat = q.ravel()  # q[reach + i - j, j] is q_flat[(reach + i - j) * size + j]
    for (rows, cols, vals), coef in terms:
        a, b = np.nonzero(coef)  # each op_ij * P_ab at its packed (row, col)
        i = ((w * rank[rows])[:, None] + a).ravel()
        j = ((w * rank[cols])[:, None] + b).ravel()
        val = (vals[:, None] * coef[a, b]).ravel()
        q_flat[(reach + i - j) * size + j] += val  # no position repeats within a term
    for o in range(reach + 1):  # K = q + q^T, diagonals i - j = +-o
        lower, upper = q[reach + o, : size - o], q[reach - o, o:]  # K[j + o, j], K[j, j + o]
        lower += upper
        upper[...] = lower
    return q, r[fold].ravel(), layout


def build_mca_form(
    model: MdofModel, grid: Grid, scheme: str = "reduced"
) -> tuple[Callable[[np.ndarray, np.ndarray], float], np.ndarray]:
    """K, r of the mixed convolved action, K as its bilinear form on
    node-major tables (n_nodes, d + e) in node order, u then J per row:

        g^T K x = sum_t <P_t, (v G[rows])^T X[cols]> + <P_t, (v X[rows])^T G[cols]>

    over the terms (rows, cols, v), P_t of `mca_terms`, with <., .> the
    entrywise sum and v scaling the rows; the two addends are g^T q_t x and
    x^T q_t g. Nothing is assembled: each term is four row gathers and two
    (d + e)-square products. Swapping g and x swaps the two addends of each
    term, so the form is bitwise symmetric in (g, x). r is the load table of
    `mca_terms`."""
    terms, r = mca_terms(model, grid, scheme)

    def form(g, x):
        total = 0.0
        for (rows, cols, vals), coef in terms:
            g_r, g_c, x_r, x_c = (np.take(y, at, axis=0) for y in (g, x) for at in (rows, cols))
            total += np.sum(coef * ((g_r.T * vals) @ x_c + (x_r.T * vals) @ g_c))
        return total

    return form, r


def build_hamilton_system(
    model: SdofModel, grid: Grid
) -> tuple[Callable[[np.ndarray, np.ndarray], float], np.ndarray]:
    """K, r of the classical action int (m u'^2 / 2 - k u^2 / 2 + f u) dtau,
    K as its bilinear form

        g^T K x = m (D g)^T T (D x) - k g^T T x,

    with D the `deriv1` stencil and T the diagonal trapezoid weights. Both
    pairings multiply g and x elementwise, so the form is bitwise symmetric
    in (g, x)."""
    w = grid.trapezoid_weights()
    h, m, k = grid.h, model.m, model.k

    def form(g, x):
        return m * np.dot(w, deriv1(g, h) * deriv1(x, h)) - k * np.dot(w, g * x)

    return form, w * model.forcing_signal(grid).values


def build_tonti_system(
    model: SdofModel, grid: Grid
) -> tuple[Callable[[np.ndarray, np.ndarray], float], np.ndarray]:
    """K, r of the convolutional action with the half-weighted damping term:
    1/2 u' * m u' + 1/2 u' * c u + 1/2 u * k u - u * f.

    With q = 1/2 (m D^T W D + c D^T W + k W) and K = q + q^T, K is the
    bilinear form g^T K x = g^T q x + x^T q g:

        1/2 m [(Dg)^T W (Dx) + (Dx)^T W (Dg)] + 1/2 c [(Dg)^T W x + (Dx)^T W g]
        + 1/2 k [g^T W x + x^T W g],

    with D the `deriv1` stencil and W the trapezoid anti-diagonal,
    a^T W b = sum_p w_p a_p b_{n-p}. Swapping g and x swaps the two addends
    of each bracket, so the form is bitwise symmetric in (g, x)."""
    w = grid.trapezoid_weights()
    h, m, c, k = grid.h, model.m, model.c, model.k

    def pair(a, b):  # a^T W b
        return np.dot(a, w * b[::-1])

    def form(g, x):
        dg, dx = deriv1(g, h), deriv1(x, h)
        return 0.5 * (
            m * (pair(dg, dx) + pair(dx, dg))
            + c * (pair(dg, x) + pair(dx, g))
            + k * (pair(g, x) + pair(x, g))
        )

    return form, -(w * model.forcing_signal(grid).values[::-1])


def gurtin_forcing(model: SdofModel, u0: float, v0: float, grid: Grid) -> Signal:
    """Effective forcing of the convolutional restatement of the initial value
    problem: [tau * f](t) + (m + c tau) u0 + m tau v0."""
    taus = grid.nodes()
    conv = convolve(Signal(grid, taus), model.forcing_signal(grid))
    vals = conv.values + (model.m + model.c * taus) * u0 + model.m * taus * v0
    return Signal(grid, vals)


def build_gurtin_system(
    model: SdofModel, grid: Grid, u0: float, v0: float
) -> tuple[Callable[[np.ndarray], np.ndarray], np.ndarray]:
    """K, r of the Gurtin convolutional action
    1/2 m [u*u] + 1/2 [c*[u*u]] + 1/2 [k tau*[u*u]] - [f*u] at the end time,
    with f carrying the initial-condition data.

    K = m W + c W_c + k W_r is returned as its matvec x -> K x, applied in
    O(n) memory (and O(n^2) time: one direct correlation). W is the
    trapezoid anti-diagonal: (W x)_p = w_p x_{n-p}. The nested convolutions
    sum, over prefixes j, the outer trapezoid weight (times t - tau_j for
    W_r) times the prefix pairing of nodes 0..j, which pairs node p with
    node j - p at weight h, halved at p = 0 or j - p = 0.
    So entry (p, q) comes from prefix j = p + q alone and reads
    h s_p s_q a_{p+q}, s = (1/2, 1, ..., 1), and c W_c + k W_r applied to x
    is h s times the correlation of the kernel a with s x."""
    n = grid.n_steps
    w = grid.trapezoid_weights()
    kernel = model.c * w + model.k * (w * (grid.t_final - grid.nodes()))
    kernel[0] = 0.0  # the prefix j = 0 pairs nothing
    s = np.ones(n + 1)
    s[0] = 0.5

    def matvec(x):
        return model.m * (w * x[::-1]) + grid.h * s * np.correlate(kernel, s * x, "full")[n:]

    f = gurtin_forcing(model, u0, v0, grid)
    return matvec, -(w * f.values[::-1])

"""Discrete quadratic forms of the action functionals.

Every supported action is quadratic in the nodal values of its state
histories, so each kind maps to a pair (K, r) with

    I(x) = 1/2 x^T K x + r^T x,        K = K^T exactly,

over the full node-value vector x (no constraints applied here). The mixed
kinds' K is a `MixedSystem`: banded in fold order, it is assembled straight
into LAPACK band storage, with node 0's couplings kept apart in a dense slab.
HAMILTON and TONTI give K as its bilinear form (g, x) -> g^T K x on the
`deriv1` stencil and the trapezoid weights. GURTIN's nested convolutions
couple every pair of nodes, so its K is a matvec function. The first
variation in a direction g is g^T (K x + r); the stationarity module
eliminates the fixed node-0 values to obtain the solvable system.

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

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from ._stencils import deriv1
from .fracops import gl_weights
from .grid import Grid
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

    def pack(self, u: np.ndarray, J: np.ndarray) -> np.ndarray:
        table = np.hstack([
            np.reshape(np.asarray(u, dtype=float), (self.n_nodes, self.n_dof)),
            np.reshape(np.asarray(J, dtype=float), (self.n_nodes, self.n_el)),
        ])
        return table[self.nodes()].ravel()

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
    paired by the trapezoid anti-diagonal W, as (row, col, value) triplets of
    G^T W G in closed form,

        S = Pi - 1/2 (e_0 v^T + v e_0^T),   v = (w_n, ..., w_0),

    with Pi = +1 at (i, n - i) and -1 at (i, n - 1 - i). The half-order
    weights w are the coefficients of (1 - z)^(1/2), so their convolution
    square is the first difference (1, -1, 0, ...), and a Toeplitz matrix is
    persymmetric; h^(-1/2) squared cancels W's factor h. All of the GL memory
    sits in row and column 0, which hold Pi's row 0 minus v/2 (twice at
    (0, 0)); elsewhere S is Pi."""
    n = grid.n_steps
    half_v = 0.5 * gl_weights(0.5, n + 1).w[::-1]
    edge = np.zeros(n + 1)
    edge[n], edge[n - 1] = 1.0, -1.0  # Pi's row 0, which is also its column 0
    edge -= half_v
    edge[0] -= half_v[0]
    nodes = np.arange(n + 1)
    plus, minus = nodes[1:n], nodes[1 : n - 1]  # rows of Pi's two diagonals off the edges
    return (
        np.concatenate([0 * nodes, nodes[1:], plus, minus]),
        np.concatenate([nodes, 0 * nodes[1:], n - plus, n - 1 - minus]),
        np.concatenate([edge, edge[1:], np.ones(n - 1), np.full(n - 2, -1.0)]),
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


def band_matvec(band: np.ndarray, x: np.ndarray) -> np.ndarray:
    """K x for K in the band storage of `MixedSystem.band`, one diagonal at a
    time in O(N) memory. Each row adds its terms in increasing column order,
    as a CSR product does."""
    b = len(band) // 2
    n = band.shape[1]
    y = np.zeros(n)
    for o, diagonal in zip(range(b, -b - 1, -1), band[::-1]):  # K[j + o, j]
        cols = slice(max(-o, 0), n - max(o, 0))
        y[max(o, 0) : n + min(o, 0)] += diagonal[cols] * x[cols]
    return y


@dataclass(frozen=True)
class MixedSystem:
    """K of the mixed action over all nodal values in `DofLayout` order, in
    three parts, for w values at node 0 and N free values:

    - `block` (w, w): K among the node-0 values;
    - `slab` (N, w), C order: the free values' coupling to node 0;
    - `band` (2b + 1, N): K among the free values in LAPACK's general band
      storage, band[b + i - j, j] = K[i, j] for |i - j| <= b, the
      half-bandwidth, so row b + o holds the diagonal i - j = o.
    """

    block: np.ndarray
    slab: np.ndarray
    band: np.ndarray

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """K x over the full vector, node 0's values first."""
        w = self.block.shape[0]
        x0, free = x[:w], x[w:]
        return np.concatenate([
            self.block @ x0 + free @ self.slab,
            self.slab @ x0 + band_matvec(self.band, free),
        ])


def build_mca_system(
    model: MdofModel, grid: Grid, scheme: str = "reduced"
) -> tuple[MixedSystem, np.ndarray, DofLayout]:
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
        K = q + q^T,   q = R (x) P_R + S (x) P_S + E (x) P_S,
        P_R = [[M/2, 0], [0, -A/2]],   P_S = [[C/2, 0], [B^T, 0]],
    over the (u, J) components of a node, with R the rate pairing, S the
    scheme's semi-derivative pairing (`rate_value_pair_entries` or
    `gl_semi_pair_entries`) and E = e_0 e_n^T the reduced scheme's corner
    x(0) y(t) (absent in the direct scheme). Each time operator is a few
    (row, col, value) triplets that pair node i only with nodes j where
    |i + j - n| <= 1; its nodes are mapped to their fold positions, which
    puts every such pair at most 2 places apart, and each value times each
    nonzero of P is added, in term order, straight into the storage of
    `MixedSystem`: entries in node 0's row or column into dense slabs, the
    free block into a band. K = q + q^T is then formed in
    place, one pair of mirrored diagonals at a time, and the band is trimmed
    to the nonzero half-bandwidth; no temporary is larger than the band or
    than one term's products. Every entry sums its products in term order, as a
    dense block-by-block sum would, and all of the direct scheme's GL memory
    lands in the slab.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    n1 = grid.n_nodes
    d, e = model.n_dof, model.n_el
    layout = DofLayout(n1, d, e)
    fold = layout.nodes()
    w = layout.width
    u, el = slice(0, d), slice(d, w)
    p_rate = np.zeros((w, w))
    p_rate[u, u], p_rate[el, el] = 0.5 * model.M, -0.5 * model.A
    p_semi = np.zeros((w, w))
    p_semi[u, u], p_semi[el, u] = 0.5 * model.C, model.B.T

    semi = rate_value_pair_entries(grid) if scheme == "reduced" else gl_semi_pair_entries(grid)
    terms = [(rate_pair_entries(grid), p_rate), (semi, p_semi)]
    if scheme == "reduced":
        terms.append(((np.array([0]), np.array([n1 - 1]), np.array([1.0])), p_semi))
    rank = np.argsort(fold)  # the fold position of each node
    # a bound on |i - j| over the free block; the band is trimmed below
    reach = w - 1 + w * max(
        int(np.max(np.abs(rank[rows] - rank[cols])[(rows > 0) & (cols > 0)], initial=0))
        for (rows, cols, _), _ in terms
    )
    n_free = layout.size - w
    q = np.zeros((2 * reach + 1, n_free))  # q's free block, stored as `band`
    q_flat = q.ravel()  # q[reach + i - j, j] is q_flat[(reach + i - j) * n_free + j]
    q_col0 = np.zeros((layout.size, w))
    q_row0 = np.zeros((w, layout.size))
    for (rows, cols, vals), coef in terms:
        a, b = np.nonzero(coef)  # each op_ij * P_ab at its packed (row, col)
        row = ((w * rank[rows])[:, None] + a).ravel()
        col = ((w * rank[cols])[:, None] + b).ravel()
        val = (vals[:, None] * coef[a, b]).ravel()
        free = (row >= w) & (col >= w)
        i, j = row[free] - w, col[free] - w
        q_flat[(reach + i - j) * n_free + j] += val[free]  # no position repeats within a term
        at = col < w
        q_col0[row[at], col[at]] += val[at]
        at = row < w
        q_row0[row[at], col[at]] += val[at]
    # K = q + q^T in place, one pair of diagonals i - j = +-o at a time
    half = 0
    for o in range(reach + 1):
        lower, upper = q[reach + o, : n_free - o], q[reach - o, o:]  # K[j + o, j], K[j, j + o]
        lower += upper
        upper[...] = lower
        if lower.any():
            half = o
    q_col0 += q_row0.T  # and its node-0 columns
    system = MixedSystem(
        block=q_col0[:w],
        slab=q_col0[w:],
        band=q[reach - half : reach + half + 1],
    )

    r = np.zeros((n1, w))
    r[:, u] -= reflected_load_weights(model.forcing_history(grid.nodes()), grid.h)
    r[-1, u] -= model.j_hat_0  # the end node
    return system, r[fold].ravel(), layout


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
    from .actions import gurtin_forcing  # deferred: actions imports this module

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

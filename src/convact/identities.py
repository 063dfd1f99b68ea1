"""Numerical verification engine for the convolutional and fractional
integration-by-parts identities.

Each identity kind assembles its two sides exactly as written, including all
released boundary terms, and reports a normalized residual. The two sides are
always computed through different operator routes (e.g. a left-sided object
against a right-sided one, or a fractional route against an integer-derivative
route), so a small residual is evidence, not bookkeeping.

The complementary-order pairings (the path-independent inner product and the
path-dependent convolution) use the all-node Riemann pairing, which is the
summation-by-parts partner of the Grunwald-Letnikov operators: with it the
discrete pairing of complementary-order derivatives telescopes exactly, in
direct analogy with the continuum results it verifies.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ._stencils import deriv1
from .fracops import Side, frac_deriv, frac_integral
from .grid import Grid, Signal, convolve_at_end, csv_text, frac_order, inner_product
from .grid import sample  # noqa: F401  not called here; perfbench/test_smoke.py traces this name

__all__ = [
    "IdentityKind",
    "IdentityReport",
    "ibp_residual",
    "inner_u_udot",
    "complementary_inner",
    "complementary_conv",
    "trig_profile",
    "cubic_path_profile",
    "run_identity_sweep",
    "sweep_rows_to_csv",
    "ORDER_THRESHOLDS",
    "INTEGER_KINDS",
]


class IdentityKind(enum.Enum):
    """Integration-by-parts identities with one lhs/rhs recipe each."""

    INNER_INTEGRAL = "INNER_INTEGRAL"  # inner product, fractional integrals
    INNER_DERIV = "INNER_DERIV"  # inner product, fractional derivatives
    CLASSIC_INNER = "CLASSIC_INNER"  # inner product, integer derivatives
    CONV_LEFT = "CONV_LEFT"  # convolution, left fractional derivatives
    CONV_RIGHT = "CONV_RIGHT"  # convolution, right fractional derivatives
    CONV_CLASSIC = "CONV_CLASSIC"  # convolution, integer derivatives
    CONV_COMPLEMENTARY = "CONV_COMPLEMENTARY"  # convolution, complementary orders


INTEGER_KINDS = frozenset({IdentityKind.CLASSIC_INNER, IdentityKind.CONV_CLASSIC})

# expected Richardson order of the residual under grid refinement
ORDER_THRESHOLDS = {
    IdentityKind.INNER_INTEGRAL: 1.0,
    IdentityKind.INNER_DERIV: 1.0,
    IdentityKind.CLASSIC_INNER: 2.0,
    IdentityKind.CONV_LEFT: 1.0,
    IdentityKind.CONV_RIGHT: 1.0,
    IdentityKind.CONV_CLASSIC: 2.0,
    IdentityKind.CONV_COMPLEMENTARY: 1.0,
}

# A finite-h Richardson estimate of an order-p scheme reads slightly below p
# (the estimates climb toward p from below as h shrinks), so the pass/fail
# gate allows this much slack on the estimate itself.
ORDER_ESTIMATE_MARGIN = 0.05

# A residual at or below this is roundoff and its order estimate noise, as for
# INNER_INTEGRAL at alpha = 1 (the running trapezoid is its mirror's exact
# adjoint): 0 and 1.4e-17. Each side's sums round to a few ulps of the scale
# max(|lhs|, |rhs|, 1), growing like log2(n) under pairwise summation; 64 ulps
# (1.4e-14) leaves room, and a defect C h^p is gated on its order above that.
EXACT_RESIDUAL = 64 * float(np.finfo(float).eps)


def order_gate(kind: IdentityKind, order_estimate: float | None, residual: float) -> bool:
    """Pass/fail rule used by the sweep gate for one refinement step: the
    residual is roundoff, or the order estimate reaches the kind's threshold.
    A step with no estimate (the coarser residual was exactly 0) passes only
    on its residual."""
    threshold = ORDER_THRESHOLDS[kind] - ORDER_ESTIMATE_MARGIN
    if residual <= EXACT_RESIDUAL:
        return True
    return order_estimate is not None and order_estimate >= threshold


@dataclass(frozen=True)
class IdentityReport:
    """Both sides of one identity evaluation plus the normalized mismatch."""

    kind: IdentityKind
    alpha: float | None
    h: float
    lhs: float
    rhs: float
    residual: float


def _report(kind: IdentityKind, alpha, h: float, lhs: float, rhs: float) -> IdentityReport:
    return IdentityReport(
        kind=kind,
        alpha=None if alpha is None else float(alpha),
        h=h,
        lhs=float(lhs),
        rhs=float(rhs),
        residual=abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0),
    )


def _fi_at_base(side: Side, u: Signal, order: float) -> float:
    """The fractional integral of u at its own base node (node 0 for LEFT,
    node n for RIGHT), computed there only: an integral over an empty
    interval, so exactly the 0.0 that `frac_integral` leaves, or u itself at
    order zero."""
    if order == 0.0:
        return u.values[0 if side is Side.LEFT else -1]
    return 0.0


def _d1(u: Signal) -> Signal:
    return Signal(u.grid, deriv1(u.values, u.grid.h))


def _riemann_pair(a: Signal, b: Signal, convolved: bool) -> float:
    """All-node Riemann pairing: h * sum_k a_k b_k, or a_k b_{n-k} if convolved."""
    bb = b.values[::-1] if convolved else b.values
    return float(a.grid.h * np.dot(a.values, bb))


def _order_of(kind: IdentityKind, alpha) -> float | None:
    """The fractional order a kind is evaluated at: None for the integer
    kinds, which ignore `alpha`; mandatory otherwise. The complementary
    pairing needs 1 - alpha to be an order as well, so alpha < 1."""
    if kind in INTEGER_KINDS:
        return None
    if alpha is None:
        raise ValueError(f"{kind.value} requires a fractional order")
    a = frac_order(alpha)
    if kind is IdentityKind.CONV_COMPLEMENTARY and a >= 1.0:
        raise ValueError(f"{kind.value} requires alpha < 1 (complement degenerates)")
    return a


def _gl(memo: dict, side: Side, u: Signal, order: float) -> Signal:
    """`frac_deriv(side, u, order)`, computed once per key of `memo`.
    Signals hash by identity, so the key also keeps `u` alive."""
    key = (side, u, order)
    if key not in memo:
        memo[key] = frac_deriv(side, u, order)
    return memo[key]


def _sides(kind: IdentityKind, phi: Signal, psi: Signal, a, memo: dict) -> tuple[float, float]:
    """lhs and rhs of one identity, its GL derivatives taken from `memo`."""
    n = phi.grid.n_steps
    if kind is IdentityKind.INNER_INTEGRAL:
        lhs = inner_product(phi, frac_integral(Side.LEFT, psi, a))
        rhs = inner_product(frac_integral(Side.RIGHT, phi, a), psi)
    elif kind is IdentityKind.INNER_DERIV:
        lhs = inner_product(phi, _gl(memo, Side.LEFT, psi, a))
        rhs = (
            inner_product(_gl(memo, Side.RIGHT, phi, a), psi)
            + _fi_at_base(Side.RIGHT, phi, 1.0 - a) * psi.values[n]
            - phi.values[0] * _fi_at_base(Side.LEFT, psi, 1.0 - a)
        )
    elif kind is IdentityKind.CLASSIC_INNER:
        lhs = inner_product(phi, _d1(psi))
        rhs = (
            -inner_product(_d1(phi), psi)
            + phi.values[n] * psi.values[n]
            - phi.values[0] * psi.values[0]
        )
    elif kind is IdentityKind.CONV_LEFT:
        lhs = convolve_at_end(phi, _gl(memo, Side.LEFT, psi, a))
        rhs = (
            convolve_at_end(_gl(memo, Side.LEFT, phi, a), psi)
            + _fi_at_base(Side.LEFT, phi, 1.0 - a) * psi.values[n]
            - phi.values[n] * _fi_at_base(Side.LEFT, psi, 1.0 - a)
        )
    elif kind is IdentityKind.CONV_RIGHT:
        lhs = convolve_at_end(phi, _gl(memo, Side.RIGHT, psi, a))
        rhs = (
            convolve_at_end(_gl(memo, Side.RIGHT, phi, a), psi)
            + _fi_at_base(Side.RIGHT, phi, 1.0 - a) * psi.values[0]
            - phi.values[0] * _fi_at_base(Side.RIGHT, psi, 1.0 - a)
        )
    elif kind is IdentityKind.CONV_CLASSIC:
        lhs = convolve_at_end(_d1(psi), phi)
        rhs = (
            convolve_at_end(_d1(phi), psi)
            + phi.values[0] * psi.values[n]
            - phi.values[n] * psi.values[0]
        )
    elif kind is IdentityKind.CONV_COMPLEMENTARY:
        lhs = _riemann_pair(
            _gl(memo, Side.LEFT, phi, 1.0 - a), _gl(memo, Side.LEFT, psi, a), convolved=True
        )
        rhs = convolve_at_end(_d1(phi), psi) + phi.values[0] * psi.values[n]
    else:
        raise ValueError(f"unknown identity kind {kind!r}")
    return lhs, rhs


def ibp_residual(kind: IdentityKind, phi: Signal, psi: Signal, alpha=None) -> IdentityReport:
    """Evaluate one integration-by-parts identity on a pair of signals.

    `alpha` is ignored for the integer-order kinds and mandatory otherwise.
    """
    if phi.grid != psi.grid:
        raise ValueError("phi and psi must share a grid")
    a = _order_of(kind, alpha)
    return _report(kind, a, phi.grid.h, *_sides(kind, phi, psi, a, {}))


def inner_u_udot(u: Signal) -> IdentityReport:
    """Path-independent inner product of a signal with its velocity:
    int u u' dtau against (u(t)^2 - u(0)^2) / 2."""
    lhs = inner_product(u, _d1(u))
    rhs = 0.5 * (u.values[-1] ** 2 - u.values[0] ** 2)
    return _report(IdentityKind.CLASSIC_INNER, None, u.grid.h, lhs, rhs)


def complementary_inner(u: Signal, alpha) -> IdentityReport:
    """Inner product of complementary-order fractional derivatives of u
    against (u(t)^2 + u(0)^2) / 2; path independent but history aware."""
    a = frac_order(alpha)
    if a >= 1.0:
        raise ValueError("complementary pairing requires alpha < 1")
    dr = frac_deriv(Side.RIGHT, u, 1.0 - a)
    dl = frac_deriv(Side.LEFT, u, a)
    lhs = _riemann_pair(dr, dl, convolved=False)
    rhs = 0.5 * (u.values[-1] ** 2 + u.values[0] ** 2)
    return _report(IdentityKind.INNER_DERIV, a, u.grid.h, lhs, rhs)


def complementary_conv(u: Signal, alpha) -> IdentityReport:
    """Convolution of complementary-order fractional derivatives of u against
    the integer-derivative oracle int u'(tau) u(t - tau) dtau + u(0) u(t);
    path dependent, and the oracle side is free of alpha."""
    return ibp_residual(IdentityKind.CONV_COMPLEMENTARY, u, u, alpha)


# ---------------------------------------------------------------------------
# reproducible test-signal families


def trig_profile(seed: int, t_final: float, n_modes: int = 5, vanish_ends: bool = True):
    """Smooth pseudo-random profile on (0, t); a sine series pinned to zero at
    both ends, plus an affine part when the ends need not vanish. The profile
    takes a time or an array of times."""
    rng = np.random.default_rng(seed)
    coeff = rng.uniform(-1.0, 1.0, n_modes)
    affine = rng.uniform(-1.0, 1.0, 2) if not vanish_ends else np.zeros(2)

    def f(tau):
        s = 0.0
        for m, c in enumerate(coeff):
            s += c / (m + 1.0) ** 2 * np.sin((m + 1.0) * math.pi * tau / t_final)
        return affine[0] + affine[1] * tau / t_final + s

    return f


def cubic_path_profile(seed: int, t_final: float, start: float, end: float):
    """Pseudo-random cubic with pinned endpoint values start = u(0), end = u(t)."""
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(-1.0, 1.0, 2)

    def f(tau: float) -> float:
        s = tau / t_final
        return start * (1.0 - s) + end * s + s * (1.0 - s) * (a + b * s)

    return f


# ---------------------------------------------------------------------------
# sweep driver (used by the CLI and the acceptance suite)


@dataclass(frozen=True)
class SweepRow:
    report: IdentityReport
    n_steps: int
    order_estimate: float | None  # vs the previous (coarser) grid; None on coarsest


def run_identity_sweep(
    kinds: Iterable[IdentityKind],
    alphas: Sequence[float],
    n_list: Sequence[int],
    t_final: float = 1.0,
    seed: int = 2024,
) -> list[SweepRow]:
    """Residuals for every (kind, alpha, grid) cell with Richardson orders:
    log2 of the residual ratio of consecutive grids over log2 of their size
    ratio (exactly 1 on doubling grids).

    Integer-order kinds appear once per grid (alpha-free). Rows come out in a
    canonical order: kind, then alpha, then grid size. Every alpha and every
    cell's order is checked before any cell is computed.

    Fractional kinds pair a phi that vanishes at both ends with a psi that
    keeps free ends, so the Grunwald-Letnikov boundary layer of the singular
    endpoints stays out of the quadrature and the residual measures the
    genuine O(h) operator error. (With both ends free the trapezoid weights at
    the singular nodes pollute the sums at order h^(1-alpha); with both
    signals interior-supported the discrete identities hold to roundoff and
    no order is measurable.) Integer kinds use free ends in both, so their
    released boundary terms are exercised. The three profiles are evaluated
    on the node array once per grid and shared by every cell on it.

    The kinds of one (alpha, grid) cell share their GL derivatives: INNER_DERIV,
    CONV_LEFT, CONV_RIGHT and CONV_COMPLEMENTARY need 8 of them but only 5
    distinct ones, each computed once. Every report is bitwise the one
    `ibp_residual` gives for the same cell. The shared derivatives live for
    one grid, so memory stays O(n).
    """
    if sorted(set(n_list)) != list(n_list):
        raise ValueError("n_list must be strictly increasing")
    profiles = (
        trig_profile(seed, t_final, vanish_ends=False),  # phi of the integer kinds
        trig_profile(seed, t_final, vanish_ends=True),  # phi of the fractional kinds
        trig_profile(seed + 1, t_final, vanish_ends=False),  # psi
    )
    alphas = [frac_order(alpha) for alpha in alphas]
    cells = [
        (kind, alpha, _order_of(kind, alpha))
        for kind in kinds
        for alpha in ([None] if kind in INTEGER_KINDS else alphas)
    ]
    reports: dict = {}
    for n in n_list:
        grid = Grid(t_final, n)
        taus = grid.nodes()
        free, pinned, psi = (Signal(grid, f(taus)) for f in profiles)
        memos: dict = {}  # one per alpha
        for kind, alpha, a in cells:
            phi = free if kind in INTEGER_KINDS else pinned
            sides = _sides(kind, phi, psi, a, memos.setdefault(alpha, {}))
            reports[kind, alpha, n] = _report(kind, a, grid.h, *sides)
    rows: list[SweepRow] = []
    for kind, alpha, _ in cells:
        for i, n in enumerate(n_list):
            rep, order = reports[kind, alpha, n], None
            prev = reports[kind, alpha, n_list[i - 1]].residual if i else 0.0
            if rep.residual > 0.0 and prev > 0.0:
                order = math.log2(prev / rep.residual) / math.log2(n / n_list[i - 1])
            rows.append(SweepRow(rep, n, order))
    return rows


def sweep_rows_to_csv(rows: Sequence[SweepRow]) -> str:
    """CSV report: kind,alpha,h,lhs,rhs,residual,order_estimate."""
    cells = [(row.report, row.order_estimate) for row in rows]
    return csv_text(
        "kind,alpha,h,lhs,rhs,residual,order_estimate",
        [(r.kind.value, r.alpha, r.h, r.lhs, r.rhs, r.residual, order) for r, order in cells],
    )

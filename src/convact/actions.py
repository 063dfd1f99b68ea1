"""Action functionals of the damped oscillator and their stationarity
diagnostics.

Five competing functionals are supported: the classical displacement action,
the two convolution-based displacement actions (with the initial conditions
embedded in the forcing, and with the half-weighted damping convolution whose
stationarity produces a spurious initial condition), and the mixed convolved
action in single- and multi-dof form, whose stationarity recovers the damped
equations of motion together with the physical initial conditions.

`action_value` evaluates the functionals directly from sampled signals;
`action_variation` differentiates the assembled bilinear structure (never by
epsilon-differencing), so the two routes cross-check each other.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from ._discrete import (
    SCHEMES,
    build_gurtin_system,
    build_hamilton_system,
    build_mca_form,
    build_tonti_system,
    conv_end_linear,
    end_pairs,
    gurtin_forcing,
    rate_pair_end,
    rate_value_pair_end,
)
from ._stencils import deriv1, deriv2
from .fracops import Side, frac_deriv
from .grid import Grid, Signal, convolve, convolve_at_end, csv_text
from .models import MdofModel, SdofModel, mdof_view

__all__ = [
    "ActionKind",
    "ResidualReport",
    "action_value",
    "action_variation",
    "el_residuals",
    "hamilton_second_variation",
    "rayleigh_variation",
    "bateman_residuals",
    "gurtin_forcing",
    "make_direction_battery",
]


class ActionKind(enum.Enum):
    HAMILTON = "HAMILTON"
    GURTIN = "GURTIN"
    TONTI = "TONTI"
    MCA_SDOF = "MCA_SDOF"
    MCA_MDOF = "MCA_MDOF"


MIXED_KINDS = frozenset({ActionKind.MCA_SDOF, ActionKind.MCA_MDOF})


@dataclass(frozen=True)
class ResidualReport:
    """Named per-node residual histories plus scalar initial-condition
    residuals, with sup/L2 norms."""

    kind: str
    grid: Grid
    field_residuals: dict = field(repr=False)
    ic_residuals: dict = field(default_factory=dict)

    def sup(self, name: str) -> float:
        return float(np.max(np.abs(self.field_residuals[name])))

    def l2(self, name: str) -> float:
        arr = np.asarray(self.field_residuals[name])
        return float(math.sqrt(self.grid.h * np.sum(arr * arr)))

    def to_csv(self) -> str:
        """CSV rows `name,sup_norm,l2_norm,excluded_nodes`; every node is
        included, so excluded_nodes is 0. Initial-condition entries are
        scalars, reported with both norms equal to |value|."""
        rows = [(name, self.sup(name), self.l2(name), 0) for name in self.field_residuals]
        rows += [(name, abs(value), abs(value), 0) for name, value in self.ic_residuals.items()]
        return csv_text("name,sup_norm,l2_norm,excluded_nodes", rows)


def _signal_of(traj) -> Signal:
    return traj if isinstance(traj, Signal) else traj.u_signal()


def _check_kind_inputs(kind: ActionKind, model, traj, what: str = "trajectory"):
    if kind is ActionKind.MCA_MDOF:
        if not isinstance(model, MdofModel):
            raise ValueError("MCA_MDOF needs an MdofModel")
        if isinstance(traj, Signal) or traj.is_scalar:
            raise ValueError(f"MCA_MDOF needs a vector-valued {what}")
        widths = (traj.u.shape[1:], traj.J.shape[1:])
        if widths != ((model.n_dof,), (model.n_el,)):
            raise ValueError(
                f"MCA_MDOF {what} has u/J widths {widths[0]}/{widths[1]}, "
                f"the model needs ({model.n_dof},)/({model.n_el},)"
            )
    else:
        if not isinstance(model, SdofModel):
            raise ValueError(f"{kind.value} needs an SdofModel")
        if kind is ActionKind.MCA_SDOF:
            if isinstance(traj, Signal) or not traj.is_scalar:
                raise ValueError(f"MCA_SDOF needs a scalar mixed {what}")


def _mca_value_terms(model: MdofModel, u: np.ndarray, J: np.ndarray, grid: Grid, scheme: str) -> float:
    """The mixed action as one contraction per term: each model matrix is
    multiplied entrywise by the matrix of end-time pairings of its columns
    and summed. R pairs rates exactly; the semi-derivative pairing S is the
    reduced rewrite x' * y + x(0) y(t), or the GL half-derivatives of the
    columns paired by the all-node Riemann rule h sum_k x_k y_{n-k}; the
    assembly holds its closed form (`gl_semi_pair_entries`), not this route."""
    h = grid.h
    if scheme == "direct":
        su, sj = (
            np.column_stack([frac_deriv(Side.LEFT, Signal(grid, c), 0.5).values for c in x.T])
            for x in (u, J)
        )
        s_ju, s_uu = h * end_pairs(sj, su), h * end_pairs(su, su)
    else:
        s_ju = rate_value_pair_end(J, u, h) + np.outer(J[0], u[-1])
        s_uu = rate_value_pair_end(u, u, h) + np.outer(u[0], u[-1])
    return float(
        0.5 * np.sum(model.M * rate_pair_end(u, u, h))
        - 0.5 * np.sum(model.A * rate_pair_end(J, J, h))
        + np.sum(model.B.T * s_ju)
        + 0.5 * np.sum(model.C * s_uu)
        - conv_end_linear(u, model.forcing_history(grid.nodes()), h)
        - u[-1] @ model.j_hat_0
    )


def action_value(kind: ActionKind, model, traj, *, ics=None, scheme: str = "reduced") -> float:
    """Value of the chosen functional at the trajectory, computed directly
    from sampled signals (quadrature route, independent of the assembled
    matrices). GURTIN requires ics = (u0, v0)."""
    _check_kind_inputs(kind, model, traj)
    if kind is ActionKind.HAMILTON:
        u = _signal_of(traj)
        du = deriv1(u.values, u.grid.h)
        f = model.forcing_signal(u.grid).values
        integrand = 0.5 * model.m * du * du - 0.5 * model.k * u.values**2 + f * u.values
        return float(u.grid.trapezoid_weights() @ integrand)
    if kind is ActionKind.TONTI:
        u = _signal_of(traj)
        du = Signal(u.grid, deriv1(u.values, u.grid.h))
        f = model.forcing_signal(u.grid)
        return (
            0.5 * model.m * convolve_at_end(du, du)
            + 0.5 * model.c * convolve_at_end(du, u)
            + 0.5 * model.k * convolve_at_end(u, u)
            - convolve_at_end(u, f)
        )
    if kind is ActionKind.GURTIN:
        if ics is None:
            raise ValueError("GURTIN needs ics=(u0, v0) to build its forcing")
        u = _signal_of(traj)
        g = u.grid
        uu = convolve(u, u)
        ones = Signal(g, np.ones(g.n_nodes))
        kramp = Signal(g, model.k * g.nodes())
        f = gurtin_forcing(model, ics[0], ics[1], g)
        return (
            0.5 * model.m * convolve_at_end(u, u)
            + 0.5 * model.c * convolve_at_end(ones, uu)
            + 0.5 * convolve_at_end(kramp, uu)
            - convolve_at_end(f, u)
        )
    # mixed convolved kinds
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    if kind in MIXED_KINDS:
        model, _, traj = mdof_view(model, None, traj)
        return _mca_value_terms(model, traj.u, traj.J, traj.grid, scheme)
    raise ValueError(f"unknown action kind {kind!r}")


def _check_direction_constraints(kind: ActionKind, direction):
    def _is_zero(x) -> bool:
        return abs(x) <= 1e-12

    if kind is ActionKind.GURTIN:
        return  # variations stay fully free
    if kind in (ActionKind.TONTI, ActionKind.HAMILTON):
        d = _signal_of(direction).values
        if not _is_zero(d[0]):
            raise ValueError(f"{kind.value} direction must vanish at tau = 0")
        if kind is ActionKind.HAMILTON and not _is_zero(d[-1]):
            raise ValueError("HAMILTON direction must vanish at tau = t")
        return
    du = np.atleast_2d(np.asarray(direction.u).T).T
    dJ = np.atleast_2d(np.asarray(direction.J).T).T
    if not (np.all(np.abs(du[0]) <= 1e-12) and np.all(np.abs(dJ[0]) <= 1e-12)):
        raise ValueError("mixed direction must vanish at tau = 0 in both u and J")


def action_variation(
    kind: ActionKind, model, traj, direction, *, ics=None, scheme: str = "reduced"
) -> float:
    """First (Gateaux) variation of the functional at `traj` in `direction`,
    g^T (K x + r), evaluated in closed form from the discrete quadratic form:
    the mixed kinds' term triplets read as a bilinear form on the (u, J)
    histories (nothing assembled), GURTIN's matvec and the HAMILTON and
    TONTI bilinear forms. The mixed value takes another route, one
    contraction per term that reads no triplets, so the two cross-check."""
    _check_kind_inputs(kind, model, traj)
    _check_kind_inputs(kind, model, direction, "direction")
    _check_direction_constraints(kind, direction)
    if kind in MIXED_KINDS:
        model, _, traj, direction = mdof_view(model, None, traj, direction)
        form, r = build_mca_form(model, traj.grid, scheme)
        x, g = (np.hstack([t.u, t.J]) for t in (traj, direction))
        return float(form(g, x) + np.sum(g * r))
    x, g = _signal_of(traj).values, _signal_of(direction).values
    if kind is ActionKind.GURTIN:
        if ics is None:
            raise ValueError("GURTIN needs ics=(u0, v0)")
        matvec, r = build_gurtin_system(model, traj.grid, ics[0], ics[1])
        return float(g @ (matvec(x) + r))
    build = build_hamilton_system if kind is ActionKind.HAMILTON else build_tonti_system
    form, r = build(model, traj.grid)
    return float(form(g, x) + g @ r)


def el_residuals(kind: ActionKind, model, traj, *, ics=None) -> ResidualReport:
    """Euler-Lagrange residual report: the field equations of the kind's
    stationarity conditions evaluated by second-order differencing, plus the
    initial-condition residuals evaluated at tau = 0.

    TONTI, GURTIN and the mixed kinds need ics = (u0, v0) — the velocity
    datum enters the initial-condition residuals exactly, not by differencing.
    """
    _check_kind_inputs(kind, model, traj)
    grid = traj.grid
    h = grid.h
    fields: dict = {}
    ics_out: dict = {}

    if kind is ActionKind.HAMILTON:
        u = _signal_of(traj).values
        f = model.forcing_signal(grid).values
        fields["motion"] = model.m * deriv2(u, h) + model.k * u - f
    elif kind is ActionKind.TONTI:
        if ics is None:
            raise ValueError("TONTI residuals need ics=(u0, v0)")
        u = _signal_of(traj).values
        f = model.forcing_signal(grid).values
        fields["motion"] = model.m * deriv2(u, h) + model.c * deriv1(u, h) + model.k * u - f
        ics_out["initial"] = model.m * ics[1] + 0.5 * model.c * u[0]
    elif kind is ActionKind.GURTIN:
        if ics is None:
            raise ValueError("GURTIN residuals need ics=(u0, v0)")
        u = _signal_of(traj)
        ones = Signal(grid, np.ones(grid.n_nodes))
        ramp = Signal(grid, grid.nodes())
        f = gurtin_forcing(model, ics[0], ics[1], grid)
        fields["integro_motion"] = (
            model.m * u.values
            + model.c * convolve(ones, u).values
            + model.k * convolve(ramp, u).values
            - f.values
        )
    elif kind in MIXED_KINDS:
        if ics is None:
            raise ValueError(f"{kind.value} residuals need ics=(u0, v0)")
        model, ics, traj = mdof_view(model, ics, traj)
        u, J = traj.u, traj.J
        f = model.forcing_history(grid.nodes())
        ddu, du = deriv2(u, h), deriv1(u, h)
        ddJ, dJ = deriv2(J, h), deriv1(J, h)
        fields["motion"] = ddu @ model.M.T + du @ model.C.T + dJ @ model.B.T - f
        fields["compatibility"] = -ddJ @ model.A.T + du @ model.B
        v0 = np.asarray(ics[1], dtype=float)
        mot = model.M @ v0 + model.C @ u[0] + model.B @ J[0] - model.j_hat_0
        comp = -model.A @ dJ[0] + model.B.T @ u[0]
        ics_out["motion_ic"] = float(np.max(np.abs(mot)))
        ics_out["compatibility_ic"] = float(np.max(np.abs(comp)))
    else:
        raise ValueError(f"unknown action kind {kind!r}")
    return ResidualReport(kind.value, grid, fields, ics_out)


def hamilton_second_variation(m: float, k: float, direction: Signal) -> float:
    """Second variation int (m (du')^2 - k (du)^2) dtau of the classical
    action; indefinite for k > 0, positive for k = 0 (least action).

    Takes the mass and stiffness directly so the spring-free case k = 0 is
    expressible (the oscillator model type requires k > 0).
    """
    if m <= 0.0 or k < 0.0:
        raise ValueError("need m > 0 and k >= 0")
    d = direction.values
    if abs(d[0]) > 1e-12 or abs(d[-1]) > 1e-12:
        raise ValueError("second-variation direction must vanish at both ends")
    dd = deriv1(d, direction.grid.h)
    integrand = m * dd * dd - k * d * d
    return float(direction.grid.trapezoid_weights() @ integrand)


def rayleigh_variation(model: SdofModel, u: Signal, direction: Signal) -> float:
    """First variation with the dissipation-function term:
    int (m u' du' - k u du + f du - c u' du) dtau."""
    d = direction.values
    if abs(d[0]) > 1e-12 or abs(d[-1]) > 1e-12:
        raise ValueError("Rayleigh direction must vanish at both ends")
    if u.grid != direction.grid:
        raise ValueError("u and direction must share a grid")
    h = u.grid.h
    du = deriv1(u.values, h)
    dd = deriv1(d, h)
    f = model.forcing_signal(u.grid).values
    integrand = model.m * du * dd - model.k * u.values * d + f * d - model.c * du * d
    return float(u.grid.trapezoid_weights() @ integrand)


def bateman_residuals(model: SdofModel, u: Signal, v: Signal) -> ResidualReport:
    """Residuals of the doubled-variable formulation: the physical damped
    equation for u and the mirror negative-damping equation for v."""
    if u.grid != v.grid:
        raise ValueError("u and v must share a grid")
    h = u.grid.h
    f = model.forcing_signal(u.grid).values
    fields = {
        "physical": model.m * deriv2(u.values, h)
        + model.c * deriv1(u.values, h)
        + model.k * u.values
        - f,
        "mirror": model.m * deriv2(v.values, h)
        - model.c * deriv1(v.values, h)
        + model.k * v.values
        - f,
    }
    return ResidualReport("BATEMAN", u.grid, fields)


def make_direction_battery(
    grid: Grid, count: int = 16, seed: int = 7, vanish_end: bool = False
) -> list[Signal]:
    """Fixed-seed random cubic-spline directions vanishing at tau = 0 (and
    at tau = t when requested).

    Each direction interpolates uniform draws y on 6 equispaced knots with
    not-a-knot ends, the spline of scipy's `CubicSpline(knots, y)`. Its knot
    second derivatives M solve M_{i-1} + 4 M_i + M_{i+1} =
    6 (y_{i+1} - 2 y_i + y_{i-1}) / H^2 at the 4 interior knots and
    M_0 - 2 M_1 + M_2 = 0 = M_3 - 2 M_4 + M_5 (a continuous third derivative
    at knots 1 and 4). On cell i, at b = tau / H - i and a = 1 - b, the
    spline is a y_i + b y_{i+1} + ((a^3 - a) M_i + (b^3 - b) M_{i+1}) H^2 / 6,
    which is exactly y_i at a = 1 and y_{i+1} at b = 1: the zero end values
    stay exactly zero."""
    rng = np.random.default_rng(seed)
    vals = rng.uniform(-1.0, 1.0, (count, 6))  # as count calls of 6 draws
    vals[:, 0] = 0.0
    if vanish_end:
        vals[:, -1] = 0.0
    step = grid.t_final / 5.0
    system = 4.0 * np.eye(6) + np.eye(6, k=1) + np.eye(6, k=-1)
    system[0, :3] = system[-1, -3:] = (1.0, -2.0, 1.0)
    rhs = np.zeros((6, count))
    rhs[1:-1] = 6.0 / step**2 * np.diff(vals, 2).T
    curv = np.linalg.solve(system, rhs).T
    pos = 5.0 * np.arange(grid.n_nodes) / grid.n_steps  # tau / H, exactly 0 and 5 at the ends
    cell = np.minimum(pos.astype(int), 4)
    b = pos - cell
    a = 1.0 - b
    cubic = (a**3 - a) * curv[:, cell] + (b**3 - b) * curv[:, cell + 1]
    out = a * vals[:, cell] + b * vals[:, cell + 1] + step**2 / 6.0 * cubic
    return [Signal(grid, row) for row in out]

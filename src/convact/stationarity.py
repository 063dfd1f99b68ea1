"""Global-in-time stationarity solve of the mixed convolved action.

The discrete unknowns are the nodal values of u and J at nodes 1..n; node 0
is fixed from the mixed-variable initial conditions, which realizes the
constrained-variation structure of the principle (initial values pinned, end
values free). Node 0 is eliminated by index arrays: `DofLayout.free_indices`
selects the rows and columns of the free system, `node0_indices` the columns
folded into its linear term. The assembled quadratic form is symmetric but
indefinite — the action is stationary, not minimal — so the solve uses a
symmetric indefinite (Bunch-Kaufman) factorization.

The damped oscillator (MCA_SDOF) is solved as the one-dof case of the
multi-dof system: `assemble` lifts the model through `sdof_as_mdof`, and the
solved trajectory is reshaped to scalar histories only on the way out.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack

from ._discrete import DofLayout, build_mca_system
from .actions import ActionKind
from .grid import Grid
from .models import (
    MdofModel,
    SdofModel,
    Trajectory,
    analytic_sdof,
    mdof_mixed_initials,
    mdof_oracle,
    sdof_as_mdof,
)

__all__ = [
    "QuadraticForm",
    "SolveReport",
    "ConvergenceTable",
    "SingularSystemError",
    "assemble",
    "solve_stationary",
    "convergence_study",
]

# condition estimate beyond which the factorization is declared unusable:
# half of the double-precision budget
CONDITION_LIMIT = 1.0 / math.sqrt(np.finfo(float).eps)


class SingularSystemError(RuntimeError):
    """Raised when the assembled system is numerically singular."""


@dataclass(frozen=True)
class QuadraticForm:
    """Reduced quadratic form over the free nodal values.

    I(d) = 1/2 d^T K d + r^T d + const, with d the values at
    `layout.free_indices()` and the node-0 values eliminated and recorded in
    `node0`, ordered as `layout.node0_indices()`.
    """

    K: np.ndarray = field(repr=False)
    r: np.ndarray = field(repr=False)
    node0: np.ndarray
    layout: DofLayout
    grid: Grid
    kind: ActionKind
    scheme: str

    def __post_init__(self):
        scale = max(float(np.max(np.abs(self.K))), 1.0)
        if np.max(np.abs(self.K - self.K.T)) > 1e-12 * scale:
            raise ValueError("K must be symmetric to roundoff")
        n_free, n_fixed = self.layout.free_indices().size, self.layout.node0_indices().size
        shapes = (self.K.shape, self.r.shape, np.shape(self.node0))
        if shapes != ((n_free, n_free), (n_free,), (n_fixed,)):
            raise ValueError(
                f"K, r, node0 shapes {shapes} do not match the layout's "
                f"{n_free} free values and {n_fixed} node-0 values"
            )

    @property
    def n_free(self) -> int:
        return self.K.shape[0]

    def full_vector(self, d_free: np.ndarray) -> np.ndarray:
        """Reassemble the all-nodes vector from free values plus node-0 data."""
        x = np.empty(self.layout.size)
        x[self.layout.free_indices()] = d_free
        x[self.layout.node0_indices()] = self.node0
        return x


@dataclass(frozen=True)
class SolveReport:
    trajectory: Trajectory
    gradient_norm: float
    condition_estimate: float
    wall_time: float


def assemble(
    kind: ActionKind, model, grid: Grid, u0, v0, scheme: str = "reduced"
) -> QuadraticForm:
    """Discretize the mixed convolved action and fold the node-0 constraints
    (from the mixed initial conditions) into the free-dof system."""
    if kind is ActionKind.MCA_SDOF:
        if not isinstance(model, SdofModel):
            raise ValueError("MCA_SDOF assembly needs an SdofModel")
        model, u0, v0 = sdof_as_mdof(model), [float(u0)], [float(v0)]
    elif kind is ActionKind.MCA_MDOF:
        if not isinstance(model, MdofModel):
            raise ValueError("MCA_MDOF assembly needs an MdofModel")
    else:
        raise ValueError(f"assemble supports the mixed kinds only, got {kind!r}")
    k_full, r_full, layout = build_mca_system(model, grid, scheme)
    node0 = np.concatenate(mdof_mixed_initials(model, u0, v0))
    fixed_idx = layout.node0_indices()
    free_idx = layout.free_indices()
    K = k_full[np.ix_(free_idx, free_idx)]
    r = r_full[free_idx] + k_full[np.ix_(free_idx, fixed_idx)] @ node0
    return QuadraticForm(
        K=K, r=r, node0=node0, layout=layout, grid=grid, kind=kind, scheme=scheme
    )


def _traj_from_free(qf: QuadraticForm, d_free: np.ndarray) -> Trajectory:
    u, J = qf.layout.unpack(qf.full_vector(d_free))
    if qf.kind is ActionKind.MCA_SDOF:
        return Trajectory(qf.grid, u[:, 0], J[:, 0])
    return Trajectory(qf.grid, u, J)


def solve_stationary(qf: QuadraticForm) -> SolveReport:
    """Solve K d = -r by LDL^T (Bunch-Kaufman) and reassemble the trajectory.

    Raises SingularSystemError when the condition estimate exceeds the
    half-precision budget of the double-precision factorization.
    """
    start = time.perf_counter()
    K = np.asarray(qf.K, dtype=float, order="F")
    anorm = float(np.max(np.sum(np.abs(K), axis=0))) if K.size else 0.0
    ldu, ipiv, info = lapack.dsytrf(K, lower=0)
    if info > 0:
        raise SingularSystemError(
            f"exactly singular diagonal block in {qf.kind.value} system "
            f"(n_steps={qf.grid.n_steps}, h={qf.grid.h:g})"
        )
    if info < 0:
        raise RuntimeError(f"dsytrf failed with argument error {info}")
    rcond, info = lapack.dsycon(ldu, ipiv, anorm, lower=0)
    condition = math.inf if rcond == 0.0 else 1.0 / rcond
    if condition > CONDITION_LIMIT:
        raise SingularSystemError(
            f"{qf.kind.value} system numerically singular: condition estimate "
            f"{condition:.3e} exceeds {CONDITION_LIMIT:.3e} "
            f"(n_steps={qf.grid.n_steps}, h={qf.grid.h:g})"
        )
    d, info = lapack.dsytrs(ldu, ipiv, -qf.r, lower=0)
    if info != 0:
        raise RuntimeError(f"dsytrs failed with argument error {info}")
    grad = qf.K @ d + qf.r
    scale = max(float(np.max(np.abs(qf.K))) * max(float(np.max(np.abs(d))), 1.0),
                float(np.max(np.abs(qf.r))), 1.0)
    gradient_norm = float(np.max(np.abs(grad))) / scale
    wall = time.perf_counter() - start
    return SolveReport(
        trajectory=_traj_from_free(qf, d),
        gradient_norm=gradient_norm,
        condition_estimate=condition,
        wall_time=wall,
    )


@dataclass(frozen=True)
class ConvergenceRow:
    n_steps: int
    h: float
    err_u_sup: float
    err_u_l2: float
    err_J_sup: float
    err_J_l2: float
    order_u: float | None
    order_J: float | None
    wall_ms: float


@dataclass(frozen=True)
class ConvergenceTable:
    rows: tuple

    def to_csv(self) -> str:
        lines = ["n,h,err_u_sup,err_u_l2,err_J_sup,err_J_l2,order_u,order_J,wall_ms"]
        for row in self.rows:
            ou = "" if row.order_u is None else f"{row.order_u:.17g}"
            oj = "" if row.order_J is None else f"{row.order_J:.17g}"
            lines.append(
                f"{row.n_steps},{row.h:.17g},{row.err_u_sup:.17g},{row.err_u_l2:.17g},"
                f"{row.err_J_sup:.17g},{row.err_J_l2:.17g},{ou},{oj},{row.wall_ms:.17g}"
            )
        return "\n".join(lines) + "\n"


def _oracle_trajectory(kind: ActionKind, model, u0, v0, grid: Grid) -> Trajectory:
    if kind is ActionKind.MCA_SDOF:
        try:
            return analytic_sdof(model, float(u0), float(v0), grid)
        except ValueError:
            mdof = sdof_as_mdof(model)
            traj = mdof_oracle(mdof, [float(u0)], [float(v0)], grid)
            return Trajectory(grid, traj.u[:, 0], traj.J[:, 0])
    return mdof_oracle(model, u0, v0, grid)


def _errors(solved: Trajectory, oracle: Trajectory, h: float) -> tuple[float, float]:
    diff = np.asarray(solved.u) - np.asarray(oracle.u)
    return float(np.max(np.abs(diff))), float(math.sqrt(h * np.sum(diff * diff)))


def convergence_study(
    kind: ActionKind,
    model,
    u0,
    v0,
    t_final: float,
    n_list,
    scheme: str = "reduced",
) -> ConvergenceTable:
    """Solve on each grid and boil down errors against the oracle plus
    Richardson order estimates between consecutive grids."""
    n_list = list(n_list)
    if len(n_list) < 3 or sorted(n_list) != n_list or len(set(n_list)) != len(n_list):
        raise ValueError("n_list must be strictly increasing with length >= 3")
    rows = []
    for n in n_list:
        grid = Grid(t_final, n)
        t0 = time.perf_counter()
        report = solve_stationary(assemble(kind, model, grid, u0, v0, scheme))
        wall_ms = (time.perf_counter() - t0) * 1e3
        oracle = _oracle_trajectory(kind, model, u0, v0, grid)
        eu_sup, eu_l2 = _errors(report.trajectory, oracle, grid.h)
        diff_j = np.asarray(report.trajectory.J) - np.asarray(oracle.J)
        ej_sup = float(np.max(np.abs(diff_j)))
        ej_l2 = float(math.sqrt(grid.h * np.sum(diff_j * diff_j)))
        rows.append((n, grid.h, eu_sup, eu_l2, ej_sup, ej_l2, wall_ms))
    out = []
    for i, (n, h, eu_sup, eu_l2, ej_sup, ej_l2, wall_ms) in enumerate(rows):
        order_u = order_j = None
        if i > 0:
            h_prev, eu_prev, ej_prev = rows[i - 1][1], rows[i - 1][2], rows[i - 1][4]
            denom = math.log(h_prev / h)
            if eu_prev > 0.0 and eu_sup > 0.0:
                order_u = math.log(eu_prev / eu_sup) / denom
            if ej_prev > 0.0 and ej_sup > 0.0:
                order_j = math.log(ej_prev / ej_sup) / denom
        out.append(
            ConvergenceRow(n, h, eu_sup, eu_l2, ej_sup, ej_l2, order_u, order_j, wall_ms)
        )
    return ConvergenceTable(tuple(out))

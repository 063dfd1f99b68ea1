"""Global-in-time stationarity solve of the mixed convolved action.

The discrete unknowns are the nodal values of u and J at nodes 1..n; node 0
is fixed from the mixed-variable initial conditions, which realizes the
constrained-variation structure of the principle (initial values pinned, end
values free). `DofLayout` packs the values node by node in fold order (node
0, n, n - 1, 1, 2, n - 2, ...), so node 0 is the first `width` values:
eliminating it keeps the trailing rows and columns of K and folds the leading
columns into the linear term. The assembled quadratic form is symmetric but
indefinite — the action is stationary, not minimal.

The solve is O(N) in time and memory for both schemes. K has a few nonzeros
per row, and fold order puts every coupled pair of nodes at most 2 places
apart: the half-bandwidth is 5 for one dof and 16 for the 3-story shear
building. `build_mca_system` writes K straight into band storage, and the
solve copies that band into LAPACK's array and factors it in place, with no
permutation, by banded LU (`dgbtrf`). The 1-norm of K, its largest entry and
the gradient K d + r are read off the same band. The 1-norm condition number is estimated
by Hager's method over banded solves with K and K^T, and a system whose
estimate exceeds CONDITION_LIMIT is refused. No scipy.sparse code runs on
this path; `QuadraticForm.K` imports it to build a CSR copy only when asked.

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

from ._discrete import DofLayout, band_matvec, build_mca_system
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

    I(d) = 1/2 d^T K d + r^T d + const, with d the values at nodes 1..n in
    the packing order of `layout` (fold order, components side by side) and
    the node-0 values eliminated and recorded in `node0`, which `layout`
    packs first. K is held as `band`, its (2b + 1, N) band storage
    band[b + i - j, j] = K[i, j] (see `MixedSystem`); `K` builds it as a
    sparse CSR matrix on demand.
    """

    band: np.ndarray = field(repr=False)
    r: np.ndarray = field(repr=False)
    node0: np.ndarray
    layout: DofLayout
    grid: Grid
    kind: ActionKind
    scheme: str

    def __post_init__(self):
        band = np.ascontiguousarray(self.band, dtype=float)
        object.__setattr__(self, "band", band)
        n_fixed = self.layout.width
        n_free = self.layout.size - n_fixed
        shapes = (band.shape, self.r.shape, np.shape(self.node0))
        if len(band) % 2 == 0 or shapes != ((len(band), n_free), (n_free,), (n_fixed,)):
            raise ValueError(
                f"band, r, node0 shapes {shapes} do not match the layout's "
                f"{n_free} free values and {n_fixed} node-0 values"
            )
        b = len(band) // 2  # K[j + o, j] = band[b + o, j] against K[j, j + o]
        asymmetry = max(
            (_max_abs(band[b + o, : n_free - o] - band[b - o, o:]) for o in range(1, b + 1)),
            default=0.0,
        )
        if asymmetry > 1e-12 * max(_max_abs(band), 1.0):
            raise ValueError("K must be symmetric to roundoff")

    @property
    def n_free(self) -> int:
        return self.band.shape[1]

    @property
    def K(self):
        """K as a CSR matrix without stored zeros. No solve reads it, so
        scipy.sparse is imported here, on demand."""
        from scipy import sparse

        width, n = self.band.shape
        columns = self.band.T  # columns[j, r] = K[j + r - b, j]
        j, r = np.nonzero(columns)
        indptr = np.concatenate([[0], np.cumsum(np.bincount(j, minlength=n))])
        csc = sparse.csc_array((columns[j, r], j + r - width // 2, indptr), shape=(n, n))
        return csc.tocsr()

    def full_vector(self, d_free: np.ndarray) -> np.ndarray:
        """Reassemble the all-nodes vector from free values plus node-0 data."""
        return np.concatenate([self.node0, d_free])


def _max_abs(values: np.ndarray) -> float:
    return float(max(np.max(values, initial=0.0), -np.min(values, initial=0.0)))


@dataclass(frozen=True)
class SolveReport:
    """Solved trajectory and what the solve measured: the relative gradient
    norm at the solution, the 1-norm condition estimate of K, the
    half-bandwidth of K in fold order (under 3 nodes' worth of values: 5 for
    one dof, 16 for the 3-story shear building), the normwise forward-error
    bound condition * eps, and the wall time of the solve."""

    trajectory: Trajectory
    gradient_norm: float
    condition_estimate: float
    wall_time: float
    bandwidth: int
    forward_error_bound: float


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
    node0 = np.concatenate(mdof_mixed_initials(model, u0, v0))
    system, r_full, layout = build_mca_system(model, grid, scheme)
    r = r_full[layout.width :] + system.slab @ node0
    return QuadraticForm(
        band=system.band, r=r, node0=node0, layout=layout, grid=grid, kind=kind, scheme=scheme
    )


def _traj_from_free(qf: QuadraticForm, d_free: np.ndarray) -> Trajectory:
    u, J = qf.layout.unpack(qf.full_vector(d_free))
    if qf.kind is ActionKind.MCA_SDOF:
        return Trajectory(qf.grid, u[:, 0], J[:, 0])
    return Trajectory(qf.grid, u, J)


def _inverse_norm_estimate(solve, n: int) -> float:
    """Hager/Higham estimate of ||A^-1||_1 from solves with A (`solve(x, 0)`)
    and A^T (`solve(x, 1)`), step for step LAPACK's `dlacn2`: at most five
    sign-vector iterations, then the alternating-sign vector as a safeguard."""
    x = solve(np.full(n, 1.0 / n), 0)
    if n == 1:
        return abs(float(x[0]))
    est = float(np.sum(np.abs(x)))
    signs = np.where(x >= 0.0, 1.0, -1.0)
    j = int(np.argmax(np.abs(solve(signs, 1))))
    for _ in range(4):
        x = solve(np.eye(1, n, j).ravel(), 0)
        est_old, est = est, float(np.sum(np.abs(x)))
        new_signs = np.where(x >= 0.0, 1.0, -1.0)
        if np.array_equal(new_signs, signs) or est <= est_old:
            break
        signs = new_signs
        z = solve(signs, 1)
        j_last, j = j, int(np.argmax(np.abs(z)))
        if z[j_last] == abs(z[j]):
            break
    alt = (1.0 + np.arange(n) / (n - 1)) * np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    return max(est, 2.0 * float(np.sum(np.abs(solve(alt, 0)))) / (3 * n))


def solve_stationary(qf: QuadraticForm) -> SolveReport:
    """Solve K d = -r by banded LU in fold order and reassemble the trajectory.

    In the fold order of `layout` K is banded with a half-bandwidth below
    three times the number of values per node; LAPACK's `dgbtrf`/`dgbtrs`
    factor and solve in O(N) time and memory.
    The 1-norm condition number is ||K||_1 times Hager's estimate of
    ||K^-1||_1, also O(N). Raises SingularSystemError when the factorization
    meets an exactly zero pivot or the condition estimate exceeds
    CONDITION_LIMIT, the half-precision budget of the double-precision solve.
    """
    start = time.perf_counter()
    width, n_free = qf.band.shape
    band = width // 2
    ab = np.zeros((3 * band + 1, n_free), order="F")  # band rows of fill room on top
    ab[band:] = qf.band
    lu, ipiv, info = lapack.dgbtrf(ab, band, band, overwrite_ab=1)
    if info > 0:
        raise SingularSystemError(
            f"exactly singular pivot in {qf.kind.value} system "
            f"(n_steps={qf.grid.n_steps}, h={qf.grid.h:g})"
        )
    if info < 0:
        raise RuntimeError(f"dgbtrf failed with argument error {info}")

    def solve(rhs: np.ndarray, trans: int) -> np.ndarray:
        x, info = lapack.dgbtrs(lu, band, band, rhs, ipiv, trans=trans)
        if info != 0:
            raise RuntimeError(f"dgbtrs failed with argument error {info}")
        return x

    anorm = float(np.max(np.abs(qf.band).sum(axis=0)))
    condition = anorm * _inverse_norm_estimate(solve, n_free)
    if condition > CONDITION_LIMIT:
        n_max = int(qf.grid.n_steps * math.sqrt(CONDITION_LIMIT / condition))
        raise SingularSystemError(
            f"{qf.kind.value} system numerically singular: condition estimate "
            f"{condition:.3e} exceeds {CONDITION_LIMIT:.3e} "
            f"(n_steps={qf.grid.n_steps}, h={qf.grid.h:g}); the estimated largest "
            f"admissible n_steps at this t is {n_max}"
        )
    d = solve(-qf.r, 0)
    grad = band_matvec(qf.band, d) + qf.r
    scale = max(_max_abs(qf.band) * max(float(np.max(np.abs(d))), 1.0),
                float(np.max(np.abs(qf.r))), 1.0)
    gradient_norm = float(np.max(np.abs(grad))) / scale
    wall = time.perf_counter() - start
    return SolveReport(
        trajectory=_traj_from_free(qf, d),
        gradient_norm=gradient_norm,
        condition_estimate=condition,
        wall_time=wall,
        bandwidth=band,
        forward_error_bound=condition * float(np.finfo(float).eps),
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

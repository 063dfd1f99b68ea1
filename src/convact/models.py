"""Physical models and reference oracles.

The mixed formulation tracks the displacement u together with the impulse J
of the internal (spring) force, with dJ/dt equal to the force. Reference
solutions come from two independent routes, both exact in u and in J: the
closed-form damped oscillator (single dof, free or harmonically forced) and
the exact state-space propagator, one matrix exponential per step (any dof
count); `oracle_trajectory` picks the route by the model's type. The
damped oscillator is also a one-dof multi-dof model: `mdof_view` lifts an
`SdofModel` and its data onto that model, and `model_trajectory` takes the
histories back, so the mixed action is assembled, evaluated and solved by
the multi-dof code alone. Assemblers produce shear-building and clamped 1D-bar
instances of the multi-dof model.

Importing this module loads numpy alone: `MdofModel` places its flexibility
blocks on the diagonal of A in numpy. `linalg_extension` loads one compiled
module of scipy.linalg without the scipy.linalg package; `mdof_oracle` takes
its matrix exponential from `_matfuncs_expm`, scipy's Padé kernels, and the
banded solve its LAPACK from `_flapack`. No run imports scipy.linalg itself.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
from dataclasses import dataclass, field
import numpy as np

from .grid import CELL_FORMAT, Grid, Signal

__all__ = [
    "HarmonicForcing",
    "SdofModel",
    "MdofModel",
    "Trajectory",
    "analytic_sdof",
    "mdof_mixed_initials",
    "mdof_oracle",
    "oracle_trajectory",
    "build_shear_building",
    "build_bar_1d",
    "sdof_as_mdof",
    "mdof_view",
    "model_trajectory",
    "mdof_to_json",
    "mdof_from_json",
    "linalg_extension",
]


def _finite(name: str, value) -> np.ndarray:
    """`value` as a float array: the one check of every number a model or its
    initial data holds. A non-numeric, ragged or non-finite value raises
    ValueError naming `name`."""
    try:
        arr = np.asarray(value)
        ok = arr.dtype.kind in "iuf" and bool(np.all(np.isfinite(arr)))
    except (TypeError, ValueError):  # a ragged nesting
        ok = False
    if not ok:
        raise ValueError(f"{name} must be finite and numeric, got {value!r}")
    return arr.astype(float, copy=False)


def _scalar(name: str, value) -> float:
    """`_finite` for a field that holds one number."""
    arr = _finite(name, value)
    if arr.ndim:
        raise ValueError(f"{name} must be a scalar, got {value!r}")
    return float(arr)


@dataclass(frozen=True)
class HarmonicForcing:
    """Forcing amplitude * sin(omega * tau + phase); amplitude is a scalar for
    single-dof models and a per-dof vector otherwise. Each field must be
    finite; they are stored as floats (a vector amplitude as a float array)."""

    amplitude: float | np.ndarray
    omega: float
    phase: float = 0.0

    def __post_init__(self):
        amplitude = _finite("amplitude", self.amplitude)
        object.__setattr__(self, "amplitude", amplitude if amplitude.ndim else float(amplitude))
        object.__setattr__(self, "omega", _scalar("omega", self.omega))
        object.__setattr__(self, "phase", _scalar("phase", self.phase))

    def __call__(self, tau):
        return np.asarray(self.amplitude) * np.sin(self.omega * np.asarray(tau) + self.phase)


_UNFORCED = HarmonicForcing(0.0, 0.0)


def _forcing_samples(forcing, taus: np.ndarray, width: int | None = None) -> np.ndarray:
    """Sampled forcing history, (n_nodes,) for a scalar model and
    (n_nodes, width) otherwise; zeros when forcing is None."""
    forcing = _UNFORCED if forcing is None else forcing
    if width is None:
        return np.broadcast_to(forcing(taus), taus.shape).astype(float)
    return np.broadcast_to(forcing(taus[:, None]), (taus.size, width)).astype(float)


@dataclass(frozen=True)
class SdofModel:
    """Damped oscillator m u'' + c u' + k u = f; works with the spring
    flexibility a = 1/k in the compatibility relation. m, c, k and j_hat_0
    must be finite numbers; they are stored as floats."""

    m: float
    c: float
    k: float
    forcing: HarmonicForcing | None = None
    j_hat_0: float = 0.0

    def __post_init__(self):
        for name in ("m", "c", "k", "j_hat_0"):
            object.__setattr__(self, name, _scalar(name, getattr(self, name)))
        if not (self.m > 0.0):
            raise ValueError(f"mass must be > 0, got {self.m}")
        if not (self.k > 0.0):
            raise ValueError(f"stiffness must be > 0, got {self.k}")
        if self.c < 0.0:
            raise ValueError(f"damping must be >= 0, got {self.c}")
        f = self.forcing
        if f is not None and not (isinstance(f, HarmonicForcing) and np.ndim(f.amplitude) == 0):
            raise ValueError(f"forcing: expected a scalar HarmonicForcing or None, got {f!r}")

    @property
    def a(self) -> float:
        """Spring flexibility 1/k."""
        return 1.0 / self.k

    def forcing_signal(self, grid: Grid) -> Signal:
        return Signal(grid, _forcing_samples(self.forcing, grid.nodes()))

    @functools.cached_property
    def _mdof_view(self) -> MdofModel:
        """The one-dof `MdofModel` of `sdof_as_mdof`, built and validated at
        its first use and kept on this instance; the fields are frozen, so it
        stays valid."""
        amp = None
        if self.forcing is not None:
            amplitude = np.array([self.forcing.amplitude])
            amplitude.setflags(write=False)  # the view is shared by every caller
            amp = HarmonicForcing(amplitude, self.forcing.omega, self.forcing.phase)
        return MdofModel(
            M=np.array([[self.m]]),
            C=np.array([[self.c]]),
            A_blocks=(np.array([[self.a]]),),
            B=np.array([[1.0]]),
            forcing=amp,
            j_hat_0=np.array([self.j_hat_0]),
        )


def _check_symmetric(name: str, mat: np.ndarray):
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{name}: must be a square matrix, got shape {mat.shape}")
    scale = max(np.max(np.abs(mat)), 1.0)
    if np.max(np.abs(mat - mat.T)) > 1e-10 * scale:
        raise ValueError(f"{name}: not symmetric")


def _min_eig(mat: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(mat).min())


@dataclass(frozen=True)
class MdofModel:
    """Multi-dof model: nodal mass M and damping C, element flexibility blocks
    A_blocks, assembled once into the block-diagonal A, and equilibrium matrix
    B mapping element force impulses to nodal equations."""

    M: np.ndarray
    C: np.ndarray
    A_blocks: tuple
    B: np.ndarray
    forcing: HarmonicForcing | None = None
    j_hat_0: np.ndarray | None = None
    A: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        M, C, B = (_finite(name, getattr(self, name)) for name in ("M", "C", "B"))
        if not isinstance(self.A_blocks, (list, tuple)) or not self.A_blocks:
            raise ValueError(f"A_blocks: expected a non-empty list, got {self.A_blocks!r}")
        blocks = tuple(
            np.atleast_2d(_finite(f"A_blocks[{i}]", b)) for i, b in enumerate(self.A_blocks)
        )
        _check_symmetric("M", M)
        _check_symmetric("C", C)
        if _min_eig(M) <= 0.0:
            raise ValueError("M: not positive definite")
        if _min_eig(C) < -1e-10 * max(np.max(np.abs(C)), 1.0):
            raise ValueError("C: not positive semidefinite")
        for i, blk in enumerate(blocks):
            _check_symmetric(f"A_blocks[{i}]", blk)
            if _min_eig(blk) <= 0.0:
                raise ValueError(f"A_blocks[{i}]: not positive definite")
        n_dof = M.shape[0]
        n_el = sum(b.shape[0] for b in blocks)
        if C.shape != (n_dof, n_dof):
            raise ValueError(f"C: shape {C.shape} does not match M {M.shape}")
        if B.ndim != 2 or B.shape != (n_dof, n_el):
            raise ValueError(f"B: shape {B.shape}, expected ({n_dof}, {n_el})")
        j0 = np.zeros(n_dof) if self.j_hat_0 is None else _finite("j_hat_0", self.j_hat_0)
        if j0.shape != (n_dof,):
            raise ValueError(f"j_hat_0: shape {j0.shape}, expected ({n_dof},)")
        if self.forcing is not None:
            if not isinstance(self.forcing, HarmonicForcing):
                kind = type(self.forcing).__name__
                raise ValueError(f"forcing: expected a HarmonicForcing or None, got {kind}")
            amp_shape = np.shape(self.forcing.amplitude)
            if amp_shape not in ((), (n_dof,)):
                raise ValueError(
                    f"forcing.amplitude: shape {amp_shape}, expected a scalar or ({n_dof},)"
                )
        A = np.zeros((n_el, n_el))
        start = 0
        for blk in blocks:
            stop = start + blk.shape[0]
            A[start:stop, start:stop] = blk
            start = stop
        for arr in (M, C, B, j0, A) + blocks:
            arr.setflags(write=False)
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "A_blocks", blocks)
        object.__setattr__(self, "j_hat_0", j0)

    @property
    def n_dof(self) -> int:
        return self.M.shape[0]

    @property
    def n_el(self) -> int:
        return self.B.shape[1]

    def reduced_stiffness(self) -> np.ndarray:
        """Displacement-form stiffness B A^-1 B^T."""
        return self.B @ np.linalg.solve(self.A, self.B.T)

    def forcing_history(self, taus: np.ndarray) -> np.ndarray:
        return _forcing_samples(self.forcing, taus, self.n_dof)


@dataclass(frozen=True)
class Trajectory:
    """Paired histories {u, J} on a shared grid; arrays are (n_nodes,) for
    single-dof models and (n_nodes, n_dof) / (n_nodes, n_el) otherwise."""

    grid: Grid
    u: np.ndarray = field(repr=False)
    J: np.ndarray = field(repr=False)

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        J = np.asarray(self.J, dtype=float)
        if u.shape[0] != self.grid.n_nodes or J.shape[0] != self.grid.n_nodes:
            raise ValueError("trajectory histories must have one row per grid node")
        if u.ndim != J.ndim:
            raise ValueError("u and J must both be scalar or both vector valued")
        u.setflags(write=False)
        J.setflags(write=False)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "J", J)

    @property
    def is_scalar(self) -> bool:
        return self.u.ndim == 1

    def u_signal(self) -> Signal:
        return Signal(self.grid, self.u)

    def to_csv(self) -> str:
        """Columns tau,u...,J... at full double precision."""
        table = np.column_stack([self.grid.nodes(), self.u, self.J])
        if self.is_scalar:
            header = "tau,u,J"
        else:
            header = "tau," + ",".join(
                [f"u{i}" for i in range(self.u.shape[1])]
                + [f"J{e}" for e in range(self.J.shape[1])]
            )
        fmt = "\n".join([",".join([CELL_FORMAT] * table.shape[1])] * table.shape[0])
        return f"{header}\n{fmt % tuple(table.ravel().tolist())}\n"


def mdof_mixed_initials(model: MdofModel, u0, v0) -> tuple[np.ndarray, np.ndarray]:
    """Vector counterpart: B J(0) = j_hat_0 - M v0 - C u0 (B square here)."""
    u0, v0 = _finite("u0", u0), _finite("v0", v0)
    rhs = model.j_hat_0 - model.M @ v0 - model.C @ u0
    if model.B.shape[0] != model.B.shape[1]:
        raise ValueError("mixed initials need a square equilibrium matrix B")
    return u0, np.linalg.solve(model.B, rhs)


def analytic_sdof(model: SdofModel, u0: float, v0: float, grid: Grid) -> Trajectory:
    """Closed-form trajectory for free or single-harmonic forcing.

    All damping regimes are covered (under/critical/over). The impulse history
    is the integrated momentum balance J = j_hat_0 + F - m u' - c u, with u'
    from the same closed form and F the applied impulse, the integral of the
    forcing from 0; at tau = 0 it is J(0) = j_hat_0 - m v0 - c u0. Undamped
    resonance, which has no steady state, raises ValueError.
    """
    m, c, k = model.m, model.c, model.k
    wn = math.sqrt(k / m)
    zeta = c / (2.0 * math.sqrt(k * m))
    taus = grid.nodes()

    if model.forcing is None:
        up0 = vp0 = 0.0
        u_part = du_part = applied = np.zeros_like(taus)
    else:
        f0 = model.forcing.amplitude
        om = model.forcing.omega
        ph = model.forcing.phase
        den = (k - m * om * om) ** 2 + (c * om) ** 2
        if den == 0.0:
            raise ValueError("undamped resonance has no steady-state closed form")
        amp = f0 / math.sqrt(den)
        lag = math.atan2(c * om, k - m * om * om)
        arg = om * taus + ph - lag
        u_part = amp * np.sin(arg)
        du_part = amp * om * np.cos(arg)
        up0 = amp * math.sin(ph - lag)
        vp0 = amp * om * math.cos(ph - lag)
        if om == 0.0:  # a constant force f0 sin(phase)
            applied = f0 * math.sin(ph) * taus
        else:
            applied = (f0 / om) * (math.cos(ph) - np.cos(om * taus + ph))

    b1 = u0 - up0
    disc = zeta * zeta - 1.0
    if abs(disc) < 1e-12:  # critically damped
        b2 = (v0 - vp0) + wn * b1
        decay = np.exp(-wn * taus)
        u_hom = decay * (b1 + b2 * taus)
        du_hom = decay * (b2 - wn * (b1 + b2 * taus))
    elif disc < 0.0:  # underdamped (covers zeta = 0)
        wd = wn * math.sqrt(-disc)
        b2 = ((v0 - vp0) + zeta * wn * b1) / wd
        decay, cos, sin = np.exp(-zeta * wn * taus), np.cos(wd * taus), np.sin(wd * taus)
        u_hom = decay * (b1 * cos + b2 * sin)
        du_hom = decay * ((wd * b2 - zeta * wn * b1) * cos - (wd * b1 + zeta * wn * b2) * sin)
    else:  # overdamped: two decaying exponentials, so nothing overflows
        fast = -wn * (zeta + math.sqrt(disc))
        slow = wn * wn / fast  # -wn (zeta - sqrt(disc)) without the cancellation
        a_slow = ((v0 - vp0) - fast * b1) / (slow - fast)
        a_fast = b1 - a_slow
        e_slow, e_fast = np.exp(slow * taus), np.exp(fast * taus)
        u_hom = a_slow * e_slow + a_fast * e_fast
        du_hom = a_slow * slow * e_slow + a_fast * fast * e_fast

    u = u_hom + u_part
    return Trajectory(grid, u, model.j_hat_0 + applied - m * (du_hom + du_part) - c * u)


def mdof_oracle(model: MdofModel, u0, v0, grid: Grid) -> Trajectory:
    """Exact sampled trajectory of M u'' + C u' + (B A^-1 B^T) u = f with
    J' = A^-1 B^T u and J(0) from the mixed initial conditions.

    The forcing a sin(omega tau + phase) is the output of the oscillator
    s' = omega c, c' = -omega s started at (sin phase, cos phase), so the
    augmented state z = (u, u', J, s, c) obeys the autonomous linear system
    z' = F z with u'' = M^-1 (a s - C u' - B A^-1 B^T u). One matrix
    exponential expm(h F) (Van Loan 1978) maps each node onto the next,
    exact up to roundoff."""
    d, e = model.n_dof, model.n_el
    forcing = _UNFORCED if model.forcing is None else model.forcing
    u0, j0 = mdof_mixed_initials(model, u0, v0)
    a_inv_bt = np.linalg.solve(model.A, model.B.T)
    m_inv = np.linalg.inv(model.M)
    u, v, j = slice(0, d), slice(d, 2 * d), slice(2 * d, 2 * d + e)
    s, c = 2 * d + e, 2 * d + e + 1
    rate = np.zeros((c + 1, c + 1))
    rate[u, v] = np.eye(d)
    rate[v, u] = -m_inv @ model.B @ a_inv_bt
    rate[v, v] = -m_inv @ model.C
    rate[v, s] = m_inv @ np.broadcast_to(forcing.amplitude, (d,))
    rate[j, u] = a_inv_bt
    rate[s, c], rate[c, s] = forcing.omega, -forcing.omega
    step = _expm(grid.h * rate)
    z = np.empty((grid.n_nodes, c + 1))
    z[0] = np.concatenate([u0, v0, j0, [math.sin(forcing.phase), math.cos(forcing.phase)]])
    for node in range(1, grid.n_nodes):
        z[node] = step @ z[node - 1]
    return Trajectory(grid, z[:, u], z[:, j])


def linalg_extension(name: str):
    """The compiled module `scipy.linalg.<name>`, loaded from scipy's linalg
    directory without importing the scipy.linalg package, which would load
    about 300 modules more. A module already in `sys.modules` is reused, and a
    later scipy.linalg import reuses the one loaded here. Raises ImportError
    naming the module and the directory searched when the file is missing."""
    name = f"scipy.linalg.{name}"
    if name not in sys.modules:
        from importlib import machinery, util
        where = os.path.join(util.find_spec("scipy").submodule_search_locations[0], "linalg")
        spec = machinery.PathFinder.find_spec(name, [where])
        if spec is None:
            raise ImportError(f"no {name} extension in {where}", name=name)
        spec.loader.exec_module(module := util.module_from_spec(spec))
        sys.modules[name] = module
    return sys.modules[name]


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a), bitwise `scipy.linalg.expm(a)` for a float64 square `a` with
    nonzero entries both above and below its diagonal.

    This is the generic branch of scipy 1.17's `expm` (Al-Mohy & Higham 2009,
    scaling and squaring over Padé degree 3, 5, 7, 9 or 13), calling the same
    compiled kernels: `pick_pade_structure` picks the degree m and the
    scaling s and scales a, `pade_UV_calc` leaves the Padé approximant in
    am[0], and s squarings undo the scaling. scipy's diagonal and triangular
    branches are left out: `mdof_oracle`'s rate matrix always has entries on
    both sides, rate[u, v] = I above the diagonal and rate[v, u] = -M^-1 B
    A^-1 B^T below it, which is nonzero because A and B are invertible."""
    kernels = linalg_extension("_matfuncs_expm")
    n = len(a)
    am = np.empty((5, n, n))  # scipy's work array: a, then its powers
    am[0] = a
    m, s = kernels.pick_pade_structure(am)
    if m < 0:
        raise MemoryError(f"expm could not allocate its Padé work (error code {m})")
    info = kernels.pade_UV_calc(am, m)
    if info <= -11:
        raise MemoryError(f"expm could not allocate its Padé work (error code {info})")
    if info != 0:
        raise RuntimeError(f"expm got an internal LAPACK error (error code {info})")
    e = am[0]
    for _ in range(s):
        e = e @ e
    return e


def _incidence(n: int) -> np.ndarray:
    """Chain incidence: element i spans nodes i-1, i with node -1 grounded."""
    b = np.eye(n)
    for i in range(1, n):
        b[i - 1, i] = -1.0
    return b


def build_shear_building(
    n_stories: int,
    story_mass: float,
    story_stiffness: float,
    story_damping: float = 0.0,
    forcing: HarmonicForcing | None = None,
    j_hat_0: np.ndarray | None = None,
) -> MdofModel:
    """Uniform shear building: one lateral dof, one spring and one nodal damper
    per story."""
    if n_stories < 1:
        raise ValueError("n_stories must be >= 1")
    if story_mass <= 0.0 or story_stiffness <= 0.0 or story_damping < 0.0:
        raise ValueError("story parameters must be positive (damping >= 0)")
    eye = np.eye(n_stories)
    return MdofModel(
        M=story_mass * eye,
        C=story_damping * eye,
        A_blocks=tuple(np.array([[1.0 / story_stiffness]]) for _ in range(n_stories)),
        B=_incidence(n_stories),
        forcing=forcing,
        j_hat_0=j_hat_0,
    )


def build_bar_1d(
    density: float, axial_rigidity: float, length: float, n_elem: int
) -> MdofModel:
    """Clamped-free elastic bar with linear two-node elements, lumped mass and
    per-element axial flexibility h_e / (EA); no damping."""
    if n_elem < 1:
        raise ValueError("n_elem must be >= 1")
    if density <= 0.0 or axial_rigidity <= 0.0 or length <= 0.0:
        raise ValueError("bar parameters must be positive")
    h_e = length / n_elem
    lumped = np.full(n_elem, density * h_e)
    lumped[-1] = density * h_e / 2.0  # free end carries half an element
    return MdofModel(
        M=np.diag(lumped),
        C=np.zeros((n_elem, n_elem)),
        A_blocks=tuple(np.array([[h_e / axial_rigidity]]) for _ in range(n_elem)),
        B=_incidence(n_elem),
    )


def sdof_as_mdof(model: SdofModel) -> MdofModel:
    """One-dof embedding of an SdofModel, built once per model: every call
    on the same model returns the same (read-only) MdofModel."""
    return model._mdof_view


def mdof_view(model, ics=None, *trajs) -> tuple:
    """(model, ics, *trajs) as the multi-dof code takes them: an SdofModel
    becomes its one-dof MdofModel (`sdof_as_mdof`), scalar initial data
    1-vectors and scalar histories single columns; an MdofModel and its data
    pass through unchanged. Anything else raises ValueError naming its type."""
    if isinstance(model, MdofModel):
        return (model, ics, *trajs)
    if not isinstance(model, SdofModel):
        raise ValueError(f"expected an SdofModel or an MdofModel, got {type(model).__name__}")
    if ics is not None:
        ics = tuple(np.array([_scalar(name, x)]) for name, x in zip(("u0", "v0"), ics))
    columns = (Trajectory(t.grid, t.u.reshape(-1, 1), t.J.reshape(-1, 1)) for t in trajs)
    return (sdof_as_mdof(model), ics, *columns)


def model_trajectory(model, grid: Grid, u: np.ndarray, J: np.ndarray) -> Trajectory:
    """Histories (n_nodes, d) and (n_nodes, e) of `mdof_view(model)` as a
    Trajectory of `model`: an SdofModel's single columns become scalars."""
    if isinstance(model, SdofModel):
        u, J = u[:, 0], J[:, 0]
    return Trajectory(grid, u, J)


def oracle_trajectory(model, u0, v0, grid: Grid) -> Trajectory:
    """Exact trajectory of either model type: an SdofModel's closed form
    (`analytic_sdof`) or, where it has none (undamped resonance), its
    one-dof `mdof_oracle`; an MdofModel's `mdof_oracle`."""
    if isinstance(model, SdofModel):
        try:
            return analytic_sdof(model, _scalar("u0", u0), _scalar("v0", v0), grid)
        except ValueError:
            pass
    mdof, (u0, v0) = mdof_view(model, (u0, v0))
    traj = mdof_oracle(mdof, u0, v0, grid)
    return model_trajectory(model, grid, traj.u, traj.J)


# ---------------------------------------------------------------------------
# JSON serialization of MdofModel


def mdof_to_json(model: MdofModel) -> str:
    doc = {
        "M": model.M.tolist(),
        "C": model.C.tolist(),
        "A_blocks": [b.tolist() for b in model.A_blocks],
        "B": model.B.tolist(),
        "forcing": _forcing_to_doc(model.forcing),
        "j_hat_0": model.j_hat_0.tolist(),
    }
    return json.dumps(doc, indent=2)


def _forcing_to_doc(forcing) -> dict:
    if forcing is None:
        return {"kind": "zero"}
    return {
        "kind": "harmonic",
        "amplitude": np.asarray(forcing.amplitude).tolist(),
        "omega": forcing.omega,
        "phase": forcing.phase,
    }


def check_forcing_acts(forcing: HarmonicForcing) -> HarmonicForcing:
    """The forcing itself, or ValueError if a nonzero amplitude meets
    omega = 0 and sin(phase) = 0: then the force is zero everywhere. A
    constant force (omega = 0, sin(phase) != 0) and a zero amplitude pass."""
    if np.any(forcing.amplitude) and forcing.omega == 0.0 and math.sin(forcing.phase) == 0.0:
        raise ValueError(
            f"forcing: amplitude {np.asarray(forcing.amplitude).tolist()} applies no force: "
            f"sin(omega * tau + phase) is 0 everywhere at omega = 0, phase = "
            f"{forcing.phase:g}; give a nonzero omega or phase"
        )
    return forcing


def _forcing_from_doc(doc) -> HarmonicForcing | None:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ValueError("forcing: expected an object with a 'kind' key")
    kind = doc["kind"]
    if kind == "zero":
        extra = set(doc) - {"kind"}
        if extra:
            raise ValueError(f"forcing: unknown keys {sorted(extra)}")
        return None
    if kind == "harmonic":
        extra = set(doc) - {"kind", "amplitude", "omega", "phase"}
        if extra:
            raise ValueError(f"forcing: unknown keys {sorted(extra)}")
        try:
            forcing = HarmonicForcing(doc["amplitude"], doc["omega"], doc.get("phase", 0.0))
        except (KeyError, ValueError) as exc:
            raise ValueError(f"forcing: {exc}") from exc
        return check_forcing_acts(forcing)
    raise ValueError(f"forcing.kind: unknown preset {kind!r}")


def mdof_from_json(text: str) -> MdofModel:
    """Parse a model document and check its keys and its forcing; `MdofModel`
    checks its numbers. Failures name the offending field."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"model document is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError("model document must be a JSON object")
    required = {"M", "C", "A_blocks", "B"}
    missing = required - set(doc)
    if missing:
        raise ValueError(f"model document missing keys: {sorted(missing)}")
    unknown = set(doc) - required - {"forcing", "j_hat_0"}
    if unknown:
        raise ValueError(f"model document has unknown keys: {sorted(unknown)}")
    if doc.get("j_hat_0", ()) is None:  # MdofModel would read None as zeros
        raise ValueError("j_hat_0: null is not a vector; leave the key out for zeros")
    return MdofModel(
        M=doc["M"],
        C=doc["C"],
        A_blocks=doc["A_blocks"],
        B=doc["B"],
        forcing=_forcing_from_doc(doc.get("forcing", {"kind": "zero"})),
        j_hat_0=doc.get("j_hat_0"),
    )

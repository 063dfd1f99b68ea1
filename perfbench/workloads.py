"""The three benchmark workloads: seed-drawn inputs, one task each, and the
checks applied to every task's output.

Each workload draws a small pool of configurations from the seed before
timing starts. Tasks cycle through the pool, so every configuration runs
several times in one run and its repeats can be compared byte for byte.

Every drawn parameter is a nominal value scaled by a factor in
[1 - JITTER, 1 + JITTER]. The error against the reference scales with the
data (a second-order scheme's error grows with amplitude and with the cube
of the highest frequency), so draws over wide ranges make `sup_error` swing
by 10x between seeds and it could not be compared between runs; at +-5% its
spread between seeds was still 0.11 on the shear buildings. Narrow draws
keep every seed on the same branch (under- or over-damped) and the same
error scale.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import convact
from convact import cli

JITTER = 0.02

# One solve per task; dense LDL^T plus dense assembly are ~99% of it today.
SDOF = dict(t=10.0, n=1024)
# One refinement sweep per task; the RK4 oracle runs once per grid.
SHEAR = dict(t=6.0, n=(64, 128, 256))
# One identity sweep plus an action-variation battery per task.
VERIFY = dict(n=(256, 512, 1024), action_t=10.0, action_n=512)
# The identity sweep keeps the CLI's default test-signal seed: its residuals
# scale with the random profile amplitudes and swing by more than 10x from
# one profile seed to the next, while its run time does not depend on them.
# The seed draws the fractional orders instead.
IDENTITY_SEED = 2024
ALPHAS = (0.25, 0.5, 0.75)

SMOKE_SIZES = {
    "sdof_solve": dict(n=64),
    "shear_convergence": dict(n=(48, 96, 192)),
    "verify_battery": dict(n=(32, 64, 128), action_n=64),
}

# Stated tolerances. The reduced scheme is second order, so the solve
# tolerance is a multiple of h^2: about 10x the error measured on the nominal
# configurations at every grid size used here.
SDOF_TOL_H2 = 5.0
SHEAR_TOL_H2 = 50.0
ORDER_EXPECTED, ORDER_SLACK = 2.0, 0.2
FD_EPS = 1e-4
FD_REL_TOL = 1e-6  # acceptance criterion 6

SDOF_NOMINAL = (
    # under-damped, zeta = 0.1
    dict(m=1.0, c=0.2, k=1.0, u0=1.0, v0=0.0, amplitude=0.5, omega=1.3, phase=0.3),
    # over-damped, zeta = 1.77
    dict(m=1.0, c=5.0, k=2.0, u0=1.0, v0=-0.5, amplitude=0.5, omega=0.8, phase=0.5),
)

SHEAR_NOMINAL = (
    # the acceptance suite's 3-story building (criterion 10)
    dict(mass=(1.0, 1.0, 1.0), stiffness=(10.0, 10.0, 10.0), damping=(0.4, 0.4, 0.4),
         amplitude=(1.0, 0.0, 0.0), omega=2.0, phase=0.0, u0=(0.5, 0.2, -0.1)),
    # a tapered building loaded at the top
    dict(mass=(1.5, 1.0, 0.5), stiffness=(15.0, 10.0, 5.0), damping=(0.6, 0.4, 0.2),
         amplitude=(0.0, 0.0, 1.0), omega=1.5, phase=0.4, u0=(-0.3, 0.4, 0.2)),
)

ACTION_NOMINAL = dict(m=1.0, c=0.2, k=1.0, u0=1.0, v0=0.0, amplitude=0.5, omega=1.3, phase=0.3)

WHY = {
    "sdof_solve": "main user path: dense assembly and LDL^T of a 0.24%-dense K are ~99% "
                  "of a task; the sparse/banded solve acts here",
    "shear_convergence": "multi-dof Kronecker blocks, a sweep of sizes and the RK4 oracle loop; "
                         "the exact oracle acts here once the solve is cheap",
    "verify_battery": "no factorization: identity sweep (grid.sample callbacks) plus "
                      "assembled-and-applied action variations; quadrature kernels act here",
}

# layer metric -> (end-to-end metric it should move, workloads where it should)
PREDICTIONS = {
    "import.s": ("setup_s", "all"),
    "cli.main.self_s": ("task_s_p50", "all"),
    "cli.csv_bytes": ("task_s_p50", "all"),
    "stationarity.assemble.s": ("task_s_*", "sdof_solve, shear_convergence; not verify_battery"),
    "stationarity.solve_stationary.s": ("task_s_*", "sdof_solve, shear_convergence; not verify_battery"),
    "stationarity.convergence_study.self_s": ("task_s_*", "shear_convergence; not verify_battery"),
    "stationarity.n_free": ("peak_rss_mb", "sdof_solve"),
    "stationarity.K_nnz": ("peak_rss_mb", "sdof_solve"),
    "stationarity.K_bytes": ("peak_rss_mb", "sdof_solve"),
    "stationarity.condition": ("sup_error", "sdof_solve, shear_convergence"),
    "stationarity.gradient_norm": ("sup_error", "sdof_solve, shear_convergence"),
    "models.mdof_oracle.s": ("task_s_p50", "shear_convergence"),
    "models.analytic_sdof.s": ("task_s_p50", "sdof_solve"),
    "models.Trajectory.to_csv.s": ("task_s_p50", "sdof_solve"),
    "actions.el_residuals.s": ("task_s_p50", "sdof_solve"),
    "actions.action_value.s": ("task_s_p50", "verify_battery"),
    "actions.action_variation.s": ("task_s_p50", "verify_battery"),
    "identities.run_identity_sweep.self_s": ("task_s_p50", "verify_battery"),
    "identities.ibp_residual.s": ("task_s_p50", "verify_battery"),
    "grid.sample.s": ("task_s_p50", "verify_battery"),
    "grid.sample.calls": ("task_s_p50", "verify_battery"),
    "grid.convolve.s": ("task_s_p50", "verify_battery"),
    "fracops.frac_deriv.s": ("task_s_p50", "verify_battery"),
    "fracops.frac_integral.s": ("task_s_p50", "verify_battery"),
}


@dataclass
class Outcome:
    """What one task produced: a failure reason (None when every check
    passed) and the error it measured against its reference."""

    failure: str | None
    error: float


def _jitter(rng: np.random.Generator, value):
    scale = rng.uniform(1.0 - JITTER, 1.0 + JITTER, np.shape(value))
    return (np.asarray(value, dtype=float) * scale).tolist()


def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [[float(v) if v else math.nan for v in line.split(",")] for line in lines[1:]]
    return header, np.array(rows)


def _strip_last_column(text: str) -> str:
    return "\n".join(line.rsplit(",", 1)[0] for line in text.split("\n"))


class Workload:
    """Seed-drawn inputs for one workload and the task that uses them.

    `run_task(i, out)` is the timed part; `check(i, out, rc, extra)` runs
    after timing and compares the outputs against references and against the
    first run of the same configuration."""

    name: str

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.first_bytes: dict[int, str] = {}
        self.argvs: list[list[str]] = []

    @property
    def pool_size(self) -> int:
        return len(self.argvs)

    def run_task(self, i: int, out: Path):
        return cli.main(self.argvs[i % self.pool_size] + ["--output-dir", str(out)]), None

    def _same_as_first(self, i: int, text: str, name: str) -> str | None:
        first = self.first_bytes.setdefault(i % self.pool_size, text)
        return None if first == text else f"{name} differs from the first run of config {i % self.pool_size}"


class SdofSolve(Workload):
    name = "sdof_solve"

    def __init__(self, seed, work_dir, smoke):
        super().__init__(seed)
        self.n = SMOKE_SIZES[self.name]["n"] if smoke else SDOF["n"]
        self.h = SDOF["t"] / self.n
        for nominal in SDOF_NOMINAL:
            p = {key: _jitter(self.rng, value) for key, value in nominal.items()}
            self.argvs.append([
                "sdof", f"--t={SDOF['t']!r}", f"--n={self.n}",
                f"--m={p['m']!r}", f"--c={p['c']!r}", f"--k={p['k']!r}",
                f"--u0={p['u0']!r}", f"--v0={p['v0']!r}",
                f"--forcing-amplitude={p['amplitude']!r}",
                f"--forcing-omega={p['omega']!r}",
                f"--forcing-phase={p['phase']!r}",
            ])

    def check(self, i, out, rc, extra) -> Outcome:
        if rc != 0:
            return Outcome(f"exit code {rc}", math.nan)
        solved_text = (out / "sdof_solved.csv").read_text()
        _, solved = _read_csv(out / "sdof_solved.csv")
        _, oracle = _read_csv(out / "sdof_oracle.csv")
        err = float(np.max(np.abs(solved[:, 1] - oracle[:, 1])))
        tol = SDOF_TOL_H2 * self.h**2
        if not err <= tol:
            return Outcome(f"sup error {err:.3e} above {tol:.3e}", err)
        return Outcome(self._same_as_first(i, solved_text, "sdof_solved.csv"), err)


class ShearConvergence(Workload):
    name = "shear_convergence"

    def __init__(self, seed, work_dir, smoke):
        super().__init__(seed)
        self.n_list = SMOKE_SIZES[self.name]["n"] if smoke else SHEAR["n"]
        self.h_fine = SHEAR["t"] / self.n_list[-1]
        for k, nominal in enumerate(SHEAR_NOMINAL):
            p = {key: _jitter(self.rng, value) for key, value in nominal.items()}
            path = work_dir / f"shear_model_{k}.json"
            path.write_text(json.dumps(_shear_document(p)))
            self.argvs.append([
                "convergence", "--kind", "mdof", f"--t={SHEAR['t']!r}",
                "--n", ",".join(str(n) for n in self.n_list),
                "--model", str(path), "--u0=" + ",".join(repr(u) for u in p["u0"]),
            ])

    def check(self, i, out, rc, extra) -> Outcome:
        if rc != 0:
            return Outcome(f"exit code {rc}", math.nan)
        text = (out / "convergence.csv").read_text()
        header, table = _read_csv(out / "convergence.csv")
        errs = table[:, header.index("err_u_sup")]
        orders = table[1:, header.index("order_u")]
        err = float(errs[-1])
        tol = SHEAR_TOL_H2 * self.h_fine**2
        if not np.all(errs[1:] < errs[:-1]):
            return Outcome(f"errors not decreasing: {errs.tolist()}", err)
        if not np.all(np.abs(orders - ORDER_EXPECTED) <= ORDER_SLACK):
            return Outcome(f"orders {orders.tolist()} not within {ORDER_SLACK} of 2", err)
        if not err <= tol:
            return Outcome(f"sup error {err:.3e} above {tol:.3e}", err)
        # the wall_ms column is a timing; every other byte must repeat
        return Outcome(self._same_as_first(i, _strip_last_column(text), "convergence.csv"), err)


def _shear_document(p: dict) -> dict:
    """Model document of a shear building with per-story mass, stiffness and
    damping: element i spans stories i-1 and i, story -1 is the ground."""
    d = len(p["mass"])
    incidence = np.eye(d)
    for i in range(1, d):
        incidence[i - 1, i] = -1.0
    return {
        "M": np.diag(p["mass"]).tolist(),
        "C": np.diag(p["damping"]).tolist(),
        "A_blocks": [[[1.0 / k]] for k in p["stiffness"]],
        "B": incidence.tolist(),
        "forcing": {"kind": "harmonic", "amplitude": p["amplitude"],
                    "omega": p["omega"], "phase": p["phase"]},
    }


class VerifyBattery(Workload):
    name = "verify_battery"

    def __init__(self, seed, work_dir, smoke):
        super().__init__(seed)
        sizes = SMOKE_SIZES[self.name] if smoke else VERIFY
        alphas = _jitter(self.rng, ALPHAS)
        self.argvs.append([
            "verify-identities", "--n", ",".join(str(n) for n in sizes["n"]),
            "--alpha", ",".join(repr(a) for a in alphas), "--seed", str(IDENTITY_SEED),
        ])
        self.cases = _action_cases(self.rng, convact.Grid(VERIFY["action_t"], sizes["action_n"]))

    def run_task(self, i, out):
        rc = cli.main(self.argvs[0] + ["--output-dir", str(out)])
        values = []
        for case in self.cases[i % len(self.cases)]:
            kind, model, traj, direction, plus, minus, ics, scheme = case
            var = convact.action_variation(kind, model, traj, direction, ics=ics, scheme=scheme)
            vp = convact.action_value(kind, model, plus, ics=ics, scheme=scheme)
            vm = convact.action_value(kind, model, minus, ics=ics, scheme=scheme)
            values.append((f"{kind.value}/{scheme}", var, vp, vm))
        return rc, values

    def check(self, i, out, rc, extra) -> Outcome:
        if rc != 0:
            return Outcome(f"exit code {rc}", math.nan)
        text = (out / "identities.csv").read_text()
        # columns: kind,alpha,h,lhs,rhs,residual,order_estimate
        lines = [line.split(",") for line in text.strip().split("\n")[1:]]
        finest = min(float(cols[2]) for cols in lines)
        err = max(float(cols[5]) for cols in lines if float(cols[2]) == finest)
        thresholds = convact.identities.ORDER_THRESHOLDS
        margin = convact.identities.ORDER_ESTIMATE_MARGIN
        for cols in lines:
            if cols[6] and float(cols[6]) < thresholds[convact.IdentityKind(cols[0])] - margin:
                return Outcome(f"{cols[0]} alpha={cols[1]} h={cols[2]}: order {cols[6]}", err)
        for label, var, vp, vm in extra:
            fd = (vp - vm) / (2.0 * FD_EPS)
            rel = abs(fd - var) / max(abs(var), 1.0)
            if not rel <= FD_REL_TOL:
                return Outcome(f"{label}: variation {var!r} vs central difference {fd!r}", err)
        return Outcome(self._same_as_first(i, text, "identities.csv"), err)


def _action_cases(rng: np.random.Generator, grid) -> list[list[tuple]]:
    """Per direction pair: every (kind, scheme) with its base trajectory, the
    direction and the two trajectories displaced by +-FD_EPS along it."""
    p = {key: _jitter(rng, value) for key, value in ACTION_NOMINAL.items()}
    forcing = convact.HarmonicForcing(p["amplitude"], p["omega"], p["phase"])
    sdof = convact.SdofModel(p["m"], p["c"], p["k"], forcing=forcing)
    mdof = convact.sdof_as_mdof(sdof)
    u0, v0 = p["u0"], p["v0"]
    base = convact.analytic_sdof(sdof, u0, v0, grid)
    battery = convact.make_direction_battery(
        grid, count=8, seed=int(rng.integers(2**31)), vanish_end=True
    )
    K = convact.ActionKind

    def column(a):
        return np.asarray(a).reshape(-1, 1)

    def traj(u, J, vector):
        return convact.Trajectory(grid, column(u), column(J)) if vector else convact.Trajectory(grid, u, J)

    cases = []
    for j in range(0, len(battery), 2):
        du, dJ = battery[j].values, battery[j + 1].values
        group = []
        for kind, ics in ((K.HAMILTON, None), (K.TONTI, (u0, v0)), (K.GURTIN, (u0, v0))):
            plus = traj(base.u + FD_EPS * du, base.J, False)
            minus = traj(base.u - FD_EPS * du, base.J, False)
            group.append((kind, sdof, base, battery[j], plus, minus, ics, "reduced"))
        for kind, model, vector, ics in (
            (K.MCA_SDOF, sdof, False, (u0, v0)),
            (K.MCA_MDOF, mdof, True, (np.array([u0]), np.array([v0]))),
        ):
            for scheme in ("reduced", "direct"):
                group.append((
                    kind, model, traj(base.u, base.J, vector), traj(du, dJ, vector),
                    traj(base.u + FD_EPS * du, base.J + FD_EPS * dJ, vector),
                    traj(base.u - FD_EPS * du, base.J - FD_EPS * dJ, vector),
                    ics, scheme,
                ))
        cases.append(group)
    return cases


WORKLOADS = {w.name: w for w in (SdofSolve, ShearConvergence, VerifyBattery)}

"""Command-line surface: experiment orchestration and CSV emission.

Subcommands: verify-identities, sdof, mdof, convergence, actions. Exit codes:
0 success, 1 usage/config error, 2 numerical failure. Flags override config
file keys (JSON); unknown config keys are rejected. Output files are written
atomically (temp + rename) into --output-dir, which defaults to the
CONVACT_OUTPUT_DIR environment variable or the working directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .actions import ActionKind, action_value, el_residuals
from .grid import Grid
from .identities import (
    IdentityKind,
    COMPLEMENTARY_KINDS,
    order_gate,
    run_identity_sweep,
    sweep_rows_to_csv,
)
from .models import (
    HarmonicForcing,
    SdofModel,
    Trajectory,
    analytic_sdof,
    build_shear_building,
    mdof_from_json,
    mdof_oracle,
)
from .stationarity import (
    SingularSystemError,
    assemble,
    convergence_study,
    solve_stationary,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2

OUTPUT_DIR_ENV = "CONVACT_OUTPUT_DIR"


class _UsageError(Exception):
    """Configuration or parameter problem: maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits 2 by default; the contract is 1
        raise _UsageError(message)


def _write_atomic(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _float_list(text: str) -> list[float]:
    try:
        return [float(part) for part in str(text).split(",") if part != ""]
    except ValueError as exc:
        raise _UsageError(f"expected a comma-separated number list, got {text!r}") from exc


def _int_list(text: str) -> list[int]:
    vals = _float_list(text)
    out = [int(v) for v in vals]
    if any(float(i) != v for i, v in zip(out, vals)):
        raise _UsageError(f"expected integers, got {text!r}")
    return out


def _merge_config(args: argparse.Namespace, parser_dests: set, defaults: dict) -> dict:
    """Effective parameters: defaults, overridden by config file keys,
    overridden by explicitly passed flags (flags always win)."""
    merged = dict(defaults)
    cfg_path = getattr(args, "config", None)
    if cfg_path:
        try:
            doc = json.loads(Path(cfg_path).read_text())
        except OSError as exc:
            raise _UsageError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise _UsageError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise _UsageError("config file must hold a JSON object")
        unknown = set(doc) - parser_dests
        if unknown:
            raise _UsageError(f"unknown config keys: {sorted(unknown)}")
        merged.update(doc)
    for key, value in vars(args).items():
        if key in ("command", "config"):
            continue
        if value is not None:
            merged[key] = value
    return merged


def _out_dir(params: dict) -> Path:
    default = os.environ.get(OUTPUT_DIR_ENV, ".")
    return Path(params.get("output_dir") or default)


def _fail_numerical(module: str, operation: str, detail: str) -> int:
    print(
        f"numerical failure in {module}.{operation}: {detail}",
        file=sys.stderr,
    )
    return EXIT_NUMERICAL


# ---------------------------------------------------------------------------
# verify-identities

IDENTITY_DEFAULTS = {
    "alpha": [0.25, 0.5, 0.75],
    "n": [64, 128, 256],
    "kind": [k.value for k in IdentityKind],
    "t": 1.0,
    "seed": 2024,
    "output_dir": None,
    "tamper": False,
}


def cmd_verify_identities(params: dict) -> int:
    try:
        kinds = [IdentityKind(k) for k in params["kind"]]
    except ValueError as exc:
        raise _UsageError(f"unknown identity kind: {exc}") from exc
    alphas = [float(a) for a in params["alpha"]]
    for a in alphas:
        if not 0.0 < a <= 1.0:
            raise _UsageError(f"alpha must lie in (0, 1], got {a}")
        if a == 1.0 and any(k in COMPLEMENTARY_KINDS for k in kinds):
            raise _UsageError("alpha = 1 is rejected for complementary kinds")
    n_list = sorted({int(n) for n in params["n"]})
    if len(n_list) < 2:
        raise _UsageError("need at least two distinct grid sizes for order estimates")
    rows = run_identity_sweep(kinds, alphas, n_list, float(params["t"]), int(params["seed"]))
    if params.get("tamper"):
        from dataclasses import replace as _replace

        broken = _replace(rows[0].report, lhs=math.nan, residual=math.nan)
        rows[0] = _replace(rows[0], report=broken)
    text = sweep_rows_to_csv(rows)
    _write_atomic(_out_dir(params) / "identities.csv", text)
    if any(not math.isfinite(row.report.residual) for row in rows):
        return _fail_numerical(
            "identities",
            "run_identity_sweep",
            f"non-finite residual (t={params['t']}, n_list={n_list})",
        )
    failures = []
    for row in rows:
        if row.order_estimate is not None and not order_gate(row.report.kind, row.order_estimate):
            failures.append(
                f"{row.report.kind.value} alpha={row.report.alpha} n={row.n_steps}: "
                f"order {row.order_estimate:.3f}"
            )
    print(
        f"verify-identities: {len(rows)} cells, "
        f"{'all order gates passed' if not failures else f'{len(failures)} gates FAILED'}"
    )
    for line in failures:
        print("  " + line)
    return EXIT_OK if not failures else EXIT_NUMERICAL


# ---------------------------------------------------------------------------
# sdof

SDOF_DEFAULTS = {
    "m": 1.0,
    "c": 0.2,
    "k": 1.0,
    "u0": 1.0,
    "v0": 0.0,
    "t": 10.0,
    "n": 512,
    "scheme": "reduced",
    "forcing_amplitude": 0.0,
    "forcing_omega": 0.0,
    "forcing_phase": 0.0,
    "output_dir": None,
}


def _sdof_model(params: dict) -> SdofModel:
    forcing = None
    if params["forcing_amplitude"] != 0.0:
        forcing = HarmonicForcing(
            float(params["forcing_amplitude"]),
            float(params["forcing_omega"]),
            float(params["forcing_phase"]),
        )
    try:
        return SdofModel(
            m=float(params["m"]), c=float(params["c"]), k=float(params["k"]), forcing=forcing
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def cmd_sdof(params: dict) -> int:
    model = _sdof_model(params)
    n = int(params["n"])
    if n < 2:
        raise _UsageError("n must be >= 2")
    grid = Grid(float(params["t"]), n)
    u0, v0 = float(params["u0"]), float(params["v0"])
    try:
        report = solve_stationary(
            assemble(ActionKind.MCA_SDOF, model, grid, u0, v0, params["scheme"])
        )
    except SingularSystemError as exc:
        return _fail_numerical("stationarity", "solve_stationary", str(exc))
    try:
        oracle = analytic_sdof(model, u0, v0, grid)
    except ValueError as exc:
        raise _UsageError(f"forcing unsupported by the closed-form oracle: {exc}") from exc
    residuals = el_residuals(ActionKind.MCA_SDOF, model, report.trajectory, ics=(u0, v0))
    out = _out_dir(params)
    _write_atomic(out / "sdof_solved.csv", report.trajectory.to_csv())
    _write_atomic(out / "sdof_oracle.csv", oracle.to_csv())
    _write_atomic(out / "sdof_residuals.csv", residuals.to_csv())
    err = float(np.max(np.abs(report.trajectory.u - oracle.u)))
    if not math.isfinite(err):
        return _fail_numerical(
            "stationarity", "solve_stationary", f"non-finite trajectory (n={n}, h={grid.h:g})"
        )
    print(
        f"sdof: scheme={params['scheme']} n={n} sup_error={err:.6e} "
        f"gradient={report.gradient_norm:.2e} condition={report.condition_estimate:.2e}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# mdof

MDOF_DEFAULTS = {
    "model": None,
    "preset": "shear-3",
    "u0": None,
    "v0": None,
    "t": 6.0,
    "n": 256,
    "scheme": "reduced",
    "output_dir": None,
}

PRESETS = {
    "shear-1": dict(stories=1, mass=1.0, stiffness=1.0, damping=0.2),
    "shear-3": dict(stories=3, mass=1.0, stiffness=10.0, damping=0.4),
}


def _mdof_model(params: dict):
    if params.get("model"):
        try:
            return mdof_from_json(Path(params["model"]).read_text())
        except OSError as exc:
            raise _UsageError(f"cannot read model file: {exc}") from exc
        except ValueError as exc:
            raise _UsageError(f"invalid model document: {exc}") from exc
    preset = params.get("preset")
    if preset not in PRESETS:
        raise _UsageError(f"unknown preset {preset!r}; choose from {sorted(PRESETS)}")
    p = PRESETS[preset]
    return build_shear_building(p["stories"], p["mass"], p["stiffness"], p["damping"])


def _initial_vectors(params: dict, d: int) -> tuple[np.ndarray, np.ndarray]:
    """(u0, v0) of d entries each from the comma lists in params; an absent
    list defaults to u0 = (1, 0, ..., 0) and v0 = 0."""
    out = []
    for name, default in (("u0", [1.0] + [0.0] * (d - 1)), ("v0", [0.0] * d)):
        vals = np.asarray(default if params[name] is None else _float_list(params[name]))
        if vals.shape != (d,):
            raise _UsageError(f"{name}: expected {d} comma-separated values, got {vals.size}")
        out.append(vals)
    return tuple(out)


def cmd_mdof(params: dict) -> int:
    model = _mdof_model(params)
    d = model.n_dof
    u0, v0 = _initial_vectors(params, d)
    n = int(params["n"])
    grid = Grid(float(params["t"]), n)
    try:
        report = solve_stationary(
            assemble(ActionKind.MCA_MDOF, model, grid, u0, v0, params["scheme"])
        )
    except SingularSystemError as exc:
        return _fail_numerical("stationarity", "solve_stationary", str(exc))
    oracle = mdof_oracle(model, u0, v0, grid)
    residuals = el_residuals(ActionKind.MCA_MDOF, model, report.trajectory, ics=(u0, v0))
    out = _out_dir(params)
    _write_atomic(out / "mdof_solved.csv", report.trajectory.to_csv())
    _write_atomic(out / "mdof_oracle.csv", oracle.to_csv())
    _write_atomic(out / "mdof_residuals.csv", residuals.to_csv())
    err = float(np.max(np.abs(report.trajectory.u - oracle.u)))
    if not math.isfinite(err):
        return _fail_numerical(
            "stationarity", "solve_stationary", f"non-finite trajectory (n={n}, h={grid.h:g})"
        )
    print(
        f"mdof: dofs={d} scheme={params['scheme']} n={n} sup_error={err:.6e} "
        f"gradient={report.gradient_norm:.2e}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# convergence

CONVERGENCE_DEFAULTS = {
    "kind": "sdof",
    "m": 1.0,
    "c": 0.2,
    "k": 1.0,
    "u0": None,
    "v0": None,
    "t": 10.0,
    "n": [128, 256, 512],
    "scheme": "reduced",
    "preset": "shear-3",
    "model": None,
    "output_dir": None,
}


def cmd_convergence(params: dict) -> int:
    n_list = [int(n) for n in params["n"]]
    if params["kind"] == "sdof":
        model = _sdof_model({**SDOF_DEFAULTS, **{k: params[k] for k in ("m", "c", "k")}})
        u0, v0 = (float(x[0]) for x in _initial_vectors(params, 1))
        kind = ActionKind.MCA_SDOF
    elif params["kind"] == "mdof":
        model = _mdof_model(params)
        u0, v0 = _initial_vectors(params, model.n_dof)
        kind = ActionKind.MCA_MDOF
    else:
        raise _UsageError("convergence kind must be 'sdof' or 'mdof'")
    try:
        table = convergence_study(
            kind, model, u0, v0, float(params["t"]), n_list, params["scheme"]
        )
    except SingularSystemError as exc:
        return _fail_numerical("stationarity", "convergence_study", str(exc))
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    _write_atomic(_out_dir(params) / "convergence.csv", table.to_csv())
    errs = [row.err_u_sup for row in table.rows]
    if any(not math.isfinite(e) for e in errs):
        return _fail_numerical(
            "stationarity", "convergence_study", f"non-finite error (n_list={n_list})"
        )
    orders = [row.order_u for row in table.rows if row.order_u is not None]
    print(
        f"convergence: kind={params['kind']} n={n_list} "
        f"final_error={errs[-1]:.6e} orders={['%.2f' % o for o in orders]}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# actions

ACTIONS_DEFAULTS = {
    "kind": "tonti",
    "m": 1.0,
    "c": 0.2,
    "k": 1.0,
    "u0": 1.0,
    "v0": 0.0,
    "t": 10.0,
    "n": 256,
    "output_dir": None,
}

ACTION_KIND_NAMES = {
    "hamilton": ActionKind.HAMILTON,
    "gurtin": ActionKind.GURTIN,
    "tonti": ActionKind.TONTI,
    "mca-sdof": ActionKind.MCA_SDOF,
    "mca-mdof": ActionKind.MCA_MDOF,
}


def cmd_actions(params: dict) -> int:
    name = str(params["kind"]).lower()
    if name not in ACTION_KIND_NAMES:
        raise _UsageError(f"unknown action kind {name!r}; choose from {sorted(ACTION_KIND_NAMES)}")
    kind = ACTION_KIND_NAMES[name]
    sdof = _sdof_model({**SDOF_DEFAULTS, **{k: params[k] for k in ("m", "c", "k")}})
    u0, v0 = float(params["u0"]), float(params["v0"])
    grid = Grid(float(params["t"]), int(params["n"]))
    traj = analytic_sdof(sdof, u0, v0, grid)
    if kind is ActionKind.MCA_MDOF:
        from .models import sdof_as_mdof

        model = sdof_as_mdof(sdof)
        traj_in = Trajectory(grid, traj.u.reshape(-1, 1), traj.J.reshape(-1, 1))
        ics = (np.array([u0]), np.array([v0]))
    else:
        model = sdof
        traj_in = traj
        ics = (u0, v0)
    value_rows = ["kind,path,value,h"]
    if kind in (ActionKind.MCA_SDOF, ActionKind.MCA_MDOF):
        for scheme in ("reduced", "direct"):
            val = action_value(kind, model, traj_in, ics=ics, scheme=scheme)
            value_rows.append(f"{kind.value},{scheme},{val:.17g},{grid.h:.17g}")
            print(f"actions: kind={kind.value} path={scheme} value={val:.12g}")
    else:
        val = action_value(kind, model, traj_in, ics=ics)
        value_rows.append(f"{kind.value},quadrature,{val:.17g},{grid.h:.17g}")
        print(f"actions: kind={kind.value} value={val:.12g}")
    residuals = el_residuals(kind, model, traj_in, ics=ics)
    for fname in residuals.field_residuals:
        print(
            f"actions: residual {fname}: sup={residuals.sup(fname):.6e} "
            f"l2={residuals.l2(fname):.6e}"
        )
    for iname, ival in residuals.ic_residuals.items():
        print(f"actions: ic residual {iname}: {ival:.10g}")
    out = _out_dir(params)
    _write_atomic(out / "actions_values.csv", "\n".join(value_rows) + "\n")
    _write_atomic(out / "actions_residuals.csv", residuals.to_csv())
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser plumbing


def _add_common(sub: argparse.ArgumentParser):
    sub.add_argument("--config", help="JSON config file; flags override its keys")
    sub.add_argument("--output-dir", dest="output_dir", help=f"default ${OUTPUT_DIR_ENV} or '.'")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="convact",
        description=(
            "Convolved-action toolkit: identity verification, mixed "
            "stationarity solves and action diagnostics. Parameter precedence: "
            "flags > config file > built-in defaults."
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("verify-identities", help="integration-by-parts identity sweep")
    p.add_argument("--alpha", type=_float_list, help="comma list of fractional orders")
    p.add_argument("--n", type=_int_list, help="comma list of grid sizes")
    p.add_argument("--kind", type=lambda s: s.split(","), help="comma list of identity kinds")
    p.add_argument("--t", type=float, help="interval length")
    p.add_argument("--seed", type=int, help="seed for the test-signal family")
    p.add_argument("--tamper", action="store_const", const=True, help=argparse.SUPPRESS)
    _add_common(p)

    p = subs.add_parser("sdof", help="solve the damped oscillator by stationarity")
    for flag in ("m", "c", "k", "u0", "v0", "t"):
        p.add_argument(f"--{flag}", type=float)
    p.add_argument("--n", type=int)
    p.add_argument("--scheme", choices=["reduced", "direct"])
    p.add_argument("--forcing-amplitude", dest="forcing_amplitude", type=float)
    p.add_argument("--forcing-omega", dest="forcing_omega", type=float)
    p.add_argument("--forcing-phase", dest="forcing_phase", type=float)
    _add_common(p)

    p = subs.add_parser("mdof", help="solve a multi-dof model by stationarity")
    p.add_argument("--model", help="JSON model document")
    p.add_argument("--preset", choices=sorted(PRESETS))
    p.add_argument("--u0", help="comma list of initial displacements")
    p.add_argument("--v0", help="comma list of initial velocities")
    p.add_argument("--t", type=float)
    p.add_argument("--n", type=int)
    p.add_argument("--scheme", choices=["reduced", "direct"])
    _add_common(p)

    p = subs.add_parser("convergence", help="grid-refinement study against the oracle")
    p.add_argument("--kind", choices=["sdof", "mdof"])
    for flag in ("m", "c", "k", "t"):
        p.add_argument(f"--{flag}", type=float)
    p.add_argument("--u0")
    p.add_argument("--v0")
    p.add_argument("--n", type=_int_list, help="comma list of grid sizes (>= 3)")
    p.add_argument("--scheme", choices=["reduced", "direct"])
    p.add_argument("--preset", choices=sorted(PRESETS))
    p.add_argument("--model")
    _add_common(p)

    p = subs.add_parser("actions", help="evaluate a functional and its residuals")
    p.add_argument("--kind", help="hamilton|gurtin|tonti|mca-sdof|mca-mdof")
    for flag in ("m", "c", "k", "u0", "v0", "t"):
        p.add_argument(f"--{flag}", type=float)
    p.add_argument("--n", type=int)
    _add_common(p)
    return parser


_DEFAULTS = {
    "verify-identities": IDENTITY_DEFAULTS,
    "sdof": SDOF_DEFAULTS,
    "mdof": MDOF_DEFAULTS,
    "convergence": CONVERGENCE_DEFAULTS,
    "actions": ACTIONS_DEFAULTS,
}

_HANDLERS = {
    "verify-identities": cmd_verify_identities,
    "sdof": cmd_sdof,
    "mdof": cmd_mdof,
    "convergence": cmd_convergence,
    "actions": cmd_actions,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        defaults = _DEFAULTS[args.command]
        dests = set(defaults)
        params = _merge_config(args, dests, defaults)
        return _HANDLERS[args.command](params)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

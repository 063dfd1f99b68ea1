"""Command-line surface: experiment orchestration and CSV emission.

Subcommands: verify-identities, sdof, mdof, convergence, actions. Exit codes:
0 success, 1 usage/config error, 2 numerical failure. Each parameter is
declared once, as a flag with its converter and default. A config file (JSON)
is turned into flag tokens placed ahead of the command line, so its values
are checked exactly like the flags and the flags override them; unknown
config keys are rejected. Output files are written atomically (temp + rename)
into --output-dir (flag, then config key), else the CONVACT_OUTPUT_DIR
environment variable at the time of the call, else the working directory.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from ._discrete import SCHEMES
from .actions import MIXED_KINDS, ActionKind, action_value, el_residuals
from .grid import Grid, csv_text
from .identities import IdentityKind, order_gate, run_identity_sweep, sweep_rows_to_csv
from .models import (
    HarmonicForcing,
    SdofModel,
    analytic_sdof,
    build_shear_building,
    check_forcing_acts,
    mdof_from_json,
    mdof_view,
    oracle_trajectory,
)
from .stationarity import SingularSystemError, assemble, convergence_study, solve_stationary

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2

OUTPUT_DIR_ENV = "CONVACT_OUTPUT_DIR"


class _UsageError(Exception):
    """Configuration or parameter problem: maps to exit code 1."""


class _NumericalError(Exception):
    """Numerical failure: maps to exit code 2."""

    def __init__(self, module: str, operation: str, detail: str):
        super().__init__(f"numerical failure in {module}.{operation}: {detail}")


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
        return [float(part) for part in text.split(",") if part != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated number list, got {text!r}"
        ) from exc


def _int_list(text: str) -> list[int]:
    vals = _float_list(text)
    if not all(v.is_integer() for v in vals):  # False for inf and nan too
        raise argparse.ArgumentTypeError(f"expected integers, got {text!r}")
    return [int(v) for v in vals]


def _residual_steps(text: str) -> int:
    """--n of a subcommand that writes a residual report, whose
    second-derivative stencils need at least 4 nodes."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 3:
        raise argparse.ArgumentTypeError(f"the residual report needs n >= 3, got {n}")
    return n


def _identity_kinds(text: str) -> list[IdentityKind]:
    try:
        return [IdentityKind(k) for k in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"unknown identity kind: {exc}") from exc


def _config_flags(args: argparse.Namespace) -> list[str]:
    """The keys of the --config JSON object as `--key-name=value` tokens:
    lists are comma-joined and null means absent (the flag's default)."""
    try:
        doc = json.loads(Path(args.config).read_text())
    except OSError as exc:
        raise _UsageError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _UsageError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise _UsageError("config file must hold a JSON object")
    unknown = set(doc) - (set(vars(args)) - {"command", "config"})
    if unknown:
        raise _UsageError(f"unknown config keys: {sorted(unknown)}")
    tokens = []
    for key, value in doc.items():
        if value is None:
            continue
        if isinstance(value, list):
            value = ",".join(map(str, value))
        tokens.append(f"--{key.replace('_', '-')}={value}")
    return tokens


# ---------------------------------------------------------------------------
# verify-identities


def cmd_verify_identities(args: argparse.Namespace) -> int:
    n_list = sorted(set(args.n))
    if len(n_list) < 2:
        raise _UsageError("need at least two distinct grid sizes for order estimates")
    rows = run_identity_sweep(args.kind, args.alpha, n_list, args.t, args.seed)
    text = sweep_rows_to_csv(rows)
    _write_atomic(Path(args.output_dir) / "identities.csv", text)
    if any(not math.isfinite(row.report.residual) for row in rows):
        raise _NumericalError(
            "identities", "run_identity_sweep", f"non-finite residual (t={args.t}, n_list={n_list})"
        )
    failures = []
    for row in rows:
        r, order = row.report, row.order_estimate
        if order is not None and not order_gate(r.kind, order, r.residual):
            failures.append(f"{r.kind.value} alpha={r.alpha} n={row.n_steps}: order {order:.3f}")
    print(
        f"verify-identities: {len(rows)} cells, "
        f"{'all order gates passed' if not failures else f'{len(failures)} gates FAILED'}"
    )
    for line in failures:
        print("  " + line)
    return EXIT_OK if not failures else EXIT_NUMERICAL


# ---------------------------------------------------------------------------
# sdof and mdof


def _solve_against_oracle(args, kind: ActionKind, model, u0, v0):
    """Solve by stationarity on the grid of `args`, compare with the oracle
    and write <command>_solved/_oracle/_residuals.csv; returns the solve
    report and the sup error of u."""
    grid = Grid(args.t, args.n)
    try:
        report = solve_stationary(assemble(model, grid, u0, v0, args.scheme))
    except SingularSystemError as exc:
        raise _NumericalError("stationarity", "solve_stationary", str(exc)) from exc
    oracle = oracle_trajectory(model, u0, v0, grid)
    residuals = el_residuals(kind, model, report.trajectory, ics=(u0, v0))
    out = Path(args.output_dir)
    _write_atomic(out / f"{args.command}_solved.csv", report.trajectory.to_csv())
    _write_atomic(out / f"{args.command}_oracle.csv", oracle.to_csv())
    _write_atomic(out / f"{args.command}_residuals.csv", residuals.to_csv())
    at = f"(n={args.n}, h={grid.h:g})"
    if not _finite(report.trajectory):
        raise _NumericalError("stationarity", "solve_stationary", f"non-finite trajectory {at}")
    if not _finite(oracle):
        name = "analytic_sdof" if kind is ActionKind.MCA_SDOF else "mdof_oracle"
        raise _NumericalError("models", name, f"non-finite oracle trajectory {at}")
    _check_residuals(residuals, at)
    return report, float(np.max(np.abs(report.trajectory.u - oracle.u)))


def _finite(traj) -> bool:
    return bool(np.all(np.isfinite(traj.u)) and np.all(np.isfinite(traj.J)))


def _check_residuals(r, at: str):
    norms = [norm(name) for name in r.field_residuals for norm in (r.sup, r.l2)]
    if not all(map(math.isfinite, norms + list(r.ic_residuals.values()))):
        raise _NumericalError("actions", "el_residuals", f"non-finite residual norm {at}")


def cmd_sdof(args: argparse.Namespace) -> int:
    forcing = None
    if args.forcing_amplitude != 0.0:
        forcing = check_forcing_acts(
            HarmonicForcing(args.forcing_amplitude, args.forcing_omega, args.forcing_phase)
        )
    model = SdofModel(m=args.m, c=args.c, k=args.k, forcing=forcing)
    report, err = _solve_against_oracle(args, ActionKind.MCA_SDOF, model, args.u0, args.v0)
    print(
        f"sdof: scheme={args.scheme} n={args.n} sup_error={err:.6e} "
        f"gradient={report.gradient_norm:.2e} condition={report.condition_estimate:.2e}"
    )
    return EXIT_OK


PRESETS = {
    "shear-1": dict(stories=1, mass=1.0, stiffness=1.0, damping=0.2),
    "shear-3": dict(stories=3, mass=1.0, stiffness=10.0, damping=0.4),
}


def _mdof_model(args: argparse.Namespace):
    if args.model:
        try:
            return mdof_from_json(Path(args.model).read_text())
        except OSError as exc:
            raise _UsageError(f"cannot read model file: {exc}") from exc
        except ValueError as exc:
            raise _UsageError(f"invalid model document: {exc}") from exc
    p = PRESETS[args.preset]
    return build_shear_building(p["stories"], p["mass"], p["stiffness"], p["damping"])


def _initial_vectors(args: argparse.Namespace, d: int) -> tuple[np.ndarray, np.ndarray]:
    """(u0, v0) of d entries each; an absent list defaults to
    u0 = (1, 0, ..., 0) and v0 = 0."""
    out = []
    for name, default in (("u0", [1.0] + [0.0] * (d - 1)), ("v0", [0.0] * d)):
        given = getattr(args, name)
        vals = np.asarray(default if given is None else given)
        if vals.shape != (d,):
            raise _UsageError(f"{name}: expected {d} comma-separated values, got {vals.size}")
        out.append(vals)
    return tuple(out)


def cmd_mdof(args: argparse.Namespace) -> int:
    model = _mdof_model(args)
    u0, v0 = _initial_vectors(args, model.n_dof)
    report, err = _solve_against_oracle(args, ActionKind.MCA_MDOF, model, u0, v0)
    print(
        f"mdof: dofs={model.n_dof} scheme={args.scheme} n={args.n} sup_error={err:.6e} "
        f"gradient={report.gradient_norm:.2e}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# convergence


def cmd_convergence(args: argparse.Namespace) -> int:
    if args.kind == "sdof":
        model = SdofModel(m=args.m, c=args.c, k=args.k)
        u0, v0 = (float(x[0]) for x in _initial_vectors(args, 1))
    else:
        model = _mdof_model(args)
        u0, v0 = _initial_vectors(args, model.n_dof)
    try:
        table = convergence_study(model, u0, v0, args.t, args.n, args.scheme)
    except SingularSystemError as exc:
        raise _NumericalError("stationarity", "convergence_study", str(exc)) from exc
    _write_atomic(Path(args.output_dir) / "convergence.csv", table.to_csv())
    errs = [row.err_u_sup for row in table.rows]
    if any(not math.isfinite(e) for e in errs):
        raise _NumericalError(
            "stationarity", "convergence_study", f"non-finite error (n_list={args.n})"
        )
    orders = [row.order_u for row in table.rows if row.order_u is not None]
    print(
        f"convergence: kind={args.kind} n={args.n} "
        f"final_error={errs[-1]:.6e} orders={['%.2f' % o for o in orders]}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# actions

ACTION_KIND_NAMES = {
    "hamilton": ActionKind.HAMILTON,
    "gurtin": ActionKind.GURTIN,
    "tonti": ActionKind.TONTI,
    "mca-sdof": ActionKind.MCA_SDOF,
    "mca-mdof": ActionKind.MCA_MDOF,
}


def cmd_actions(args: argparse.Namespace) -> int:
    kind = ACTION_KIND_NAMES[args.kind]
    sdof = SdofModel(m=args.m, c=args.c, k=args.k)
    u0, v0 = args.u0, args.v0
    grid = Grid(args.t, args.n)
    traj = analytic_sdof(sdof, u0, v0, grid)
    model, ics, traj_in = sdof, (u0, v0), traj
    if kind is ActionKind.MCA_MDOF:
        model, ics, traj_in = mdof_view(sdof, ics, traj)
    value_rows = []
    if kind in MIXED_KINDS:
        for scheme in SCHEMES:
            val = action_value(kind, model, traj_in, ics=ics, scheme=scheme)
            value_rows.append((kind.value, scheme, val, grid.h))
            print(f"actions: kind={kind.value} path={scheme} value={val:.12g}")
    else:
        val = action_value(kind, model, traj_in, ics=ics)
        value_rows.append((kind.value, "quadrature", val, grid.h))
        print(f"actions: kind={kind.value} value={val:.12g}")
    residuals = el_residuals(kind, model, traj_in, ics=ics)
    for fname in residuals.field_residuals:
        print(
            f"actions: residual {fname}: sup={residuals.sup(fname):.6e} "
            f"l2={residuals.l2(fname):.6e}"
        )
    for iname, ival in residuals.ic_residuals.items():
        print(f"actions: ic residual {iname}: {ival:.10g}")
    out = Path(args.output_dir)
    _write_atomic(out / "actions_values.csv", csv_text("kind,path,value,h", value_rows))
    _write_atomic(out / "actions_residuals.csv", residuals.to_csv())
    _check_residuals(residuals, f"(n={args.n}, h={grid.h:g})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser plumbing


def _add_common(sub: argparse.ArgumentParser):
    sub.add_argument("--config", help="JSON config file; flags override its keys")
    sub.add_argument("--output-dir", help=f"default ${OUTPUT_DIR_ENV} or '.'")


def _add_oscillator(sub: argparse.ArgumentParser):
    sub.add_argument("--m", type=float, default=1.0)
    sub.add_argument("--c", type=float, default=0.2)
    sub.add_argument("--k", type=float, default=1.0)


def _add_initial_values(sub: argparse.ArgumentParser, convert, u0=None, v0=None):
    sub.add_argument("--u0", type=convert, default=u0, help="initial displacement(s)")
    sub.add_argument("--v0", type=convert, default=v0, help="initial velocity(ies)")


def _add_model(sub: argparse.ArgumentParser):
    sub.add_argument("--model", help="JSON model document")
    sub.add_argument("--preset", choices=sorted(PRESETS), default="shear-3")


def _add_scheme(sub: argparse.ArgumentParser):
    sub.add_argument("--scheme", choices=SCHEMES, default="reduced")


@functools.cache  # one parser per process: reading the environment is left to `main`
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
    p.add_argument("--alpha", type=_float_list, default=[0.25, 0.5, 0.75],
                   help="comma list of fractional orders")
    p.add_argument("--kind", type=_identity_kinds, default=list(IdentityKind),
                   help="comma list of identity kinds")
    p.add_argument("--seed", type=int, default=2024, help="seed for the test-signal family")
    p.add_argument("--t", type=float, default=1.0, help="interval length")
    p.add_argument("--n", type=_int_list, default=[64, 128, 256], help="comma list of grid sizes")
    _add_common(p)

    p = subs.add_parser("sdof", help="solve the damped oscillator by stationarity")
    _add_oscillator(p)
    _add_initial_values(p, float, 1.0, 0.0)
    _add_scheme(p)
    p.add_argument("--forcing-amplitude", type=float, default=0.0)
    p.add_argument("--forcing-omega", type=float, default=0.0)
    p.add_argument("--forcing-phase", type=float, default=0.0)
    p.add_argument("--t", type=float, default=10.0)
    p.add_argument("--n", type=_residual_steps, default=512)
    _add_common(p)

    p = subs.add_parser("mdof", help="solve a multi-dof model by stationarity")
    _add_model(p)
    _add_initial_values(p, _float_list)
    _add_scheme(p)
    p.add_argument("--t", type=float, default=6.0)
    p.add_argument("--n", type=_residual_steps, default=256)
    _add_common(p)

    p = subs.add_parser("convergence", help="grid-refinement study against the oracle")
    p.add_argument("--kind", choices=["sdof", "mdof"], default="sdof")
    _add_oscillator(p)
    _add_model(p)
    _add_initial_values(p, _float_list)
    _add_scheme(p)
    p.add_argument("--t", type=float, default=10.0)
    p.add_argument("--n", type=_int_list, default=[128, 256, 512],
                   help="comma list of grid sizes (>= 3)")
    _add_common(p)

    p = subs.add_parser("actions", help="evaluate a functional and its residuals")
    p.add_argument("--kind", type=str.lower, choices=ACTION_KIND_NAMES, default="tonti")
    _add_oscillator(p)
    _add_initial_values(p, float, 1.0, 0.0)
    p.add_argument("--t", type=float, default=10.0)
    p.add_argument("--n", type=_residual_steps, default=256)
    _add_common(p)
    return parser


_HANDLERS = {
    "verify-identities": cmd_verify_identities,
    "sdof": cmd_sdof,
    "mdof": cmd_mdof,
    "convergence": cmd_convergence,
    "actions": cmd_actions,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:  # after the subcommand argv[0], ahead of the flags, which win
            args = parser.parse_args(argv[:1] + _config_flags(args) + argv[1:])
        if args.output_dir is None:
            args.output_dir = os.environ.get(OUTPUT_DIR_ENV, ".")
        return _HANDLERS[args.command](args)
    except (_UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _NumericalError as exc:
        print(exc, file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from convact import cli
from convact.cli import main
from convact.identities import run_identity_sweep
from convact.models import build_shear_building, mdof_to_json


def run(tmp_path, *argv):
    return main([*argv, "--output-dir", str(tmp_path)])


def test_verify_identities_default_pass(tmp_path):
    code = run(tmp_path, "verify-identities", "--n", "32,64")
    assert code == 0
    text = (tmp_path / "identities.csv").read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "kind,alpha,h,lhs,rhs,residual,order_estimate"
    # 5 fractional kinds x 3 alphas x 2 grids + 2 integer kinds x 2 grids
    assert len(lines) - 1 == 5 * 3 * 2 + 2 * 2


def test_verify_identities_full_default_covers_all_cells(tmp_path):
    code = run(tmp_path, "verify-identities")
    assert code == 0
    lines = (tmp_path / "identities.csv").read_text().strip().split("\n")
    assert len(lines) - 1 == 5 * 3 * 3 + 2 * 3


def test_verify_identities_alpha_one_complementary_rejected(tmp_path, capsys):
    for argv, rule in [
        (["--alpha", "1.0", "--kind", "CONV_COMPLEMENTARY"], "requires alpha < 1"),
        (["--alpha", "1.5"], "must lie in (0, 1]"),
        (["--alpha", "0"], "must lie in (0, 1]"),
    ]:
        code = run(tmp_path, "verify-identities", *argv)
        assert code == 1
        assert rule in capsys.readouterr().err
        assert not (tmp_path / "identities.csv").exists()


@pytest.mark.parametrize("command", ["sdof", "mdof", "actions"])
def test_residual_reports_refuse_two_steps_naming_n(tmp_path, capsys, command):
    assert run(tmp_path, command, "--n", "2") == 1
    assert "argument --n: the residual report needs n >= 3" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 2}))
    assert run(tmp_path, command, "--config", str(cfg)) == 1
    assert "argument --n: the residual report needs n >= 3" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]
    assert run(tmp_path, command, "--n", "3") == 0


def test_verify_identities_tamper_exits_2(tmp_path, capsys, monkeypatch):
    def sweep_with_nan(*args):
        rows = run_identity_sweep(*args)
        broken = replace(rows[0].report, lhs=math.nan, residual=math.nan)
        return [replace(rows[0], report=broken), *rows[1:]]

    monkeypatch.setattr(cli, "run_identity_sweep", sweep_with_nan)
    code = run(tmp_path, "verify-identities", "--n", "32,64")
    assert code == 2
    err = capsys.readouterr().err
    assert "identities" in err and "non-finite" in err


def test_verify_identities_unknown_kind(tmp_path):
    assert run(tmp_path, "verify-identities", "--kind", "NOT_A_KIND") == 1


def test_verify_identities_passes_an_identity_exact_at_alpha_one(tmp_path, capsys):
    kinds = "INNER_INTEGRAL,INNER_DERIV,CONV_LEFT,CONV_RIGHT"
    assert run(tmp_path, "verify-identities", "--alpha", "0.3,0.6,1.0", "--kind", kinds) == 0
    assert capsys.readouterr().out == "verify-identities: 36 cells, all order gates passed\n"


def test_verify_identities_gates_the_step_from_an_exact_coarse_cell(
    tmp_path, capsys, monkeypatch
):
    # a defect that is exact at n = 64 and shows at n = 128 leaves the n = 128
    # row without an order estimate; that step is gated on its residual
    import convact.identities as identities

    real = identities._sides

    def defective(kind, phi, psi, a, memo):
        lhs, rhs = real(kind, phi, psi, a, memo)
        if kind is identities.IdentityKind.INNER_INTEGRAL:
            return (rhs, rhs) if phi.grid.n_steps == 64 else (rhs + 1e-6, rhs)
        return lhs, rhs

    monkeypatch.setattr(identities, "_sides", defective)
    argv = ("--alpha", "0.5", "--kind", "INNER_INTEGRAL,CONV_LEFT", "--n", "64,128")
    assert run(tmp_path, "verify-identities", *argv) == 2
    out = capsys.readouterr().out
    assert out.startswith("verify-identities: 4 cells, 1 gates FAILED\n")
    assert "  INNER_INTEGRAL alpha=0.5 n=128: order none, residual " in out
    rows = (tmp_path / "identities.csv").read_text().splitlines()
    assert rows[1].split(",")[5:] == ["0", ""] and rows[2].split(",")[6] == ""


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["mdof", "--v0", "a"], "--v0"),
        (["mdof", "--u0", "0,b"], "--u0"),
        (["verify-identities", "--alpha", "x"], "--alpha"),
        (["convergence", "--n", "64,128.5,256"], "--n"),
        (["verify-identities", "--kind", "CONV_LEFT,FOO"], "--kind"),
    ],
)
def test_list_flag_errors_name_the_flag(tmp_path, capsys, argv, flag):
    assert run(tmp_path, *argv) == 1
    assert capsys.readouterr().err.startswith(f"error: argument {flag}: ")


def test_sdof_writes_files_and_summary(tmp_path, capsys):
    code = run(tmp_path, "sdof", "--n", "128")
    assert code == 0
    out = capsys.readouterr().out
    assert "sup_error" in out
    for name in ("sdof_solved.csv", "sdof_oracle.csv", "sdof_residuals.csv"):
        assert (tmp_path / name).exists()
    solved = (tmp_path / "sdof_solved.csv").read_text().strip().split("\n")
    assert solved[0] == "tau,u,J"
    assert len(solved) == 130


def test_sdof_rejects_bad_stiffness(tmp_path):
    assert run(tmp_path, "sdof", "--k", "0") == 1


@pytest.mark.parametrize("argv", [
    ["--forcing-amplitude", "0.7"],
    ["--forcing-amplitude", "-2", "--forcing-omega", "0", "--forcing-phase", "0"],
])
def test_sdof_rejects_a_forcing_that_cannot_act(tmp_path, capsys, argv):
    # amplitude * sin(0 * tau + 0) is zero everywhere; from flags and config
    assert run(tmp_path, "sdof", "--n", "32", *argv) == 1
    assert "applies no force" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"forcing_amplitude": float(argv[1])}))
    assert main(["sdof", "--n", "32", "--config", str(cfg), "--output-dir", str(tmp_path)]) == 1
    assert "applies no force" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def _read_table(path):
    return np.loadtxt(path, delimiter=",", skiprows=1)


def test_sdof_zero_omega_with_a_phase_is_a_constant_force(tmp_path):
    # f = 0.7 sin(1) for all tau: the forced run minus the free run is the
    # step response of m = 1, c = 0.2, k = 1 to f0
    assert run(tmp_path / "free", "sdof", "--n", "64") == 0
    forced = ["--forcing-amplitude", "0.7", "--forcing-omega", "0", "--forcing-phase", "1"]
    assert run(tmp_path / "forced", "sdof", "--n", "64", *forced) == 0
    free = _read_table(tmp_path / "free" / "sdof_oracle.csv")
    tau, u = _read_table(tmp_path / "forced" / "sdof_oracle.csv")[:, :2].T
    f0, zeta, wd = 0.7 * math.sin(1.0), 0.1, math.sqrt(0.99)
    step = f0 * (1.0 - np.exp(-zeta * tau) * (np.cos(wd * tau) + zeta / wd * np.sin(wd * tau)))
    assert np.max(np.abs(u - free[:, 1] - step)) <= 1e-12 * f0


def test_sdof_schemes_agree(tmp_path, capsys):
    assert run(tmp_path, "sdof", "--n", "128", "--scheme", "reduced") == 0
    reduced = float(capsys.readouterr().out.split("sup_error=")[1].split()[0])
    assert run(tmp_path, "sdof", "--n", "128", "--scheme", "direct") == 0
    direct = float(capsys.readouterr().out.split("sup_error=")[1].split()[0])
    assert reduced < 0.01
    assert direct < 0.5


def test_sdof_reproducible_byte_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["sdof", "--n", "64", "--output-dir", str(a)]) == 0
    assert main(["sdof", "--n", "64", "--output-dir", str(b)]) == 0
    for name in ("sdof_solved.csv", "sdof_oracle.csv", "sdof_residuals.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def _nan_trajectory(traj):
    return replace(traj, u=traj.u * math.nan, J=traj.J * math.nan)


@pytest.mark.parametrize(
    "command, blamed",
    [(["sdof"], "models.analytic_sdof"), (["mdof", "--preset", "shear-3"], "models.mdof_oracle")],
)
def test_non_finite_oracle_is_blamed_on_the_oracle(tmp_path, capsys, monkeypatch, command, blamed):
    oracle = cli.oracle_trajectory
    monkeypatch.setattr(cli, "oracle_trajectory", lambda *a: _nan_trajectory(oracle(*a)))
    assert run(tmp_path, *command, "--n", "32") == 2
    err = capsys.readouterr().err
    assert f"numerical failure in {blamed}: non-finite oracle trajectory (n=32," in err


@pytest.mark.parametrize(
    "command",
    [["sdof"], ["mdof"], ["actions"], ["actions", "--kind", "mca-mdof"]],
    ids=["sdof", "mdof", "actions-tonti", "actions-mca-mdof"],
)
def test_non_finite_residual_norms_exit_2(tmp_path, capsys, command):
    # at h = 1.25e-301 the solve and the oracle are finite, but the
    # second-difference stencils divide by h^2 = 0 and the norms read nan
    with np.errstate(divide="ignore", invalid="ignore"):
        assert run(tmp_path, *command, "--t", "1e-300", "--n", "8") == 2
    err = capsys.readouterr().err
    assert "numerical failure in actions.el_residuals: non-finite residual norm (n=8, h=1.25e-301)" in err


def test_non_finite_solution_is_blamed_on_the_solve(tmp_path, capsys, monkeypatch):
    assemble = cli.assemble

    def assemble_inf(*args):  # a finite K with an inf in r: the solve's d is not finite
        qf = assemble(*args)
        return replace(qf, r=np.where(np.arange(qf.n_free) == 3, math.inf, qf.r))

    monkeypatch.setattr(cli, "assemble", assemble_inf)
    assert run(tmp_path, "sdof", "--n", "32") == 2
    err = capsys.readouterr().err
    blamed = "numerical failure in stationarity.solve_stationary: MCA_SDOF system"
    assert f"{blamed} has a non-finite solution (n_steps=32," in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize(
    "field, value, shown",
    [("A_blocks", [[0.2], [math.nan]], "A_blocks[1] must be finite and numeric, got [nan]"),
     ("B", [[1, -1], [0, math.inf]], "B must be finite and numeric, got [[1, -1], [0, inf]]"),
     ("j_hat_0", [-math.inf, 0.0], "j_hat_0 must be finite and numeric, got [-inf, 0.0]")],
)
def test_a_non_finite_model_document_exits_1_before_any_solve(
    tmp_path, capsys, field, value, shown
):
    doc = json.loads(mdof_to_json(build_shear_building(2, 1.0, 5.0, 0.1)))
    doc[field] = value
    (tmp_path / "model.json").write_text(json.dumps(doc))
    assert run(tmp_path, "mdof", "--model", str(tmp_path / "model.json"), "--n", "32") == 1
    assert capsys.readouterr().err == f"error: invalid model document: {shown}\n"
    assert not list(tmp_path.glob("*.csv"))


def test_identities_reproducible_byte_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["verify-identities", "--n", "32,64", "--output-dir", str(a)]) == 0
    assert main(["verify-identities", "--n", "32,64", "--output-dir", str(b)]) == 0
    assert (a / "identities.csv").read_bytes() == (b / "identities.csv").read_bytes()


def test_mdof_preset_and_model_file(tmp_path, capsys):
    code = run(tmp_path, "mdof", "--preset", "shear-3", "--n", "64", "--t", "3")
    assert code == 0
    assert (tmp_path / "mdof_solved.csv").exists()
    capsys.readouterr()
    model_path = tmp_path / "model.json"
    model_path.write_text(mdof_to_json(build_shear_building(2, 1.0, 5.0, 0.1)))
    code = main(
        ["mdof", "--model", str(model_path), "--n", "64", "--t", "3",
         "--u0", "1,0", "--output-dir", str(tmp_path)]
    )
    assert code == 0
    assert "dofs=2" in capsys.readouterr().out


def test_mdof_bad_model_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["mdof", "--model", str(bad), "--output-dir", str(tmp_path)]) == 1


def test_mdof_wrong_ic_length(tmp_path):
    assert run(tmp_path, "mdof", "--preset", "shear-3", "--u0", "1,0") == 1


def test_mdof_rejects_forcing_of_wrong_width(tmp_path, capsys):
    doc = json.loads(mdof_to_json(build_shear_building(3, 1.0, 10.0, 0.4)))
    doc["forcing"] = {"kind": "harmonic", "amplitude": [1.0, 0.0], "omega": 2.0}
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(doc))
    assert run(tmp_path, "mdof", "--model", str(model_path), "--n", "16") == 1
    assert "forcing.amplitude" in capsys.readouterr().err


def _forced_shear_model(tmp_path, forcing):
    doc = json.loads(mdof_to_json(build_shear_building(3, 1.0, 10.0, 0.4)))
    doc["forcing"] = {"kind": "harmonic", **forcing}
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(doc))
    return str(model_path)


@pytest.mark.parametrize("phase", [{"phase": 0}, {}])
def test_mdof_rejects_a_forcing_that_cannot_act(tmp_path, capsys, phase):
    # amplitude * sin(0 * tau + 0) is zero everywhere; phase given or defaulted
    model = _forced_shear_model(tmp_path, {"amplitude": [1, 0, 0], "omega": 0, **phase})
    assert run(tmp_path, "mdof", "--model", model, "--n", "16") == 1
    err = capsys.readouterr().err
    assert "invalid model document: forcing: amplitude [1.0, 0.0, 0.0] applies no force" in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize(
    "forcing",
    [{"amplitude": [1, 0, 0], "omega": 0, "phase": 1}, {"amplitude": [0, 0, 0], "omega": 0}],
)
def test_mdof_accepts_a_constant_or_zero_forcing(tmp_path, forcing):
    model = _forced_shear_model(tmp_path, forcing)
    assert run(tmp_path / "forced", "mdof", "--model", model, "--n", "32") == 0
    assert run(tmp_path / "free", "mdof", "--preset", "shear-3", "--n", "32") == 0
    same = (tmp_path / "forced" / "mdof_oracle.csv").read_bytes() == (
        tmp_path / "free" / "mdof_oracle.csv"
    ).read_bytes()
    assert same == (forcing["amplitude"] == [0, 0, 0])


def test_convergence_table_written(tmp_path, capsys):
    code = run(tmp_path, "convergence", "--kind", "sdof", "--n", "32,64,128")
    assert code == 0
    lines = (tmp_path / "convergence.csv").read_text().strip().split("\n")
    assert lines[0] == "n,h,err_u_sup,err_u_l2,err_J_sup,err_J_l2,order_u,order_J,wall_ms"
    assert len(lines) == 4
    assert "orders=" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["--kind", "mdof", "--u0", "0.5,0.2"],
        ["--kind", "mdof", "--v0", "0.3,0"],
        ["--kind", "sdof", "--u0", "0.5,9"],
        ["--kind", "sdof", "--v0", "0,1"],
    ],
    ids=["mdof-short-u0", "mdof-short-v0", "sdof-long-u0", "sdof-long-v0"],
)
def test_convergence_rejects_initial_vectors_of_wrong_length(tmp_path, capsys, argv):
    assert run(tmp_path, "convergence", *argv, "--n", "16,32,64", "--t", "3") == 1
    assert f"{argv[2].lstrip('-')}: expected" in capsys.readouterr().err
    assert not (tmp_path / "convergence.csv").exists()


def test_convergence_honours_initial_velocity(tmp_path):
    def table(*argv):
        argv = ["convergence", "--kind", "mdof", "--n", "16,32,64", "--t", "3", *argv]
        assert run(tmp_path, *argv) == 0
        lines = (tmp_path / "convergence.csv").read_text().splitlines()
        return [line.rsplit(",", 1)[0] for line in lines]  # drop wall_ms

    default = table()
    assert table("--u0", "1,0,0", "--v0", "0,0,0") == default
    assert table("--v0", "0.3,0,0") != default
    assert table("--u0", "0.5,0.2,0") != default


def test_convergence_needs_three_grids(tmp_path):
    assert run(tmp_path, "convergence", "--kind", "sdof", "--n", "32,64") == 1


def test_actions_tonti_prints_defect(tmp_path, capsys):
    code = run(tmp_path, "actions", "--kind", "tonti", "--n", "256")
    assert code == 0
    out = capsys.readouterr().out
    assert "ic residual initial: 0.1" in out
    assert (tmp_path / "actions_values.csv").exists()
    assert (tmp_path / "actions_residuals.csv").exists()


def test_actions_mca_emits_both_paths(tmp_path):
    code = run(tmp_path, "actions", "--kind", "mca-sdof", "--n", "64")
    assert code == 0
    lines = (tmp_path / "actions_values.csv").read_text().strip().split("\n")
    assert lines[0] == "kind,path,value,h"
    paths = {line.split(",")[1] for line in lines[1:]}
    assert paths == {"reduced", "direct"}


def test_actions_unknown_kind(tmp_path):
    assert run(tmp_path, "actions", "--kind", "nonsense") == 1


def test_config_file_merging(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 64, "c": 0.4}))
    code = main(["sdof", "--config", str(cfg), "--output-dir", str(tmp_path)])
    assert code == 0
    assert "n=64" in capsys.readouterr().out
    # flags override config keys
    code = main(["sdof", "--config", str(cfg), "--n", "32", "--output-dir", str(tmp_path)])
    assert code == 0
    assert "n=32" in capsys.readouterr().out


def test_config_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 64, "bogus": 1}))
    assert main(["sdof", "--config", str(cfg), "--output-dir", str(tmp_path)]) == 1


def test_output_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("CONVACT_OUTPUT_DIR", str(tmp_path / "envout"))
    assert main(["sdof", "--n", "32"]) == 0
    assert (tmp_path / "envout" / "sdof_solved.csv").exists()


def test_output_dir_env_var_set_after_a_first_call(tmp_path, monkeypatch):
    # the parser is built once per process; the variable is read per call
    monkeypatch.delenv("CONVACT_OUTPUT_DIR", raising=False)
    assert main(["sdof", "--n", "32", "--output-dir", str(tmp_path / "flag")]) == 0
    monkeypatch.setenv("CONVACT_OUTPUT_DIR", str(tmp_path / "late"))
    assert main(["sdof", "--n", "32"]) == 0
    assert (tmp_path / "late" / "sdof_solved.csv").exists()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"output_dir": str(tmp_path / "config")}))
    assert main(["sdof", "--n", "32", "--config", str(cfg)]) == 0  # config beats the variable
    assert (tmp_path / "config" / "sdof_solved.csv").exists()


def test_config_run_then_flags_run_match_each_run_alone(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 48, "c": 0.5, "scheme": "direct", "u0": 0.3}))
    config_run = ("sdof", "--config", str(cfg))
    flags_run = ("sdof", "--n", "40")
    together = [_outcome(tmp_path, "a", capsys, *config_run),
                _outcome(tmp_path, "b", capsys, *flags_run)]
    alone = []
    for name, argv in (("c", config_run), ("d", flags_run)):
        cli.build_parser.cache_clear()
        alone.append(_outcome(tmp_path, name, capsys, *argv))
    assert together == alone
    assert together[0][0] == 0 and together[0][1] != together[1][1]


def test_usage_error_exit_code():
    assert main(["sdof", "--n", "notanumber"]) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["convergence", "--n", "64,128,inf"],
        ["verify-identities", "--n", "64,1e400"],
        ["verify-identities", "--n", "64,nan"],
    ],
)
def test_non_finite_grid_sizes_exit_1(tmp_path, capsys, argv):
    assert main([*argv, "--output-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: argument --n: expected integers, got '{argv[-1]}'")
    assert "Traceback" not in err


def _outcome(tmp_path, name, capsys, *argv):
    """Exit code, stdout, stderr and every CSV written (the convergence table
    without its wall_ms column) of one run."""
    out = tmp_path / name
    code = main([*argv, "--output-dir", str(out)])
    std = capsys.readouterr()
    files = {}
    for path in sorted(out.glob("*.csv")):
        lines = path.read_text().splitlines()
        files[path.name] = [line.rsplit(",", 1)[0] for line in lines] if path.name == "convergence.csv" else lines
    return code, std.out, std.err, files


# (subcommand, config document, the same values as flags, shared flags that
# must override the config, expected exit code)
CONFIG_PARITY = {
    "mdof-u0-list": ("mdof", {"u0": [0.5, 0.2, 0.0], "n": 999},
                     ["--u0", "0.5,0.2,0.0"], ["--n", "32", "--t", "2"], 0),
    "mdof-u0-comma-string": ("mdof", {"u0": "0.5,0.2,0.0", "v0": [0, 0.1, 0]},
                             ["--u0", "0.5,0.2,0.0", "--v0", "0,0.1,0"], ["--n", "32"], 0),
    "convergence-n-comma-string": ("convergence", {"n": "16,32,64", "t": 9.0},
                                   ["--n", "16,32,64"], ["--t", "3"], 0),
    "convergence-n-list": ("convergence", {"n": [16, 32, 64], "kind": "mdof", "scheme": None},
                           ["--n", "16,32,64", "--kind", "mdof"], ["--t", "3"], 0),
    "identities-kind-scalar": ("verify-identities", {"kind": "CONV_LEFT", "n": [8, 16]},
                               ["--kind", "CONV_LEFT"], ["--n", "32,64"], 0),
    "identities-alpha-scalar": ("verify-identities", {"alpha": 0.5, "seed": 7},
                                ["--alpha", "0.5", "--seed", "7"], ["--n", "32,64"], 0),
    "sdof-n-float": ("sdof", {"n": 64.7}, ["--n", "64.7"], [], 1),
    "sdof-scheme-bogus": ("sdof", {"scheme": "bogus"}, ["--scheme", "bogus"], [], 1),
    "sdof-null-means-default": ("sdof", {"c": None, "m": 1.5, "n": 16},
                                ["--m", "1.5"], ["--n", "64"], 0),
    "actions-kind-and-scalars": ("actions", {"kind": "GURTIN", "u0": 0.7, "n": 999},
                                 ["--kind", "GURTIN", "--u0", "0.7"], ["--n", "64"], 0),
}


@pytest.mark.parametrize("case", CONFIG_PARITY.values(), ids=CONFIG_PARITY.keys())
def test_config_values_parse_like_flags(tmp_path, capsys, case):
    command, doc, flags, override, expected = case
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    via_config = _outcome(tmp_path, "config", capsys, command, "--config", str(cfg), *override)
    via_flags = _outcome(tmp_path, "flags", capsys, command, *flags, *override)
    assert via_config[0] == expected
    assert via_config == via_flags
    if expected == 0:
        assert via_config[3]


def test_config_unknown_key_is_named(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 64, "forcing-amplitude": 1.0}))
    assert main(["sdof", "--config", str(cfg), "--output-dir", str(tmp_path)]) == 1
    assert "forcing-amplitude" in capsys.readouterr().err
    assert not (tmp_path / "sdof_solved.csv").exists()


def test_sdof_at_undamped_resonance_uses_exact_oracle(tmp_path, capsys):
    argv = ["sdof", "--c", "0", "--forcing-amplitude", "1", "--forcing-omega", "1", "--n", "256"]
    assert run(tmp_path, *argv) == 0
    err = float(capsys.readouterr().out.split("sup_error=")[1].split()[0])
    assert err < 5.0 * (10.0 / 256) ** 2


@pytest.mark.parametrize(
    "argv, field",
    [
        (["--c", "nan"], "c"),
        (["--c", "inf"], "c"),
        (["--m", "inf"], "m"),
        (["--forcing-amplitude", "1", "--forcing-omega", "nan"], "omega"),
        (["--forcing-amplitude", "inf", "--forcing-omega", "1"], "amplitude"),
        (["--u0", "inf"], "u0"),
        (["--v0", "nan"], "v0"),
    ],
)
def test_sdof_rejects_non_finite_inputs(tmp_path, capsys, argv, field):
    assert run(tmp_path, "sdof", "--n", "32", *argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {field} must be finite")


@pytest.mark.parametrize(
    "argv, field",
    [
        (["mdof", "--u0", "nan,0,0"], "u0"),
        (["mdof", "--v0", "0,inf,0"], "v0"),
        (["convergence", "--kind", "mdof", "--u0", "nan,0,0"], "u0"),
        (["convergence", "--kind", "sdof", "--v0", "inf"], "v0"),
    ],
)
def test_non_finite_initial_values_exit_1(tmp_path, capsys, argv, field):
    assert run(tmp_path, *argv, "--n", "16,32,64" if argv[0] == "convergence" else "32") == 1
    assert capsys.readouterr().err.startswith(f"error: {field} must be finite")
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("n, code", [(8192, 0), (32768, 2)])
def test_sdof_resolution_ceiling(tmp_path, capsys, n, code):
    # the condition estimate grows as n^2 at fixed t: 4.4e7 at n = 8192 is
    # inside the gate 1/sqrt(eps) = 6.7e7, 7.0e8 at n = 32768 is not
    argv = ["sdof", "--t", "10", "--n", str(n), "--c", "0.4", "--k", "4"]
    assert run(tmp_path, *argv) == code
    out, err = capsys.readouterr()
    if code == 0:
        assert "condition=4.39e+07" in out
        return
    assert "condition estimate 7.0" in err and "exceeds 6.711e+07" in err
    n_max = int(err.split("largest admissible n_steps at this t is ")[1].split()[0])
    assert 8192 < n_max < 32768

"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured figures (run `pytest tests/test_acceptance.py -s` to see them).

Tolerances are pinned here, not in the library. Richardson order gates allow
the estimate slack ORDER_ESTIMATE_MARGIN = 0.05, because a finite-h estimate
of an order-p scheme reads slightly below p.
"""

import math
import time

import numpy as np
import pytest

from convact.actions import (
    ActionKind,
    action_value,
    el_residuals,
    hamilton_second_variation,
    make_direction_battery,
)
from convact.cli import main as cli_main
from convact.grid import Grid, sample
from convact.identities import (
    ORDER_ESTIMATE_MARGIN,
    ORDER_THRESHOLDS,
    IdentityKind,
    complementary_conv,
    complementary_inner,
    cubic_path_profile,
    inner_u_udot,
    run_identity_sweep,
)
from convact.models import (
    HarmonicForcing,
    SdofModel,
    Trajectory,
    analytic_sdof,
    build_bar_1d,
    build_shear_building,
    mdof_oracle,
)
from convact.stationarity import assemble, solve_stationary

PRESET = SdofModel(m=1.0, c=0.2, k=1.0)
ALPHAS = (0.25, 0.5, 0.75)


def _ok(criterion: int, detail: str):
    print(f"PASS criterion {criterion}: {detail}")


def test_criterion_01_identity_suite():
    start = time.perf_counter()
    rows = run_identity_sweep(list(IdentityKind), ALPHAS, [64, 128, 256])
    elapsed = time.perf_counter() - start
    series: dict = {}
    for row in rows:
        series.setdefault((row.report.kind, row.report.alpha), []).append(row)
    worst = math.inf
    for (kind, alpha), cells in series.items():
        residuals = [c.report.residual for c in cells]
        assert all(a > b for a, b in zip(residuals, residuals[1:])), (
            f"{kind.value} alpha={alpha}: residuals not monotone {residuals}"
        )
        threshold = ORDER_THRESHOLDS[kind] - ORDER_ESTIMATE_MARGIN
        for cell in cells[1:]:
            assert cell.order_estimate >= threshold, (
                f"{kind.value} alpha={alpha} n={cell.n_steps}: order "
                f"{cell.order_estimate:.3f} < {threshold}"
            )
            worst = min(worst, cell.order_estimate - ORDER_THRESHOLDS[kind])
    assert elapsed < 10.0, f"identity suite took {elapsed:.1f} s"
    _ok(1, f"{len(series)} residual sequences monotone, orders within "
           f"{-worst:.3f} of nominal, runtime {elapsed:.2f} s < 10 s")


def test_criterion_02_constant_signal_claims():
    g = Grid(1.0, 256)
    u = sample(lambda t: 2.0, g)
    rep64 = inner_u_udot(u)
    assert abs(rep64.lhs) <= 1e-10
    assert abs(rep64.rhs) <= 1e-10
    rep65 = complementary_inner(u, 0.5)
    assert abs(rep65.lhs - 4.0) <= 0.02 * 4.0
    _ok(2, f"integer pairing = {rep64.lhs:.2e} (memoryless), complementary "
           f"pairing = {rep65.lhs:.6f} vs 4 (history kept), n=256 alpha=0.5")


def test_criterion_03_path_dependence_split():
    g = Grid(1.0, 256)
    p1 = sample(cubic_path_profile(31, 1.0, 0.8, -0.3), g)
    p2 = sample(cubic_path_profile(35, 1.0, 0.8, -0.3), g)
    inner_gap = abs(
        complementary_inner(p1, 0.5).lhs - complementary_inner(p2, 0.5).lhs
    )
    tol = max(inner_gap, 1e-14)
    conv_gap = abs(
        complementary_conv(p1, 0.5).lhs - complementary_conv(p2, 0.5).lhs
    )
    assert conv_gap > 10.0 * tol, (inner_gap, conv_gap)
    _ok(3, f"inner-product gap {inner_gap:.2e} (path independent) vs "
           f"convolution gap {conv_gap:.2e} > 10x (path dependent)")


def test_criterion_04_alpha_invariance_of_convolved_pairing():
    g = Grid(1.0, 256)
    u = sample(cubic_path_profile(23, 1.0, 0.6, -0.2), g)
    reports = [complementary_conv(u, a) for a in ALPHAS]
    band = max(abs(r.lhs - r.rhs) for r in reports)
    values = [r.lhs for r in reports]
    worst_pair = max(
        abs(a - b) for i, a in enumerate(values) for b in values[i + 1 :]
    )
    assert worst_pair <= band, (worst_pair, band)
    _ok(4, f"pairwise spread {worst_pair:.2e} within discretization band "
           f"{band:.2e} across alpha = {ALPHAS}")


def test_criterion_05_mca_stationarity_sdof():
    start = time.perf_counter()
    errors = []
    field_sups = []
    compat_ics = []
    for n in (128, 256, 512):
        g = Grid(10.0, n)
        report = solve_stationary(assemble(PRESET, g, 1.0, 0.0))
        assert report.gradient_norm <= 1e-10
        oracle = analytic_sdof(PRESET, 1.0, 0.0, g)
        errors.append(float(np.max(np.abs(report.trajectory.u - oracle.u))))
        res = el_residuals(ActionKind.MCA_SDOF, PRESET, report.trajectory, ics=(1.0, 0.0))
        assert abs(res.ic_residuals["motion_ic"]) <= 1e-10
        compat_ics.append(res.ic_residuals["compatibility_ic"])
        field_sups.append((res.sup("motion"), res.sup("compatibility")))
    elapsed = time.perf_counter() - start
    assert errors[0] > errors[1] > errors[2], errors
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    assert min(orders) >= 0.8, orders
    for j in range(2):
        assert field_sups[0][j] > field_sups[1][j] > field_sups[2][j]
    # A J'(0) = u(0) with J'(0) differenced from the solved J: O(h^2)
    ic_orders = [math.log2(compat_ics[i] / compat_ics[i + 1]) for i in range(2)]
    assert min(ic_orders) >= 1.9, (compat_ics, ic_orders)
    assert elapsed < 30.0, f"took {elapsed:.1f} s"
    _ok(5, f"sup errors {['%.2e' % e for e in errors]} orders "
           f"{['%.2f' % o for o in orders]}, field residuals decreasing, "
           f"runtime {elapsed:.1f} s < 30 s")


def _fd_gradient_check(kind, model, qf, make_traj, scheme):
    rng = np.random.default_rng(99)
    d_free = rng.standard_normal(qf.n_free)
    grad = qf.K @ d_free + qf.r
    eps = 1e-4
    fd = np.empty_like(grad)
    for i in range(qf.n_free):
        dp = d_free.copy()
        dp[i] += eps
        dm = d_free.copy()
        dm[i] -= eps
        vp = action_value(kind, model, make_traj(qf, dp), scheme=scheme)
        vm = action_value(kind, model, make_traj(qf, dm), scheme=scheme)
        fd[i] = (vp - vm) / (2.0 * eps)
    return float(np.max(np.abs(fd - grad)) / max(np.max(np.abs(grad)), 1.0))


def test_criterion_06_gradient_check():
    g = Grid(2.0, 32)

    def sdof_traj(qf, d):
        u, J = qf.layout.unpack(qf.full_vector(d))
        return Trajectory(g, u[:, 0], J[:, 0])

    def mdof_traj(qf, d):
        u, J = qf.layout.unpack(qf.full_vector(d))
        return Trajectory(g, u, J)

    model = SdofModel(1.0, 0.2, 1.0, forcing=HarmonicForcing(0.5, 1.3, 0.1), j_hat_0=0.2)
    rels = []
    for scheme in ("reduced", "direct"):
        qf = assemble(model, g, 0.7, -0.4, scheme)
        rels.append(_fd_gradient_check(ActionKind.MCA_SDOF, model, qf, sdof_traj, scheme))
    building = build_shear_building(1, 1.0, 1.0, 0.2)
    qf = assemble(building, g, np.array([0.7]), np.array([-0.4]))
    rels.append(_fd_gradient_check(ActionKind.MCA_MDOF, building, qf, mdof_traj, "reduced"))
    assert max(rels) <= 1e-6, rels
    _ok(6, f"assembled gradient vs central differences: worst relative "
           f"mismatch {max(rels):.2e} <= 1e-6 (SDOF both schemes + 1-story MDOF)")


def test_criterion_07_tonti_defect():
    g = Grid(10.0, 256)
    traj = analytic_sdof(PRESET, 1.0, 0.0, g)
    rep = el_residuals(ActionKind.TONTI, PRESET, traj, ics=(1.0, 0.0))
    defect = rep.ic_residuals["initial"]
    assert defect == pytest.approx(0.1, abs=1e-8)
    assert defect != 0.0
    _ok(7, f"spurious initial condition m v0 + c u0 / 2 = {defect:.10f} "
           f"(nonzero, = 0.1 +/- 1e-8)")


def test_criterion_08_gurtin_equivalence():
    sups = []
    for n in (64, 128, 256):
        g = Grid(6.0, n)
        traj = analytic_sdof(PRESET, 1.0, 0.0, g)
        rep = el_residuals(ActionKind.GURTIN, PRESET, traj, ics=(1.0, 0.0))
        sups.append(rep.sup("integro_motion"))
    assert sups[0] > sups[1] > sups[2], sups
    orders = [math.log2(sups[i] / sups[i + 1]) for i in range(2)]
    assert min(orders) >= 1.0, orders
    _ok(8, f"integro-differential residual on the exact damped path: "
           f"{['%.2e' % s for s in sups]}, orders {['%.2f' % o for o in orders]}")


def test_criterion_09_hamilton_indefiniteness():
    g = Grid(10.0, 256)
    soft = sample(lambda t: math.sin(math.pi * t / 10.0), g)
    stiff = sample(lambda t: math.sin(4.0 * math.pi * t / 10.0), g)
    neg = hamilton_second_variation(1.0, 1.0, soft)
    pos = hamilton_second_variation(1.0, 1.0, stiff)
    assert neg < 0.0 < pos
    battery = make_direction_battery(g, count=16, seed=5, vanish_end=True)
    springless = [hamilton_second_variation(1.0, 0.0, d) for d in battery]
    assert all(v > 0.0 for v in springless)
    _ok(9, f"second variation {neg:.3f} < 0 < {pos:.3f} with the spring; "
           f"all 16 battery directions positive at k = 0")


def test_criterion_10_mdof_consistency():
    # (a) single story reproduces the scalar formulation
    g = Grid(5.0, 128)
    building1 = build_shear_building(1, 1.0, 1.0, 0.2)
    traj_s = analytic_sdof(PRESET, 1.0, 0.0, g)
    traj_v = Trajectory(g, traj_s.u.reshape(-1, 1), traj_s.J.reshape(-1, 1))
    val_m = action_value(ActionKind.MCA_MDOF, building1, traj_v)
    val_s = action_value(ActionKind.MCA_SDOF, PRESET, traj_s)
    scale = max(abs(val_s), 1.0)
    assert abs(val_m - val_s) <= 1e-12 * scale
    rep_m = solve_stationary(
        assemble(building1, g, np.array([1.0]), np.array([0.0]))
    )
    rep_s = solve_stationary(assemble(PRESET, g, 1.0, 0.0))
    gap = float(np.max(np.abs(rep_m.trajectory.u[:, 0] - rep_s.trajectory.u)))
    assert gap <= 1e-12

    # (b) three stories against the state-space oracle
    building3 = build_shear_building(
        3, 1.0, 10.0, 0.4, forcing=HarmonicForcing(np.array([1.0, 0.0, 0.0]), 2.0)
    )
    u0 = np.array([0.5, 0.2, -0.1])
    v0 = np.zeros(3)
    errs = []
    for n in (128, 256, 512):
        gg = Grid(6.0, n)
        rep = solve_stationary(assemble(building3, gg, u0, v0))
        oracle = mdof_oracle(building3, u0, v0, gg)
        errs.append(float(np.max(np.abs(rep.trajectory.u - oracle.u))))
    assert errs[0] > errs[1] > errs[2], errs

    # (c) clamped-free bar fundamental frequency
    from scipy.linalg import eigh

    rho, ea, length = 1.3, 4.0, 2.0
    bar = build_bar_1d(rho, ea, length, 8)
    w2 = eigh(bar.reduced_stiffness(), bar.M, eigvals_only=True)
    freq = math.sqrt(w2[0])
    exact = 0.5 * math.pi * math.sqrt(ea / rho) / length
    rel = abs(freq - exact) / exact
    assert rel <= 0.03
    _ok(10, f"1-story gap {gap:.1e} <= 1e-12; 3-story errors "
            f"{['%.2e' % e for e in errs]} decreasing; bar frequency off by "
            f"{100 * rel:.2f}% < 3%")


def test_criterion_11_direct_reduced_cross_check():
    forced = SdofModel(1.0, 0.3, 2.0, forcing=HarmonicForcing(0.5, 1.3, 0.0))
    value_gaps = []
    for n in (64, 128, 256):
        g = Grid(10.0, n)
        traj = analytic_sdof(forced, 0.0, 0.0, g)
        value_gaps.append(
            abs(
                action_value(ActionKind.MCA_SDOF, forced, traj, scheme="direct")
                - action_value(ActionKind.MCA_SDOF, forced, traj, scheme="reduced")
            )
        )
    assert value_gaps[0] > value_gaps[1] > value_gaps[2], value_gaps
    traj_gaps = []
    for n in (64, 128, 256):
        g = Grid(10.0, n)
        red = solve_stationary(assemble(PRESET, g, 1.0, 0.0, "reduced"))
        dirc = solve_stationary(assemble(PRESET, g, 1.0, 0.0, "direct"))
        traj_gaps.append(float(np.max(np.abs(red.trajectory.u - dirc.trajectory.u))))
    assert traj_gaps[0] > traj_gaps[1] > traj_gaps[2], traj_gaps
    _ok(11, f"action-value gaps {['%.2e' % v for v in value_gaps]} and solved-"
            f"trajectory gaps {['%.2e' % v for v in traj_gaps]} both shrink with h")


def test_criterion_12_reproducibility(tmp_path):
    runs = []
    for tag in ("one", "two"):
        out = tmp_path / tag
        assert cli_main(["verify-identities", "--n", "32,64", "--seed", "7",
                         "--output-dir", str(out)]) == 0
        assert cli_main(["sdof", "--n", "64", "--output-dir", str(out)]) == 0
        assert cli_main(["actions", "--kind", "tonti", "--n", "64",
                         "--output-dir", str(out)]) == 0
        assert cli_main(["convergence", "--kind", "sdof", "--n", "32,64,128",
                         "--output-dir", str(out)]) == 0
        runs.append(out)
    identical = []
    for name in ("identities.csv", "sdof_solved.csv", "sdof_oracle.csv",
                 "sdof_residuals.csv", "actions_values.csv", "actions_residuals.csv"):
        a = (runs[0] / name).read_bytes()
        b = (runs[1] / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
        identical.append(name)
    # the convergence table embeds wall-clock timings; everything but the
    # timing column must be byte-identical
    strip = lambda text: "\n".join(
        ",".join(line.split(",")[:-1]) for line in text.strip().split("\n")
    )
    a = (runs[0] / "convergence.csv").read_text()
    b = (runs[1] / "convergence.csv").read_text()
    assert strip(a) == strip(b)
    _ok(12, f"{len(identical)} CSVs byte-identical across repeated runs "
            f"(convergence table identical up to its wall-clock column)")

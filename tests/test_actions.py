import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from dense_reference import (
    conv_end_matrix,
    deriv1_stencil,
    dense_hamilton_system,
    dense_tonti_system,
    entries_toarray,
)

from convact._discrete import (
    build_gurtin_system,
    build_hamilton_system,
    build_tonti_system,
    rate_pair_entries,
    rate_value_pair_entries,
)
from convact._stencils import deriv1, deriv2
from convact.actions import (
    ActionKind,
    action_value,
    action_variation,
    bateman_residuals,
    el_residuals,
    gurtin_forcing,
    hamilton_second_variation,
    make_direction_battery,
    rayleigh_variation,
)
from convact.grid import Grid, Signal, sample
from convact.models import (
    HarmonicForcing,
    SdofModel,
    Trajectory,
    analytic_sdof,
    build_shear_building,
    mdof_oracle,
    mdof_view,
)
from convact.stationarity import assemble, solve_stationary

DAMPED = SdofModel(m=1.0, c=0.2, k=1.0)
FORCED = SdofModel(m=1.3, c=0.4, k=2.5, forcing=HarmonicForcing(0.8, 1.7, 0.3))


def zero_trajectory(grid):
    return Trajectory(grid, np.zeros(grid.n_nodes), np.zeros(grid.n_nodes))


# ---------------------------------------------------------------------------
# gurtin_forcing


def test_gurtin_forcing_free_vibration_constant():
    g = Grid(2.0, 32)
    model = SdofModel(1.0, 0.0, 1.0)
    f = gurtin_forcing(model, u0=1.0, v0=0.0, grid=g)
    np.testing.assert_allclose(f.values, np.ones(33), rtol=1e-14)


def test_gurtin_forcing_unit_load_quadratic():
    # [tau * 1](tau) = tau^2 / 2; mass and damping data switched off by zero ICs
    g = Grid(1.0, 64)
    model = SdofModel(1.0, 0.0, 1.0, forcing=HarmonicForcing(0.0, 1.0))
    base = gurtin_forcing(model, 0.0, 0.0, g)
    np.testing.assert_allclose(base.values, np.zeros(65), atol=1e-15)
    model_unit = SdofModel(1e-12, 0.0, 1.0, forcing=_unit_forcing())
    f = gurtin_forcing(model_unit, 0.0, 0.0, g)
    np.testing.assert_allclose(f.values, g.nodes() ** 2 / 2.0, atol=1e-12)


def _unit_forcing():
    # harmonic with zero frequency and 90-degree phase is the constant 1
    return HarmonicForcing(1.0, 0.0, math.pi / 2.0)


def test_gurtin_forcing_zero_everything():
    g = Grid(1.0, 16)
    f = gurtin_forcing(SdofModel(1.0, 0.5, 2.0), 0.0, 0.0, g)
    np.testing.assert_array_equal(f.values, np.zeros(17))


# ---------------------------------------------------------------------------
# action_value


@pytest.mark.parametrize(
    "kind", [ActionKind.HAMILTON, ActionKind.GURTIN, ActionKind.TONTI, ActionKind.MCA_SDOF]
)
def test_action_value_zero_trajectory_is_zero(kind):
    g = Grid(1.0, 16)
    traj = zero_trajectory(g)
    value = action_value(kind, DAMPED, traj, ics=(0.0, 0.0))
    assert value == pytest.approx(0.0, abs=1e-15)


def test_hamilton_value_ramp():
    # u = tau on (0,1) with k = 1, f = 0: I = 1/2 - (1/2) int tau^2 = 1/3
    g = Grid(1.0, 64)
    model = SdofModel(1.0, 0.0, 1.0)
    u = sample(lambda t: t, g)
    val = action_value(ActionKind.HAMILTON, model, u)
    assert val == pytest.approx(0.5 - 0.5 / 3.0, abs=2e-4)


def test_mca_direct_reduced_agreement_shrinks():
    # forced from rest: u(0) = J(0) = 0, so both semi-derivative signals are
    # regular and the two evaluation paths agree at first order (with nonzero
    # initial data the GL boundary layer slows the value agreement to O(h^1/2)
    # and it is not monotone on coarse grids)
    model = SdofModel(1.0, 0.3, 2.0, forcing=HarmonicForcing(0.5, 1.3, 0.0))
    diffs = []
    for n in (64, 128, 256):
        g = Grid(10.0, n)
        traj = analytic_sdof(model, 0.0, 0.0, g)
        direct = action_value(ActionKind.MCA_SDOF, model, traj, scheme="direct")
        reduced = action_value(ActionKind.MCA_SDOF, model, traj, scheme="reduced")
        diffs.append(abs(direct - reduced))
    assert diffs[2] < diffs[1] < diffs[0]
    assert math.log2(diffs[0] / diffs[2]) / 2.0 > 0.8


def test_mca_value_quadratic_scaling():
    g = Grid(3.0, 48)
    traj = analytic_sdof(DAMPED, 1.0, 0.5, g)
    base = action_value(ActionKind.MCA_SDOF, DAMPED, traj)
    scaled = Trajectory(g, 3.0 * traj.u, 3.0 * traj.J)
    val = action_value(ActionKind.MCA_SDOF, DAMPED, scaled)
    assert val == pytest.approx(9.0 * base, rel=1e-12)


def test_mca_mdof_single_story_equals_sdof():
    g = Grid(5.0, 64)
    traj = analytic_sdof(DAMPED, 1.0, 0.0, g)
    vec = Trajectory(g, traj.u.reshape(-1, 1), traj.J.reshape(-1, 1))
    building = build_shear_building(1, 1.0, 1.0, 0.2)
    v_m = action_value(ActionKind.MCA_MDOF, building, vec)
    v_s = action_value(ActionKind.MCA_SDOF, DAMPED, traj)
    assert v_m == pytest.approx(v_s, rel=1e-14)


def test_action_value_kind_validation():
    g = Grid(1.0, 8)
    traj = zero_trajectory(g)
    with pytest.raises(ValueError):
        action_value(ActionKind.MCA_MDOF, DAMPED, traj)
    with pytest.raises(ValueError):
        action_value(ActionKind.GURTIN, DAMPED, traj)  # missing ics
    with pytest.raises(ValueError):
        action_value(ActionKind.MCA_SDOF, DAMPED, traj, scheme="other")


# ---------------------------------------------------------------------------
# action_variation


def test_variation_zero_direction():
    g = Grid(2.0, 32)
    traj = analytic_sdof(DAMPED, 1.0, 0.0, g)
    direction = zero_trajectory(g)
    assert action_variation(ActionKind.MCA_SDOF, DAMPED, traj, direction) == 0.0


def test_variation_vanishes_at_solved_trajectory():
    g = Grid(10.0, 128)
    qf = assemble(DAMPED, g, 1.0, 0.0)
    rep = solve_stationary(qf)
    battery = make_direction_battery(g, count=16, seed=3)
    scale = max(abs(action_value(ActionKind.MCA_SDOF, DAMPED, rep.trajectory)), 1.0)
    for i in range(8):
        direction = Trajectory(g, battery[i].values, battery[i + 8].values)
        var = action_variation(ActionKind.MCA_SDOF, DAMPED, rep.trajectory, direction)
        assert abs(var) <= 1e-10 * scale


def test_variation_quadratic_consistency():
    g = Grid(4.0, 40)
    traj = analytic_sdof(DAMPED, 0.6, -0.2, g)
    battery = make_direction_battery(g, count=2, seed=11)
    direction = Trajectory(g, battery[0].values, battery[1].values)
    base = action_value(ActionKind.MCA_SDOF, DAMPED, traj)
    var = action_variation(ActionKind.MCA_SDOF, DAMPED, traj, direction)
    curvatures = []
    for eps in (1e-2, 1e-3, 1e-4):
        bumped = Trajectory(
            g, traj.u + eps * direction.u, traj.J + eps * direction.J
        )
        val = action_value(ActionKind.MCA_SDOF, DAMPED, bumped)
        curvatures.append((val - base - eps * var) / eps**2)
    assert curvatures[0] == pytest.approx(curvatures[1], rel=1e-6)
    assert curvatures[1] == pytest.approx(curvatures[2], rel=1e-3)


def test_variation_enforces_direction_constraints():
    g = Grid(1.0, 16)
    traj = zero_trajectory(g)
    bad = Trajectory(g, np.ones(17), np.zeros(17))  # du(0) != 0
    with pytest.raises(ValueError):
        action_variation(ActionKind.MCA_SDOF, DAMPED, traj, bad)
    u = sample(lambda t: t, g)
    with pytest.raises(ValueError):
        action_variation(ActionKind.HAMILTON, DAMPED, u, sample(lambda t: t, g))


def test_tonti_variation_reveals_initial_defect():
    # at the exact damped solution the only surviving first-variation term is
    # du(t) * (m v0 + c u0 / 2): the non-physical initial condition
    for n in (128, 256):
        g = Grid(10.0, n)
        traj = analytic_sdof(DAMPED, 1.0, 0.0, g)
        ramp = sample(lambda t: t / 10.0, g)  # du(0) = 0, du(t) = 1
        var = action_variation(ActionKind.TONTI, DAMPED, traj, ramp)
        defect = DAMPED.m * 0.0 + 0.5 * DAMPED.c * 1.0
        assert var == pytest.approx(defect, abs=30.0 / n**2 * 100)
    g = Grid(10.0, 256)
    traj = analytic_sdof(DAMPED, 1.0, 0.0, g)
    ramp = sample(lambda t: t / 10.0, g)
    assert action_variation(ActionKind.TONTI, DAMPED, traj, ramp) == pytest.approx(
        0.1, abs=2e-3
    )


def test_gurtin_variation_vanishes_at_exact_solution():
    vals = []
    for n in (64, 128, 256):
        g = Grid(6.0, n)
        traj = analytic_sdof(DAMPED, 1.0, 0.0, g)
        direction = sample(lambda t: math.sin(0.7 * t) + 0.3, g)  # fully free
        vals.append(
            abs(
                action_variation(
                    ActionKind.GURTIN, DAMPED, traj, direction, ics=(1.0, 0.0)
                )
            )
        )
    assert vals[2] < vals[1] < vals[0]


@pytest.mark.parametrize("n", [2, 3, 9, 64])
def test_gurtin_operator_matches_prefix_loop(n):
    # reference: m W + c W_c + k W_r, with W_c and W_r the sums over prefixes
    # j of outer[j] (times t - tau_j for W_r) times the trapezoid
    # anti-diagonal pairing of nodes 0..j
    g = Grid(3.0, n)
    outer = g.trapezoid_weights()
    taus = g.nodes()
    ref_const = np.zeros((n + 1, n + 1))
    ref_ramp = np.zeros((n + 1, n + 1))
    for j in range(1, n + 1):
        idx = np.arange(j + 1)
        wj = np.full(j + 1, g.h)
        wj[0] *= 0.5
        wj[-1] *= 0.5
        block = np.zeros((n + 1, n + 1))
        block[idx, j - idx] = wj
        ref_const += outer[j] * block
        ref_ramp += outer[j] * (g.t_final - taus[j]) * block
    ref = FORCED.m * conv_end_matrix(g) + FORCED.c * ref_const + FORCED.k * ref_ramp
    matvec, r = build_gurtin_system(FORCED, g, 0.7, -0.2)
    cols = np.column_stack([matvec(e) for e in np.eye(n + 1)])
    assert np.max(np.abs(cols - ref)) <= 1e-15 * np.max(np.abs(ref))
    assert cols.tobytes() == cols.T.tobytes()
    x = np.random.default_rng(n).standard_normal(n + 1)
    assert np.max(np.abs(matvec(x) - ref @ x)) <= 1e-15 * np.max(np.abs(ref @ x))
    f = gurtin_forcing(FORCED, 0.7, -0.2, g)
    assert r.tobytes() == (-(conv_end_matrix(g) @ f.values)).tobytes()


def test_gurtin_variation_memory_is_linear():
    # the dense K and its two Hankel forms took 164 kB per node at n = 4096
    g = Grid(6.0, 4096)
    traj = analytic_sdof(FORCED, 1.0, 0.0, g)
    direction = sample(lambda t: math.sin(0.7 * t) + 0.3, g)
    action_variation(ActionKind.GURTIN, FORCED, traj, direction, ics=(1.0, 0.0))  # imports
    tracemalloc.start()
    try:
        action_variation(ActionKind.GURTIN, FORCED, traj, direction, ics=(1.0, 0.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024 * g.n_nodes


@pytest.mark.parametrize("n", [2, 3, 9, 64, 512])
def test_operator_matrices_match_entry_loops(n):
    # reference: the entry-by-entry fills the stencil forms replaced
    h = 3.0 / n
    ref_d1 = np.zeros((n + 1, n + 1))
    for k in range(1, n):
        ref_d1[k, k - 1] = -1.0 / (2.0 * h)
        ref_d1[k, k + 1] = 1.0 / (2.0 * h)
    ref_d1[0, 0], ref_d1[0, 1], ref_d1[0, 2] = -3.0 / (2 * h), 4.0 / (2 * h), -1.0 / (2 * h)
    ref_d1[n, n], ref_d1[n, n - 1], ref_d1[n, n - 2] = 3.0 / (2 * h), -4.0 / (2 * h), 1.0 / (2 * h)
    ref_inc = np.zeros((n, n + 1))
    ref_inc[np.arange(n), np.arange(n)] = -1.0
    ref_inc[np.arange(n), np.arange(n) + 1] = 1.0
    ref_pi = np.zeros((n, n))
    ref_pi[np.arange(n), n - 1 - np.arange(n)] = 1.0 / h
    ref_mid = np.zeros((n, n + 1))
    ref_mid[np.arange(n), n - 1 - np.arange(n)] = 0.5
    ref_mid[np.arange(n), n - np.arange(n)] = 0.5
    assert deriv1_stencil(n, h).tobytes() == ref_d1.tobytes()
    g = Grid(3.0, n)
    rate = entries_toarray(rate_pair_entries(g), n + 1)
    assert rate.tobytes() == (ref_inc.T @ ref_pi @ ref_inc).tobytes()
    rate_value = entries_toarray(rate_value_pair_entries(g), n + 1)
    assert rate_value.tobytes() == (ref_inc.T @ ref_mid).tobytes()


@pytest.mark.parametrize("n", [2, 3, 9, 64])
@pytest.mark.parametrize(
    "build, dense", [(build_hamilton_system, dense_hamilton_system),
                     (build_tonti_system, dense_tonti_system)]
)
def test_sparse_displacement_systems_match_dense_products(n, build, dense):
    # K[i, j] is the bilinear form on the unit vectors e_i, e_j
    g = Grid(4.0, n)
    form, r = build(FORCED, g)
    K_ref, r_ref = dense(FORCED, g)
    unit = np.eye(n + 1)
    K = np.array([[form(e_i, e_j) for e_j in unit] for e_i in unit])
    assert np.max(np.abs(K - K_ref)) <= 1e-15 * np.max(np.abs(K_ref))
    assert K.tobytes() == K.T.tobytes()
    assert r.tobytes() == r_ref.tobytes()
    # bitwise symmetric in (g, x) term by term: a model dominated by one of
    # m, c, k keeps the others' roundoff from hiding an asymmetric term
    g_, x_ = np.random.default_rng(n).standard_normal((2, n + 1))
    for model in (FORCED, SdofModel(1e-9, 1.0, 1e-9), SdofModel(1e-9, 0.0, 1.0)):
        form = build(model, g)[0]
        assert form(g_, x_) == form(x_, g_)


@pytest.mark.parametrize("build", [build_hamilton_system, build_tonti_system])
def test_sparse_displacement_systems_memory_is_linear(build):
    # a dense (n+1)^2 K alone would be 33.6 MB at n = 2048
    g = Grid(4.0, 2048)
    x = np.sin(g.nodes())
    tracemalloc.start()
    try:
        form, _ = build(FORCED, g)
        form(x, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024 * g.n_nodes


@pytest.mark.parametrize("n", [3, 9, 64, 512])
def test_stencils_act_columnwise_on_histories(n):
    # el_residuals differentiates (n_nodes, n_dof) histories in one call;
    # reference: one call per column, stacked
    g = Grid(4.0, n)
    model = build_shear_building(3, 1.0, 10.0, 0.4)
    traj = mdof_oracle(model, [1.0, 0.0, 0.0], [0.0, 0.2, 0.0], g)
    for hist in (traj.u, traj.J):
        cols = range(hist.shape[1])
        ref_d1 = np.column_stack([deriv1(hist[:, a], g.h) for a in cols])
        ref_d2 = np.column_stack([deriv2(hist[:, a], g.h) for a in cols])
        assert deriv1(hist, g.h).tobytes() == ref_d1.tobytes()
        assert deriv2(hist, g.h).tobytes() == ref_d2.tobytes()


# every action kind and scheme, the direction battery, the identity sweep and
# the verify subcommands, then the solving subcommands, in a fresh process;
# prints the scipy modules loaded after `import convact` and after the verify
# runs, then, after the solves, which of scipy.linalg and the heavy packages
# are loaded and every scipy module
SCIPY_SURFACE_RUN = """
import sys, tempfile
import numpy as np
import convact
from convact import ActionKind as K, Grid, Signal, Trajectory, cli

def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

def loaded():
    names = ("scipy.linalg", "scipy.interpolate", "scipy.sparse", "scipy.special")
    return [m for m in names if m in sys.modules]

print(scipy_loaded())
g = Grid(6.0, 64)
sdof = convact.SdofModel(1.0, 0.3, 2.0, forcing=convact.HarmonicForcing(0.5, 1.3, 0.3))
base = convact.analytic_sdof(sdof, 1.0, 0.0, g)
du, dJ = (d.values for d in convact.make_direction_battery(g, count=2, vanish_end=True))
col = lambda a: np.reshape(a, (-1, 1))
ics = (1.0, 0.0)
cases = [
    (K.HAMILTON, sdof, base, Signal(g, du), None),
    (K.TONTI, sdof, base, Signal(g, du), ics),
    (K.GURTIN, sdof, base, Signal(g, du), ics),
    (K.MCA_SDOF, sdof, base, Trajectory(g, du, dJ), ics),
    (K.MCA_MDOF, convact.sdof_as_mdof(sdof), Trajectory(g, col(base.u), col(base.J)),
     Trajectory(g, col(du), col(dJ)), (np.array([1.0]), np.array([0.0]))),
]
for kind, model, traj, direction, ics in cases:
    for scheme in ("reduced", "direct"):
        convact.action_value(kind, model, traj, ics=ics, scheme=scheme)
        convact.action_variation(kind, model, traj, direction, ics=ics, scheme=scheme)
convact.run_identity_sweep(list(convact.IdentityKind), [0.5], [16, 32])
with tempfile.TemporaryDirectory() as out:
    for kind in ("mca-sdof", "mca-mdof", "hamilton", "tonti", "gurtin"):
        assert cli.main(["actions", "--kind", kind, "--output-dir", out]) == 0, kind
    assert cli.main(["verify-identities", "--n", "32,64", "--output-dir", out]) == 0
    print(scipy_loaded())
    for argv in (["sdof", "--n", "32", "--forcing-amplitude", "1", "--forcing-omega", "2"],
                 ["mdof", "--n", "32"], ["convergence", "--n", "16,32,64"]):
        assert cli.main([*argv, "--output-dir", out]) == 0, argv
print(loaded())
print(scipy_loaded())
"""


def test_runs_load_no_scipy_interpolate_sparse_or_special():
    # verify runs need numpy alone; the banded LU loads scipy's LAPACK
    # extension and the oracle's expm scipy's Pade kernels where they run,
    # neither through the scipy.linalg package, and scipy.interpolate,
    # .sparse and .special (which drag in .optimize, .spatial and .fft) are
    # never loaded
    out = subprocess.run([sys.executable, "-c", SCIPY_SURFACE_RUN], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    # the CLI's summaries come between the four module lists
    assert [line for line in out.stdout.splitlines() if line.startswith("[")] == [
        "[]", "[]", "[]", "['scipy.linalg._flapack', 'scipy.linalg._matfuncs_expm']"
    ]


@pytest.mark.parametrize("n", [2, 3, 7, 64, 512])
@pytest.mark.parametrize("vanish_end", [False, True])
def test_direction_battery_is_the_not_a_knot_cubic_spline(n, vanish_end):
    # reference: scipy's CubicSpline on the same draws, relative to the knot
    # values; at the ends the battery is exactly 0.0 where CubicSpline leaves
    # roundoff
    from scipy.interpolate import CubicSpline

    for t_final, seed in ((7.3, n), (0.4, 2 * n + 1)):
        g = Grid(t_final, n)
        rng = np.random.default_rng(seed)
        knots = np.linspace(0.0, t_final, 6)
        for direction in make_direction_battery(g, count=8, seed=seed, vanish_end=vanish_end):
            vals = rng.uniform(-1.0, 1.0, 6)
            vals[0] = 0.0
            if vanish_end:
                vals[-1] = 0.0
            ref = CubicSpline(knots, vals)(g.nodes())
            assert np.max(np.abs(direction.values - ref)) <= 1e-14 * np.max(np.abs(vals))
            assert direction.values[0] == 0.0
            assert direction.values[-1] == 0.0 or not vanish_end


# ---------------------------------------------------------------------------
# el_residuals


def _ic_order(ics: list) -> float:
    """The smallest refinement order of an IC residual over doubling grids."""
    return min(math.log2(ics[i] / ics[i + 1]) for i in range(len(ics) - 1))


def test_mca_el_residuals_on_analytic_trajectory():
    sups = {"motion": [], "compatibility": []}
    compat_ics = []
    for n in (128, 256, 512):
        g = Grid(10.0, n)
        traj = analytic_sdof(DAMPED, 1.0, 0.0, g)
        rep = el_residuals(ActionKind.MCA_SDOF, DAMPED, traj, ics=(1.0, 0.0))
        assert abs(rep.ic_residuals["motion_ic"]) <= 1e-10
        compat_ics.append(rep.ic_residuals["compatibility_ic"])
        for name in sups:
            sups[name].append(rep.sup(name))
    for name, seq in sups.items():
        assert seq[2] < seq[1] < seq[0], name
        order = math.log2(seq[0] / seq[2]) / 2.0
        assert order >= 1.0, (name, seq)
    # the exact J' = u / a at tau = 0, read through the O(h^2) one-sided stencil
    assert _ic_order(compat_ics) >= 1.9, compat_ics


@pytest.mark.parametrize("kind", [ActionKind.MCA_SDOF, ActionKind.MCA_MDOF])
def test_compatibility_ic_reads_the_trajectory_rate(kind):
    # J'(0) = 0 where the compatibility a J'(0) = u(0) = 1 asks for 1: the
    # residual is |u(0)| = 1 up to the stencil's O(h^2), not 0
    g = Grid(10.0, 256)
    traj = analytic_sdof(DAMPED, 1.0, 0.0, g)
    args = (DAMPED, (1.0, 0.0), Trajectory(g, traj.u, np.full(g.n_nodes, traj.J[0])))
    if kind is ActionKind.MCA_MDOF:
        args = mdof_view(*args)
    model, ics, flat = args
    rep = el_residuals(kind, model, flat, ics=ics)
    assert rep.ic_residuals["compatibility_ic"] > 0.1
    assert rep.ic_residuals["motion_ic"] <= 1e-10


def test_tonti_defect_value():
    g = Grid(10.0, 256)
    traj = analytic_sdof(DAMPED, 1.0, 0.0, g)
    rep = el_residuals(ActionKind.TONTI, DAMPED, traj, ics=(1.0, 0.0))
    assert rep.ic_residuals["initial"] == pytest.approx(0.1, abs=1e-8)
    assert rep.ic_residuals["initial"] != 0.0


def test_gurtin_residuals_converge():
    sups = []
    for n in (64, 128, 256):
        g = Grid(6.0, n)
        traj = analytic_sdof(DAMPED, 1.0, 0.0, g)
        rep = el_residuals(ActionKind.GURTIN, DAMPED, traj, ics=(1.0, 0.0))
        sups.append(rep.sup("integro_motion"))
    assert sups[2] < sups[1] < sups[0]
    assert math.log2(sups[0] / sups[2]) / 2.0 >= 1.0


def test_gurtin_residuals_zero_trajectory():
    g = Grid(1.0, 32)
    rep = el_residuals(ActionKind.GURTIN, DAMPED, zero_trajectory(g), ics=(0.0, 0.0))
    assert rep.sup("integro_motion") == 0.0


def test_hamilton_residuals_on_conservative_solution():
    model = SdofModel(1.0, 0.0, 2.0)
    sups = []
    for n in (128, 256):
        g = Grid(5.0, n)
        traj = analytic_sdof(model, 0.5, 0.3, g)
        rep = el_residuals(ActionKind.HAMILTON, model, traj)
        assert rep.ic_residuals == {}
        sups.append(rep.sup("motion"))
    assert sups[1] < sups[0]


def test_mdof_el_residuals():
    building = build_shear_building(2, 1.0, 8.0, 0.3)
    g = Grid(4.0, 256)
    from convact.models import mdof_oracle

    u0 = np.array([0.4, -0.2])
    v0 = np.array([0.0, 0.1])
    traj = mdof_oracle(building, u0, v0, g)
    rep = el_residuals(ActionKind.MCA_MDOF, building, traj, ics=(u0, v0))
    assert rep.ic_residuals["motion_ic"] <= 1e-10
    assert rep.sup("motion") < 0.05
    assert rep.sup("compatibility") < 0.05
    compat_ics = []
    for n in (128, 256, 512):
        traj = mdof_oracle(building, u0, v0, Grid(4.0, n))
        rep = el_residuals(ActionKind.MCA_MDOF, building, traj, ics=(u0, v0))
        compat_ics.append(rep.ic_residuals["compatibility_ic"])
    assert _ic_order(compat_ics) >= 1.9, compat_ics


def test_residual_report_csv():
    g = Grid(10.0, 64)
    traj = analytic_sdof(DAMPED, 1.0, 0.0, g)
    mixed = ["motion", "compatibility", "motion_ic", "compatibility_ic"]
    one_dof_view = mdof_view(DAMPED, (1.0, 0.0), traj)
    for kind, (model, ics, traj_in), expected in [
        (ActionKind.MCA_SDOF, (DAMPED, (1.0, 0.0), traj), mixed),
        (ActionKind.MCA_MDOF, one_dof_view, mixed),
        (ActionKind.TONTI, (DAMPED, (1.0, 0.0), traj), ["motion", "initial"]),
        (ActionKind.HAMILTON, (DAMPED, None, traj), ["motion"]),
        (ActionKind.GURTIN, (DAMPED, (1.0, 0.0), traj), ["integro_motion"]),
    ]:
        rep = el_residuals(kind, model, traj_in, ics=ics)
        text = rep.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "name,sup_norm,l2_norm,excluded_nodes"
        names = [line.split(",")[0] for line in lines[1:]]
        assert names == expected, kind


# ---------------------------------------------------------------------------
# second variation, Rayleigh, Bateman


def test_hamilton_second_variation_indefinite():
    g = Grid(10.0, 256)
    soft = sample(lambda t: math.sin(math.pi * t / 10.0), g)
    stiff = sample(lambda t: math.sin(4.0 * math.pi * t / 10.0), g)
    assert hamilton_second_variation(1.0, 1.0, soft) < 0.0
    assert hamilton_second_variation(1.0, 1.0, stiff) > 0.0
    # closed form for the soft direction: (t/2) ((pi/t)^2 - 1)
    expected = 0.5 * 10.0 * ((math.pi / 10.0) ** 2 - 1.0)
    assert hamilton_second_variation(1.0, 1.0, soft) == pytest.approx(expected, rel=1e-3)


def test_hamilton_second_variation_positive_without_spring():
    g = Grid(10.0, 128)
    for direction in make_direction_battery(g, count=16, seed=5, vanish_end=True):
        assert hamilton_second_variation(1.0, 0.0, direction) > 0.0


def test_hamilton_second_variation_zero_direction():
    g = Grid(1.0, 16)
    zero = sample(lambda t: 0.0, g)
    assert hamilton_second_variation(1.0, 1.0, zero) == 0.0


def test_hamilton_second_variation_rejects_bad_input():
    g = Grid(1.0, 16)
    with pytest.raises(ValueError):
        hamilton_second_variation(1.0, 1.0, sample(lambda t: t, g))
    with pytest.raises(ValueError):
        hamilton_second_variation(-1.0, 0.0, sample(lambda t: 0.0, g))


def test_rayleigh_variation_zero_direction():
    g = Grid(1.0, 16)
    u = sample(lambda t: t * (1 - t), g)
    assert rayleigh_variation(DAMPED, u, sample(lambda t: 0.0, g)) == 0.0


def test_rayleigh_variation_vanishes_on_exact_solution():
    vals = []
    for n in (128, 256):
        g = Grid(10.0, n)
        traj = analytic_sdof(DAMPED, 1.0, 0.0, g)
        direction = sample(lambda t: math.sin(math.pi * t / 10.0), g)
        vals.append(abs(rayleigh_variation(DAMPED, traj.u_signal(), direction)))
    assert vals[1] < vals[0]
    assert vals[1] < 1e-3


def test_rayleigh_reduces_to_hamilton_without_damping():
    model = SdofModel(1.2, 0.0, 2.5, forcing=HarmonicForcing(0.4, 1.7))
    g = Grid(6.0, 96)
    u = sample(lambda t: math.cos(0.9 * t), g)
    direction = sample(lambda t: math.sin(math.pi * t / 6.0), g)
    ray = rayleigh_variation(model, u, direction)
    ham = action_variation(ActionKind.HAMILTON, model, u, direction)
    assert ray == pytest.approx(ham, rel=1e-12)


def test_bateman_residuals():
    g = Grid(6.0, 512)
    traj = analytic_sdof(DAMPED, 1.0, 0.0, g)
    # mirror system: closed form with negative damping via the same engine
    mirror_taus = g.nodes()
    zeta, wn = -0.1, 1.0
    wd = wn * math.sqrt(1.0 - zeta * zeta)
    v_vals = np.exp(-zeta * wn * mirror_taus) * (
        np.cos(wd * mirror_taus) + (zeta * wn / wd) * np.sin(wd * mirror_taus)
    )
    rep = bateman_residuals(DAMPED, traj.u_signal(), Signal(g, v_vals))
    assert rep.sup("physical") < 2e-3
    assert rep.sup("mirror") < 0.05  # growing solution, larger residual scale
    zero = sample(lambda t: 0.0, g)
    rep0 = bateman_residuals(SdofModel(1.0, 0.2, 1.0), zero, zero)
    assert rep0.sup("physical") == 0.0
    assert rep0.sup("mirror") == 0.0


def test_hamilton_variation_vanishes_at_conservative_solution():
    # stationarity equivalence: directions pinned at both ends, exact path
    model = SdofModel(1.0, 0.0, 2.0)
    vals = []
    for n in (128, 256):
        g = Grid(5.0, n)
        traj = analytic_sdof(model, 0.5, 0.3, g)
        battery = make_direction_battery(g, count=8, seed=13, vanish_end=True)
        vals.append(
            max(
                abs(action_variation(ActionKind.HAMILTON, model, traj.u_signal(), d))
                for d in battery
            )
        )
    assert vals[1] < vals[0]
    assert vals[1] < 1e-3


def test_tonti_variation_vanishes_for_end_pinned_directions():
    # with du(t) = 0 the defect term drops and the exact path is stationary
    vals = []
    for n in (128, 256):
        g = Grid(10.0, n)
        traj = analytic_sdof(DAMPED, 1.0, 0.0, g)
        battery = make_direction_battery(g, count=8, seed=17, vanish_end=True)
        vals.append(
            max(
                abs(action_variation(ActionKind.TONTI, DAMPED, traj.u_signal(), d))
                for d in battery
            )
        )
    assert vals[1] < vals[0]
    assert vals[1] < 5e-3


def test_mdof_inputs_must_match_model_widths():
    g = Grid(1.0, 8)
    building = build_shear_building(1, 1.0, 1.0, 0.2)  # one dof, one element
    wide = Trajectory(g, np.ones((9, 2)), np.ones((9, 2)))
    with pytest.raises(ValueError, match="widths"):
        action_value(ActionKind.MCA_MDOF, building, wide)
    traj = Trajectory(g, np.ones((9, 1)), np.ones((9, 1)))
    wide_direction = Trajectory(g, np.zeros((9, 2)), np.zeros((9, 2)))
    with pytest.raises(ValueError, match="widths"):
        action_variation(ActionKind.MCA_MDOF, building, traj, wide_direction)
    with pytest.raises(ValueError, match="scalar"):
        action_variation(ActionKind.MCA_SDOF, DAMPED, zero_trajectory(g), wide_direction)


def test_mdof_variation_vanishes_at_solved_trajectory():
    g = Grid(4.0, 48)
    building = build_shear_building(2, 1.0, 8.0, 0.3)
    u0 = np.array([0.5, -0.2])
    v0 = np.zeros(2)
    qf = assemble(building, g, u0, v0)
    rep = solve_stationary(qf)
    battery = make_direction_battery(g, count=8, seed=19)
    scale = max(abs(action_value(ActionKind.MCA_MDOF, building, rep.trajectory)), 1.0)
    for i in range(4):
        du = np.column_stack([battery[i].values, battery[i + 2].values])
        dJ = np.column_stack([battery[i + 4].values, battery[(i + 6) % 8].values])
        direction = Trajectory(g, du, dJ)
        var = action_variation(ActionKind.MCA_MDOF, building, rep.trajectory, direction)
        assert abs(var) <= 1e-10 * scale


def _dense_reference_terms(m, c, k, u0, v0, t_final, n_dense=16384):
    """Continuum value of the mixed functional on the damped free-vibration
    path, via closed-form u and u' plus dense quadrature (independent of the
    package's discrete operators)."""
    wn = math.sqrt(k / m)
    zeta = c / (2.0 * math.sqrt(k * m))
    wd = wn * math.sqrt(1.0 - zeta * zeta)
    b1, b2 = u0, (v0 + zeta * wn * u0) / wd
    tau = np.linspace(0.0, t_final, n_dense + 1)
    env = np.exp(-zeta * wn * tau)
    u = env * (b1 * np.cos(wd * tau) + b2 * np.sin(wd * tau))
    du = env * (
        (-zeta * wn * b1 + wd * b2) * np.cos(wd * tau)
        + (-zeta * wn * b2 - wd * b1) * np.sin(wd * tau)
    )
    h = t_final / n_dense
    cum = np.concatenate([[0.0], np.cumsum(0.5 * h * (u[1:] + u[:-1]))])
    j0 = -m * v0 - c * u0
    J = j0 + k * cum
    dJ = k * u

    def cv(x, y):  # dense trapezoid of int x(s) y(t-s) ds
        prod = x * y[::-1]
        return h * (0.5 * (prod[0] + prod[-1]) + prod[1:-1].sum())

    value = (
        0.5 * m * cv(du, du)
        - 0.5 * (1.0 / k) * cv(dJ, dJ)
        + cv(dJ, u)
        + J[0] * u[-1]
        + 0.5 * c * (cv(du, u) + u[0] * u[-1])
    )
    return value


def test_mca_value_converges_to_continuum_functional():
    # independent oracle for the functional value itself: closed-form path
    # derivatives + dense quadrature, no package discrete operators involved
    ref = _dense_reference_terms(1.0, 0.2, 1.0, 1.0, 0.0, 10.0)
    gaps = []
    for n in (64, 128, 256):
        g = Grid(10.0, n)
        traj = analytic_sdof(DAMPED, 1.0, 0.0, g)
        val = action_value(ActionKind.MCA_SDOF, DAMPED, traj, scheme="reduced")
        gaps.append(abs(val - ref))
    assert gaps[2] < gaps[1] < gaps[0]
    assert gaps[2] < 5e-4


def test_tonti_value_converges_to_continuum_functional():
    m, c, k, u0, v0, t_final = 1.0, 0.2, 1.0, 1.0, 0.0, 10.0
    n_dense = 16384
    wn, zeta = 1.0, 0.1
    wd = wn * math.sqrt(1.0 - zeta * zeta)
    b1, b2 = u0, (v0 + zeta * wn * u0) / wd
    tau = np.linspace(0.0, t_final, n_dense + 1)
    env = np.exp(-zeta * wn * tau)
    u = env * (b1 * np.cos(wd * tau) + b2 * np.sin(wd * tau))
    du = env * (
        (-zeta * wn * b1 + wd * b2) * np.cos(wd * tau)
        + (-zeta * wn * b2 - wd * b1) * np.sin(wd * tau)
    )
    h = t_final / n_dense

    def cv(x, y):
        prod = x * y[::-1]
        return h * (0.5 * (prod[0] + prod[-1]) + prod[1:-1].sum())

    ref = 0.5 * m * cv(du, du) + 0.5 * c * cv(du, u) + 0.5 * k * cv(u, u)
    gaps = []
    for n in (64, 128, 256):
        g = Grid(10.0, n)
        traj = analytic_sdof(DAMPED, 1.0, 0.0, g)
        gaps.append(abs(action_value(ActionKind.TONTI, DAMPED, traj) - ref))
    assert gaps[2] < gaps[1] < gaps[0]
    assert gaps[2] < 5e-4


def test_residuals_need_enough_nodes_for_second_differences():
    g = Grid(1.0, 2)
    traj = zero_trajectory(g)
    with pytest.raises(ValueError, match="at least 4 nodes"):
        el_residuals(ActionKind.MCA_SDOF, DAMPED, traj, ics=(0.0, 0.0))

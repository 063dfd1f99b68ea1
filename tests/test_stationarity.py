import math

import numpy as np
import pytest

from convact._discrete import DofLayout, build_mca_system
from convact.actions import ActionKind, action_value, action_variation, el_residuals
from convact.grid import Grid
from convact.models import (
    HarmonicForcing,
    MdofModel,
    SdofModel,
    Trajectory,
    analytic_sdof,
    build_shear_building,
    mdof_oracle,
    sdof_as_mdof,
)
from convact.stationarity import (
    ConvergenceTable,
    QuadraticForm,
    SingularSystemError,
    assemble,
    convergence_study,
    solve_stationary,
)

DAMPED = SdofModel(m=1.0, c=0.2, k=1.0)


def test_assemble_homogeneous_is_homogeneous():
    g = Grid(2.0, 24)
    qf = assemble(ActionKind.MCA_SDOF, SdofModel(1.0, 0.1, 2.0), g, 0.0, 0.0)
    np.testing.assert_array_equal(qf.r, np.zeros(qf.n_free))
    rep = solve_stationary(qf)
    np.testing.assert_array_equal(rep.trajectory.u, np.zeros(25))
    np.testing.assert_array_equal(rep.trajectory.J, np.zeros(25))


@pytest.mark.parametrize("scheme", ["reduced", "direct"])
def test_assembled_matrix_symmetric(scheme):
    g = Grid(3.0, 20)
    qf = assemble(ActionKind.MCA_SDOF, DAMPED, g, 1.0, 0.0, scheme)
    np.testing.assert_array_equal(qf.K, qf.K.T)


def test_dof_map_is_bijection_and_node0_fixed():
    g = Grid(1.0, 8)
    qf = assemble(ActionKind.MCA_SDOF, DAMPED, g, 1.0, 0.5)
    free, node0 = qf.layout.free_indices(), qf.layout.node0_indices()
    assert qf.n_free == free.size == 2 * 8
    assert sorted(np.concatenate([free, node0]).tolist()) == list(range(2 * 9))
    np.testing.assert_array_equal(node0, [0, 9])  # u and J at node 0
    assert qf.node0[0] == 1.0
    assert qf.node0[1] == pytest.approx(-0.5 - 0.2)  # -m v0 - c u0
    d = np.arange(1.0, qf.n_free + 1.0)
    x = qf.full_vector(d)
    np.testing.assert_array_equal(x[free], d)
    np.testing.assert_array_equal(x[node0], qf.node0)


def test_fixed_values_fold_into_linear_term():
    g = Grid(1.0, 8)
    qf0 = assemble(ActionKind.MCA_SDOF, DAMPED, g, 0.0, 0.0)
    qf1 = assemble(ActionKind.MCA_SDOF, DAMPED, g, 1.0, 0.0)
    assert np.max(np.abs(qf1.r - qf0.r)) > 0.0
    np.testing.assert_array_equal(qf0.K, qf1.K)


def test_solved_sdof_converges_to_analytic():
    errors = []
    orders = []
    for n in (128, 256, 512):
        g = Grid(10.0, n)
        rep = solve_stationary(assemble(ActionKind.MCA_SDOF, DAMPED, g, 1.0, 0.0))
        assert rep.gradient_norm <= 1e-10
        oracle = analytic_sdof(DAMPED, 1.0, 0.0, g)
        errors.append(float(np.max(np.abs(rep.trajectory.u - oracle.u))))
    assert errors[2] < errors[1] < errors[0]
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    assert min(orders) >= 0.8


def test_solved_trajectory_is_discretely_stationary_and_consistent():
    g = Grid(10.0, 256)
    qf = assemble(ActionKind.MCA_SDOF, DAMPED, g, 1.0, 0.0)
    rep = solve_stationary(qf)
    # discrete EL residuals of the continuous equations decrease with h
    res = el_residuals(ActionKind.MCA_SDOF, DAMPED, rep.trajectory, ics=(1.0, 0.0))
    assert res.ic_residuals["motion_ic"] == pytest.approx(0.0, abs=1e-10)
    g2 = Grid(10.0, 512)
    rep2 = solve_stationary(assemble(ActionKind.MCA_SDOF, DAMPED, g2, 1.0, 0.0))
    res2 = el_residuals(ActionKind.MCA_SDOF, DAMPED, rep2.trajectory, ics=(1.0, 0.0))
    assert res2.sup("motion") < res.sup("motion")
    assert res2.sup("compatibility") < res.sup("compatibility")


def test_gradient_matches_variation_on_unit_directions():
    g = Grid(2.0, 16)
    qf = assemble(ActionKind.MCA_SDOF, DAMPED, g, 0.7, -0.3)
    rng = np.random.default_rng(4)
    d = rng.standard_normal(qf.n_free)
    x = qf.full_vector(d)
    u, J = qf.layout.unpack(x)
    traj = Trajectory(g, u[:, 0], J[:, 0])
    grad = qf.K @ d + qf.r
    free = qf.layout.free_indices()
    for row in range(0, qf.n_free, 5):
        basis = np.zeros(qf.layout.size)
        basis[free[row]] = 1.0
        basis_u, basis_J = qf.layout.unpack(basis)
        direction = Trajectory(g, basis_u[:, 0], basis_J[:, 0])
        vv = action_variation(ActionKind.MCA_SDOF, DAMPED, traj, direction)
        assert vv == pytest.approx(grad[row], rel=1e-8, abs=1e-10)


def test_direct_and_reduced_solutions_converge_together():
    gaps = []
    for n in (64, 128, 256):
        g = Grid(10.0, n)
        red = solve_stationary(assemble(ActionKind.MCA_SDOF, DAMPED, g, 1.0, 0.0, "reduced"))
        dirc = solve_stationary(assemble(ActionKind.MCA_SDOF, DAMPED, g, 1.0, 0.0, "direct"))
        gaps.append(float(np.max(np.abs(red.trajectory.u - dirc.trajectory.u))))
    assert gaps[2] < gaps[1] < gaps[0]


def test_mdof_single_story_matches_sdof_exactly():
    g = Grid(4.0, 64)
    building = build_shear_building(1, 1.0, 1.0, 0.2)
    rep_m = solve_stationary(
        assemble(ActionKind.MCA_MDOF, building, g, np.array([1.0]), np.array([0.0]))
    )
    rep_s = solve_stationary(assemble(ActionKind.MCA_SDOF, DAMPED, g, 1.0, 0.0))
    np.testing.assert_allclose(rep_m.trajectory.u[:, 0], rep_s.trajectory.u, atol=1e-12)
    np.testing.assert_allclose(rep_m.trajectory.J[:, 0], rep_s.trajectory.J, atol=1e-12)


def test_mdof_solve_tracks_oracle():
    model = build_shear_building(2, 1.0, 8.0, 0.3)
    u0 = np.array([0.5, -0.2])
    v0 = np.zeros(2)
    errs = []
    for n in (64, 128, 256):
        g = Grid(4.0, n)
        rep = solve_stationary(assemble(ActionKind.MCA_MDOF, model, g, u0, v0))
        orc = mdof_oracle(model, u0, v0, g)
        errs.append(float(np.max(np.abs(rep.trajectory.u - orc.u))))
    assert errs[2] < errs[1] < errs[0]


def test_solve_with_harmonic_forcing():
    model = SdofModel(1.0, 0.25, 2.0, forcing=HarmonicForcing(0.7, 1.1, 0.3))
    errs = []
    for n in (128, 256):
        g = Grid(8.0, n)
        rep = solve_stationary(assemble(ActionKind.MCA_SDOF, model, g, 0.4, 0.1))
        oracle = analytic_sdof(model, 0.4, 0.1, g)
        errs.append(float(np.max(np.abs(rep.trajectory.u - oracle.u))))
    assert errs[1] < errs[0]


def test_singular_system_raises():
    layout = DofLayout(2, 1, 0)
    with pytest.raises(SingularSystemError, match="singular"):
        solve_stationary(
            QuadraticForm(
                K=np.zeros((1, 1)),
                r=np.zeros(1),
                node0=np.zeros(1),
                layout=layout,
                grid=Grid(1.0, 2),
                kind=ActionKind.MCA_SDOF,
                scheme="reduced",
            )
        )


def test_quadratic_form_validation():
    layout = DofLayout(2, 1, 0)
    with pytest.raises(ValueError, match="symmetric"):
        QuadraticForm(
            K=np.array([[1.0, 2.0], [0.0, 1.0]]),
            r=np.zeros(2),
            node0=np.zeros(1),
            layout=DofLayout(3, 1, 0),
            grid=Grid(1.0, 2),
            kind=ActionKind.MCA_SDOF,
            scheme="reduced",
        )
    with pytest.raises(ValueError, match="free values"):
        QuadraticForm(
            K=np.eye(2),
            r=np.zeros(2),
            node0=np.zeros(1),
            layout=DofLayout(4, 1, 0),
            grid=Grid(1.0, 2),
            kind=ActionKind.MCA_SDOF,
            scheme="reduced",
        )


def test_assemble_rejects_wrong_kind_or_model():
    g = Grid(1.0, 8)
    with pytest.raises(ValueError):
        assemble(ActionKind.HAMILTON, DAMPED, g, 0.0, 0.0)
    with pytest.raises(ValueError):
        assemble(ActionKind.MCA_MDOF, DAMPED, g, 0.0, 0.0)


def _random_coupled_model(rng) -> MdofModel:
    """Two dofs with full M, C, A and B, forcing and impulse data."""

    def spd(shift):
        a = rng.standard_normal((2, 2))
        return a @ a.T + shift * np.eye(2)

    return MdofModel(
        M=spd(0.5),
        C=spd(0.0),
        A_blocks=(spd(0.5),),
        B=rng.standard_normal((2, 2)) + 2.0 * np.eye(2),
        forcing=HarmonicForcing(rng.standard_normal(2), rng.uniform(0.5, 2.0), rng.uniform(0.0, 1.0)),
        j_hat_0=rng.standard_normal(2),
    )


@pytest.mark.parametrize("scheme", ["reduced", "direct"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_coupled_assembly_matches_action_value(scheme, seed):
    # 1/2 x^T K x + r^T x over all nodal values is the functional itself
    rng = np.random.default_rng(seed)
    model = _random_coupled_model(rng)
    g = Grid(2.0, 24)
    K, r, layout = build_mca_system(model, g, scheme)
    traj = Trajectory(g, rng.standard_normal((25, 2)), rng.standard_normal((25, 2)))
    x = layout.pack(traj.u, traj.J)
    value = action_value(ActionKind.MCA_MDOF, model, traj, scheme=scheme)
    assert 0.5 * x @ K @ x + r @ x == pytest.approx(value, rel=1e-12)


@pytest.mark.parametrize("scheme", ["reduced", "direct"])
def test_sdof_assembly_is_the_one_dof_mdof_assembly(scheme):
    model = SdofModel(1.0, 0.3, 2.0, forcing=HarmonicForcing(0.5, 1.2, 0.1), j_hat_0=0.2)
    g = Grid(3.0, 16)
    qf_s = assemble(ActionKind.MCA_SDOF, model, g, 0.6, -0.4, scheme)
    qf_m = assemble(
        ActionKind.MCA_MDOF, sdof_as_mdof(model), g, np.array([0.6]), np.array([-0.4]), scheme
    )
    np.testing.assert_array_equal(qf_s.K, qf_m.K)
    np.testing.assert_array_equal(qf_s.r, qf_m.r)
    np.testing.assert_array_equal(qf_s.node0, qf_m.node0)


def test_convergence_study_table():
    table = convergence_study(
        ActionKind.MCA_SDOF, DAMPED, 1.0, 0.0, 10.0, [64, 128, 256]
    )
    assert isinstance(table, ConvergenceTable)
    assert len(table.rows) == 3
    assert table.rows[0].order_u is None
    assert table.rows[1].order_u is not None
    errs = [row.err_u_sup for row in table.rows]
    assert errs[2] < errs[1] < errs[0]
    text = table.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "n,h,err_u_sup,err_u_l2,err_J_sup,err_J_l2,order_u,order_J,wall_ms"
    assert len(lines) == 4
    assert lines[1].split(",")[6] == ""  # no order on coarsest row


def test_convergence_study_validates_n_list():
    with pytest.raises(ValueError):
        convergence_study(ActionKind.MCA_SDOF, DAMPED, 1.0, 0.0, 1.0, [64, 128])
    with pytest.raises(ValueError):
        convergence_study(ActionKind.MCA_SDOF, DAMPED, 1.0, 0.0, 1.0, [128, 64, 256])


def test_conservative_case_schemes_converge_to_same_trajectory():
    model = SdofModel(1.0, 0.0, 1.0)
    errs_r, gaps = [], []
    for n in (64, 128, 256):
        g = Grid(10.0, n)
        red = solve_stationary(assemble(ActionKind.MCA_SDOF, model, g, 1.0, 0.0, "reduced"))
        dirc = solve_stationary(assemble(ActionKind.MCA_SDOF, model, g, 1.0, 0.0, "direct"))
        oracle = analytic_sdof(model, 1.0, 0.0, g)
        errs_r.append(float(np.max(np.abs(red.trajectory.u - oracle.u))))
        gaps.append(float(np.max(np.abs(red.trajectory.u - dirc.trajectory.u))))
    assert errs_r[2] < errs_r[1] < errs_r[0]
    assert gaps[2] < gaps[1] < gaps[0]

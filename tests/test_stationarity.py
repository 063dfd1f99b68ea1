import math
import os
import subprocess
import sys
import tracemalloc
import types

import numpy as np
import pytest
from dense_reference import (
    band_toarray,
    component_major_index,
    dense_free_system,
    dense_gl_semi_pair_matrix,
    dense_mca_system,
    dense_solve,
    entries_toarray,
    loop_mca_value,
    pack,
)
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from convact._discrete import (
    DofLayout,
    band_matvec,
    build_mca_form,
    build_mca_system,
    gl_semi_pair_entries,
    mca_terms,
)
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
    CONDITION_LIMIT,
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
    qf = assemble(SdofModel(1.0, 0.1, 2.0), g, 0.0, 0.0)
    np.testing.assert_array_equal(qf.r, np.zeros(qf.n_free))
    rep = solve_stationary(qf)
    np.testing.assert_array_equal(rep.trajectory.u, np.zeros(25))
    np.testing.assert_array_equal(rep.trajectory.J, np.zeros(25))


@pytest.mark.parametrize("scheme", ["reduced", "direct"])
def test_assembled_matrix_symmetric(scheme):
    g = Grid(3.0, 20)
    qf = assemble(DAMPED, g, 1.0, 0.0, scheme)
    np.testing.assert_array_equal(qf.K.toarray(), qf.K.T.toarray())


def test_dof_map_is_bijection_and_node0_fixed():
    g = Grid(1.0, 8)
    qf = assemble(DAMPED, g, 1.0, 0.5)
    width = qf.layout.width
    assert width == 2  # u and J at each node
    assert qf.n_free == qf.layout.size - width == 2 * 8
    assert qf.node0[0] == 1.0
    assert qf.node0[1] == pytest.approx(-0.5 - 0.2)  # -m v0 - c u0
    d = np.arange(1.0, qf.n_free + 1.0)
    x = qf.full_vector(d)
    np.testing.assert_array_equal(x[:width], qf.node0)
    np.testing.assert_array_equal(x[width:], d)
    # every value lands once: node 0 from node0, nodes 1..8 in fold order
    u, J = qf.layout.unpack(x)
    assert (u[0, 0], J[0, 0]) == tuple(qf.node0)
    free_nodes = [8, 7, 1, 2, 6, 5, 3, 4]
    np.testing.assert_array_equal(u[free_nodes, 0], d[0::2])
    np.testing.assert_array_equal(J[free_nodes, 0], d[1::2])


def test_fixed_values_fold_into_linear_term():
    g = Grid(1.0, 8)
    qf0 = assemble(DAMPED, g, 0.0, 0.0)
    qf1 = assemble(DAMPED, g, 1.0, 0.0)
    assert np.max(np.abs(qf1.r - qf0.r)) > 0.0
    np.testing.assert_array_equal(qf0.K.toarray(), qf1.K.toarray())


def test_solved_sdof_converges_to_analytic():
    errors = []
    orders = []
    for n in (128, 256, 512):
        g = Grid(10.0, n)
        rep = solve_stationary(assemble(DAMPED, g, 1.0, 0.0))
        assert rep.gradient_norm <= 1e-10
        oracle = analytic_sdof(DAMPED, 1.0, 0.0, g)
        errors.append(float(np.max(np.abs(rep.trajectory.u - oracle.u))))
    assert errors[2] < errors[1] < errors[0]
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    assert min(orders) >= 0.8


def test_solved_trajectory_is_discretely_stationary_and_consistent():
    g = Grid(10.0, 256)
    qf = assemble(DAMPED, g, 1.0, 0.0)
    rep = solve_stationary(qf)
    # discrete EL residuals of the continuous equations decrease with h
    res = el_residuals(ActionKind.MCA_SDOF, DAMPED, rep.trajectory, ics=(1.0, 0.0))
    assert res.ic_residuals["motion_ic"] == pytest.approx(0.0, abs=1e-10)
    g2 = Grid(10.0, 512)
    rep2 = solve_stationary(assemble(DAMPED, g2, 1.0, 0.0))
    res2 = el_residuals(ActionKind.MCA_SDOF, DAMPED, rep2.trajectory, ics=(1.0, 0.0))
    assert res2.sup("motion") < res.sup("motion")
    assert res2.sup("compatibility") < res.sup("compatibility")


def test_gradient_matches_variation_on_unit_directions():
    g = Grid(2.0, 16)
    qf = assemble(DAMPED, g, 0.7, -0.3)
    rng = np.random.default_rng(4)
    d = rng.standard_normal(qf.n_free)
    x = qf.full_vector(d)
    u, J = qf.layout.unpack(x)
    traj = Trajectory(g, u[:, 0], J[:, 0])
    grad = qf.K @ d + qf.r
    for row in range(0, qf.n_free, 5):
        basis = np.zeros(qf.layout.size)
        basis[qf.layout.width + row] = 1.0
        basis_u, basis_J = qf.layout.unpack(basis)
        direction = Trajectory(g, basis_u[:, 0], basis_J[:, 0])
        vv = action_variation(ActionKind.MCA_SDOF, DAMPED, traj, direction)
        assert vv == pytest.approx(grad[row], rel=1e-8, abs=1e-10)


def test_direct_and_reduced_solutions_converge_together():
    gaps = []
    for n in (64, 128, 256):
        g = Grid(10.0, n)
        red = solve_stationary(assemble(DAMPED, g, 1.0, 0.0, "reduced"))
        dirc = solve_stationary(assemble(DAMPED, g, 1.0, 0.0, "direct"))
        gaps.append(float(np.max(np.abs(red.trajectory.u - dirc.trajectory.u))))
    assert gaps[2] < gaps[1] < gaps[0]


def test_mdof_single_story_matches_sdof_exactly():
    g = Grid(4.0, 64)
    building = build_shear_building(1, 1.0, 1.0, 0.2)
    rep_m = solve_stationary(
        assemble(building, g, np.array([1.0]), np.array([0.0]))
    )
    rep_s = solve_stationary(assemble(DAMPED, g, 1.0, 0.0))
    np.testing.assert_allclose(rep_m.trajectory.u[:, 0], rep_s.trajectory.u, atol=1e-12)
    np.testing.assert_allclose(rep_m.trajectory.J[:, 0], rep_s.trajectory.J, atol=1e-12)


def test_mdof_solve_tracks_oracle():
    model = build_shear_building(2, 1.0, 8.0, 0.3)
    u0 = np.array([0.5, -0.2])
    v0 = np.zeros(2)
    errs = []
    for n in (64, 128, 256):
        g = Grid(4.0, n)
        rep = solve_stationary(assemble(model, g, u0, v0))
        orc = mdof_oracle(model, u0, v0, g)
        errs.append(float(np.max(np.abs(rep.trajectory.u - orc.u))))
    assert errs[2] < errs[1] < errs[0]


def test_solve_with_harmonic_forcing():
    model = SdofModel(1.0, 0.25, 2.0, forcing=HarmonicForcing(0.7, 1.1, 0.3))
    errs = []
    for n in (128, 256):
        g = Grid(8.0, n)
        rep = solve_stationary(assemble(model, g, 0.4, 0.1))
        oracle = analytic_sdof(model, 0.4, 0.1, g)
        errs.append(float(np.max(np.abs(rep.trajectory.u - oracle.u))))
    assert errs[1] < errs[0]


def test_singular_system_raises():
    layout = DofLayout(2, 1, 0)
    with pytest.raises(SingularSystemError, match="singular"):
        solve_stationary(
            QuadraticForm(
                band=np.zeros((1, 1)),
                r=np.zeros(1),
                node0=np.zeros(1),
                layout=layout,
                grid=Grid(1.0, 2),
                model=DAMPED,
            )
        )


def test_quadratic_form_validation():
    layout = DofLayout(2, 1, 0)
    with pytest.raises(ValueError, match="symmetric"):
        QuadraticForm(
            band=np.array([[0.0, 2.0], [1.0, 1.0], [0.0, 0.0]]),  # K = [[1, 2], [0, 1]]
            r=np.zeros(2),
            node0=np.zeros(1),
            layout=DofLayout(3, 1, 0),
            grid=Grid(1.0, 2),
            model=DAMPED,
        )
    with pytest.raises(ValueError, match="free values"):
        QuadraticForm(
            band=np.ones((1, 2)),
            r=np.zeros(2),
            node0=np.zeros(1),
            layout=DofLayout(4, 1, 0),
            grid=Grid(1.0, 2),
            model=DAMPED,
        )


def test_assemble_rejects_what_is_not_a_model():
    g = Grid(1.0, 8)
    for not_a_model in (ActionKind.MCA_SDOF, "shear-3", None):
        with pytest.raises(ValueError, match=f"got {type(not_a_model).__name__}"):
            assemble(not_a_model, g, 0.0, 0.0)
    with pytest.raises(ValueError, match="got str"):
        convergence_study("shear-3", 0.0, 0.0, 1.0, [8, 16, 32])


def _random_coupled_model(rng, n_el: int = 2) -> MdofModel:
    """Two dofs with full M, C, A and B, forcing and impulse data; with
    n_el = 3, A has a 2x2 and a 1x1 block and B is 2x3."""

    def spd(shift, size=2):
        a = rng.standard_normal((size, size))
        return a @ a.T + shift * np.eye(size)

    return MdofModel(
        M=spd(0.5),
        C=spd(0.0),
        A_blocks=(spd(0.5),) + ((spd(0.5, 1),) if n_el == 3 else ()),
        B=rng.standard_normal((2, n_el)) + 2.0 * np.eye(2, n_el),
        forcing=HarmonicForcing(rng.standard_normal(2), rng.uniform(0.5, 2.0), rng.uniform(0.0, 1.0)),
        j_hat_0=rng.standard_normal(2),
    )


@pytest.mark.parametrize("scheme", ["reduced", "direct"])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n_el", [2, 3])
def test_coupled_assembly_matches_action_value(scheme, seed, n_el):
    # 1/2 x^T K x + r^T x over all nodal values is the functional itself;
    # n_el = 3 gives B more columns than rows, so a transposed B shows
    rng = np.random.default_rng(seed)
    model = _random_coupled_model(rng, n_el)
    g = Grid(2.0, 24)
    band, r, layout = build_mca_system(model, g, scheme)
    traj = Trajectory(g, rng.standard_normal((25, 2)), rng.standard_normal((25, n_el)))
    x = pack(layout, traj.u, traj.J)
    value = action_value(ActionKind.MCA_MDOF, model, traj, scheme=scheme)
    assert 0.5 * x @ band_matvec(band, x) + r @ x == pytest.approx(value, rel=1e-12)


def test_direct_value_is_the_assembled_form_to_roundoff():
    # the value pairs GL half-derivative columns by the Riemann rule, the
    # assembly holds that pairing's closed form Pi: G^T R G = Pi at roundoff
    rng = np.random.default_rng(5)
    for n in (2, 3, 5, 9, 64, 512, 2048):
        g = Grid(rng.uniform(0.5, 8.0), n)
        for model in (sdof_as_mdof(FORCED), _random_coupled_model(rng), _random_coupled_model(rng, 3)):
            band, r, layout = build_mca_system(model, g, "direct")
            u, J = rng.standard_normal((n + 1, model.n_dof)), rng.standard_normal((n + 1, model.n_el))
            x = pack(layout, u, J)
            value = action_value(ActionKind.MCA_MDOF, model, Trajectory(g, u, J), scheme="direct")
            form = 0.5 * x @ band_matvec(band, x) + r @ x
            scale = 0.5 * np.abs(x) @ band_matvec(np.abs(band), np.abs(x)) + np.abs(r) @ np.abs(x)
            assert abs(value - form) <= 1e-15 * scale, (n, model.n_el)


@pytest.mark.parametrize("scheme", ["reduced", "direct"])
def test_action_value_matches_a_loop_over_model_entries(scheme):
    # the contraction sums in another order than the loop, so it agrees to
    # roundoff of the terms, and a one-dof reduced value is bitwise the same
    rng = np.random.default_rng(11)
    for n in (2, 3, 9, 64, 512):
        g = Grid(rng.uniform(0.5, 5.0), n)
        sdof = SdofModel(*rng.uniform(0.3, 3.0, 3), forcing=HarmonicForcing(0.7, 1.3, 0.2), j_hat_0=0.4)
        for model in (sdof_as_mdof(sdof), _random_coupled_model(rng), _random_coupled_model(rng, 3)):
            u = rng.standard_normal((n + 1, model.n_dof))
            J = rng.standard_normal((n + 1, model.n_el))
            value = action_value(ActionKind.MCA_MDOF, model, Trajectory(g, u, J), scheme=scheme)
            loop, scale = loop_mca_value(model, u, J, g, scheme)
            if scheme == "reduced" and model.n_dof == 1:
                assert value == loop
            assert abs(value - loop) <= 1e-15 * scale


@pytest.mark.parametrize("scheme", ["reduced", "direct"])
def test_sdof_assembly_is_the_one_dof_mdof_assembly(scheme):
    model = SdofModel(1.0, 0.3, 2.0, forcing=HarmonicForcing(0.5, 1.2, 0.1), j_hat_0=0.2)
    g = Grid(3.0, 16)
    qf_s = assemble(model, g, 0.6, -0.4, scheme)
    qf_m = assemble(sdof_as_mdof(model), g, np.array([0.6]), np.array([-0.4]), scheme)
    np.testing.assert_array_equal(qf_s.K.toarray(), qf_m.K.toarray())
    np.testing.assert_array_equal(qf_s.r, qf_m.r)
    np.testing.assert_array_equal(qf_s.node0, qf_m.node0)


def test_convergence_study_table():
    table = convergence_study(DAMPED, 1.0, 0.0, 10.0, [64, 128, 256])
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
        convergence_study(DAMPED, 1.0, 0.0, 1.0, [64, 128])
    with pytest.raises(ValueError):
        convergence_study(DAMPED, 1.0, 0.0, 1.0, [128, 64, 256])


def test_conservative_case_schemes_converge_to_same_trajectory():
    model = SdofModel(1.0, 0.0, 1.0)
    errs_r, gaps = [], []
    for n in (64, 128, 256):
        g = Grid(10.0, n)
        red = solve_stationary(assemble(model, g, 1.0, 0.0, "reduced"))
        dirc = solve_stationary(assemble(model, g, 1.0, 0.0, "direct"))
        oracle = analytic_sdof(model, 1.0, 0.0, g)
        errs_r.append(float(np.max(np.abs(red.trajectory.u - oracle.u))))
        gaps.append(float(np.max(np.abs(red.trajectory.u - dirc.trajectory.u))))
    assert errs_r[2] < errs_r[1] < errs_r[0]
    assert gaps[2] < gaps[1] < gaps[0]


# ---------------------------------------------------------------------------
# sparse assembly and banded solve against the dense references

SHEAR3 = build_shear_building(
    3, 1.0, 10.0, 0.4, forcing=HarmonicForcing(np.array([1.0, 0.0, 0.0]), 2.0, 0.1)
)
FORCED = SdofModel(1.0, 0.4, 4.0, forcing=HarmonicForcing(1.0, 1.3, 0.2), j_hat_0=0.3)


def _models_for_reference():
    yield "sdof", sdof_as_mdof(FORCED)
    yield "shear-3", SHEAR3
    for seed in (0, 1, 2):
        yield f"coupled-{seed}", _random_coupled_model(np.random.default_rng(seed))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 9, 64, 256])
def test_reduced_assembly_is_bitwise_the_dense_block_sum(n):
    g = Grid(6.0, n)
    # equal up to the permutation from component-major to fold order
    for name, model in _models_for_reference():
        band, r, layout = build_mca_system(model, g)
        order = component_major_index(layout)
        K_ref, r_ref = dense_mca_system(model, g)
        assert band_toarray(band).tobytes() == K_ref[np.ix_(order, order)].tobytes(), name
        assert r.tobytes() == r_ref[order].tobytes(), name
        u0 = np.linspace(0.3, -0.2, model.n_dof)
        qf = assemble(model, g, u0, 0.5 * u0)
        K_free, r_free = dense_free_system(model, g, qf.node0, order)
        assert qf.K.toarray().tobytes() == K_free.tobytes(), name
        assert qf.r.tobytes() == r_free.tobytes(), name


@pytest.mark.parametrize("n", [2, 3, 4, 5, 9, 64, 512])
def test_direct_scheme_matches_dense_gl_product(n):
    g = Grid(6.0, n)
    ref = dense_gl_semi_pair_matrix(g)
    gap = np.max(np.abs(entries_toarray(gl_semi_pair_entries(g), n + 1) - ref))
    assert gap <= 1e-15 * np.max(np.abs(ref))
    for name, model in _models_for_reference():
        band, r, layout = build_mca_system(model, g, "direct")
        order = component_major_index(layout)
        K_ref, r_ref = dense_mca_system(model, g, "direct")
        K_ref = K_ref[np.ix_(order, order)]
        K = band_toarray(band)
        assert np.max(np.abs(K - K_ref)) <= 1e-15 * np.max(np.abs(K_ref)), name
        np.testing.assert_array_equal(r, r_ref[order])
        u0 = np.linspace(0.3, -0.2, model.n_dof)
        qf = assemble(model, g, u0, 0.5 * u0, "direct")
        K_free, r_free = dense_free_system(model, g, qf.node0, order, "direct")
        assert np.max(np.abs(qf.K.toarray() - K_free)) <= 1e-15 * np.max(np.abs(K_free)), name
        assert np.max(np.abs(qf.r - r_free)) <= 1e-15 * np.max(np.abs(r_free)), name


@pytest.mark.parametrize("scheme", ["reduced", "direct"])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 9, 64])
def test_every_coupling_lies_within_two_fold_positions(n, scheme):
    # `build_mca_system` stores K in a band of the constant reach 3 w - 1,
    # which holds a term only if each triplet couples nodes at most 2 fold
    # positions apart
    g = Grid(6.0, n)
    rank = np.argsort(DofLayout(n + 1, 1, 1).nodes())
    rng = np.random.default_rng(n)
    for model in (sdof_as_mdof(FORCED), SHEAR3, _random_coupled_model(rng), _random_coupled_model(rng, 3)):
        terms, _ = mca_terms(model, g, scheme)
        for (rows, cols, _), _ in terms:
            assert np.max(np.abs(rank[rows] - rank[cols])) <= 2, (model.n_dof, model.n_el)


@pytest.mark.parametrize(
    "model, u0, v0, t",
    [
        (SdofModel(1.0, 0.2, 1.0), 1.0, 0.0, 10.0),
        (SdofModel(1.0, 5.0, 1.0), 1.0, 0.0, 10.0),
        (FORCED, 1.0, 0.0, 10.0),
        (build_shear_building(3, 1.0, 10.0, 0.4), [1.0, 0.0, 0.0], [0.0] * 3, 6.0),
    ],
    ids=["sdof", "overdamped", "forced", "shear-3"],
)
def test_direct_scheme_converges_at_first_order(model, u0, v0, t):
    # the direct K pairs nodal values with reflected increments (Pi), a
    # one-sided rule: first order, where the reduced scheme is second
    table = convergence_study(model, u0, v0, t, [128, 256, 512, 1024, 2048], "direct")
    assert table.rows[-1].order_u >= 0.95
    assert table.rows[-1].order_J >= 0.95


@pytest.mark.parametrize("scheme", ["reduced", "direct"])
@pytest.mark.parametrize("n", [2, 9, 64, 256])
def test_matvec_matches_the_dense_product(n, scheme):
    g = Grid(6.0, n)
    rng = np.random.default_rng(n)
    for name, model in _models_for_reference():
        band, _, layout = build_mca_system(model, g, scheme)
        order = component_major_index(layout)
        K_ref = dense_mca_system(model, g, scheme)[0][np.ix_(order, order)]
        x = rng.standard_normal(layout.size)
        ref = K_ref @ x
        assert np.max(np.abs(band_matvec(band, x) - ref)) <= 1e-15 * np.max(np.abs(ref)), name


@pytest.mark.parametrize("scheme", ["reduced", "direct"])
def test_mixed_form_matches_the_band(scheme):
    # g^T (K x + r) from the term triplets against the assembled band, for
    # values at every node, node 0's included
    rng = np.random.default_rng(17)
    for n in (2, 3, 9, 64, 512):
        g = Grid(rng.uniform(0.5, 8.0), n)
        for model in (sdof_as_mdof(FORCED), _random_coupled_model(rng), _random_coupled_model(rng, 3)):
            band, r, layout = build_mca_system(model, g, scheme)
            form, r_table = build_mca_form(model, g, scheme)
            d = model.n_dof
            assert pack(layout, r_table[:, :d], r_table[:, d:]).tobytes() == r.tobytes()
            rough = rng.standard_normal((2, n + 1, layout.width))
            for X, G in (rough, np.cumsum(rough, axis=1) / math.sqrt(n)):
                x, gv = (pack(layout, t[:, :d], t[:, d:]) for t in (X, G))
                by_band = gv @ (band_matvec(band, x) + r)
                scale = np.abs(gv) @ (band_matvec(np.abs(band), np.abs(x)) + np.abs(r))
                assert abs(form(G, X) + np.sum(G * r_table) - by_band) <= 1e-15 * scale, (n, model.n_el)
                assert form(G, X) == form(X, G)


def test_mixed_variation_assembles_nothing(monkeypatch):
    import convact._discrete as discrete
    import convact.actions as actions

    def refuse(*args, **kwargs):
        raise AssertionError("the variation assembled the band")

    for module in (discrete, actions):
        monkeypatch.setattr(module, "build_mca_system", refuse, raising=False)
    g = Grid(10.0, 64)
    traj = analytic_sdof(FORCED, 1.0, 0.0, g)
    tau = g.nodes()
    direction = Trajectory(g, np.sin(tau), tau * (10.0 - tau))
    column = Trajectory(g, traj.u[:, None], traj.J[:, None])
    column_direction = Trajectory(g, direction.u[:, None], direction.J[:, None])
    for scheme in ("reduced", "direct"):
        one = action_variation(ActionKind.MCA_SDOF, FORCED, traj, direction, scheme=scheme)
        many = action_variation(
            ActionKind.MCA_MDOF, sdof_as_mdof(FORCED), column, column_direction, scheme=scheme
        )
        assert one == many


def test_mixed_solve_and_variation_enter_no_scipy_sparse():
    sparse_dir = f"{os.sep}scipy{os.sep}sparse{os.sep}"
    entered = []

    def profile(frame, event, arg):
        if event == "call" and sparse_dir in frame.f_code.co_filename:
            entered.append(f"{frame.f_code.co_filename}:{frame.f_code.co_name}")

    u0 = np.array([0.5, 0.2, -0.1])
    g = Grid(6.0, 64)
    traj = mdof_oracle(SHEAR3, u0, np.zeros(3), g)
    tau = g.nodes()[:, None]
    direction = Trajectory(g, np.sin(tau * [1.0, 2.0, 3.0]), tau * [1.0, -1.0, 0.5])
    sys.setprofile(profile)
    try:
        for scheme in ("reduced", "direct"):
            solve_stationary(assemble(FORCED, Grid(10.0, 64), 1.0, 0.0, scheme))
            solve_stationary(assemble(SHEAR3, g, u0, np.zeros(3), scheme))
        action_variation(ActionKind.MCA_MDOF, SHEAR3, traj, direction, ics=(u0, np.zeros(3)))
    finally:
        sys.setprofile(None)
    assert entered == []


# the sdof and mdof runs in a fresh process, writing their CSVs to argv[1];
# with argv[2] == "first" scipy.linalg is imported before convact solves
LAPACK_LOAD_RUN = """
import sys
if sys.argv[2] == "first":
    import scipy.linalg
from convact import cli

def state():
    return [m in sys.modules for m in ("scipy.linalg", "scipy.linalg._flapack")]

out = sys.argv[1]
sdof = ["sdof", "--n", "64", "--forcing-amplitude", "1", "--forcing-omega", "2"]
assert cli.main([*sdof, "--output-dir", out]) == 0
print("after sdof", state())
assert cli.main(["convergence", "--kind", "sdof", "--n", "16,32,64", "--output-dir", out]) == 0
print("after convergence", state())
from scipy.linalg import lapack
print("same dgbtrf", lapack.dgbtrf is sys.modules["scipy.linalg._flapack"].dgbtrf)
assert cli.main(["mdof", "--n", "64", "--output-dir", out]) == 0
"""


def test_solves_load_the_lapack_extension_without_scipy_linalg(tmp_path):
    # the banded LU binds scipy's compiled LAPACK wrappers alone; a later
    # scipy.linalg import reuses them, and importing scipy.linalg first
    # changes no output byte
    outputs = {}
    for order in ("solve-first", "first"):
        out = tmp_path / order
        out.mkdir()
        run = subprocess.run([sys.executable, "-c", LAPACK_LOAD_RUN, str(out), order],
                             capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        lines = [line for line in run.stdout.splitlines() if line.startswith(("after", "same"))]
        linalg_first = order == "first"
        assert lines == [
            f"after sdof [{linalg_first}, True]",
            f"after convergence [{linalg_first}, True]",
            "same dgbtrf True",
        ]
        outputs[order] = {p.name: p.read_bytes() for p in sorted(out.glob("*_*.csv"))}
    assert sorted(outputs["first"]) == [
        f"{cmd}_{part}.csv" for cmd in ("mdof", "sdof") for part in ("oracle", "residuals", "solved")
    ]
    assert outputs["solve-first"] == outputs["first"]


def test_missing_lapack_extension_raises_import_error(monkeypatch, tmp_path):
    # a scipy whose linalg directory holds no _flapack: the first solve
    # raises ImportError naming the module and the directory searched
    (tmp_path / "linalg").mkdir()
    scipy_spec = types.SimpleNamespace(submodule_search_locations=[str(tmp_path)])
    monkeypatch.setattr("importlib.util.find_spec", lambda name: scipy_spec)
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
    qf = assemble(FORCED, Grid(2.0, 8), 1.0, 0.0)
    with pytest.raises(ImportError, match="scipy.linalg._flapack") as err:
        solve_stationary(qf)
    assert str(tmp_path / "linalg") in str(err.value)
    assert "scipy.linalg._flapack" not in sys.modules


def test_fold_order_pairs_each_node_with_its_reflection():
    np.testing.assert_array_equal(DofLayout(7, 1, 1).nodes(), [0, 6, 5, 1, 2, 4, 3])
    for n in range(2, 301):
        fold = DofLayout(n + 1, 1, 1).nodes()
        assert fold[0] == 0
        np.testing.assert_array_equal(np.sort(fold), np.arange(n + 1))
        # node i couples with j exactly when |i + j - n| <= 1
        i = np.repeat(np.arange(n + 1), 3)
        j = n - i + np.tile([-1, 0, 1], n + 1)
        inside = (j >= 0) & (j <= n)
        rank = np.argsort(fold)
        assert np.max(np.abs(rank[i[inside]] - rank[j[inside]])) <= 2


@pytest.mark.parametrize("n_dof, n_el", [(1, 0), (1, 1), (3, 1)])
def test_pack_unpack_round_trip_node_by_node(n_dof, n_el):
    layout = DofLayout(7, n_dof, n_el)
    rng = np.random.default_rng(n_dof + n_el)
    u, J = rng.standard_normal((7, n_dof)), rng.standard_normal((7, n_el))
    x = pack(layout, u, J)
    assert x.shape == (layout.size,)
    for p, node in enumerate(layout.nodes()):
        np.testing.assert_array_equal(x[p * layout.width : (p + 1) * layout.width],
                                      np.concatenate([u[node], J[node]]))
    u2, J2 = layout.unpack(x)
    np.testing.assert_array_equal(u2, u)
    np.testing.assert_array_equal(J2, J)


def _random_small_model(rng, d: int, damped: bool) -> MdofModel:
    """SPD M and A blocks, PSD C (zero unless damped), square invertible B."""

    def spd(shift):
        a = rng.standard_normal((d, d))
        return a @ a.T + shift * np.eye(d)

    return MdofModel(
        M=spd(0.1),
        C=spd(0.0) if damped else np.zeros((d, d)),
        A_blocks=(spd(0.1),),
        B=rng.standard_normal((d, d)) + 2.0 * np.eye(d),
        forcing=HarmonicForcing(rng.standard_normal(d), 1.0, 0.2),
        j_hat_0=rng.standard_normal(d),
    )


@st.composite
def small_models(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return _random_small_model(rng, draw(st.integers(1, 3)), draw(st.booleans()))


@settings(max_examples=60, deadline=None)
@given(
    small_models(),
    st.integers(2, 30),
    st.floats(0.5, 5.0),
    st.sampled_from(["reduced", "direct"]),
)
def test_banded_solve_matches_dense_solve(model, n, t, scheme):
    g = Grid(t, n)
    u0 = np.linspace(1.0, -0.5, model.n_dof)
    qf = assemble(model, g, u0, -u0, scheme)
    K = qf.K.toarray()
    d_ref, cond_ref = dense_solve(K, qf.r)
    assume(cond_ref < CONDITION_LIMIT / 10)  # both estimates clear of the gate
    rep = solve_stationary(qf)
    x_ref = qf.full_vector(d_ref)
    x = pack(qf.layout, rep.trajectory.u, rep.trajectory.J)
    eps = np.finfo(float).eps
    assert np.max(np.abs(x - x_ref)) <= 10 * cond_ref * eps * np.max(np.abs(x_ref))
    assert rep.gradient_norm <= 1e-10
    # the estimate is a lower bound of the exact 1-norm condition number
    exact = np.max(np.sum(np.abs(K), axis=0)) * np.max(np.sum(np.abs(np.linalg.inv(K)), axis=0))
    assert rep.condition_estimate <= exact * (1.0 + 1e-8)


def _component_major(qf):
    """The free system in component-major order, the packing of the dense
    reference. Bunch-Kaufman pivoting, and so the dsycon estimate, depends on
    the order, so the reference estimate is taken in this fixed one."""
    free = np.argsort(component_major_index(qf.layout)[qf.layout.width :])
    return qf.K.toarray()[np.ix_(free, free)], qf.r[free]


@pytest.mark.parametrize(
    "kind, model, t, n",
    [
        (ActionKind.MCA_SDOF, FORCED, 10.0, 64),
        (ActionKind.MCA_SDOF, FORCED, 10.0, 1024),
        (ActionKind.MCA_SDOF, DAMPED, 10.0, 512),
        (ActionKind.MCA_MDOF, SHEAR3, 6.0, 64),
        (ActionKind.MCA_MDOF, SHEAR3, 6.0, 256),
    ],
)
@pytest.mark.parametrize("scheme", ["reduced", "direct"])
def test_condition_estimate_agrees_with_dense_estimate(kind, model, t, n, scheme):
    # the gate compares the estimate with CONDITION_LIMIT: one below the
    # dense (dsycon) estimate would loosen it
    u0, v0 = (1.0, 0.0) if kind is ActionKind.MCA_SDOF else (np.array([0.5, 0.2, -0.1]), np.zeros(3))
    qf = assemble(model, Grid(t, n), u0, v0, scheme)
    _, cond_ref = dense_solve(*_component_major(qf))
    ratio = solve_stationary(qf).condition_estimate / cond_ref
    assert 0.99 <= ratio <= 1.01


def test_condition_estimate_tracks_dense_estimate_on_random_models():
    # Both estimates follow Hager's iteration (LAPACK dlacn2) and are lower
    # bounds of the exact condition number. Where an iterate has entries at
    # roundoff level their signs are noise, so the two factorizations can
    # take different paths: the check is that the banded estimate agrees in
    # nearly all models and is as tight as the dense one across the sample.
    rng = np.random.default_rng(0)
    ratios, tight_new, tight_ref = [], [], []
    for _ in range(150):
        d = int(rng.integers(1, 4))
        model = _random_small_model(rng, d, damped=rng.random() < 0.7)
        g = Grid(float(rng.uniform(0.5, 5.0)), int(rng.integers(2, 40)))
        for scheme in ("reduced", "direct"):
            qf = assemble(model, g, np.ones(d), np.zeros(d), scheme)
            K = qf.K.toarray()
            _, cond_ref = dense_solve(*_component_major(qf))
            if cond_ref > CONDITION_LIMIT / 10:
                continue
            cond = solve_stationary(qf).condition_estimate
            exact = np.max(np.sum(np.abs(K), axis=0)) * np.max(
                np.sum(np.abs(np.linalg.inv(K)), axis=0)
            )
            ratios.append(cond / cond_ref)
            tight_new.append(cond / exact)
            tight_ref.append(cond_ref / exact)
    ratios = np.array(ratios)
    assert len(ratios) >= 250
    assert np.mean((ratios >= 0.99) & (ratios <= 1.01)) >= 0.93
    assert np.mean(ratios < 0.99) <= 0.04
    assert np.percentile(tight_new, 5) >= np.percentile(tight_ref, 5) - 0.02


def test_solve_report_bandwidth_and_error_bound():
    eps = np.finfo(float).eps
    rep = solve_stationary(assemble(FORCED, Grid(10.0, 256), 1.0, 0.0))
    assert rep.bandwidth == 5
    assert rep.forward_error_bound == rep.condition_estimate * eps
    u0 = np.array([0.5, 0.2, -0.1])
    rep = solve_stationary(assemble(SHEAR3, Grid(6.0, 256), u0, np.zeros(3)))
    assert rep.bandwidth == 16
    assert rep.forward_error_bound == rep.condition_estimate * eps


@pytest.mark.parametrize("scheme", ["reduced", "direct"])
@pytest.mark.parametrize(
    "kind, model, n, u0",
    [
        (ActionKind.MCA_SDOF, FORCED, 8192, 1.0),
        (ActionKind.MCA_MDOF, SHEAR3, 2048, np.array([0.5, 0.2, -0.1])),
    ],
)
def test_assemble_and_solve_memory_is_linear(kind, model, n, u0, scheme):
    # a dense K alone would take 8 N^2 bytes: 2.1 GB for the sdof case
    g = Grid(10.0, n)
    tracemalloc.start()
    try:
        qf = assemble(model, g, u0, 0.0 * u0, scheme)
        solve_stationary(qf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4096 * qf.n_free

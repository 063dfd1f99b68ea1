import math

import numpy as np
import pytest

from convact._stencils import deriv1, deriv2
from convact.grid import Grid, Signal
from convact.models import (
    HarmonicForcing,
    MdofModel,
    SdofModel,
    Trajectory,
    analytic_sdof,
    build_bar_1d,
    build_shear_building,
    mdof_from_json,
    mdof_mixed_initials,
    mdof_oracle,
    mdof_to_json,
    sdof_as_mdof,
)

DAMPED = SdofModel(m=1.0, c=0.2, k=1.0)


def motion_residual(model, traj, grid):
    """m u'' + c u' + k u - f by finite differences: independent check."""
    f = model.forcing_signal(grid).values
    u = traj.u
    return model.m * deriv2(u, grid.h) + model.c * deriv1(u, grid.h) + model.k * u - f


def test_sdof_model_validation():
    with pytest.raises(ValueError):
        SdofModel(m=0.0, c=0.1, k=1.0)
    with pytest.raises(ValueError):
        SdofModel(m=1.0, c=0.1, k=0.0)
    with pytest.raises(ValueError):
        SdofModel(m=1.0, c=-0.1, k=1.0)
    for field, value in [("m", math.inf), ("c", math.nan), ("c", math.inf),
                         ("k", math.inf), ("j_hat_0", math.nan)]:
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            SdofModel(**{"m": 1.0, "c": 0.1, "k": 1.0, field: value})
    for args, field in [((math.nan, 1.0), "amplitude"), ((1.0, math.inf), "omega"),
                        ((1.0, 1.0, math.nan), "phase"), (("big", 1.0), "amplitude")]:
        with pytest.raises(ValueError, match=f"^{field} must be finite and numeric"):
            HarmonicForcing(*args)
    assert DAMPED.a * DAMPED.k == pytest.approx(1.0, rel=1e-15)


def test_analytic_undamped_cosine():
    model = SdofModel(m=1.0, c=0.0, k=1.0)
    g = Grid(2.0 * math.pi, 64)
    traj = analytic_sdof(model, u0=1.0, v0=0.0, grid=g)
    np.testing.assert_allclose(traj.u, np.cos(g.nodes()), atol=1e-12)


def test_analytic_underdamped_formula():
    g = Grid(10.0, 200)
    traj = analytic_sdof(DAMPED, u0=1.0, v0=0.0, grid=g)
    wd = math.sqrt(1.0 - 0.01)
    taus = g.nodes()
    expected = np.exp(-0.1 * taus) * (np.cos(wd * taus) + (0.1 / wd) * np.sin(wd * taus))
    np.testing.assert_allclose(traj.u, expected, atol=1e-12)


def test_analytic_zero_ics_zero_trajectory():
    g = Grid(5.0, 50)
    traj = analytic_sdof(DAMPED, 0.0, 0.0, g)
    np.testing.assert_array_equal(traj.u, np.zeros(51))
    np.testing.assert_array_equal(traj.J, np.zeros(51))


@pytest.mark.parametrize(
    "m,c,k",
    [
        (1.0, 0.2, 1.0),  # underdamped
        (1.0, 2.0, 1.0),  # critically damped
        (1.0, 5.0, 1.0),  # overdamped
        (2.0, 0.0, 3.0),  # undamped
    ],
)
def test_analytic_satisfies_equation_of_motion(m, c, k):
    g = Grid(4.0, 512)
    model = SdofModel(m=m, c=c, k=k)
    traj = analytic_sdof(model, u0=0.7, v0=-0.4, grid=g)
    res = motion_residual(model, traj, g)
    assert np.max(np.abs(res)) < 5e-3  # O(h^2) differencing of the exact path


def test_analytic_with_harmonic_forcing():
    g = Grid(6.0, 1024)
    model = SdofModel(m=1.5, c=0.3, k=2.0, forcing=HarmonicForcing(0.8, 1.3, 0.4))
    traj = analytic_sdof(model, u0=0.2, v0=0.5, grid=g)
    assert traj.u[0] == pytest.approx(0.2, abs=1e-14)
    res = motion_residual(model, traj, g)
    assert np.max(np.abs(res)) < 5e-3
    # velocity initial condition holds in the differenced sense
    assert deriv1(traj.u, g.h)[0] == pytest.approx(0.5, abs=1e-3)


def test_analytic_rejects_undamped_resonance():
    model = SdofModel(m=1.0, c=0.0, k=4.0, forcing=HarmonicForcing(1.0, 2.0))
    with pytest.raises(ValueError):
        analytic_sdof(model, 0.0, 0.0, Grid(1.0, 8))


def test_sdof_as_mdof_is_built_once_per_model():
    model = SdofModel(1.5, 0.3, 2.0, forcing=HarmonicForcing(0.5, 1.2, 0.1), j_hat_0=0.2)
    view = sdof_as_mdof(model)
    assert sdof_as_mdof(model) is view
    twin = SdofModel(1.5, 0.3, 2.0, forcing=HarmonicForcing(0.5, 1.2, 0.1), j_hat_0=0.2)
    assert twin == model and sdof_as_mdof(twin) is not view  # kept per instance
    assert (view.M, view.C, view.A, view.B, view.j_hat_0) == ([[1.5]], [[0.3]], [[0.5]], [[1.0]], [0.2])
    assert (view.forcing.amplitude, view.forcing.omega, view.forcing.phase) == ([0.5], 1.2, 0.1)
    for arr in (view.M, view.C, view.A, view.B, view.j_hat_0, view.forcing.amplitude):
        assert not arr.flags.writeable
    assert sdof_as_mdof(SdofModel(1.0, 0.0, 1.0)).forcing is None


def _sdof_initials(model, u0, v0):
    u, j = mdof_mixed_initials(sdof_as_mdof(model), [u0], [v0])
    return float(u[0]), float(j[0])


def test_mixed_initials_examples():
    assert _sdof_initials(SdofModel(1.0, 0.2, 1.0), 1.0, 0.0) == (1.0, pytest.approx(-0.2))
    assert _sdof_initials(SdofModel(1.0, 0.0, 1.0, j_hat_0=0.7), 0.0, 0.0)[1] == pytest.approx(0.7)
    assert _sdof_initials(SdofModel(2.0, 0.0, 1.0), 0.0, 3.0)[1] == pytest.approx(-6.0)


def test_closed_form_starts_at_the_mixed_initials():
    model = SdofModel(1.5, 0.3, 2.0, forcing=HarmonicForcing(0.8, 1.3, 0.4), j_hat_0=0.6)
    traj = analytic_sdof(model, 0.2, -0.7, Grid(3.0, 16))
    u0, j0 = _sdof_initials(model, 0.2, -0.7)
    assert traj.u[0] == pytest.approx(u0, abs=1e-15)
    assert traj.J[0] == pytest.approx(j0, abs=1e-15)


def test_closed_form_impulse_rate_is_the_spring_force():
    # J' = k u: a running trapezoid of k u is O(h^2) off the exact J
    model = SdofModel(3.0, 0.4, 2.5, forcing=HarmonicForcing(0.5, 0.9, 1.1))

    def sup(n):
        g = Grid(8.0, n)
        traj = analytic_sdof(model, 1.2, -0.3, g)
        steps = 0.5 * g.h * model.k * (traj.u[1:] + traj.u[:-1])
        return np.max(np.abs(traj.J[0] + np.concatenate([[0.0], np.cumsum(steps)]) - traj.J))

    assert 3.9 < sup(128) / sup(256) < 4.1


def test_rest_state_keeps_applied_impulse():
    model = SdofModel(1.0, 0.0, 1.0, j_hat_0=0.5)
    traj = analytic_sdof(model, 0.0, 0.0, Grid(1.0, 10))
    np.testing.assert_array_equal(traj.u, np.zeros(11))
    np.testing.assert_array_equal(traj.J, 0.5 * np.ones(11))


def test_constant_force_equilibrium_has_linear_impulse():
    # f = 2 sin(pi/2) = k u0 holds u at 1; J grows at k u = 2 from J(0) = -c u0
    model = SdofModel(1.0, 0.3, 2.0, forcing=HarmonicForcing(2.0, 0.0, math.pi / 2))
    g = Grid(3.0, 12)
    traj = analytic_sdof(model, 1.0, 0.0, g)
    np.testing.assert_array_equal(traj.u, np.ones(13))
    np.testing.assert_allclose(traj.J, -0.3 + 2.0 * g.nodes(), rtol=1e-14, atol=1e-15)


def test_closed_form_compatibility_residual_shrinks():
    # a J'' - u' -> 0 with h on the analytic damped trajectory
    def sup(n):
        g = Grid(8.0, n)
        traj = analytic_sdof(DAMPED, 1.0, 0.0, g)
        res = DAMPED.a * deriv2(traj.J, g.h) - deriv1(traj.u, g.h)
        return np.max(np.abs(res))

    e1, e2 = sup(128), sup(256)
    assert e2 < e1


def test_mdof_oracle_matches_analytic_sdof():
    g = Grid(10.0, 256)
    sdof_traj = analytic_sdof(DAMPED, 1.0, 0.0, g)
    mdof = sdof_as_mdof(DAMPED)
    traj = mdof_oracle(mdof, [1.0], [0.0], g)
    scale = np.max(np.abs(sdof_traj.u))
    assert abs(traj.u[-1, 0] - sdof_traj.u[-1]) / scale < 1e-12
    np.testing.assert_allclose(traj.u[:, 0], sdof_traj.u, atol=1e-12 * scale)


def test_mdof_oracle_zero_stays_zero():
    model = build_shear_building(3, 1.0, 10.0, 0.1)
    g = Grid(2.0, 32)
    traj = mdof_oracle(model, np.zeros(3), np.zeros(3), g)
    assert np.max(np.abs(traj.u)) == 0.0
    assert np.max(np.abs(traj.J)) == 0.0


def test_mdof_oracle_conserves_energy_undamped():
    model = build_shear_building(3, 1.0, 10.0, 0.0)
    g = Grid(5.0, 256)
    u0 = np.array([1.0, 0.5, -0.2])
    traj = mdof_oracle(model, u0, np.zeros(3), g)
    v = -traj.J @ np.linalg.solve(model.M, model.B).T  # momentum balance M u' + B J = 0
    k_red = model.reduced_stiffness()
    energy = 0.5 * np.einsum("ni,ij,nj->n", v, model.M, v) + 0.5 * np.einsum(
        "ni,ij,nj->n", traj.u, k_red, traj.u
    )
    e0 = 0.5 * u0 @ k_red @ u0
    assert np.max(np.abs(energy - e0)) / e0 < 1e-12


def _coupled_model(seed: int) -> MdofModel:
    """Two dofs with full M, C, A and B, harmonic forcing and impulse data."""
    rng = np.random.default_rng(seed)

    def spd(shift):
        a = rng.standard_normal((2, 2))
        return a @ a.T + shift * np.eye(2)

    return MdofModel(
        M=spd(0.5),
        C=spd(0.0),
        A_blocks=(spd(0.5),),
        B=rng.standard_normal((2, 2)) + 2.0 * np.eye(2),
        forcing=HarmonicForcing(
            rng.standard_normal(2), rng.uniform(0.5, 2.0), rng.uniform(0.0, 1.0)
        ),
        j_hat_0=rng.standard_normal(2),
    )


@pytest.mark.parametrize(
    "model,u0,v0,t_final",
    [
        (
            build_shear_building(
                3, 1.0, 10.0, 0.4, forcing=HarmonicForcing(np.array([1.0, 0.0, 0.0]), 2.0)
            ),
            [1.0, 0.0, 0.0],
            [0.0, 0.0, 0.0],
            6.0,
        ),
        (_coupled_model(11), [0.4, -0.3], [0.2, 0.5], 4.0),
    ],
    ids=["forced-shear-3", "coupled-2dof"],
)
def test_mdof_oracle_matches_high_order_integrator(model, u0, v0, t_final):
    # independent route: DOP853 on (u, u', J) with the forcing called directly
    from scipy.integrate import solve_ivp

    d = model.n_dof
    a_inv_bt = np.linalg.solve(model.A, model.B.T)

    def rhs(t, y):
        u, v = y[:d], y[d : 2 * d]
        jdot = a_inv_bt @ u
        acc = np.linalg.solve(model.M, model.forcing(t) - model.C @ v - model.B @ jdot)
        return np.concatenate([v, acc, jdot])

    g = Grid(t_final, 128)
    traj = mdof_oracle(model, u0, v0, g)
    # the velocity from the momentum balance M u' + C u + B J = j_hat_0 + int_0^tau f
    f = model.forcing
    applied = np.outer(np.cos(f.phase) - np.cos(f.omega * g.nodes() + f.phase), f.amplitude)
    momentum = model.j_hat_0 + applied / f.omega - traj.u @ model.C.T - traj.J @ model.B.T
    vel = np.linalg.solve(model.M, momentum.T).T
    _, j0 = mdof_mixed_initials(model, u0, v0)
    sol = solve_ivp(
        rhs, (0.0, t_final), np.concatenate([u0, v0, j0]), method="DOP853",
        t_eval=g.nodes(), rtol=1e-12, atol=1e-12,
    )
    assert sol.success
    for got, ref in ((traj.u, sol.y[:d].T), (vel, sol.y[d : 2 * d].T), (traj.J, sol.y[2 * d :].T)):
        assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(np.abs(ref))


def test_shear_building_single_story_reduces_to_sdof():
    model = build_shear_building(1, 2.0, 5.0, 0.3)
    assert model.M[0, 0] == 2.0
    assert model.C[0, 0] == 0.3
    assert model.A[0, 0] == pytest.approx(0.2)
    assert model.B[0, 0] == 1.0


def test_shear_building_two_story_incidence():
    model = build_shear_building(2, 1.0, 4.0)
    np.testing.assert_array_equal(model.B[:, 0], [1.0, 0.0])
    np.testing.assert_array_equal(model.B[:, 1], [-1.0, 1.0])
    k_red = model.reduced_stiffness()
    np.testing.assert_allclose(k_red, [[8.0, -4.0], [-4.0, 4.0]], rtol=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_shear_building_reduced_stiffness_spd(n):
    model = build_shear_building(n, 1.0, 3.0, 0.1)
    k_red = model.reduced_stiffness()
    np.testing.assert_allclose(k_red, k_red.T, atol=1e-12)
    assert np.linalg.eigvalsh(k_red).min() > 0.0


def test_bar_single_element_reduction():
    model = build_bar_1d(density=2.0, axial_rigidity=6.0, length=3.0, n_elem=1)
    assert model.M[0, 0] == pytest.approx(2.0 * 3.0 / 2.0)  # rho L / 2 at free node
    assert model.A[0, 0] == pytest.approx(3.0 / 6.0)  # L / EA
    assert model.B[0, 0] == 1.0


def test_bar_fundamental_frequency_converges():
    rho, ea, length = 1.3, 4.0, 2.0
    exact = 0.5 * math.pi * math.sqrt(ea / rho) / length

    def freq(n_elem):
        from scipy.linalg import eigh

        model = build_bar_1d(rho, ea, length, n_elem)
        w2 = eigh(model.reduced_stiffness(), model.M, eigvals_only=True)
        return math.sqrt(w2[0])

    err8 = abs(freq(8) - exact) / exact
    err16 = abs(freq(16) - exact) / exact
    assert err8 < 0.03
    assert err16 < err8


def test_bar_equilibrium_matrix_full_rank():
    model = build_bar_1d(1.0, 1.0, 1.0, 6)
    assert np.linalg.matrix_rank(model.B) == 6


def test_mdof_model_validation_messages():
    eye = np.eye(2)
    with pytest.raises(ValueError, match="M: not symmetric"):
        MdofModel(M=np.array([[1.0, 0.5], [0.0, 1.0]]), C=eye, A_blocks=(eye,), B=eye)
    with pytest.raises(ValueError, match="M: not positive definite"):
        MdofModel(M=-eye, C=eye, A_blocks=(eye,), B=eye)
    with pytest.raises(ValueError, match=r"A_blocks\[0\]: not positive definite"):
        MdofModel(M=eye, C=np.zeros((2, 2)), A_blocks=(-eye,), B=eye)
    with pytest.raises(ValueError, match="B: shape"):
        MdofModel(M=eye, C=eye, A_blocks=(eye,), B=np.ones((2, 3)))
    with pytest.raises(ValueError, match="forcing: expected a HarmonicForcing"):
        MdofModel(M=eye, C=eye, A_blocks=(eye,), B=eye, forcing=lambda tau: np.ones(2))
    with pytest.raises(ValueError, match="forcing.amplitude"):
        MdofModel(M=eye, C=eye, A_blocks=(eye,), B=eye, forcing=HarmonicForcing(np.ones(3), 1.0))
    with pytest.raises(ValueError, match="amplitude must be finite"):
        MdofModel(M=eye, C=eye, A_blocks=(eye,), B=eye,
                  forcing=HarmonicForcing(np.array([1.0, math.nan]), 1.0))
    scalar = MdofModel(M=eye, C=eye, A_blocks=(eye,), B=eye, forcing=HarmonicForcing(0.5, 1.0))
    assert scalar.forcing_history(np.array([0.0, 1.0])).shape == (2, 2)


@pytest.mark.parametrize(
    "forcing",
    [HarmonicForcing(np.array([1.0, 2.0]), 1.0), lambda t: t, 1.0],
    ids=["vector-amplitude", "callable", "number"],
)
def test_sdof_model_rejects_forcing_that_is_not_a_scalar_harmonic(forcing):
    with pytest.raises(ValueError, match="forcing: expected a scalar HarmonicForcing or None"):
        SdofModel(1.0, 0.2, 1.0, forcing=forcing)
    SdofModel(1.0, 0.2, 1.0, forcing=HarmonicForcing(1.0, 1.0))
    SdofModel(1.0, 0.2, 1.0, forcing=None)


def _random_spd(rng, size):
    root = rng.standard_normal((size, size))
    return root @ root.T + size * np.eye(size)


def test_mdof_flexibility_is_assembled_once_and_read_only():
    from dataclasses import replace

    from scipy.linalg import block_diag

    model = build_shear_building(3, 1.0, 10.0, 0.4)
    assert model.A is model.A
    np.testing.assert_array_equal(model.A, np.diag([0.1, 0.1, 0.1]))
    with pytest.raises(ValueError, match="read-only"):
        model.A[0, 0] = 1.0
    stiffer = replace(model, A_blocks=(np.array([[0.05]]),) * 3)
    np.testing.assert_array_equal(stiffer.A, np.diag([0.05, 0.05, 0.05]))
    # the numpy assembly is bitwise scipy's block_diag, also for mixed block sizes
    rng = np.random.default_rng(7)
    models = [build_shear_building(n, 1.3, 7.0, 0.2) for n in (1, 2, 5)]
    models += [model, stiffer, build_bar_1d(1.0, 2.0, 3.0, 6), mdof_from_json(mdof_to_json(model))]
    models.append(replace(model, A_blocks=(_random_spd(rng, 2), np.array([[0.5]]))))
    for _ in range(10):
        blocks = tuple(_random_spd(rng, size) for size in rng.integers(1, 4, rng.integers(1, 5)))
        n = sum(b.shape[0] for b in blocks)
        random = MdofModel(M=_random_spd(rng, n), C=np.zeros((n, n)), A_blocks=blocks,
                           B=rng.standard_normal((n, n)))
        models += [random, mdof_from_json(mdof_to_json(random))]
    for m in models:
        ref = block_diag(*m.A_blocks)
        assert (m.A.shape, m.A.dtype, m.A.tobytes()) == (ref.shape, ref.dtype, ref.tobytes())
        assert not m.A.flags.writeable


def test_mdof_json_roundtrip():
    model = build_shear_building(
        3, 1.0, 10.0, 0.2, forcing=HarmonicForcing(np.array([1.0, 0.0, 0.0]), 2.0, 0.1)
    )
    text = mdof_to_json(model)
    loaded = mdof_from_json(text)
    np.testing.assert_array_equal(loaded.M, model.M)
    np.testing.assert_array_equal(loaded.B, model.B)
    np.testing.assert_array_equal(loaded.A, model.A)
    assert loaded.forcing.omega == 2.0
    np.testing.assert_array_equal(loaded.forcing.amplitude, [1.0, 0.0, 0.0])
    assert mdof_to_json(loaded) == text


def test_mdof_json_rejects_bad_documents():
    with pytest.raises(ValueError, match="not valid JSON"):
        mdof_from_json("{")
    with pytest.raises(ValueError, match="missing keys"):
        mdof_from_json("{}")
    good = mdof_to_json(build_shear_building(2, 1.0, 5.0))
    import json as _json

    doc = _json.loads(good)
    doc["M"][0][1] = 0.7  # break symmetry
    with pytest.raises(ValueError, match="M: not symmetric"):
        mdof_from_json(_json.dumps(doc))
    doc = _json.loads(good)
    doc["forcing"] = {"kind": "sawtooth"}
    with pytest.raises(ValueError, match="forcing.kind"):
        mdof_from_json(_json.dumps(doc))
    doc = _json.loads(good)
    doc["forcing"] = {"kind": "harmonic", "amplitude": [1.0, 0.0, 0.0], "omega": 2.0}
    with pytest.raises(ValueError, match=r"forcing.amplitude: shape \(3,\)"):
        mdof_from_json(_json.dumps(doc))
    for forcing, field in [
        ({"amplitude": [1.0, 0.0], "omega": math.nan}, "omega"),
        ({"amplitude": [1.0, 0.0], "omega": 2.0, "phase": math.inf}, "phase"),
        ({"amplitude": ["x", 0.0], "omega": 2.0}, "amplitude"),
        ({"amplitude": [1.0, 0.0], "omega": "fast"}, "omega"),
    ]:
        doc = _json.loads(good)
        doc["forcing"] = {"kind": "harmonic", **forcing}
        with pytest.raises(ValueError, match=f"^forcing: {field} must be finite and numeric"):
            mdof_from_json(_json.dumps(doc))
    doc = _json.loads(good)
    doc["j_hat_0"] = [math.nan, 0.0]
    with pytest.raises(ValueError, match="j_hat_0 must be finite"):
        mdof_from_json(_json.dumps(doc))
    doc = _json.loads(good)
    doc["extra"] = 1
    with pytest.raises(ValueError, match="unknown keys"):
        mdof_from_json(_json.dumps(doc))


def test_trajectory_csv_and_signals():
    g = Grid(1.0, 2)
    traj = Trajectory(g, np.array([0.0, 1.0, 2.0]), np.array([0.5, 0.5, 0.5]))
    text = traj.to_csv()
    assert text.splitlines()[0] == "tau,u,J"
    assert traj.u_signal().values[2] == 2.0
    assert Signal(g, traj.J).values[0] == 0.5


def test_trajectory_csv_bytes():
    # %.17g round-trips every double: signed zero, subnormal, inexact decimals, max
    g = Grid(1.0, 4)
    vals = np.array([-0.0, 5e-324, 0.1, 1.0 / 3.0, 1.7976931348623157e308])
    scalar = Trajectory(g, vals, vals[::-1])
    assert scalar.to_csv() == (
        "tau,u,J\n"
        "0,-0,1.7976931348623157e+308\n"
        "0.25,4.9406564584124654e-324,0.33333333333333331\n"
        "0.5,0.10000000000000001,0.10000000000000001\n"
        "0.75,0.33333333333333331,4.9406564584124654e-324\n"
        "1,1.7976931348623157e+308,-0\n"
    )
    two = Trajectory(g, np.column_stack([vals, -vals]), np.column_stack([vals[::-1], vals]))
    assert two.to_csv() == (
        "tau,u0,u1,J0,J1\n"
        "0,-0,0,1.7976931348623157e+308,-0\n"
        "0.25,4.9406564584124654e-324,-4.9406564584124654e-324,0.33333333333333331,"
        "4.9406564584124654e-324\n"
        "0.5,0.10000000000000001,-0.10000000000000001,0.10000000000000001,"
        "0.10000000000000001\n"
        "0.75,0.33333333333333331,-0.33333333333333331,4.9406564584124654e-324,"
        "0.33333333333333331\n"
        "1,1.7976931348623157e+308,-1.7976931348623157e+308,-0,1.7976931348623157e+308\n"
    )


def test_mixed_initials_mdof_consistency():
    model = build_shear_building(2, 2.0, 6.0, 0.4)
    u0 = np.array([0.3, -0.1])
    v0 = np.array([0.2, 0.5])
    _, j0 = mdof_mixed_initials(model, u0, v0)
    lhs = model.M @ v0 + model.C @ u0 + model.B @ j0
    np.testing.assert_allclose(lhs, model.j_hat_0, atol=1e-13)


@pytest.mark.parametrize(
    "model",
    [
        SdofModel(m=1.0, c=0.2, k=1.0),
        SdofModel(m=1.0, c=2.0, k=1.0),
        SdofModel(m=1.0, c=5.0, k=1.0),
        SdofModel(m=2.0, c=0.0, k=3.0, j_hat_0=-0.4),
        SdofModel(m=1.5, c=0.3, k=2.0, forcing=HarmonicForcing(0.8, 1.3, 0.4), j_hat_0=0.6),
        SdofModel(m=1.0, c=0.0, k=4.0, forcing=HarmonicForcing(1.0, 1.0, 0.2)),
        SdofModel(m=1.0, c=5.0, k=1.0, forcing=HarmonicForcing(-0.7, 2.5, 2.0)),
        SdofModel(m=1.0, c=0.5, k=3.0, forcing=HarmonicForcing(1.2, 0.0, 1.0)),
    ],
    ids=["underdamped", "critical", "overdamped", "undamped", "forced",
         "forced-undamped", "forced-overdamped", "constant-force"],
)
def test_oracle_agrees_with_closed_form_in_all_regimes(model):
    g = Grid(6.0, 256)
    closed = analytic_sdof(model, 0.8, -0.5, g)
    traj = mdof_oracle(sdof_as_mdof(model), [0.8], [-0.5], g)
    scale = max(np.max(np.abs(closed.u)), 1e-30)
    assert np.max(np.abs(traj.u[:, 0] - closed.u)) / scale < 1e-12
    assert np.max(np.abs(traj.J[:, 0] - closed.J)) / max(np.max(np.abs(closed.J)), 1.0) < 1e-12


def test_overdamped_closed_form_stays_finite_at_long_horizons():
    # omega_o t = 916 here: cosh and sinh of it overflow, the decaying
    # exponentials exp((-zeta omega_n +- omega_o) tau) do not
    model = SdofModel(m=1.0, c=5.0, k=1.0)
    g = Grid(400.0, 64)
    closed = analytic_sdof(model, 1.0, 0.0, g)
    traj = mdof_oracle(sdof_as_mdof(model), [1.0], [0.0], g)
    assert np.all(np.isfinite(closed.u)) and np.all(np.isfinite(closed.J))
    np.testing.assert_allclose(closed.u, traj.u[:, 0], rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(closed.J, traj.J[:, 0], rtol=0.0, atol=1e-12)

import math

import numpy as np
import pytest

from convact.fracops import Side, frac_deriv, frac_integral
from convact.grid import Grid, Signal, sample
from convact.identities import (
    _fi_at_base,
    EXACT_RESIDUAL,
    INTEGER_KINDS,
    IdentityKind,
    complementary_conv,
    complementary_inner,
    cubic_path_profile,
    ibp_residual,
    inner_u_udot,
    order_gate,
    run_identity_sweep,
    sweep_rows_to_csv,
    trig_profile,
)

ALL_ALPHAS = (0.25, 0.5, 0.75)


def damped_oscillator_pair(grid, m=1.0, c=0.2, k=1.0, u0=1.0, v0=0.0):
    """Closed-form underdamped free vibration and the impulse of spring force,
    computed from first principles for use as a pair of physical signals."""
    wn = math.sqrt(k / m)
    zeta = c / (2.0 * math.sqrt(k * m))
    wd = wn * math.sqrt(1.0 - zeta * zeta)
    A, B = u0, (v0 + zeta * wn * u0) / wd

    def u(t):
        return math.exp(-zeta * wn * t) * (A * math.cos(wd * t) + B * math.sin(wd * t))

    u_sig = sample(u, grid)
    # J(tau) = J(0) + k * int_0^tau u, via fine quadrature
    j0 = -m * v0 - c * u0
    fine = 32
    taus = np.linspace(0.0, grid.t_final, grid.n_steps * fine + 1)
    vals = np.array([u(t) for t in taus])
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (vals[1:] + vals[:-1]) * np.diff(taus))])
    j_sig = Signal(grid, j0 + k * cum[::fine])
    return u_sig, j_sig


def test_inner_integral_constant_order_one():
    g = Grid(1.0, 50)
    ones = sample(lambda t: 1.0, g)
    rep = ibp_residual(IdentityKind.INNER_INTEGRAL, ones, ones, 1.0)
    assert rep.lhs == pytest.approx(0.5, abs=1e-14)
    assert rep.rhs == pytest.approx(0.5, abs=1e-14)
    assert rep.residual < 1e-14


@pytest.mark.parametrize("alpha", ALL_ALPHAS)
def test_inner_integral_converges(alpha):
    res = []
    for n in (32, 64, 128):
        g = Grid(1.0, n)
        phi = sample(trig_profile(11, 1.0, vanish_ends=False), g)
        psi = sample(trig_profile(12, 1.0, vanish_ends=False), g)
        res.append(ibp_residual(IdentityKind.INNER_INTEGRAL, phi, psi, alpha).residual)
    assert res[2] < res[1] < res[0]
    assert math.log2(res[1] / res[2]) > 0.95


def test_conv_classic_second_order():
    res = []
    for n in (32, 64, 128):
        g = Grid(1.0, n)
        phi = sample(trig_profile(3, 1.0, vanish_ends=False), g)
        psi = sample(trig_profile(4, 1.0, vanish_ends=False), g)
        res.append(ibp_residual(IdentityKind.CONV_CLASSIC, phi, psi).residual)
    assert res[2] < res[1] < res[0]
    assert math.log2(res[0] / res[2]) / 2.0 >= 1.95


def test_interior_supported_signals_satisfy_identities_exactly():
    # with both signals vanishing at the endpoints the Toeplitz structure of
    # the GL operators makes the discrete identities exact
    g = Grid(1.0, 96)
    phi = sample(trig_profile(5, 1.0, vanish_ends=True), g)
    psi = sample(trig_profile(6, 1.0, vanish_ends=True), g)
    for kind in (IdentityKind.INNER_DERIV, IdentityKind.CONV_LEFT, IdentityKind.CONV_RIGHT):
        rep = ibp_residual(kind, phi, psi, 0.5)
        assert rep.residual < 1e-13, kind


def test_inner_deriv_alpha_one_keeps_endpoint_mass():
    # At alpha = 1 the GL operator retains the distributional endpoint mass
    # (the u(0)/h row), so the discrete relation differs from the classical
    # rule by exactly the half-weighted endpoint products, up to O(h).
    gaps = []
    for n in (128, 256):
        g = Grid(1.0, n)
        phi = sample(trig_profile(7, 1.0, vanish_ends=False), g)
        psi = sample(trig_profile(8, 1.0, vanish_ends=False), g)
        rep = ibp_residual(IdentityKind.INNER_DERIV, phi, psi, 1.0)
        predicted = 0.5 * (
            phi.values[0] * psi.values[0] - phi.values[-1] * psi.values[-1]
        )
        gaps.append(abs((rep.lhs - rep.rhs) - predicted))
    assert gaps[1] < 0.6 * gaps[0]
    assert gaps[0] < 0.01


def test_conv_complementary_on_damped_trajectory():
    res = []
    for n in (64, 128, 256):
        g = Grid(4.0, n)
        u_sig, j_sig = damped_oscillator_pair(g)
        res.append(
            ibp_residual(IdentityKind.CONV_COMPLEMENTARY, j_sig, u_sig, 0.5).residual
        )
    assert res[2] < res[1] < res[0]


def test_ibp_rejects_mismatched_grids_and_bad_orders():
    phi = sample(lambda t: t, Grid(1.0, 8))
    psi = sample(lambda t: t, Grid(1.0, 16))
    with pytest.raises(ValueError):
        ibp_residual(IdentityKind.CONV_CLASSIC, phi, psi)
    psi8 = sample(lambda t: t, Grid(1.0, 8))
    with pytest.raises(ValueError):
        ibp_residual(IdentityKind.CONV_LEFT, phi, psi8)  # missing alpha
    with pytest.raises(ValueError):
        ibp_residual(IdentityKind.CONV_COMPLEMENTARY, phi, psi8, 1.0)


def test_inner_u_udot_constant_and_ramp():
    g = Grid(1.0, 64)
    const = sample(lambda t: 4.0, g)
    rep = inner_u_udot(const)
    assert rep.lhs == pytest.approx(0.0, abs=1e-14)
    assert rep.rhs == pytest.approx(0.0, abs=1e-14)
    ramp = sample(lambda t: t, g)
    rep = inner_u_udot(ramp)
    assert rep.rhs == pytest.approx(0.5, abs=1e-15)
    assert rep.residual < 1e-13  # exact for linear signals


def test_inner_u_udot_second_order():
    res = []
    for n in (32, 64, 128):
        g = Grid(1.0, n)
        u = sample(trig_profile(9, 1.0, vanish_ends=False), g)
        res.append(inner_u_udot(u).residual)
    assert res[2] < res[1] < res[0]
    assert math.log2(res[0] / res[2]) / 2.0 > 1.8


@pytest.mark.parametrize("alpha", ALL_ALPHAS)
def test_complementary_inner_constant_memory(alpha):
    # unlike the integer inner product, the complementary pairing of a
    # constant keeps the full history: value u0^2
    g = Grid(1.0, 256)
    u0 = 2.0
    rep = complementary_inner(sample(lambda t: u0, g), alpha)
    assert rep.rhs == pytest.approx(u0 * u0, abs=1e-13)
    assert rep.lhs == pytest.approx(u0 * u0, abs=1e-10)


def test_complementary_inner_zero_endpoints():
    g = Grid(1.0, 128)
    u = sample(trig_profile(10, 1.0, vanish_ends=True), g)
    rep = complementary_inner(u, 0.5)
    assert abs(rep.rhs) < 1e-30  # endpoint samples are zero to roundoff
    assert abs(rep.lhs) < 0.05  # residual is the O(h) increment energy


def test_complementary_inner_path_independent():
    g = Grid(1.0, 256)
    p1 = sample(cubic_path_profile(21, 1.0, 0.7, -0.4), g)
    p2 = sample(cubic_path_profile(22, 1.0, 0.7, -0.4), g)
    r1 = complementary_inner(p1, 0.5)
    r2 = complementary_inner(p2, 0.5)
    assert r1.rhs == pytest.approx(r2.rhs, abs=1e-14)  # same endpoint data
    assert abs(r1.lhs - r2.lhs) < 0.02 * max(abs(r1.lhs), abs(r2.lhs))


def test_complementary_conv_constant_and_ramp():
    g = Grid(1.0, 128)
    u0 = 3.0
    rep = complementary_conv(sample(lambda t: u0, g), 0.5)
    assert rep.rhs == pytest.approx(u0 * u0, abs=1e-13)
    assert rep.lhs == pytest.approx(u0 * u0, abs=1e-10)
    ramp = sample(lambda t: t, g)
    rep = complementary_conv(ramp, 0.5)
    assert rep.rhs == pytest.approx(0.5, abs=1e-13)


def test_complementary_conv_alpha_free():
    g = Grid(1.0, 256)
    u = sample(cubic_path_profile(23, 1.0, 0.6, -0.2), g)
    values = [complementary_conv(u, a).lhs for a in ALL_ALPHAS]
    for v in values[1:]:
        assert v == pytest.approx(values[0], rel=1e-10)


def test_path_dependence_split():
    # the central dichotomy: complementary inner products are path
    # independent while complementary convolutions are not
    g = Grid(1.0, 256)
    p1 = sample(cubic_path_profile(31, 1.0, 0.8, -0.3), g)
    p2 = sample(cubic_path_profile(35, 1.0, 0.8, -0.3), g)
    inner_gap = abs(complementary_inner(p1, 0.5).lhs - complementary_inner(p2, 0.5).lhs)
    conv_gap = abs(complementary_conv(p1, 0.5).lhs - complementary_conv(p2, 0.5).lhs)
    assert conv_gap > 10.0 * inner_gap


def test_complementary_rejects_alpha_one():
    g = Grid(1.0, 16)
    u = sample(lambda t: t, g)
    with pytest.raises(ValueError):
        complementary_inner(u, 1.0)
    with pytest.raises(ValueError):
        complementary_conv(u, 1.0)


def test_sweep_covers_all_cells_and_orders_pass():
    rows = run_identity_sweep(list(IdentityKind), ALL_ALPHAS, [64, 128, 256])
    integer = sum(1 for k in IdentityKind if k in INTEGER_KINDS)
    fractional = len(IdentityKind) - integer
    assert len(rows) == 3 * (integer + 3 * fractional)
    assert min(row.report.residual for row in rows) > EXACT_RESIDUAL  # all gated on order
    for row in rows:
        if row.order_estimate is not None:
            assert order_gate(row.report.kind, row.order_estimate, row.report.residual), row


def test_sweep_orders_on_grids_growing_by_one_and_a_half():
    # the order is log(residual ratio) / log(n ratio), not log2 of the ratio
    rows = run_identity_sweep(list(IdentityKind), ALL_ALPHAS, [64, 96, 144])
    estimates = [row for row in rows if row.order_estimate is not None]
    assert len(estimates) == 2 * (len(INTEGER_KINDS) + 3 * (len(IdentityKind) - len(INTEGER_KINDS)))
    assert min(row.report.residual for row in rows) > EXACT_RESIDUAL
    for row in estimates:
        assert order_gate(row.report.kind, row.order_estimate, row.report.residual), row


def test_order_gate_passes_a_roundoff_residual_and_keeps_the_threshold():
    kind = IdentityKind.INNER_INTEGRAL  # threshold 1.0, margin 0.05
    assert order_gate(kind, 0.0, 0.0) and order_gate(kind, -5.0, EXACT_RESIDUAL)
    assert not order_gate(kind, 0.0, 2.0 * EXACT_RESIDUAL)
    assert order_gate(kind, 0.96, 1.0) and not order_gate(kind, 0.94, 1.0)
    # no estimate (an exact coarser cell): the residual alone decides
    assert order_gate(kind, None, EXACT_RESIDUAL)
    assert not order_gate(kind, None, 2.0 * EXACT_RESIDUAL)


EXACT_AT_ONE = (
    [IdentityKind.INNER_INTEGRAL, IdentityKind.INNER_DERIV, IdentityKind.CONV_LEFT,
     IdentityKind.CONV_RIGHT],
    (0.3, 0.6, 1.0),
    [64, 128, 256],
)


def _gate_failures(rows) -> set:
    """(kind, alpha) of every cell whose refinement step fails the gate:
    every row but the coarsest grid's is a step."""
    coarsest = min(row.n_steps for row in rows)
    return {
        (row.report.kind, row.report.alpha)
        for row in rows
        if row.n_steps != coarsest
        and not order_gate(row.report.kind, row.order_estimate, row.report.residual)
    }


def test_an_identity_exact_at_alpha_one_passes_the_gate():
    # at alpha = 1 the product rule is the running trapezoid, the exact
    # adjoint of its mirror image: the residual is roundoff, its order noise
    rows = run_identity_sweep(*EXACT_AT_ONE)
    exact = {(r.report.kind, r.report.alpha) for r in rows if r.report.residual <= EXACT_RESIDUAL}
    assert exact == {(IdentityKind.INNER_INTEGRAL, 1.0)}
    assert _gate_failures(rows) == set()


@pytest.mark.parametrize("error, failing_alphas", [(1e-3, {0.3, 0.6, 1.0}), (1e-9, {1.0})])
def test_a_perturbed_left_integral_still_fails_the_gate(monkeypatch, error, failing_alphas):
    # every weight of the left product rule off by `error` (a wrong
    # 1/Gamma(a + 2)), so it is no longer the right rule's adjoint; one
    # Toeplitz weight changed in both rules would keep the adjoint pairing
    import convact.identities as identities

    def left_off(side, u, alpha):
        out = frac_integral(side, u, alpha)
        return Signal(u.grid, out.values * (1.0 + error)) if side is Side.LEFT else out

    monkeypatch.setattr(identities, "frac_integral", left_off)
    failures = _gate_failures(run_identity_sweep(*EXACT_AT_ONE))
    assert failures == {(IdentityKind.INNER_INTEGRAL, a) for a in failing_alphas}


@pytest.mark.parametrize(
    "kinds, alphas, rule",
    [
        (list(IdentityKind), [0.5, 1.0], "CONV_COMPLEMENTARY requires alpha < 1"),
        (list(IdentityKind), [0.5, 1.5], "must lie in"),
        ([IdentityKind.CLASSIC_INNER], [1.5], "must lie in"),
    ],
    ids=["complementary-at-one", "above-one", "integer-kinds-only"],
)
def test_sweep_refuses_a_bad_order_before_computing_any_cell(monkeypatch, kinds, alphas, rule):
    import convact.identities as identities

    calls = []
    for name in ("frac_deriv", "frac_integral"):
        op = getattr(identities, name)
        monkeypatch.setattr(identities, name, lambda *a, op=op: calls.append(a) or op(*a))
    with pytest.raises(ValueError, match=rule):
        run_identity_sweep(kinds, alphas, [16, 32])
    assert calls == []


def test_sweep_rows_monotone_residuals():
    rows = run_identity_sweep(list(IdentityKind), ALL_ALPHAS, [64, 128, 256])
    series: dict = {}
    for row in rows:
        series.setdefault((row.report.kind, row.report.alpha), []).append(
            row.report.residual
        )
    for key, res in series.items():
        assert all(a > b for a, b in zip(res, res[1:])), (key, res)


def test_sweep_csv_shape():
    rows = run_identity_sweep([IdentityKind.CONV_CLASSIC], [], [64, 128])
    text = sweep_rows_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "kind,alpha,h,lhs,rhs,residual,order_estimate"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "CONV_CLASSIC"
    assert first[1] == ""  # integer kind, alpha-free
    assert first[6] == ""  # no order on the coarsest grid
    assert lines[2].split(",")[6] != ""


def test_sweep_deterministic():
    rows_a = run_identity_sweep([IdentityKind.INNER_DERIV], [0.5], [32, 64], seed=7)
    rows_b = run_identity_sweep([IdentityKind.INNER_DERIV], [0.5], [32, 64], seed=7)
    assert sweep_rows_to_csv(rows_a) == sweep_rows_to_csv(rows_b)
    rows_c = run_identity_sweep([IdentityKind.INNER_DERIV], [0.5], [32, 64], seed=8)
    assert sweep_rows_to_csv(rows_a) != sweep_rows_to_csv(rows_c)


def _fresh_cell(kind, alpha, grid, seed):
    """One sweep cell with its profiles sampled afresh for the cell alone."""
    vanish = kind not in INTEGER_KINDS
    phi = sample(trig_profile(seed, grid.t_final, vanish_ends=vanish), grid)
    psi = sample(trig_profile(seed + 1, grid.t_final, vanish_ends=False), grid)
    return ibp_residual(kind, phi, psi, alpha)


def test_sweep_equals_per_cell_evaluation_bitwise():
    seed = 11
    for n_list in ([8, 16, 64], [32, 64, 128]):
        rows = run_identity_sweep(list(IdentityKind), ALL_ALPHAS, n_list, t_final=1.5, seed=seed)
        cells = [
            (kind, alpha, n)
            for kind in IdentityKind
            for alpha in ([None] if kind in INTEGER_KINDS else ALL_ALPHAS)
            for n in n_list
        ]
        assert len(rows) == len(cells)
        for row, (kind, alpha, n) in zip(rows, cells):
            ref = _fresh_cell(kind, alpha, Grid(1.5, n), seed)
            assert (row.report.kind, row.report.alpha, row.n_steps) == (ref.kind, ref.alpha, n)
            for name in ("lhs", "rhs", "residual"):
                got, want = getattr(row.report, name), getattr(ref, name)
                assert got.hex() == want.hex(), (kind, alpha, n, name)


@pytest.mark.parametrize("seed", [0, 7, 2024])
@pytest.mark.parametrize("vanish_ends", [True, False])
def test_trig_profile_on_node_arrays_matches_scalar_loop(seed, vanish_ends):
    # reference: the per-node sine series summed with math.sin, mode by mode
    rng = np.random.default_rng(seed)
    coeff = rng.uniform(-1.0, 1.0, 5)
    affine = rng.uniform(-1.0, 1.0, 2) if not vanish_ends else np.zeros(2)
    for g in (Grid(1.0, 33), Grid(2.5, 1024)):
        t = g.t_final
        ref = np.array([
            affine[0] + affine[1] * tau / t
            + sum(c / (m + 1.0) ** 2 * math.sin((m + 1.0) * math.pi * tau / t)
                  for m, c in enumerate(coeff))
            for tau in g.nodes()
        ])
        f = trig_profile(seed, t, vanish_ends=vanish_ends)
        assert f(g.nodes()).tobytes() == ref.tobytes()
        assert sample(f, g).values.tobytes() == ref.tobytes()


def test_sweep_samples_three_profiles_per_grid(monkeypatch):
    import convact.identities as identities

    calls = []

    def counting_profile(*args, **kwargs):
        f = trig_profile(*args, **kwargs)

        def counted(tau):
            calls.append(np.size(tau) - 1)  # the node array of one grid
            return f(tau)

        return counted

    monkeypatch.setattr(identities, "trig_profile", counting_profile)
    run_identity_sweep(list(IdentityKind), ALL_ALPHAS, [32, 64, 128])
    assert sorted(calls) == [32] * 3 + [64] * 3 + [128] * 3


def test_sweep_takes_five_gl_derivatives_per_fractional_cell(monkeypatch):
    import convact.identities as identities

    calls = []

    def counting_deriv(side, u, order):
        calls.append((side, order))
        return frac_deriv(side, u, order)

    monkeypatch.setattr(identities, "frac_deriv", counting_deriv)
    # no order here is 1/2 or another's complement, so no two cells share one
    alphas, n_list = (0.3, 0.45, 0.8), [16, 32, 64]
    fractional = [kind for kind in IdentityKind if kind not in INTEGER_KINDS]
    run_identity_sweep(fractional, alphas, n_list)
    assert len(calls) == 5 * len(alphas) * len(n_list)
    calls.clear()
    for kind in fractional:  # alone, a cell's kinds take 8
        ibp_residual(kind, sample(np.sin, Grid(1.0, 16)), sample(np.cos, Grid(1.0, 16)), 0.3)
    assert len(calls) == 8


def test_base_node_integral_is_bitwise_the_full_integral_there():
    rng = np.random.default_rng(5)
    for n in (2, 3, 7, 64):
        u = Signal(Grid(rng.uniform(0.5, 3.0), n), rng.standard_normal(n + 1))
        for order in (*rng.uniform(0.0, 1.0, 4), 0.5, 1.0):
            for side, base in ((Side.LEFT, 0), (Side.RIGHT, n)):
                full = frac_integral(side, u, order).values[base]
                assert np.float64(_fi_at_base(side, u, order)).tobytes() == full.tobytes()
        assert _fi_at_base(Side.LEFT, u, 0.0) == u.values[0]
        assert _fi_at_base(Side.RIGHT, u, 0.0) == u.values[n]

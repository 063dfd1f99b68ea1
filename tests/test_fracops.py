import math

import numpy as np
import pytest
from dense_reference import gl_derivative_matrix

from convact.fracops import (
    _product_weights,
    CompositionKind,
    Side,
    composition_residual,
    frac_deriv,
    frac_integral,
    gl_weights,
    interior_slice,
)
from convact.grid import Grid, Signal, frac_order, reflect, sample


def brute_left_integral(f, tau, alpha, n_sub=6000):
    """High-resolution quadrature of the left RL integral definition.

    The substitution s = (tau - xi)^alpha removes the kernel singularity:
    J^a f(tau) = 1/(Gamma(a) * a) * int_0^{tau^a} f(tau - s^(1/a)) ds.
    """
    if tau == 0.0:
        return 0.0
    s = np.linspace(0.0, tau**alpha, n_sub + 1)
    vals = np.array([f(tau - t ** (1.0 / alpha)) for t in s])
    integral = 0.5 * np.sum((vals[1:] + vals[:-1]) * np.diff(s))
    return integral / (math.gamma(alpha) * alpha)


def test_gamma_reference_values():
    # the gamma evaluations used by the operators must be good to 1e-12
    assert math.gamma(0.5) == pytest.approx(math.sqrt(math.pi), abs=1e-12)
    assert math.gamma(1.0) == pytest.approx(1.0, abs=1e-12)
    assert math.gamma(1.5) == pytest.approx(math.sqrt(math.pi) / 2.0, abs=1e-12)
    assert math.gamma(0.25) == pytest.approx(3.6256099082219083, abs=1e-12)


def test_gl_weights_half_order():
    w = gl_weights(0.5, 4)
    np.testing.assert_allclose(w, [1.0, -0.5, -0.125, -0.0625], rtol=1e-15)


def test_gl_weights_integer_order():
    w = gl_weights(1.0, 3)
    np.testing.assert_allclose(w, [1.0, -1.0, 0.0], atol=1e-16)


@pytest.mark.parametrize("alpha", [0.1, 0.25, 0.5, 0.75, 1.0])
@pytest.mark.parametrize("count", [1, 2, 7, 513, 4097])
def test_gl_weights_cached_array_is_the_recurrence(alpha, count):
    ref = np.empty(count)
    ref[0] = 1.0
    for j in range(1, count):
        ref[j] = ref[j - 1] * (j - 1 - alpha) / j
    for _ in range(2):  # the second call is served from the cache
        w = gl_weights(alpha, count)
        assert w.tobytes() == ref.tobytes()
        assert not w.flags.writeable


def test_gl_weights_float_and_order_share_weights():
    a = gl_weights(0.5, 65)
    b = gl_weights(frac_order(0.5), 65)
    assert a.tobytes() == b.tobytes()


def test_gl_weights_int_float_and_numpy_orders_share_one_array():
    n = 33
    assert gl_weights(1, n) is gl_weights(1.0, n) is gl_weights(np.float64(1.0), n)


@pytest.mark.parametrize("alpha", [0.1, 0.25, 0.5, 0.75, 0.9])
def test_gl_weights_signs_and_partial_sums(alpha):
    from scipy.special import gammaln

    w = gl_weights(alpha, 200)
    assert w[0] == 1.0
    assert np.all(w[1:] < 0.0)
    partial = np.cumsum(w)
    assert np.all(partial >= 0.0)
    assert np.all(np.diff(partial) <= 0.0)
    # closed form: sum_{j<=m} w_j = Gamma(m+1-a) / (Gamma(1-a) Gamma(m+1)) -> 0
    m = np.arange(200)
    exact = np.exp(gammaln(m + 1 - alpha) - gammaln(1 - alpha) - gammaln(m + 1))
    np.testing.assert_allclose(partial, exact, rtol=1e-10)


def test_frac_integral_zero():
    g = Grid(1.0, 16)
    z = sample(lambda t: 0.0, g)
    np.testing.assert_array_equal(frac_integral(Side.LEFT, z, 0.5).values, np.zeros(17))


def test_frac_integral_constant_half_order():
    # J^(1/2) 1 = tau^(1/2) / Gamma(3/2) = 2 sqrt(tau/pi); at tau=1: 2/sqrt(pi)
    g = Grid(1.0, 128)
    ones = sample(lambda t: 1.0, g)
    out = frac_integral(Side.LEFT, ones, 0.5)
    exact = 2.0 * np.sqrt(g.nodes() / math.pi)
    np.testing.assert_allclose(out.values, exact, atol=2e-3)
    assert out.values[-1] == pytest.approx(2.0 / math.sqrt(math.pi), abs=5e-4)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8, 1.0])
def test_frac_integral_matches_brute_force(alpha):
    g = Grid(2.0, 64)
    f = lambda t: math.sin(1.1 * t) + 0.5 * t
    sig = sample(f, g)
    out = frac_integral(Side.LEFT, sig, alpha)
    for k in (7, 31, 64):
        ref = brute_left_integral(f, g.nodes()[k], alpha)
        assert out.values[k] == pytest.approx(ref, abs=3e-4)


def fresh_left_integral(values, h, a):
    """The product rule with its node weights computed for this call alone:
    d2 on the interior samples, b0 on u_0 and 1 on u_k, scaled by
    h^a / Gamma(a + 2)."""
    n = values.size - 1
    m = np.arange(n + 2, dtype=float)
    pow2 = m ** (a + 1.0)
    d2 = pow2[2:] - 2.0 * pow2[1:-1] + pow2[:-2]
    k = np.arange(n + 1, dtype=float)
    b0 = np.zeros(n + 1)
    b0[1:] = (k[1:] - 1.0) ** (a + 1.0) - (k[1:] - 1.0 - a) * k[1:] ** a
    for_k = np.zeros(n + 1)
    if n >= 2:
        for_k[2:] = np.convolve(values[1:], d2)[: n - 1]
    out = np.zeros(n + 1)
    out[1:] = h**a / math.gamma(a + 2.0) * (values[1:] + for_k[1:] + b0[1:] * values[0])
    return out


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8, 1.0])
@pytest.mark.parametrize("n", [2, 3, 64, 1000])
def test_frac_integral_cached_weights_are_bitwise_fresh(alpha, n):
    rng = np.random.default_rng(n)
    g = Grid(1.7, n)
    u = Signal(g, rng.standard_normal(n + 1))
    left = fresh_left_integral(u.values, g.h, alpha)
    right = fresh_left_integral(u.values[::-1], g.h, alpha)[::-1]
    for _ in range(2):  # the second call is served from the cache
        assert frac_integral(Side.LEFT, u, alpha).values.tobytes() == left.tobytes()
        assert frac_integral(Side.RIGHT, u, alpha).values.tobytes() == right.tobytes()
    for w in _product_weights(float(alpha), n):
        assert not w.flags.writeable


def test_frac_integral_exact_for_piecewise_linear():
    # kernel integrated exactly against the linear interpolant
    g = Grid(1.0, 8)
    ramp = sample(lambda t: 2.0 * t, g)
    out = frac_integral(Side.LEFT, ramp, 0.5)
    # J^(1/2) (2 tau) = 2 tau^(3/2) / Gamma(5/2)
    exact = 2.0 * g.nodes() ** 1.5 / math.gamma(2.5)
    np.testing.assert_allclose(out.values, exact, rtol=1e-12)


def test_frac_integral_order_one_is_running_trapezoid():
    rng = np.random.default_rng(3)
    g = Grid(1.0, 12)
    u = Signal(g, rng.standard_normal(13))
    out = frac_integral(Side.LEFT, u, 1.0)
    p = u.values
    expected = np.concatenate(
        [[0.0], np.cumsum(0.5 * g.h * (p[1:] + p[:-1]))]
    )
    np.testing.assert_allclose(out.values, expected, rtol=1e-13)


def test_right_integral_is_reflected_left():
    rng = np.random.default_rng(11)
    g = Grid(1.0, 20)
    u = Signal(g, rng.standard_normal(21))
    right = frac_integral(Side.RIGHT, u, 0.5)
    refl = reflect(frac_integral(Side.LEFT, reflect(u), 0.5))
    np.testing.assert_allclose(right.values, refl.values, rtol=1e-14)


def test_right_integral_matches_brute_force():
    g = Grid(1.0, 64)
    f = lambda t: math.cos(0.9 * t)
    sig = sample(f, g)
    out = frac_integral(Side.RIGHT, sig, 0.4)
    t = g.t_final
    for k in (0, 20, 50):
        tau = g.nodes()[k]
        # right integral over (tau, t) == left integral of the reflection at t - tau
        ref = brute_left_integral(lambda s: f(t - s), t - tau, 0.4)
        assert out.values[k] == pytest.approx(ref, abs=3e-4)


def test_frac_deriv_constant_keeps_singular_tail():
    # D^(1/2) u0 = u0 tau^(-1/2) / Gamma(1/2) away from tau = 0
    g = Grid(1.0, 256)
    u0 = 3.0
    const = sample(lambda t: u0, g)
    out = frac_deriv(Side.LEFT, const, 0.5)
    taus = g.nodes()
    keep = slice(16, None)
    exact = u0 / (math.sqrt(math.pi) * np.sqrt(taus[keep]))
    np.testing.assert_allclose(out.values[keep], exact, rtol=2e-2)


def test_frac_deriv_ramp_half_order():
    # D^(1/2) tau = 2 sqrt(tau/pi); GL is first order at fixed tau > 0
    def err_at_half(n):
        g = Grid(1.0, n)
        ramp = sample(lambda t: t, g)
        out = frac_deriv(Side.LEFT, ramp, 0.5)
        k = n // 2
        return abs(out.values[k] - 2.0 * math.sqrt(0.5 / math.pi))

    e1, e2 = err_at_half(64), err_at_half(128)
    assert e2 < e1
    assert math.log2(e1 / e2) > 0.8
    # the whole curve approaches the exact one
    g = Grid(1.0, 256)
    out = frac_deriv(Side.LEFT, sample(lambda t: t, g), 0.5)
    keep = interior_slice(256)
    exact = 2.0 * np.sqrt(g.nodes()[keep] / math.pi)
    np.testing.assert_allclose(out.values[keep], exact, atol=8e-3)


def test_frac_deriv_order_one_right_is_negative_velocity():
    g = Grid(1.0, 200)
    u = sample(lambda t: math.sin(2.0 * t), g)
    out = frac_deriv(Side.RIGHT, u, 1.0)
    exact = -2.0 * np.cos(2.0 * g.nodes())
    keep = slice(0, -1)  # last node uses the one-sided GL tail
    np.testing.assert_allclose(out.values[keep], exact[keep], atol=2.0 * g.h * 2.0)


def test_frac_deriv_order_one_left_is_velocity():
    g = Grid(1.0, 200)
    u = sample(lambda t: math.sin(2.0 * t), g)
    out = frac_deriv(Side.LEFT, u, 1.0)
    exact = 2.0 * np.cos(2.0 * g.nodes())
    keep = slice(1, None)
    np.testing.assert_allclose(out.values[keep], exact[keep], atol=2.0 * g.h * 2.0)


def test_frac_deriv_alpha_to_one_limit():
    # gap to the finite-difference velocity shrinks as alpha -> 1
    g = Grid(1.0, 256)
    u = sample(lambda t: math.sin(1.7 * t) * (1.0 + 0.3 * t), g)
    fd = np.gradient(u.values, g.h)
    keep = interior_slice(g.n_steps)

    def gap(alpha):
        d = frac_deriv(Side.LEFT, u, alpha)
        return np.max(np.abs(d.values[keep] - fd[keep]))

    assert gap(0.99) < gap(0.9)


def test_operators_are_linear():
    rng = np.random.default_rng(5)
    g = Grid(1.0, 30)
    u = Signal(g, rng.standard_normal(31))
    v = Signal(g, rng.standard_normal(31))
    for op in (
        lambda s: frac_deriv(Side.LEFT, s, 0.5),
        lambda s: frac_integral(Side.RIGHT, s, 0.3),
    ):
        combo = op(Signal(g, 2.0 * u.values - 3.0 * v.values))
        parts = 2.0 * op(u).values - 3.0 * op(v).values
        np.testing.assert_allclose(combo.values, parts, rtol=1e-12, atol=1e-12)


def test_composition_j_j_semigroup():
    g = Grid(1.0, 64)
    u = sample(lambda t: math.sin(2.0 * t) + 0.2, g)
    r1 = composition_residual(CompositionKind.J_J, Side.LEFT, u, 0.5, 0.5)
    g2 = Grid(1.0, 128)
    u2 = sample(lambda t: math.sin(2.0 * t) + 0.2, g2)
    r2 = composition_residual(CompositionKind.J_J, Side.LEFT, u2, 0.5, 0.5)
    assert r2 < r1
    assert r1 < 0.05


def test_composition_j_j_rejects_large_sum():
    g = Grid(1.0, 16)
    u = sample(lambda t: t, g)
    with pytest.raises(ValueError):
        composition_residual(CompositionKind.J_J, Side.LEFT, u, 0.75, 0.5)


@pytest.mark.parametrize("side", [Side.LEFT, Side.RIGHT])
def test_composition_d_of_j_integer_order(side):
    # The GL difference of the running trapezoid returns midpoint averages,
    # so the classical identity is recovered at first order for smooth u
    # (these quadratures are not exact discrete inverses of each other).
    def res(n):
        g = Grid(1.0, n)
        u = sample(lambda t: math.exp(-0.5 * t) * math.sin(2.0 * t), g)
        return composition_residual(CompositionKind.D_OF_J, side, u, 1.0)

    r1, r2 = res(64), res(128)
    assert r2 < r1
    assert math.log2(r1 / r2) > 0.8


@pytest.mark.parametrize("side", [Side.LEFT, Side.RIGHT])
def test_composition_d_of_j_left_inverse(side):
    # signals vanish at the singular endpoint of the given side so the GL
    # boundary layer does not pollute the interior-node comparison
    def res(n):
        g = Grid(1.0, n)
        if side is Side.LEFT:
            u = sample(lambda t: math.sin(1.3 * t), g)
        else:
            u = sample(lambda t: math.sin(1.3 * (1.0 - t)), g)
        return composition_residual(CompositionKind.D_OF_J, side, u, 0.5)

    r1, r2 = res(64), res(128)
    assert r2 < r1


def test_composition_j_of_d_vanishing_start():
    def res(n):
        g = Grid(1.0, n)
        u = sample(lambda t: t * (1.0 - 0.3 * t), g)
        return composition_residual(CompositionKind.J_OF_D, Side.LEFT, u, 0.5)

    r1, r2 = res(64), res(128)
    assert r2 < r1
    assert r2 < 0.02


@pytest.mark.parametrize("side", [Side.LEFT, Side.RIGHT])
@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8, 1.0])
def test_composition_j_of_d_compares_with_u_itself(side, alpha):
    # the boundary correction is an integral over an empty interval, so the
    # residual is the plain interior mismatch of J^a D^a u against u
    g = Grid(1.0, 40)
    u = sample(lambda t: 1.0 + t - 0.7 * t * t, g)
    keep = slice(2, g.n_steps - 1)
    back = frac_integral(side, frac_deriv(side, u, alpha), alpha).values
    expected = np.max(np.abs(back[keep] - u.values[keep])) / np.max(np.abs(u.values[keep]))
    assert composition_residual(CompositionKind.J_OF_D, side, u, alpha) == expected


def test_gl_derivative_matrix_matches_operator():
    rng = np.random.default_rng(21)
    g = Grid(2.0, 24)
    u = Signal(g, rng.standard_normal(25))
    mat = gl_derivative_matrix(g.n_steps, g.h, 0.5)
    np.testing.assert_allclose(
        mat @ u.values, frac_deriv(Side.LEFT, u, 0.5).values, rtol=1e-12, atol=1e-12
    )


def test_frac_deriv_rejects_bad_order():
    g = Grid(1.0, 8)
    u = sample(lambda t: t, g)
    with pytest.raises(ValueError):
        frac_deriv(Side.LEFT, u, 1.5)
    with pytest.raises(ValueError):
        frac_integral(Side.LEFT, u, 0.0)

import math
import tracemalloc

import numpy as np
import pytest
from dense_reference import outer_product_convolve
from hypothesis import given, settings
from hypothesis import strategies as st

from convact.grid import (
    Grid,
    Signal,
    convolve,
    convolve_at_end,
    csv_text,
    frac_order,
    inner_product,
    reflect,
    sample,
)


def test_grid_nodes_uniform():
    g = Grid(1.0, 4)
    assert g.h == 0.25
    np.testing.assert_allclose(g.nodes(), [0.0, 0.25, 0.5, 0.75, 1.0])
    assert g.n_steps * g.h == pytest.approx(g.t_final, rel=1e-15)


def test_grid_rejects_bad_parameters():
    with pytest.raises(ValueError):
        Grid(0.0, 4)
    with pytest.raises(ValueError):
        Grid(-1.0, 4)
    with pytest.raises(ValueError):
        Grid(1.0, 1)


def test_signal_rejects_wrong_length_and_nonfinite():
    g = Grid(1.0, 2)
    with pytest.raises(ValueError):
        Signal(g, np.zeros(2))
    with pytest.raises(ValueError):
        Signal(g, np.array([0.0, np.nan, 1.0]))


def test_signal_values_are_frozen():
    g = Grid(1.0, 2)
    s = Signal(g, np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        s.values[0] = 5.0


def test_sample_zero_and_identity():
    g = Grid(1.0, 4)
    z = sample(lambda t: 0.0, g)
    np.testing.assert_array_equal(z.values, np.zeros(5))
    ramp = sample(lambda t: t, g)
    np.testing.assert_allclose(ramp.values, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_sample_cosine():
    g = Grid(math.pi, 2)
    s = sample(math.cos, g)
    np.testing.assert_allclose(s.values, [1.0, 0.0, -1.0], atol=1e-15)


def test_sample_rejects_nonfinite():
    g = Grid(1.0, 2)
    with pytest.raises(ValueError):
        sample(lambda t: 1.0 / t if t > 0 else math.inf, g)


def test_convolve_constant_kernels_give_ramp():
    g = Grid(2.0, 8)
    ones = sample(lambda t: 1.0, g)
    c = convolve(ones, ones)
    np.testing.assert_allclose(c.values, g.nodes(), rtol=1e-14)


def test_convolve_one_with_ramp_quadratic():
    # [1 * tau](t) = t^2/2 exactly; trapezoid is exact for this product too.
    g = Grid(1.0, 16)
    ones = sample(lambda t: 1.0, g)
    ramp = sample(lambda t: t, g)
    c = convolve(ones, ramp)
    np.testing.assert_allclose(c.values, g.nodes() ** 2 / 2.0, atol=1e-14)


def test_convolve_starts_at_zero_and_is_commutative_bitwise():
    rng = np.random.default_rng(42)
    g = Grid(3.0, 33)
    u = Signal(g, rng.standard_normal(g.n_nodes))
    v = Signal(g, rng.standard_normal(g.n_nodes))
    uv = convolve(u, v)
    vu = convolve(v, u)
    assert uv.values[0] == 0.0
    np.testing.assert_array_equal(uv.values, vu.values)
    assert convolve_at_end(u, v) == convolve_at_end(v, u)
    assert convolve_at_end(u, v) == pytest.approx(uv.values[-1], rel=1e-13)


@pytest.mark.parametrize("n", [2, 3, 4, 9, 64, 512, 4096])
def test_convolve_matches_outer_product_reference(n):
    rng = np.random.default_rng(n)
    g = Grid(2.5, n)
    a, b = rng.standard_normal(g.n_nodes), rng.standard_normal(g.n_nodes)
    ref = outer_product_convolve(a, b, g.h)
    got = convolve(Signal(g, a), Signal(g, b)).values
    assert got[0] == 0.0
    assert np.max(np.abs(got - ref)) <= 2e-15 * np.max(np.abs(ref))


def test_convolve_memory_is_linear():
    # an (n+1)^2 float array alone would be 33.6 MB at n = 2048
    rng = np.random.default_rng(5)
    g = Grid(1.0, 2048)
    u, v = (Signal(g, rng.standard_normal(g.n_nodes)) for _ in range(2))
    tracemalloc.start()
    try:
        convolve(u, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 8 * g.n_nodes


def test_convolve_distributive():
    rng = np.random.default_rng(7)
    g = Grid(1.0, 20)
    u, v, w = (Signal(g, rng.standard_normal(g.n_nodes)) for _ in range(3))
    lhs = convolve(u, Signal(g, v.values + w.values))
    rhs = convolve(u, v).values + convolve(u, w).values
    np.testing.assert_allclose(lhs.values, rhs, atol=1e-13)


def test_convolve_associative_second_order():
    # [u*[v*w]](t) - [[u*v]*w](t) shrinks at order >= 2 under h-halving.
    def err(n):
        g = Grid(1.0, n)
        u = sample(lambda t: math.sin(1.3 * t + 0.2), g)
        v = sample(lambda t: math.cos(0.7 * t), g)
        w = sample(lambda t: math.exp(-t), g)
        a = convolve(u, convolve(v, w)).values[-1]
        b = convolve(convolve(u, v), w).values[-1]
        return abs(a - b)

    e1, e2 = err(32), err(64)
    order = math.log2(e1 / e2)
    assert order >= 2.0 - 0.2


def test_convolve_rejects_grid_mismatch():
    u = sample(lambda t: 1.0, Grid(1.0, 4))
    v = sample(lambda t: 1.0, Grid(1.0, 8))
    with pytest.raises(ValueError):
        convolve(u, v)


def test_inner_product_basics():
    g = Grid(2.0, 10)
    zero = sample(lambda t: 0.0, g)
    ones = sample(lambda t: 1.0, g)
    assert inner_product(zero, ones) == 0.0
    assert inner_product(ones, ones) == pytest.approx(2.0, rel=1e-14)


def test_inner_product_ramp_squared():
    # int_0^1 tau^2 dtau = 1/3, trapezoid error O(h^2)
    g = Grid(1.0, 64)
    ramp = sample(lambda t: t, g)
    val = inner_product(ramp, ramp)
    assert val == pytest.approx(1.0 / 3.0, abs=1e-4)
    g2 = Grid(g.t_final, 2 * g.n_steps)
    val2 = inner_product(sample(lambda t: t, g2), sample(lambda t: t, g2))
    assert abs(val2 - 1 / 3) < abs(val - 1 / 3) / 3.5


def test_reflect():
    g = Grid(1.0, 2)
    u = Signal(g, np.array([0.0, 1.0, 2.0]))
    np.testing.assert_array_equal(reflect(u).values, [2.0, 1.0, 0.0])
    np.testing.assert_array_equal(reflect(reflect(u)).values, u.values)
    pal = Signal(g, np.array([1.0, 5.0, 1.0]))
    np.testing.assert_array_equal(reflect(pal).values, pal.values)


def test_frac_order_bounds():
    frac_order(1.0)
    frac_order(0.25)
    for bad in (0.0, -0.5, 1.5, math.nan):
        with pytest.raises(ValueError):
            frac_order(bad)


def test_signal_csv_roundtrip_precision():
    g = Grid(1.0, 2)
    s = Signal(g, np.array([0.1, 1.0 / 3.0, math.pi]))
    text = s.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "tau,value"
    parsed = [float(line.split(",")[1]) for line in lines[1:]]
    np.testing.assert_array_equal(parsed, s.values)


def test_csv_text_cells():
    floats = [-0.0, 5e-324, 0.1, 1.0 / 3.0, 1.7976931348623157e308, math.pi]
    rows = [("row", np.float64(x), None, 7, x) for x in floats]
    text = csv_text("name,a,gap,count,b", rows)
    assert text.endswith("\n") and text.count("\n") == len(rows) + 1
    lines = text.splitlines()
    assert lines[0] == "name,a,gap,count,b"
    assert lines[3] == "row,0.10000000000000001,,7,0.10000000000000001"
    for x, line in zip(floats, lines[1:]):
        cells = line.split(",")
        assert cells[:1] + cells[2:4] == ["row", "", "7"]
        for cell in (cells[1], cells[4]):
            assert np.array([float(cell)]).tobytes() == np.array([x]).tobytes()  # bitwise
    assert csv_text("only,a,header", []) == "only,a,header\n"


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=24), st.integers(min_value=0, max_value=2**31))
def test_convolution_commutes_property(n, seed):
    rng = np.random.default_rng(seed)
    g = Grid(1.5, n)
    u = Signal(g, rng.standard_normal(g.n_nodes))
    v = Signal(g, rng.standard_normal(g.n_nodes))
    np.testing.assert_array_equal(convolve(u, v).values, convolve(v, u).values)

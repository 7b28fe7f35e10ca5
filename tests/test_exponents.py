import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vexspaces import Grid, GridFunction, VariableExponent, conjugate, log_holder_estimate
from vexspaces.exponents import pointwise_min, pointwise_max


def brute_force_c_log_local(values, grid):
    """O(N^2) pair loop; the oracle the vectorized estimator must match."""
    flat = values.ravel()
    if grid.dim == 1:
        pts = grid.coords[0]
        coords = [(p,) for p in pts]
    else:
        coords = list(zip(grid.coords[0].ravel(), grid.coords[1].ravel()))
    best = 0.0
    for i in range(len(flat)):
        for j in range(i + 1, len(flat)):
            d = 0.0
            for a, b in zip(coords[i], coords[j]):
                w = abs(a - b) % 1.0
                w = min(w, 1.0 - w)
                d += w * w
            d = np.sqrt(d)
            best = max(best, abs(flat[i] - flat[j]) * np.log(np.e + 1.0 / d))
    return best


def test_validation():
    g = Grid(1, 16)
    with pytest.raises(ValueError):
        VariableExponent(g, np.zeros(g.shape))
    with pytest.raises(ValueError):
        VariableExponent(g, np.full(g.shape, -1.0))
    with pytest.raises(ValueError):
        VariableExponent(g, np.full(g.shape, np.nan))
    p = VariableExponent.constant(g, np.inf)
    assert p.p_minus == np.inf  # pure ess-sup exponent is legal


def test_constant_and_bounds():
    g = Grid(1, 16)
    p = VariableExponent.from_function(g, lambda x: 2.0 + np.sin(2 * np.pi * x))
    assert 1.0 <= p.p_minus < p.p_plus <= 3.0
    q = VariableExponent.constant(g, 2.5)
    assert q.is_constant() and q.p_minus == q.p_plus == 2.5


def test_conjugate_exact_cases():
    g = Grid(1, 16)
    x = g.coords[0]
    vals = np.where(x < 0.5, 1.5, 3.0)
    p = VariableExponent(g, vals)
    pc = conjugate(p)
    # {1.5, 3} is its own conjugate pair
    assert np.array_equal(np.sort(np.unique(pc.values)), [1.5, 3.0])
    assert np.all(pc.values[x < 0.5] == 3.0)
    two = conjugate(VariableExponent.constant(g, 2.0))
    assert np.all(two.values == 2.0)
    one = conjugate(VariableExponent.constant(g, 1.0))
    assert np.all(np.isinf(one.values))
    inf = conjugate(VariableExponent.constant(g, np.inf))
    assert np.all(inf.values == 1.0)


def test_conjugate_involution_exact():
    g = Grid(1, 64)
    rng = np.random.default_rng(5)
    p = VariableExponent(g, 1.0 + 7.0 * rng.random(g.shape))
    pcc = conjugate(conjugate(p))
    assert pcc is p
    # and the defining identity holds pointwise to machine precision
    recip_sum = p.reciprocal_values() + conjugate(p).reciprocal_values()
    assert np.max(np.abs(recip_sum - 1.0)) < 1e-15


def test_conjugate_rejects_small_p():
    g = Grid(1, 16)
    with pytest.raises(ValueError):
        conjugate(VariableExponent.constant(g, 0.9))


def test_divided_by_and_pointwise_minmax():
    g = Grid(1, 16)
    p = VariableExponent.from_function(g, lambda x: 2.0 + x)
    q = VariableExponent.constant(g, 2.0)
    assert np.allclose(p.divided_by(2.0).values, p.values / 2.0)
    assert np.all(pointwise_min(p, q).values <= pointwise_max(p, q).values)
    pinf = VariableExponent.constant(g, np.inf)
    assert np.all(pinf.divided_pointwise(q).values == np.inf)


def test_log_holder_sawtooth_matches_brute_force():
    g = Grid(1, 64)
    sawtooth = GridFunction(g, g.coords[0])
    report = log_holder_estimate(sawtooth)
    oracle = brute_force_c_log_local(np.asarray(sawtooth.samples), g)
    assert report.c_log_local == pytest.approx(oracle, rel=1e-12)
    # sawtooth has a unit jump across the wrap seam: constants are order one
    assert 0.5 < report.c_log_local < 10.0
    assert report.g_infinity == pytest.approx(0.5, abs=1e-12)


def test_log_holder_brute_force_2d():
    g = Grid(2, 16)
    f = g.sample(lambda x, y: np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y))
    report = log_holder_estimate(f)
    oracle = brute_force_c_log_local(np.asarray(f.samples), g)
    assert report.c_log_local == pytest.approx(oracle, rel=1e-12)


@pytest.mark.parametrize("dim, n", [(1, 64), (1, 1024), (2, 16), (2, 32)])
def test_log_holder_matches_abs_diff_roll_loop(dim, n):
    # the signed scan and its reflection give the |a - b| scan bit for bit
    g = Grid(dim, n)
    values = np.random.default_rng(11).normal(size=g.shape)
    axes = tuple(range(dim))
    diffs = np.array([
        np.max(np.abs(values - np.roll(values, s, axis=axes)))
        for s in itertools.product(range(n), repeat=dim) if any(s)
    ])
    oracle = max(0.0, np.max(diffs * np.log(np.e + 1.0 / g.shift_distances)))
    assert log_holder_estimate(GridFunction(g, values)).c_log_local == oracle


def test_log_holder_constant_function_is_zero():
    g = Grid(1, 32)
    report = log_holder_estimate(GridFunction(g, np.full(g.shape, 1.7)))
    assert report.c_log_local == 0.0
    assert report.c_log_global == 0.0
    assert report.g_infinity == pytest.approx(1.7)


def test_log_holder_scaling_exact():
    # scaling by 2.0 is exact in binary floating point
    g = Grid(1, 64)
    rng = np.random.default_rng(9)
    f = GridFunction(g, rng.normal(size=g.shape))
    r1 = log_holder_estimate(f)
    r2 = log_holder_estimate(f * 2.0)
    assert r2.c_log_local == 2.0 * r1.c_log_local


def test_refine_recipe():
    g = Grid(1, 32)
    p = VariableExponent.from_function(g, lambda x: 2.0 + 0.5 * np.cos(2 * np.pi * x))
    p2 = p.refine(Grid(1, 64))
    assert p2.grid.n == 64
    assert p2.values[0] == pytest.approx(2.0 + 0.5 * np.cos(2 * np.pi * (0.5 / 64)))
    with pytest.raises(ValueError):
        VariableExponent(g, np.full(g.shape, 2.0)).refine(Grid(1, 64))


@settings(max_examples=15, deadline=None)
@given(lo=st.floats(min_value=1.0, max_value=4.0), amp=st.floats(min_value=0.0, max_value=2.0))
def test_conjugate_identity_property(lo, amp):
    g = Grid(1, 16)
    p = VariableExponent.from_function(g, lambda x: lo + amp * (1 + np.sin(2 * np.pi * x)) / 2)
    s = p.reciprocal_values() + conjugate(p).reciprocal_values()
    assert np.max(np.abs(s - 1.0)) < 1e-14

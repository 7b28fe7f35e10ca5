import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vexspaces import (
    Grid,
    GridFunction,
    VariableExponent,
    modular,
    norm,
    holder_pairing,
    characteristic_norm_check,
)
from vexspaces import lebesgue
from vexspaces.lebesgue import REL_TOL, BracketError, luxemburg_root
from vexspaces.spaces import standard_corpus
from conftest import random_band_limited

# Adaptive-quadrature oracle for integral_0^1 x^(1+x) dx, frozen; a live
# midpoint oracle at 2^20 points in test_modular_oracle cross-checks it.
INTEGRAL_X_POW_1PX = 0.40303444442151676


def test_modular_constant_exponent():
    g = Grid(1, 64)
    f = GridFunction(g, np.full(g.shape, 0.5))
    p = VariableExponent.constant(g, 2.0)
    assert modular(f, p).value == pytest.approx(0.25, rel=1e-14)


def test_modular_oracle_x_pow():
    # f(x) = x, p(x) = 1 + x on N = 1024: midpoint sum vs the integral
    g = Grid(1, 1024)
    f = GridFunction(g, g.coords[0])
    p = VariableExponent.from_function(g, lambda x: 1.0 + x)
    got = modular(f, p).value
    n = 2**20
    x = (np.arange(n) + 0.5) / n
    live_oracle = float(np.mean(x ** (1.0 + x)))
    assert abs(live_oracle - INTEGRAL_X_POW_1PX) < 1e-10
    assert abs(got - INTEGRAL_X_POW_1PX) < 1e-6


def test_modular_infinity_region():
    g = Grid(1, 64)
    x = g.coords[0]
    p = VariableExponent(g, np.where(x < 0.5, 2.0, np.inf))
    ok = GridFunction(g, np.where(x < 0.5, 0.5, 1.0))  # |f| <= 1 on p = inf
    res = modular(ok, p)
    assert not res.infinity_region_violated
    assert res.value == pytest.approx(0.5 * 0.25, rel=1e-12)
    bad = GridFunction(g, np.where(x < 0.5, 0.5, 1.5))
    res = modular(bad, p)
    assert res.infinity_region_violated and res.value == np.inf


def test_norm_constant_two_is_l2():
    g = Grid(1, 256)
    rng = np.random.default_rng(2)
    f = random_band_limited(g, rng)
    p = VariableExponent.constant(g, 2.0)
    direct = float(np.sqrt(g.cell_volume * np.sum(np.abs(f.samples) ** 2)))
    assert norm(f, p) == pytest.approx(direct, rel=1e-12)


def test_norm_constant_function_solves_lambda_two():
    # f = 2, p(x) = 2 + x: modular(f/2) = 1 exactly, so the norm is 2
    g = Grid(1, 512)
    f = GridFunction(g, np.full(g.shape, 2.0))
    p = VariableExponent.from_function(g, lambda x: 2.0 + x)
    assert norm(f, p) == pytest.approx(2.0, rel=1e-12)


def test_norm_pure_infinity_is_ess_sup_exact():
    g = Grid(1, 64)
    rng = np.random.default_rng(4)
    f = GridFunction(g, rng.normal(size=g.shape))
    p = VariableExponent.constant(g, np.inf)
    assert norm(f, p) == f.max_abs()  # exact left endpoint, no bisection


def test_norm_zero_function():
    g = Grid(1, 64)
    assert norm(g.zeros(), VariableExponent.constant(g, 2.0)) == 0.0


def test_norm_homogeneity():
    g = Grid(1, 128)
    rng = np.random.default_rng(6)
    f = random_band_limited(g, rng)
    p = VariableExponent.from_function(g, lambda x: 1.5 + np.sin(2 * np.pi * x) ** 2)
    n1 = norm(f, p)
    n2 = norm(f * 3.0, p)
    assert n2 == pytest.approx(3.0 * n1, rel=1e-11)


def test_unit_ball_property():
    g = Grid(1, 256)
    rng = np.random.default_rng(7)
    for _ in range(10):
        f = random_band_limited(g, rng)
        p = VariableExponent.from_function(
            g, lambda x, a=rng.uniform(0.5, 3.0), b=rng.uniform(0, 2): a + b * np.cos(2 * np.pi * x) ** 2
        )
        lam = norm(f, p)
        value = modular(f * (1.0 / lam), p).value
        assert 1.0 - 1e-8 <= value <= 1.0


def test_modular_norm_sandwich():
    # min/max of rho^(1/p-) and rho^(1/p+) sandwich the norm when p+ < inf
    g = Grid(1, 128)
    rng = np.random.default_rng(8)
    for _ in range(10):
        f = random_band_limited(g, rng)
        p = VariableExponent.from_function(
            g, lambda x, a=rng.uniform(0.6, 2.0), b=rng.uniform(0, 4): a + b * np.abs(np.sin(2 * np.pi * x))
        )
        rho = modular(f, p).value
        lam = norm(f, p)
        lo = min(rho ** (1.0 / p.p_minus), rho ** (1.0 / p.p_plus))
        hi = max(rho ** (1.0 / p.p_minus), rho ** (1.0 / p.p_plus))
        assert lo - 1e-9 <= lam <= hi + 1e-9


def test_r_power_identity():
    # ||f||^r = || |f|^r ||_{p/r}
    g = Grid(1, 128)
    rng = np.random.default_rng(10)
    f = random_band_limited(g, rng).abs()
    p = VariableExponent.from_function(g, lambda x: 1.2 + np.cos(2 * np.pi * x) ** 2)
    for r in (0.5, 2.0, 3.0):
        lhs = norm(f, p) ** r
        fr = GridFunction(g, np.abs(f.samples) ** r)
        rhs = norm(fr, p.divided_by(r))
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_lattice_property():
    g = Grid(1, 128)
    rng = np.random.default_rng(13)
    f = random_band_limited(g, rng).abs()
    smaller = f * 0.7
    p = VariableExponent.from_function(g, lambda x: 0.8 + x)
    assert norm(smaller, p) <= norm(f, p) * (1 + 1e-12)


def test_quasi_triangle_constant():
    # measured constant never exceeds max(1, 2^(1/p- - 1)) for the scale
    g = Grid(1, 128)
    rng = np.random.default_rng(14)
    p = VariableExponent.constant(g, 0.5)
    bound = 2.0 ** (1.0 / 0.5 - 1.0)
    worst = 0.0
    for _ in range(20):
        f = random_band_limited(g, rng).abs()
        h = random_band_limited(g, rng).abs()
        k = norm(f + h, p) / (norm(f, p) + norm(h, p))
        worst = max(worst, k)
    assert worst <= bound * (1 + 1e-9)
    assert worst > 1.0  # p < 1 genuinely fails the triangle inequality


def test_holder_pairing():
    g = Grid(1, 128)
    rng = np.random.default_rng(15)
    for _ in range(10):
        f = random_band_limited(g, rng)
        h = random_band_limited(g, rng)
        p = VariableExponent.from_function(
            g, lambda x, a=rng.uniform(1.0, 4.0), b=rng.uniform(0, 3): a + b * np.sin(np.pi * x) ** 2
        )
        lhs, rhs = holder_pairing(f, h, p)
        assert lhs <= rhs * (1 + 1e-12)


def test_holder_pairing_with_infinity_band():
    g = Grid(1, 128)
    x = g.coords[0]
    p = VariableExponent(g, np.where(x < 0.3, 1.0, np.where(x < 0.6, 2.0, np.inf)))
    rng = np.random.default_rng(16)
    f = random_band_limited(g, rng)
    h = random_band_limited(g, rng)
    lhs, rhs = holder_pairing(f, h, p)
    assert lhs <= rhs


def test_characteristic_single_cell():
    # one-cell cube: norm solves h*(1/lam)^p(x) = 1, i.e. lam = h^(1/p(x))
    g = Grid(1, 64)
    p = VariableExponent.from_function(g, lambda x: 2.0 + x)
    chi = np.zeros(g.shape)
    chi[10] = 1.0
    lam = norm(GridFunction(g, chi), p)
    expected = g.h ** (1.0 / p.values[10])
    assert lam == pytest.approx(expected, rel=1e-10)


def test_characteristic_norm_check_bounded_and_stable():
    def make_p(g):
        return VariableExponent.from_function(g, lambda x: 2.0 + np.sin(2 * np.pi * x) ** 2)

    rep1 = characteristic_norm_check(make_p(Grid(1, 128)), cube_side=1 / 8)
    rep2 = characteristic_norm_check(make_p(Grid(1, 256)), cube_side=1 / 8)
    assert rep1.spread < 3.0
    # refinement moves the measured spread by less than 20 percent
    assert abs(rep2.spread / rep1.spread - 1.0) < 0.2


def test_characteristic_norm_check_validates_side():
    g = Grid(1, 64)
    p = VariableExponent.constant(g, 2.0)
    with pytest.raises(ValueError):
        characteristic_norm_check(p, cube_side=0.013)


@settings(max_examples=10, deadline=None)
@given(scale=st.floats(min_value=0.1, max_value=10.0))
def test_unit_ball_property_hypothesis(scale):
    g = Grid(1, 64)
    f = g.sample(lambda x: scale * (1.0 + np.cos(2 * np.pi * x)))
    p = VariableExponent.from_function(g, lambda x: 1.0 + 2.0 * x)
    lam = norm(f, p)
    assert 1.0 - 1e-8 <= modular(f * (1.0 / lam), p).value <= 1.0


def test_root_solver_contract():
    c = 0.3
    # a step returns its value alone, with no slope, so it has no tangent
    # and every step is a midpoint
    step = lambda lam: 0.0 if lam >= c else 2.0
    root = luxemburg_root(step, 5.0)
    assert step(root) <= 1.0
    assert root - c <= REL_TOL * root
    # a value that never exceeds 1: the walk runs down to the smallest
    # subnormal, which is admissible, and returns 0.0
    assert luxemburg_root(lambda lam: 0.0, 1e-300) == 0.0
    # a start below the root: the walk steps up to 2, then by its squared
    # factor to 8, and bisects down to 5
    step5 = lambda lam: 0.0 if lam >= 5.0 else 2.0
    root = luxemburg_root(step5, 2.0, 1.0)
    assert step5(root) <= 1.0
    assert root - 5.0 <= REL_TOL * root
    # a value that never falls to 1: no bracket, so the root is inf
    assert luxemburg_root(lambda lam: 2.0, 2.0, 1.0) == np.inf
    # a NaN value reads as above 1, in the walk as in the narrowing
    root = luxemburg_root(lambda lam: np.nan if lam < 0.5 else lam**-2, 0.25)
    assert 1.0 <= root < 1.0 / (1.0 - REL_TOL)


def test_root_solver_brackets_from_below():
    # hi need not satisfy value(hi) <= 1: here value(0.2) = 3.375
    c = 0.3
    value = lambda lam: (c / lam) ** 3
    root = luxemburg_root(value, 0.2)
    assert value(root) <= 1.0
    assert abs(root - c) <= REL_TOL * c


@pytest.mark.parametrize("p", [0.02, 0.01])
def test_norm_of_a_spike_at_small_p(p):
    # a one-sample spike of height 1 has norm 64^(-1/p): 4.9e-91 at p = 0.02,
    # 2.4e-181 at p = 0.01, 600 factors of 2 below the start at 1
    g = Grid(1, 64)
    x = np.zeros(g.shape)
    x[5] = 1.0
    P = VariableExponent.constant(g, p)
    lam = norm(GridFunction(g, x), P)
    assert modular(GridFunction(g, x / lam), P).value <= 1.0
    assert modular(GridFunction(g, x / ((1.0 - 2.0 * REL_TOL) * lam)), P).value > 1.0
    assert lam == pytest.approx(64.0 ** (-1.0 / p), rel=1e-12)


@pytest.mark.parametrize("p", [0.05, 0.02, 0.01])
def test_norm_below_the_double_range_raises(p):
    # a spike of height 1e-300 has norm 1e-300 * 64^(-1/p), at most 7.5e-337:
    # no double lam > 0 has modular <= 1, and 0 would divide f by 0
    g = Grid(1, 64)
    x = np.zeros(g.shape)
    x[5] = 1e-300
    with pytest.raises(BracketError, match="below the double range"):
        norm(GridFunction(g, x), VariableExponent.constant(g, p))
    # the same spike next to a p = inf region with a nonzero sample: the
    # norm is that sample's ess-sup, in range
    P = VariableExponent(g, np.where(np.arange(64) == 9, np.inf, p))
    x[9] = 1e-300
    assert norm(GridFunction(g, x), P) == 1e-300


def test_norm_of_a_spike_at_the_top_of_the_range_raises():
    # a 1.79e308 spike at p = 0.004 on 2D N=64 has norm 1.79e308 * 4096^-250,
    # about 1e-595.  f / lam overflows for every lam < 1, where its power
    # does not: read as inf, the walk stopped near 1
    g = Grid(2, 64)
    x = np.zeros(g.shape)
    x[3, 5] = 1.79e308
    with pytest.raises(BracketError, match="below the double range"):
        norm(GridFunction(g, x), VariableExponent.constant(g, 0.004))


@settings(max_examples=60, deadline=None)
@given(
    log_amplitude=st.floats(min_value=-300.0, max_value=300.0),
    log_p=st.floats(min_value=np.log10(0.01), max_value=np.log10(64.0)),
    variable_p=st.booleans(),
    inf_region=st.booleans(),
    dim=st.sampled_from([1, 2]),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_norm_contract_at_extreme_scales(log_amplitude, log_p, variable_p, inf_region, dim, seed):
    # both sides of the solver contract: modular(f/lam) <= 1, and the root
    # exceeds (1 - REL_TOL) lam (luxemburg_root), so a 2 REL_TOL smaller lam
    # is not admissible; amplitudes 1e-300..1e300, p in 0.01..64 (log-uniform,
    # per sample when variable) and, optionally, a p = inf region; the sample
    # shape stays in [0.25, 1] so that every norm is inside the double range
    g = Grid(1, 64) if dim == 1 else Grid(2, 16)
    rng = np.random.default_rng(seed)
    f = GridFunction(g, 10.0**log_amplitude * rng.uniform(0.25, 1.0, g.shape))
    if variable_p:
        log_p = rng.uniform(np.log10(0.01), np.log10(64.0), g.shape)
    p_values = np.clip(np.broadcast_to(10.0**log_p, g.shape), 0.01, 64.0)
    if inf_region:
        p_values = np.where(rng.random(g.shape) < 0.25, np.inf, p_values)
    P = VariableExponent(g, p_values)
    lam = norm(f, P)
    assert 0.0 < lam < np.inf
    assert modular(GridFunction(g, f.samples / lam), P).value <= 1.0
    assert modular(GridFunction(g, f.samples / ((1.0 - 2.0 * REL_TOL) * lam)), P).value > 1.0


def test_root_solver_non_finite_start_is_inf():
    # an overflowed start has no point to walk from: inf, with no evaluation
    c = 0.3
    seen = []

    def value(lam):
        seen.append(lam)
        return (c / lam) ** 3

    assert luxemburg_root(value, np.inf) == np.inf
    assert seen == []


@pytest.mark.parametrize("variable, budget", [(False, 3), (True, 5)])
def test_norm_work_count(monkeypatch, variable, budget):
    # norm gives the root solve its slope: at p = 2 the modular is a power
    # law in lam and every norm of the corpus closes in 3 evaluations, at
    # p = 2 + 0.5 sin in 5
    g = Grid(1, 256)
    x = g.coords[0]
    p = VariableExponent(g, 2.0 + 0.5 * variable * np.sin(2 * np.pi * x))
    counts = []

    def root(value, hi, lo=None):
        counted = []
        lam = luxemburg_root(lambda lam: counted.append(lam) or value(lam), hi, lo)
        counts.append(len(counted))
        return lam

    monkeypatch.setattr(lebesgue, "luxemburg_root", root)
    for f in standard_corpus(g):
        norm(f, p)
    assert len(counts) == 50 and max(counts) <= budget


def _modular_with_slope(a, pv):
    """The modular of a / lam on a measure-1 grid of a.size cells and its
    slope d log value / d log lam = -sum pv t / sum t."""

    def value(lam):
        with np.errstate(over="ignore", invalid="ignore"):
            t = (a / lam) ** pv
            return np.sum(t) / a.size, -np.dot(t, pv) / np.sum(t)

    return value


def test_root_solver_tangent_lands_at_once_on_a_power_law():
    # log value is linear in log lam, so the first tangent is exact: the
    # walk's tangent lands REL_TOL/4 above the root and the next point
    # REL_TOL/2 below it closes the bracket
    c = 0.3
    lams = []

    def value(lam):
        lams.append(lam)
        return (c / lam) ** 3, -3.0

    for start in (1e-6, 1.5 * c, 1e6):
        lams.clear()
        root = luxemburg_root(value, start)
        assert len(lams) <= 3
        assert (c / root) ** 3 <= 1.0
        assert root - c <= REL_TOL * root


@pytest.mark.parametrize(
    "c, start", [(1e100, 1.0), (1e300, 1e-300), (1e-300, 1e300), (1e-250, 1.0)]
)
def test_root_solver_gallops_to_far_roots(c, start):
    # the walk squares its factor on every step, so it crosses the double
    # range in a few steps either way; where (c/lam)^3 overflows to inf or
    # underflows to 0 there is no tangent, and the walk alone moves
    lams = []

    def value(lam):
        lams.append(lam)
        with np.errstate(over="ignore", under="ignore"):
            return np.float64(c / lam) ** 3, -3.0

    root = luxemburg_root(value, start)
    assert len(lams) <= 15
    assert abs(root - c) <= REL_TOL * c
    assert value(root)[0] <= 1.0


def test_root_solver_reaches_both_ends_of_the_double_range():
    # a root at either end of the positive doubles is found, not read as
    # 0.0 or inf: the walk evaluates the smallest subnormal and the largest
    # finite double before it gives up
    tiny, huge = 5e-324, np.finfo(float).max
    assert luxemburg_root(lambda lam: 0.0 if lam >= 2.0 * tiny else 2.0, 1.0) == 2.0 * tiny
    assert luxemburg_root(lambda lam: 0.0 if lam >= huge else 2.0, 1.0) == huge


def test_root_solver_tangent_steps_keep_the_contract():
    # modulars with exponents spread over four decades, from starts far
    # below and far above the root: steps on given slopes keep both sides
    # of the contract.  They take 1023 evaluations
    rng = np.random.default_rng(4)
    tangent_steps = 0
    for _ in range(40):
        a = rng.uniform(0.0, 1.0, 64) ** rng.uniform(0.0, 6.0)
        pv = 10.0 ** rng.uniform(-2.0, 2.0, 64)
        with_slope = _modular_with_slope(a, pv)
        without = lambda lam: with_slope(lam)[0]
        for start in (1e-9, 1e9):
            counted = []
            root = luxemburg_root(lambda lam: counted.append(lam) or with_slope(lam), start)
            tangent_steps += len(counted)
            assert without(root) <= 1.0 < without((1.0 - REL_TOL) * root)
    assert tangent_steps <= 1023


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
    # a step has no tangent: its values 0 and 2 give no chord with a
    # finite, negative slope, so every step is a midpoint
    step = lambda lam: 0.0 if lam >= c else 2.0
    root = luxemburg_root(step, 5.0)
    assert step(root) <= 1.0
    assert root - c <= REL_TOL * root
    # a value that never exceeds 1: the halving runs down to 0.0
    assert luxemburg_root(lambda lam: 0.0, 1e-300) == 0.0
    # a start below the root: the walk doubles up to 8 and bisects down to 5
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
    # a lane given the same hi and no lo, next to a lane that starts above
    roots = luxemburg_root(lambda lam, rows: (c / lam) ** 3, np.array([0.2, 1.0]))
    assert np.all(value(roots) <= 1.0)
    assert np.all(np.abs(roots - c) <= REL_TOL * c)


@pytest.mark.parametrize("p", [0.02, 0.01])
def test_norm_of_a_spike_at_small_p(p):
    # a one-sample spike of height 1 has norm 64^(-1/p): 4.9e-91 at p = 0.02,
    # 2.4e-181 at p = 0.01, more than 200 halvings below the start at 1
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
    # an overflowed start has no point to halve from: inf, with no
    # evaluation, alone and as one lane of several
    c = 0.3
    seen = []

    def value(lam, rows=None):
        seen.append(lam)
        return (c / lam) ** 3

    assert luxemburg_root(value, np.inf) == np.inf
    assert seen == []
    roots = luxemburg_root(value, np.array([np.inf, 1.0]), np.array([np.inf, 0.5]))
    assert roots[0] == np.inf
    assert abs(roots[1] - c) <= REL_TOL * c
    assert all(len(lams) == 1 for lams in seen)


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


def test_root_solver_power_law_lands_at_once():
    # log value is linear in log lam, so the first chord slope is exact and
    # its step hits the root
    c = 0.3
    lams = []

    def value(lam):
        lams.append(lam)
        return (c / lam) ** 3

    root = luxemburg_root(value, 1.5 * c)
    assert len(lams) <= 4
    assert len(set(lams)) == len(lams)
    assert abs(root - c) <= REL_TOL * c
    assert (c / root) ** 3 <= 1.0


def test_root_solver_lanes_match_one_lane_calls():
    # a lane takes exactly the steps of a one-lane call, bit for bit
    rng = np.random.default_rng(11)
    a = rng.uniform(0.0, 2.0, size=(6, 64)) ** 3
    a[0, 1:] = 0.0  # a power law in lam: this lane closes early
    pv = rng.uniform(0.3, 5.0, size=64)
    hi = a.max(axis=1)
    calls = []

    def lanes(lam, rows):
        calls.append(rows.tolist())
        return np.sum((a[rows] / lam[:, None]) ** pv, axis=1) / 64.0

    roots = luxemburg_root(lanes, hi)
    one_lane = [
        luxemburg_root(lambda lam, r=r: np.sum((a[r] / lam) ** pv) / 64.0, h)
        for r, h in enumerate(hi.tolist())
    ]
    assert roots.tolist() == one_lane
    assert all(len(rows) > 0 for rows in calls)
    assert len(calls[-1]) < len(hi)  # closed lanes are not evaluated again


def test_root_solver_lanes_from_warm_brackets():
    # lanes warm-started inside their brackets land like cold ones; a lo
    # that is not below the root falls back to halving from there
    c = np.array([0.3, 2.0, 5.0])
    lams = []

    def lanes(lam, rows):
        lams.append(lam)
        return (c[rows] / lam) ** 3

    hi = np.array([0.3 * (1 + 1e-9), 2.5, 50.0])
    lo = np.array([0.3 * (1 - 1e-9), 1.0, 20.0])
    roots = luxemburg_root(lanes, hi, lo)
    assert np.all((c / roots) ** 3 <= 1.0)
    assert np.all(roots - c <= REL_TOL * roots)
    assert lams[0].tolist() == lo.tolist()  # no halving before a warm lo


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


def test_root_solver_tangent_steps_keep_the_contract():
    # modulars with exponents spread over four decades, from starts far
    # below and far above the root: steps on given slopes and on chord
    # slopes (a value returned alone) both keep both sides of the contract
    # and agree within REL_TOL.  They take 1510 and 2224 evaluations
    rng = np.random.default_rng(4)
    chord_steps = tangent_steps = 0
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
            counted.clear()
            chord = luxemburg_root(lambda lam: counted.append(lam) or without(lam), start)
            chord_steps += len(counted)
            assert without(chord) <= 1.0 < without((1.0 - REL_TOL) * chord)
            assert abs(root - chord) <= REL_TOL * chord
    assert tangent_steps <= 1510 and chord_steps <= 2224


def test_root_solver_tangent_lanes_match_one_lane_calls():
    # with slopes too, a lane takes exactly the steps of a one-lane call
    rng = np.random.default_rng(12)
    a = rng.uniform(0.0, 2.0, size=(6, 64)) ** 3
    pv = rng.uniform(0.3, 5.0, size=64)
    hi = a.max(axis=1)

    def lanes(lam, rows):
        t = (a[rows] / lam[:, None]) ** pv
        return t.sum(axis=1) / 64.0, -(t @ pv) / t.sum(axis=1)

    roots = luxemburg_root(lanes, hi)
    one_lane = [luxemburg_root(_modular_with_slope(a[r], pv), h) for r, h in enumerate(hi.tolist())]
    assert roots.tolist() == one_lane

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vexspaces import (
    FunctionSequence,
    Grid,
    GridFunction,
    VariableExponent,
    modular,
)
from vexspaces import norm as lebesgue_norm
from vexspaces.analysis import admissible_system
from vexspaces.lebesgue import REL_TOL, luxemburg_root
from vexspaces.mixed import (
    BracketError,
    _scaled_hurwitz_zeta,
    convolution_inequality_report,
    eta_integrability_probe,
    eta_kernel,
    iterated_constant_q_norm,
    lp_lq_norm,
    lq_lp_modular,
    lq_lp_norm,
    mixed_embedding_check,
    pointwise_lq,
    smooth_sequence,
    smoothing_constants,
)
from vexspaces.spaces import SpaceSpec, quasi_norm, weighted_blocks
from vexspaces.weights import make_variable_smoothness

from conftest import random_band_limited


def random_sequence(grid, rng, levels=4, kmax=6, positive=False):
    entries = []
    for _ in range(levels + 1):
        f = random_band_limited(grid, rng, kmax=kmax)
        if positive:
            f = GridFunction(grid, np.abs(f.samples) + 0.1)
        entries.append(f)
    return FunctionSequence(entries)


def varying_p(grid):
    return VariableExponent.from_function(
        grid, lambda *x: 1.5 + 0.4 * np.sin(2 * np.pi * x[0])
    )


def varying_q(grid):
    return VariableExponent.from_function(
        grid, lambda *x: 2.0 + 0.5 * np.cos(2 * np.pi * x[0])
    )


# ---------------------------------------------------------------- eta kernels


def brute_force_eta_1d(grid, level, decay, radius=300):
    x = grid.coords[0]
    c = 2.0 ** (-level)
    pref = 2.0 ** (level * (1.0 - decay))
    total = np.zeros(grid.shape)
    for k in range(-radius, radius + 1):
        total += pref * (c + np.abs(x + k)) ** (-decay)
    return total


def test_eta_1d_matches_truncated_image_sum(grid64):
    ker = eta_kernel(grid64, level=3, decay=8.0)
    brute = brute_force_eta_1d(grid64, 3, 8.0)
    assert ker.truncation_radius == -1  # closed form
    assert np.max(np.abs(ker.samples.samples - brute)) <= 1e-12 * np.max(brute)


def scaled_zeta_oracle(s, a, cut=4096):
    """a^s zeta(s, a): the first `cut` terms summed exactly, then the
    integral of (a + t)^-s beyond the cut-off with the trapezoid half term
    and its first Euler-Maclaurin correction (error O(cut^(-s-3)))."""
    head = math.fsum((a / (a + np.arange(cut, dtype=float))) ** s)
    b = a + cut
    return head + (a / b) ** s * (b / (s - 1.0) + 0.5 + s / (12.0 * b))


def test_scaled_hurwitz_zeta_matches_partial_sums():
    # dyadic a keeps every a + k exact, so each oracle term is one rounding
    # of a / (a + k) and one of the power
    s_values = (1.001, 1.01, 1.1, 1.5, 2.0, 3.0, 4.5, 8.0, 16.0, 40.0, 120.0)
    a_values = np.array([2.0**-15, 2.0**-9, 3 * 2.0**-8, 0.25, 0.5 + 2.0**-15, 1.0, 1.375,
                         2.0 - 2.0**-15, 2.0])
    for s in s_values:
        got = _scaled_hurwitz_zeta(s, a_values)
        want = np.array([scaled_zeta_oracle(s, a) for a in a_values])
        assert np.max(np.abs(got / want - 1.0)) <= 2e-15, s


@pytest.mark.parametrize("decay", [1.5, 2.0])
def test_eta_1d_slow_decay_matches_image_sum_with_tail(grid64, decay):
    # at slow decay the truncated image sum misses a visible tail; beyond
    # radius r the images sum to the integral from r + 1/2 (midpoint rule)
    # within (R/24) r^(-R-1) per side
    radius, level = 2**14, 3
    x, c = grid64.coords[0], 2.0**-level
    pref = 2.0 ** (level * (1.0 - decay))
    tail = pref * ((c + x + radius + 0.5) ** (1.0 - decay)
                   + (c - x + radius + 0.5) ** (1.0 - decay)) / (decay - 1.0)
    brute = brute_force_eta_1d(grid64, level, decay, radius=radius) + tail
    ker = eta_kernel(grid64, level=level, decay=decay)
    assert np.max(np.abs(ker.samples.samples - brute)) <= 1e-12 * np.max(brute)


def test_eta_1d_steep_decay_is_finite():
    # (2^nu a)^-R underflows to 0 before it multiplies the scaled zeta, so no
    # 0 * inf appears where zeta(R, a) alone would overflow
    ker = eta_kernel(Grid(1, 256), level=3, decay=400.0)
    vals = ker.samples.samples
    assert np.all(np.isfinite(vals)) and np.all(vals >= 0.0)
    assert vals.max() > 0.0


def test_eta_mass_matches_analytic(grid256):
    # total mass survives periodization: integral over the torus equals
    # int_R 2^nu (1 + 2^nu |x|)^(-R) dx = 2 / (R - 1); the kink at the
    # origin limits midpoint quadrature to O(h^2), so check the rate too
    mass = 2.0 / 3.0
    err_coarse = abs(eta_kernel(grid256, level=2, decay=4.0).l1_norm() - mass)
    err_fine = abs(eta_kernel(Grid(1, 1024), level=2, decay=4.0).l1_norm() - mass)
    assert err_coarse < 5e-4 * mass
    assert err_fine < err_coarse / 3.0


def test_eta_2d_ring_sum_vs_brute_force():
    grid = Grid(2, 16)
    ker = eta_kernel(grid, level=1, decay=8.0)
    x, y = grid.coords
    c, pref = 0.5, 2.0 ** (1 * (2.0 - 8.0))
    brute = np.zeros(grid.shape)
    for ox in range(-80, 81):
        for oy in range(-80, 81):
            brute += pref * (c + np.sqrt((x + ox) ** 2 + (y + oy) ** 2)) ** (-8.0)
    # the ring sum stops early; everything it dropped is covered by tail_bound
    assert np.max(np.abs(ker.samples.samples - brute)) <= ker.tail_bound + 1e-15
    assert ker.tail_bound < 1e-8


def test_eta_rejects_nonintegrable_decay(grid64):
    with pytest.raises(ValueError, match="not integrable"):
        eta_kernel(grid64, level=0, decay=1.0)
    with pytest.raises(ValueError, match="not integrable"):
        eta_kernel(Grid(2, 16), level=0, decay=2.0)
    # the probe documents the divergence instead: mass keeps growing
    m8, m64 = eta_integrability_probe(grid64, level=0, decay=1.0)
    assert m64 > 1.3 * m8


def test_eta_convolution_of_constant_is_mass(grid64):
    ker = eta_kernel(grid64, level=2, decay=6.0)
    one = GridFunction(grid64, np.ones(grid64.shape))
    out = ker.convolve(one)
    assert np.allclose(np.real(out.samples), ker.l1_norm(), rtol=1e-12)
    assert np.max(np.abs(np.imag(out.samples))) < 1e-12


# ------------------------------------------------------------- mixed modulars


def test_inner_infimum_dual_route(grid64):
    rng = np.random.default_rng(11)
    F = random_sequence(grid64, rng, levels=3)
    p, q = varying_p(grid64), varying_q(grid64)
    fast = lq_lp_modular(F, p, q)
    general = lq_lp_modular(F, p, q, force_general=True)
    assert general == pytest.approx(fast, rel=1e-8)


def test_iterated_identity_constant_q(grid64):
    rng = np.random.default_rng(12)
    F = random_sequence(grid64, rng, levels=4)
    p = varying_p(grid64)
    for q_const in (1.0, 2.0, np.inf):
        q = VariableExponent.constant(grid64, q_const)
        direct = lq_lp_norm(F, p, q)
        factored = iterated_constant_q_norm(F, p, q_const)
        assert direct == pytest.approx(factored, rel=1e-9)


def test_same_exponent_routes_agree(grid64):
    # q = p collapses both scales to the same modular, hence the same norm
    rng = np.random.default_rng(13)
    F = random_sequence(grid64, rng, levels=3)
    p = varying_p(grid64)
    assert lp_lq_norm(F, p, p) == pytest.approx(lq_lp_norm(F, p, p), rel=1e-10)


def test_power_reduction_identity(grid64):
    rng = np.random.default_rng(14)
    F = random_sequence(grid64, rng, levels=3)
    p, q = varying_p(grid64), varying_q(grid64)
    r = 0.5
    Fr = FunctionSequence.from_stack(grid64, F.abs_stack() ** r)
    lhs = lq_lp_norm(F, p, q) ** r
    rhs = lq_lp_norm(Fr, p.divided_by(r), q.divided_by(r))
    assert lhs == pytest.approx(rhs, rel=1e-9)


def test_unit_ball_normalization(grid64):
    rng = np.random.default_rng(15)
    F = random_sequence(grid64, rng, levels=3)
    p, q = varying_p(grid64), varying_q(grid64)
    mu = lq_lp_norm(F, p, q)
    value = lq_lp_modular(F.scaled(1.0 / mu), p, q)
    assert 1.0 - 1e-8 <= value <= 1.0 + 1e-12


def test_single_level_reduces_to_lebesgue(grid64):
    rng = np.random.default_rng(16)
    f = random_band_limited(grid64, rng)
    zero = grid64.zeros()
    F = FunctionSequence([zero, zero, f, zero])
    p, q = varying_p(grid64), varying_q(grid64)
    target = lebesgue_norm(f, p)
    assert lq_lp_norm(F, p, q) == pytest.approx(target, rel=1e-11)
    assert lp_lq_norm(F, p, q) == pytest.approx(target, rel=1e-11)


def test_homogeneity(grid64):
    rng = np.random.default_rng(17)
    F = random_sequence(grid64, rng, levels=2)
    p, q = varying_p(grid64), varying_q(grid64)
    base = lq_lp_norm(F, p, q)
    assert lq_lp_norm(F.scaled(7.5), p, q) == pytest.approx(7.5 * base, rel=1e-10)


@pytest.mark.parametrize("q0", [2.5, 16.0, 64.0])
def test_lp_lq_norm_homogeneous_at_extreme_amplitudes(grid64, q0):
    # the pointwise l_q sum is scaled by the level maximum, so |f|^q can
    # neither underflow to 0 nor overflow to inf
    rng = np.random.default_rng(18)
    F = random_sequence(grid64, rng, levels=3)
    x = grid64.coords[0]
    p = VariableExponent(grid64, 2.0 + 0.5 * np.sin(2 * np.pi * x))
    q = VariableExponent(grid64, q0 * (1.0 + 0.1 * np.cos(2 * np.pi * x)))
    base = lp_lq_norm(F, p, q)
    for amplitude in (1e-300, 1e-150, 1e-100, 1e100, 1e150, 1e300):
        scaled = lp_lq_norm(F.scaled(amplitude), p, q)
        assert scaled == pytest.approx(amplitude * base, rel=2 * REL_TOL)


def test_infinite_q_region_case_split(grid64):
    # q = inf on half the torus: a level supported there with small values
    # contributes 0 to the modular, large values make it infinite
    x = grid64.coords[0]
    q = VariableExponent(grid64, np.where(x < 0.5, np.inf, 2.0))
    p = VariableExponent.constant(grid64, 2.0)
    left = GridFunction(grid64, np.where(x < 0.5, 0.5, 0.0))
    F = FunctionSequence([left])
    assert lq_lp_modular(F, p, q) == 0.0
    assert lq_lp_modular(F.scaled(10.0), p, q) == np.inf
    # the norm still resolves: scaling until the ess-sup constraint binds
    assert lq_lp_norm(F, p, q) > 0.0


# ------------------------------------------------------------------ couplings


def test_smooth_sequence_geometric_oracle(grid64):
    ones = GridFunction(grid64, np.ones(grid64.shape))
    F = FunctionSequence([ones] * 6)
    G = smooth_sequence(F, 1.0)
    for nu in range(6):
        expected = sum(2.0 ** (-abs(k - nu)) for k in range(6))
        assert np.allclose(G[nu].samples, expected, rtol=1e-13)


def test_smooth_sequence_rejects_bad_input(grid64):
    f = GridFunction(grid64, -np.ones(grid64.shape))
    with pytest.raises(ValueError, match="nonnegative"):
        smooth_sequence(FunctionSequence([f]), 1.0)
    g = GridFunction(grid64, np.ones(grid64.shape))
    with pytest.raises(ValueError, match="delta"):
        smooth_sequence(FunctionSequence([g]), 0.0)


def test_coupling_respects_minkowski_bound(grid64):
    rng = np.random.default_rng(18)
    p = VariableExponent.constant(grid64, 2.0)
    q = VariableExponent.constant(grid64, 2.0)
    for delta in (0.5, 1.0, 2.0):
        bound, _ = smoothing_constants(delta)
        for _ in range(5):
            F = random_sequence(grid64, rng, levels=5, positive=True)
            ratio = lp_lq_norm(smooth_sequence(F, delta), p, q) / lp_lq_norm(F, p, q)
            assert ratio <= bound * (1.0 + 1e-9)


def test_modular_bound_with_proof_constant(grid64):
    rng = np.random.default_rng(19)
    p, q = varying_p(grid64), varying_q(grid64)  # both >= 1 pointwise
    _, c_mod = smoothing_constants(1.0)
    for _ in range(5):
        F = random_sequence(grid64, rng, levels=5, positive=True)
        G = smooth_sequence(F, 1.0)
        mu = lq_lp_norm(F, p, q)
        assert lq_lp_modular(G.scaled(1.0 / (c_mod * mu)), p, q) <= 1.0 + 1e-9


# ----------------------------------------------------------------- embeddings


def test_monotone_embeddings_have_constant_one(grid64):
    rng = np.random.default_rng(20)
    p = varying_p(grid64)
    q0 = VariableExponent.from_function(
        grid64, lambda x: 1.2 + 0.5 * np.sin(2 * np.pi * x) ** 2
    )
    q1 = VariableExponent(grid64, q0.values + 1.0)
    for _ in range(5):
        F = random_sequence(grid64, rng, levels=3)
        rep = mixed_embedding_check(F, p, q0, q1)
        assert rep.c_lp_lq_monotone <= 1.0 + 1e-9
        assert rep.c_lq_lp_monotone <= 1.0 + 1e-9


def test_sandwich_constant_exponents(grid64):
    # for constant p, q both sandwich embeddings hold with constant 1
    rng = np.random.default_rng(21)
    p = VariableExponent.constant(grid64, 2.5)
    q = VariableExponent.constant(grid64, 1.5)
    for _ in range(3):
        F = random_sequence(grid64, rng, levels=3)
        rep = mixed_embedding_check(F, p, q, q)
        assert rep.c_sandwich_in <= 1.0 + 1e-9
        assert rep.c_sandwich_out <= 1.0 + 1e-9


def test_embedding_check_rejects_unordered_q(grid64):
    rng = np.random.default_rng(22)
    F = random_sequence(grid64, rng, levels=2)
    p = varying_p(grid64)
    q0 = VariableExponent.constant(grid64, 2.0)
    q1 = VariableExponent.constant(grid64, 1.5)
    with pytest.raises(ValueError, match="q0 <= q1"):
        mixed_embedding_check(F, p, q0, q1)


# -------------------------------------------------------------------- reports


def test_convolution_inequality_report(grid64):
    rng = np.random.default_rng(23)
    F = random_sequence(grid64, rng, levels=4, positive=True)
    p, q = varying_p(grid64), varying_q(grid64)
    rep = convolution_inequality_report(F, p, q, delta=1.0, decay=4.0)
    assert rep.modular_applicable  # p, q >= 1 pointwise
    assert not rep.minkowski_applicable  # q varies
    assert rep.modular_value <= 1.0 + 1e-9
    assert 0.0 < rep.c_coupling_lp_lq < np.inf
    assert 0.0 < rep.c_eta_lq_lp < np.inf
    assert rep.eta_b_applicable  # decay 4 > 1 + c_log(1/q)
    assert rep.eta_f_applicable  # 1 < 1.1 <= p <= 1.9 < inf, same shape for q
    assert rep.clog_inv_q > 0.0


def test_report_minkowski_flag_constant_q(grid64):
    rng = np.random.default_rng(24)
    F = random_sequence(grid64, rng, levels=3, positive=True)
    p = VariableExponent.constant(grid64, 2.0)
    q = VariableExponent.constant(grid64, 3.0)
    rep = convolution_inequality_report(F, p, q, delta=1.0, decay=4.0)
    assert rep.minkowski_applicable
    assert rep.c_coupling_lp_lq <= rep.minkowski_bound * (1.0 + 1e-9)
    assert rep.eta_f_applicable


def test_mixed_norms_2d_smoke(grid2d):
    rng = np.random.default_rng(25)
    F = random_sequence(grid2d, rng, levels=2, kmax=3)
    p = VariableExponent.from_function(
        grid2d, lambda x, y: 2.0 + 0.5 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)
    )
    q = VariableExponent.constant(grid2d, 2.0)
    direct = lq_lp_norm(F, p, q)
    assert direct == pytest.approx(iterated_constant_q_norm(F, p, 2.0), rel=1e-9)
    assert lp_lq_norm(F, p, q) > 0.0


def test_lq_lp_norm_bracket_failure_raises():
    g = Grid(1, 16)
    F = FunctionSequence([GridFunction(g, np.ones(g.shape)) for _ in range(8)])
    two = VariableExponent.constant(g, 2.0)
    tiny = VariableExponent.constant(g, 0.001)
    # the modular of F/mu is 8 mu^-0.001, still 6.97 at the last bracket
    # candidate mu = 2^199
    with pytest.raises(ArithmeticError, match="bracket"):
        lq_lp_norm(F, two, tiny)


def test_levels_below_the_double_range_add_zero():
    # a level of one 1e-20 sample next to a flat level: at q = 16 its
    # infimum is below the double range, so it adds 0 to the modular, and
    # the norm is that of the flat level alone; a whole sequence below the
    # range raises as lebesgue.norm does
    g = Grid(2, 16)
    stack = np.zeros((2,) + g.shape)
    stack[0] = 1.0
    stack[1, 5, 5] = 1e-20
    F = FunctionSequence.from_stack(g, stack)
    two = VariableExponent.constant(g, 2.0)
    q = VariableExponent(g, 16.0 + 0.5 * np.cos(2 * np.pi * g.coords[0]))
    lam = lq_lp_norm(F, two, q)
    assert lam == pytest.approx(1.0, rel=4.0 * REL_TOL)
    assert lq_lp_modular(F.scaled(1.0 / lam), two, q) <= 1.0
    spike = np.zeros((2,) + g.shape)
    spike[0, 3, 4] = 1e-300
    tiny = VariableExponent.constant(g, 0.01)
    with pytest.raises(BracketError, match="below the double range"):
        lq_lp_norm(FunctionSequence.from_stack(g, spike), tiny, q)


def test_modular_overflow_is_inf_on_both_routes():
    # |f|^2 of a 1e200 level overflows a double: the closed route gives inf,
    # as the defining root solve does, instead of refusing the samples
    g = Grid(1, 16)
    F = FunctionSequence([GridFunction(g, np.full(g.shape, 1e200))])
    two = VariableExponent.constant(g, 2.0)
    assert lq_lp_modular(F, two, two) == np.inf
    assert lq_lp_modular(F, two, two, force_general=True) == np.inf


def test_ratios_of_a_zero_sequence_are_nan():
    # 0/0 says nothing about an embedding constant, so it is not reported as 0
    g = Grid(1, 16)
    Z = FunctionSequence([g.zeros(), g.zeros()])
    two = VariableExponent.constant(g, 2.0)
    three = VariableExponent.constant(g, 3.0)
    rep = mixed_embedding_check(Z, two, two, three)
    assert all(np.isnan(c) for c in dataclasses.astuple(rep))
    rep = convolution_inequality_report(Z, two, two, delta=1.0, decay=4.0)
    ratios = (rep.c_coupling_lp_lq, rep.c_coupling_lq_lp, rep.c_eta_lp_lq, rep.c_eta_lq_lp)
    assert all(np.isnan(c) for c in ratios)


@settings(max_examples=20, deadline=None)
@given(
    amplitude=st.floats(min_value=1e-3, max_value=1e3),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_mixed_unit_ball_property_hypothesis(amplitude, seed):
    g = Grid(1, 64)
    rng = np.random.default_rng(seed)
    F = random_sequence(g, rng, levels=3).scaled(amplitude)
    x = g.coords[0]
    p = VariableExponent(g, 1.5 + 0.5 * np.sin(2 * np.pi * x + rng.uniform(0, 2 * np.pi)))
    q = VariableExponent(g, 2.0 + 0.8 * np.cos(2 * np.pi * x + rng.uniform(0, 2 * np.pi)))
    mu = lq_lp_norm(F, p, q)
    assert 1.0 - 1e-8 <= lq_lp_modular(F.scaled(1.0 / mu), p, q) <= 1.0


def _wide_exponent(rng, grid, variable, inf_region):
    """Log-uniform in 0.1..16, constant or per sample; inf on ~1/4 of the
    samples when inf_region is set."""
    log_range = np.log10(0.1), np.log10(16.0)
    values = 10.0 ** rng.uniform(*log_range, grid.shape if variable else None)
    values = np.clip(np.broadcast_to(values, grid.shape), 0.1, 16.0)
    if inf_region:
        values = np.where(rng.random(grid.shape) < 0.25, np.inf, values)
    return VariableExponent(grid, values)


@settings(max_examples=60, deadline=None)
@given(
    log_amplitude=st.floats(min_value=-300.0, max_value=300.0),
    variable_p=st.booleans(),
    variable_q=st.booleans(),
    inf_regions=st.sampled_from([False, False, False, True]),
    dim=st.sampled_from([1, 2]),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_mixed_norm_contracts_at_extreme_scales(
    log_amplitude, variable_p, variable_q, inf_regions, dim, seed
):
    # both sides of the root contract, modular(F/lam) <= 1 and
    # modular(F/((1 - k REL_TOL) lam)) > 1, for amplitudes 1e-300..1e300
    # with the sample shape in [0.25, 1] and random signs.  lp_lq_norm is
    # one lebesgue.norm of pointwise_lq, so k = 2 as for that solver.
    # lq_lp_norm divides its lane sum by (1 - REL_TOL), and the modular
    # moves only by about q dlam/lam, so k = 2 + 4/q^-.
    g = Grid(1, 64) if dim == 1 else Grid(2, 16)
    rng = np.random.default_rng(seed)
    shape = rng.uniform(0.25, 1.0, (4,) + g.shape) * rng.choice([-1.0, 1.0], (4,) + g.shape)
    F = FunctionSequence.from_stack(g, 10.0**log_amplitude * shape)
    p = _wide_exponent(rng, g, variable_p, inf_regions)
    q = _wide_exponent(rng, g, variable_q, inf_regions)

    inner = pointwise_lq(F.abs_stack(), q.values)
    lp_lq_modular = lambda lam: modular(GridFunction(g, inner / lam), p).value

    lam = lp_lq_norm(F, p, q)
    assert lp_lq_modular(lam) <= 1.0 < lp_lq_modular((1.0 - 2.0 * REL_TOL) * lam)

    lam = lq_lp_norm(F, p, q)
    k = 2.0 + 4.0 / q.p_minus
    assert lq_lp_modular(F.scaled(1.0 / lam), p, q) <= 1.0
    assert lq_lp_modular(F.scaled(1.0 / ((1.0 - k * REL_TOL) * lam)), p, q) > 1.0


@settings(max_examples=40, deadline=None)
@given(
    log_amplitude=st.floats(min_value=-300.0, max_value=300.0),
    variable_p=st.booleans(),
    inf_region=st.sampled_from([False, False, False, True]),
    dim=st.sampled_from([1, 2]),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_lq_lp_norm_monotone_in_q_at_extreme_scales(log_amplitude, variable_p, inf_region, dim, seed):
    # for q0 <= q1 pointwise every level infimum can only fall, so the
    # l_q1(L_p) norm is at most the l_q0(L_p) norm.  Both q are variable, so
    # both norms take the lane route with tangent steps; that route must
    # also agree with the outer root solve over the defining infimum
    # (lq_lp_modular with force_general, chord steps).  p may have a
    # p = inf region, whose levels are ess-sups.  Each computed norm lies
    # within k REL_TOL above its root, k = 2 + 4/q^- as in the contract
    # test above, so that is the slack of both comparisons (the two routes
    # differed by up to 10 REL_TOL at q^- = 0.1 before tangent steps too).
    g = Grid(1, 64) if dim == 1 else Grid(2, 16)
    rng = np.random.default_rng(seed)
    shape = rng.uniform(0.25, 1.0, (4,) + g.shape) * rng.choice([-1.0, 1.0], (4,) + g.shape)
    F = FunctionSequence.from_stack(g, 10.0**log_amplitude * shape)
    p = _wide_exponent(rng, g, variable_p, inf_region)
    q0 = _wide_exponent(rng, g, True, False)
    q1 = VariableExponent(g, np.minimum(q0.values * rng.uniform(1.0, 3.0, g.shape), 16.0))
    assert np.all(q1.values >= q0.values)

    k = 2.0 + 4.0 / q0.p_minus
    lam0, lam1 = lq_lp_norm(F, p, q0), lq_lp_norm(F, p, q1)
    assert lam1 <= lam0 * (1.0 + k * REL_TOL)

    peak = max(f.max_abs() for f in F)
    general = luxemburg_root(
        lambda mu: lq_lp_modular(F.scaled(1.0 / mu), p, q1, force_general=True), 2.0 * peak, peak
    )
    assert lam1 == pytest.approx(general, rel=(2.0 + 4.0 / q1.p_minus) * REL_TOL)


@settings(max_examples=40, deadline=None)
@given(
    log_amplitude=st.floats(min_value=-300.0, max_value=300.0),
    scale=st.sampled_from(["B", "F"]),
    variable_p=st.booleans(),
    variable_q=st.booleans(),
    inf_regions=st.sampled_from([False, False, False, True]),
    dim=st.sampled_from([1, 2]),
    seed=st.integers(min_value=0, max_value=2**16),
)
# constant p and q, where lq_lp_modular(F/lam) reached 1 + 2.5e-14 while
# the constant-q route aimed only REL_TOL/4 above its root in the modular
@example(log_amplitude=0.0, scale="B", variable_p=False, variable_q=False,
         inf_regions=False, dim=2, seed=30)
@example(log_amplitude=7.0, scale="B", variable_p=False, variable_q=False,
         inf_regions=False, dim=1, seed=265)
@example(log_amplitude=-50.0, scale="B", variable_p=False, variable_q=False,
         inf_regions=False, dim=1, seed=162)
def test_quasi_norm_contracts_at_extreme_scales(
    log_amplitude, scale, variable_p, variable_q, inf_regions, dim, seed
):
    # the same two-sided root contract for both quasi_norm scales, on the
    # mixed norm of weighted_blocks(f, spec) with that norm's k (2 + 4/q^-
    # for B, 2 for F), and homogeneity quasi_norm(c f) = c quasi_norm(f)
    # within k REL_TOL.  The F-scale needs p^+, q^+ < inf, so only B-scale
    # draws get inf regions.
    g = Grid(1, 64) if dim == 1 else Grid(2, 16)
    J = 3
    rng = np.random.default_rng(seed)
    shape = rng.uniform(0.25, 1.0, g.shape) * rng.choice([-1.0, 1.0], g.shape)
    c = 10.0**log_amplitude
    p = _wide_exponent(rng, g, variable_p, inf_regions and scale == "B")
    q = _wide_exponent(rng, g, variable_q, inf_regions and scale == "B")
    w = make_variable_smoothness(g, J, lambda *x: 0.5 + 0.25 * np.sin(2.0 * np.pi * x[0]))
    spec = SpaceSpec(scale, p, q, w, admissible_system(g, J), J)

    f = GridFunction(g, c * shape)
    lam = quasi_norm(f, spec)
    blocks = weighted_blocks(f, spec)
    if scale == "B":
        k = 2.0 + 4.0 / q.p_minus
        assert lq_lp_modular(blocks.scaled(1.0 / lam), p, q) <= 1.0
        assert lq_lp_modular(blocks.scaled(1.0 / ((1.0 - k * REL_TOL) * lam)), p, q) > 1.0
    else:
        k = 2.0
        inner = pointwise_lq(blocks.abs_stack(), q.values)
        assert modular(GridFunction(g, inner / lam), p).value <= 1.0
        assert modular(GridFunction(g, inner / ((1.0 - k * REL_TOL) * lam)), p).value > 1.0
    assert lam == pytest.approx(c * quasi_norm(GridFunction(g, shape), spec), rel=k * REL_TOL)


from dataclasses import replace

import numpy as np
import pytest

from vexspaces import Grid, GridFunction, VariableExponent, exponents, mixed, spaces
from vexspaces.analysis import (
    MultiplierSymbol,
    admissible_system,
    apply_multiplier,
    bump_kernel,
    general_system,
    kernel_hat,
    lift,
    schwartz_seminorm,
)
from vexspaces.exponents import _clog_inv, pointwise_max, pointwise_min
from vexspaces.grid import quadrature
from vexspaces.lebesgue import norm as lebesgue_norm
from vexspaces.spaces import (
    EquivalenceReport,
    MultiplierReport,
    SpaceSpec,
    _band,
    _torus_gauss,
    bessel_scale_multiplier_check,
    bf_sandwich_check,
    derivative_sum_check,
    lifting_check,
    local_means_equivalence_check,
    maximal_equivalence_check,
    maximal_threshold,
    multiplier_bound_checks,
    multiplier_order_threshold,
    pair_independence_check,
    q_monotone_embedding_check,
    quasi_norm,
    quasi_norm_local_means,
    quasi_norm_maximal,
    quasi_triangle_probe,
    schwartz_embedding_checks,
    sobolev_cross_check,
    standard_corpus,
    weight_pair_embedding_check,
    weighted_blocks,
)
from vexspaces.weights import make_2microlocal, make_generalized, make_variable_smoothness

J = 6


@pytest.fixture
def setup(grid64):
    sys = admissible_system(grid64, J, "plateau")
    pv = VariableExponent.from_function(
        grid64, lambda x: 1.8 + 0.3 * np.sin(2.0 * np.pi * x)
    )
    qv = VariableExponent.from_function(
        grid64, lambda x: 2.2 + 0.4 * np.cos(2.0 * np.pi * x)
    )
    w = make_generalized(grid64, J, 2.0 ** (0.5 * np.arange(J + 1, dtype=float)))
    return sys, pv, qv, w


def small_corpus(grid):
    return standard_corpus(grid)[:6]


# ---------------------------------------------------------------- SpaceSpec


def test_spec_validation(grid64, setup):
    sys, pv, qv, w = setup
    p_inf = VariableExponent.constant(grid64, np.inf)
    with pytest.raises(ValueError, match="F-scale"):
        SpaceSpec("F", p_inf, qv, w, sys, J)
    with pytest.raises(ValueError, match="scale"):
        SpaceSpec("X", pv, qv, w, sys, J)
    with pytest.raises(ValueError, match="J must lie"):
        SpaceSpec("B", pv, qv, w, sys, J + 1)
    with pytest.raises(ValueError, match="fewer levels"):
        SpaceSpec("B", pv, qv, w.truncated(2), sys, J)
    other = Grid(1, 128)
    with pytest.raises(ValueError, match="share one grid"):
        SpaceSpec("B", pv.refine(other), qv, w, sys, J)


def _varsmooth(grid):
    return make_variable_smoothness(grid, J, lambda x: 0.5 + 0.25 * np.sin(2.0 * np.pi * x))


def test_spec_refine(grid64, setup):
    sys, pv, qv, _ = setup
    spec = SpaceSpec("B", pv, qv, _varsmooth(grid64), sys, J)
    g = Grid(1, 128)
    fine = spec.refine(g)
    assert fine.grid.n == 128 and fine.J == J
    assert fine.system.metadata["profile"] == "plateau"
    assert fine.w.levels[3].shape == (128,)
    # built once per grid, and bit-identical to a fresh refinement
    assert spec.refine(Grid(1, 128)) is fine
    assert spec.refine(Grid(1, 256)) is not fine
    fresh = SpaceSpec(
        spec.scale, pv.refine(g), qv.refine(g), spec.w.refine(g), sys.refine(g), J
    )
    declared = lambda s: (
        s.scale, s.J, s.w.declared_alpha, s.w.declared_alpha1, s.w.declared_alpha2, s.w.declared_c
    )
    assert declared(fine) == declared(fresh)
    assert np.array_equal(fine.p.values, fresh.p.values)
    assert np.array_equal(fine.q.values, fresh.q.values)
    assert all(np.array_equal(a, b) for a, b in zip(fine.w.levels, fresh.w.levels))
    assert all(np.array_equal(a, b) for a, b in zip(fine.system.masks, fresh.system.masks))


def test_replaced_spec_refines_its_own_ingredients(grid64, setup):
    sys, pv, qv, w = setup
    spec = SpaceSpec("B", pv, qv, w, sys, J)
    g = Grid(1, 128)
    spec.refine(g)
    other = _varsmooth(grid64)
    fine = replace(spec, w=other).refine(g)
    assert fine is not spec.refine(g)
    assert all(np.array_equal(a, b) for a, b in zip(fine.w.levels, other.refine(g).levels))


def test_checks_on_one_spec_refine_the_weight_once(grid64, setup):
    # the 2N leg of every check reaches its spec through SpaceSpec.refine,
    # so two reports on one varsmooth spec build the 2N weight once
    sys, pv, qv, _ = setup
    base = _varsmooth(grid64)
    refines = []
    w = replace(base, recipe=lambda g, JJ: refines.append(g) or base.recipe(g, JJ))
    spec = SpaceSpec("F", pv, qv, w, sys, J)
    corpus = lambda g: standard_corpus(g)[:2]
    assert maximal_equivalence_check(corpus, spec).passes
    assert local_means_equivalence_check(corpus, spec).passes
    assert refines == [Grid(1, 128)]
    # what the spec keeps afterwards: the 2N spec only, whose own cache is empty
    assert list(spec._refined) == [Grid(1, 128)]
    assert spec._refined[Grid(1, 128)]._refined == {}


def test_zero_function(grid64, setup):
    sys, pv, qv, w = setup
    zero = grid64.zeros()
    for scale in ("B", "F"):
        spec = SpaceSpec(scale, pv, qv, w, sys, J)
        assert quasi_norm(zero, spec) == 0.0
        a = maximal_threshold(spec) + 1.0
        assert quasi_norm_maximal(zero, spec, a) == (0.0, 0.0)
        assert quasi_norm_local_means(zero, spec, laplacian_order=2) == 0.0


# --------------------------------------------------------------- quasi-norm


def test_single_mode_value(grid64):
    # |xi| = 20 pi lands in level 6's exclusive plateau window
    sys = admissible_system(grid64, J, "plateau")
    p2 = VariableExponent.constant(grid64, 2.0)
    s = 0.5
    w = make_generalized(grid64, J, 2.0 ** (s * np.arange(J + 1, dtype=float)))
    spec = SpaceSpec("B", p2, p2, w, sys, J)
    value = quasi_norm(grid64.mode(10), spec)
    assert value == pytest.approx(2.0 ** (6 * s), rel=1e-10)


def test_single_mode_value_2d():
    grid = Grid(2, 32)
    sys = admissible_system(grid, 5, "plateau")
    p2 = VariableExponent.constant(grid, 2.0)
    w = make_generalized(grid, 5, 2.0 ** (0.4 * np.arange(6, dtype=float)))
    spec = SpaceSpec("F", p2, p2, w, sys, 5)
    value = quasi_norm(grid.mode((4, 3)), spec)  # |xi| = 10 pi, level 5 only
    assert value == pytest.approx(2.0 ** (5 * 0.4), rel=1e-9)


def test_b_equals_f_when_q_equals_p(grid64, setup):
    sys, pv, _, w = setup
    rng = np.random.default_rng(41)
    for f in standard_corpus(grid64)[:4]:
        nb = quasi_norm(f, SpaceSpec("B", pv, pv, w, sys, J))
        nf = quasi_norm(f, SpaceSpec("F", pv, pv, w, sys, J))
        assert abs(nb - nf) <= 1e-8 * nb


def test_classical_sum_identity(grid64):
    # p = q = 2 collapses to the weighted l_2 sum of level norms
    sys = admissible_system(grid64, J, "plateau")
    p2 = VariableExponent.constant(grid64, 2.0)
    w = make_generalized(grid64, J, 2.0 ** np.arange(J + 1, dtype=float))
    spec = SpaceSpec("B", p2, p2, w, sys, J)
    for f in standard_corpus(grid64)[:4]:
        blocks = weighted_blocks(f, spec)
        direct = np.sqrt(
            sum(
                lebesgue_norm(GridFunction(grid64, np.abs(e.samples)), p2) ** 2
                for e in blocks
            )
        )
        assert quasi_norm(f, spec) == pytest.approx(direct, rel=1e-10)


def test_scaling_homogeneity(grid64, setup):
    sys, pv, qv, w = setup
    f = standard_corpus(grid64)[7]
    for scale in ("B", "F"):
        spec = SpaceSpec(scale, pv, qv, w, sys, J)
        base = quasi_norm(f, spec)
        assert quasi_norm(f * (-7.25), spec) == pytest.approx(7.25 * base, rel=1e-9)


def test_monotone_truncation(grid64, setup):
    sys, pv, _, w = setup
    q_const = VariableExponent.constant(grid64, 2.0)
    f = standard_corpus(grid64)[3]
    for scale in ("B", "F"):
        values = [
            quasi_norm(f, SpaceSpec(scale, pv, q_const, w, sys, jj))
            for jj in range(2, J + 1)
        ]
        assert all(a <= b * (1.0 + 1e-12) for a, b in zip(values, values[1:]))


def test_quasi_triangle_measured(grid64, setup):
    sys, _, qv, w = setup
    p_low = VariableExponent.from_function(
        grid64, lambda x: 0.7 + 0.2 * np.sin(2.0 * np.pi * x)
    )
    spec = SpaceSpec("B", p_low, qv, w, sys, J)
    c = standard_corpus(grid64)
    pairs = [(c[0], c[21]), (c[5], c[44]), (c[30], c[12])]
    measured = quasi_triangle_probe(spec, pairs)
    r = min(p_low.p_minus, qv.p_minus, 1.0)
    bound = (2.0 ** (1.0 / r - 1.0)) ** 2  # one factor per nesting level
    assert 0.0 < measured <= bound * 1.01


# ----------------------------------------------------------- maximal route


def test_maximal_threshold_values(grid64, setup):
    sys, pv, qv, w = setup
    q_const = VariableExponent.constant(grid64, 2.0)
    spec_b = SpaceSpec("B", pv, q_const, w, sys, J)
    # constant q has zero log-Holder constant
    assert maximal_threshold(spec_b) == pytest.approx(
        w.declared_alpha + 1.0 / pv.p_minus, rel=1e-12
    )
    spec_f = SpaceSpec("F", pv, qv, w, sys, J)
    assert maximal_threshold(spec_f) == pytest.approx(
        w.declared_alpha + 1.0 / min(pv.p_minus, qv.p_minus), rel=1e-12
    )
    # variable q adds the measured log-Holder constant of 1/q
    spec_bv = SpaceSpec("B", pv, qv, w, sys, J)
    clog = _clog_inv(qv)
    assert clog > 0.0
    assert maximal_threshold(spec_bv) == pytest.approx(
        w.declared_alpha + 1.0 / pv.p_minus + clog, rel=1e-12
    )
    # the multiplier orders sit n and n/2 above the same base (n = 1 here)
    assert multiplier_order_threshold(spec_bv, "norm_2l") == pytest.approx(
        w.declared_alpha + 1.0 / pv.p_minus + clog + 1.0, rel=1e-12
    )
    assert multiplier_order_threshold(spec_f, "h2kappa") == pytest.approx(
        w.declared_alpha + 1.0 / min(pv.p_minus, qv.p_minus) + 0.5, rel=1e-12
    )


def test_maximal_rejects_small_a(grid64, setup):
    sys, pv, qv, w = setup
    spec = SpaceSpec("B", pv, qv, w, sys, J)
    thr = maximal_threshold(spec)
    f = standard_corpus(grid64)[0]
    with pytest.raises(ValueError, match="threshold"):
        quasi_norm_maximal(f, spec, thr)


def test_maximal_dominates_plain(grid64, setup):
    sys, pv, qv, w = setup
    for scale in ("B", "F"):
        spec = SpaceSpec(scale, pv, qv, w, sys, J)
        a = maximal_threshold(spec) + 1.0
        for f in small_corpus(grid64):
            plain, maximal = quasi_norm_maximal(f, spec, a)
            assert maximal >= plain * (1.0 - 1e-12)


def test_maximal_equivalence_reports(grid64, setup):
    sys, pv, qv, w = setup
    for scale in ("B", "F"):
        spec = SpaceSpec(scale, pv, qv, w, sys, J)
        rep = maximal_equivalence_check(small_corpus, spec)
        assert rep.passes and rep.ratio_min >= 1.0 - 1e-9


def test_clog_is_measured_once_per_exponent(grid64, setup, monkeypatch):
    # c_log(1/q) is kept on the exponent: a B-scale maximal check scans once
    # per grid leg (N and 2N), and repeated maximal norms do not rescan
    sys, pv, qv, w = setup
    scanned = []
    real = exponents.log_holder_estimate

    def counted(g):
        scanned.append(g.grid.n)
        return real(g)

    monkeypatch.setattr(exponents, "log_holder_estimate", counted)
    spec = SpaceSpec("B", pv, qv, w, sys, J)
    maximal_equivalence_check(lambda g: standard_corpus(g)[:3], spec)
    assert scanned == [64, 128]
    a = maximal_threshold(spec) + 1.0
    for f in small_corpus(grid64):
        quasi_norm_maximal(f, spec, a)
    assert scanned == [64, 128]


def test_maximal_on_general_pair(grid64, setup):
    _, pv, qv, w = setup
    gsys = general_system(grid64, J, epsilon=6.0 / 5.0, k_factor=25.0 / 18.0)
    spec = SpaceSpec("F", pv, qv, w, gsys, J)
    f = standard_corpus(grid64)[2]
    plain, maximal = quasi_norm_maximal(f, spec, maximal_threshold(spec) + 1.0)
    assert 0.0 < plain <= maximal


# -------------------------------------------------------------- local means


def test_local_means_constant_signal(grid64, setup):
    sys, pv, qv, w = setup
    spec = SpaceSpec("B", pv, qv, w, sys, J)
    c = 1.75
    f = GridFunction(grid64, np.full(grid64.shape, c))
    value = quasi_norm_local_means(f, spec, laplacian_order=2)
    mass = float(kernel_hat(bump_kernel(), (np.zeros(1),))[0].real)
    head = lebesgue_norm(GridFunction(grid64, w.levels[0] * c * mass), pv)
    assert value == pytest.approx(head, rel=1e-9)


def test_local_means_rejects_low_order(grid64, setup):
    sys, pv, qv, _ = setup
    w_fast = make_generalized(grid64, J, 4.0 ** np.arange(J + 1, dtype=float))
    spec = SpaceSpec("B", pv, qv, w_fast, sys, J)
    f = standard_corpus(grid64)[0]
    with pytest.raises(ValueError, match="alpha2"):
        quasi_norm_local_means(f, spec, laplacian_order=1)


def test_local_means_equivalence(grid64, setup):
    sys, pv, qv, w = setup
    spec = SpaceSpec("B", pv, qv, w, sys, J)
    rep = local_means_equivalence_check(small_corpus, spec, laplacian_order=2)
    assert rep.passes and rep.ratio_min > 0.0


# ------------------------------------------------- pair independence, lifting


def test_pair_independence_identical_systems(grid64, setup):
    sys, pv, qv, w = setup
    spec = SpaceSpec("B", pv, qv, w, sys, J)
    rep = pair_independence_check(small_corpus, spec, spec)
    assert rep.ratio_min == rep.ratio_max == 1.0
    assert rep.refinement_drift == 0.0


def test_pair_independence_two_profiles(grid64, setup):
    sys, pv, qv, base = setup
    refines = []
    w = replace(base, recipe=lambda g, JJ: refines.append(g) or base.recipe(g, JJ))
    hann = admissible_system(grid64, J, "hann")
    spec_a = SpaceSpec("B", pv, qv, w, sys, J)
    spec_b = SpaceSpec("B", pv, qv, w, hann, J)
    rep = pair_independence_check(small_corpus, spec_a, spec_b)
    assert rep.passes
    assert rep.ratio_max / rep.ratio_min < 10.0
    assert len(refines) == 1  # the shared weight is refined once for both specs


def test_pair_independence_validation(grid64, setup):
    sys, pv, qv, w = setup
    spec = SpaceSpec("B", pv, qv, w, sys, J)
    other_q = SpaceSpec("B", pv, pv, w, sys, J)
    with pytest.raises(ValueError, match="differ only"):
        pair_independence_check(small_corpus, spec, other_q)
    gsys = general_system(grid64, J, epsilon=6.0 / 5.0, k_factor=25.0 / 18.0)
    with pytest.raises(ValueError, match="admissible"):
        pair_independence_check(
            small_corpus, spec, SpaceSpec("B", pv, qv, w, gsys, J)
        )


def test_lifting_sigma_zero(grid64, setup):
    sys, pv, qv, w = setup
    spec = SpaceSpec("F", pv, qv, w, sys, J)
    rep = lifting_check(small_corpus, spec, 0.0)
    assert rep.ratio_min == pytest.approx(1.0, abs=1e-12)
    assert rep.ratio_max == pytest.approx(1.0, abs=1e-12)


def test_lifting_roundtrip(grid64, setup):
    sys, pv, qv, w = setup
    spec = SpaceSpec("B", pv, qv, w, sys, J)
    f = standard_corpus(grid64)[24]
    base = quasi_norm(f, spec)
    roundtrip = quasi_norm(lift(lift(f, 1.0), -1.0), spec)
    assert roundtrip == pytest.approx(base, rel=1e-9)
    # integer shifts move the weight levels by exact powers of two
    w_rt = w.shifted(-1.0).shifted(1.0)
    assert all(np.array_equal(a, b) for a, b in zip(w_rt.levels, w.levels))
    assert w.shifted(-1.0).declared_alpha1 == w.declared_alpha1 - 1.0


def test_lifting_single_mode_bounds(grid64):
    # one active annulus: the ratio is (1 + |xi0|^2)^(1/2) / 2^j0 exactly
    sys = admissible_system(grid64, J, "plateau")
    p2 = VariableExponent.constant(grid64, 2.0)
    w = make_generalized(grid64, J, 2.0 ** np.arange(J + 1, dtype=float))
    spec = SpaceSpec("B", p2, p2, w, sys, J)
    corpus = lambda g: [g.mode(10)]
    rep = lifting_check(corpus, spec, 1.0)
    xi0 = 2.0 * np.pi * 10.0
    expected = np.sqrt(1.0 + xi0**2) / 2.0**6
    assert rep.ratio_min == pytest.approx(expected, rel=1e-9)
    assert rep.ratio_max == pytest.approx(expected, rel=1e-9)
    assert 0.5 <= rep.ratio_min <= rep.ratio_max <= 2.5  # annulus geometry


# -------------------------------------------------------------- embeddings


def test_q_monotone_embedding(grid64, setup):
    sys, pv, qv, w = setup
    q_big = VariableExponent.from_function(
        grid64, lambda x: 3.0 + 0.5 * np.cos(2.0 * np.pi * x)
    )
    for scale in ("B", "F"):
        spec = SpaceSpec(scale, pv, qv, w, sys, J)
        rep = q_monotone_embedding_check(small_corpus, spec, q_big)
        assert not rep.skipped
        assert rep.constant <= 1.0 + 1e-9
    same = q_monotone_embedding_check(small_corpus, spec, qv)
    assert same.constant == 1.0


def test_q_monotone_embedding_skips_unordered(grid64, setup):
    sys, pv, qv, w = setup
    spec = SpaceSpec("B", pv, qv, w, sys, J)
    q_small = VariableExponent.constant(grid64, 1.0)
    rep = q_monotone_embedding_check(small_corpus, spec, q_small)
    assert rep.skipped and "pointwise" in rep.reason


def test_weight_pair_embedding_variable_smoothness(grid64, setup):
    sys, pv, _, _ = setup
    # target smoothness sits 0.5 below the source everywhere
    w0 = make_variable_smoothness(grid64, J, lambda x: 0.4 + 0.2 * np.sin(2 * np.pi * x))
    w1 = make_variable_smoothness(grid64, J, lambda x: -0.1 + 0.2 * np.sin(2 * np.pi * x))
    q0 = VariableExponent.constant(grid64, 2.5)
    q1 = VariableExponent.constant(grid64, 1.5)
    for scale in ("B", "F"):
        spec = SpaceSpec(scale, pv, q0, w0, sys, J)
        rep = weight_pair_embedding_check(small_corpus, spec, w1, q1)
        assert not rep.skipped
        assert np.isfinite(rep.condition_value)
        assert 0.0 < rep.constant <= rep.condition_value * (1.0 + 1e-9)


def test_weight_pair_identity(grid64, setup):
    sys, pv, _, w = setup
    q2 = VariableExponent.constant(grid64, 2.0)
    spec = SpaceSpec("B", pv, q2, w, sys, J)
    rep = weight_pair_embedding_check(small_corpus, spec, w, q2)
    assert rep.constant == 1.0
    # constant q makes q* = inf, and v_j/w_j = 1, so the condition is sup_j 1
    assert rep.condition_value == pytest.approx(1.0, rel=1e-12)


def test_bf_sandwich(grid64, setup):
    sys, pv, qv, w = setup
    spec = SpaceSpec("F", pv, qv, w, sys, J)
    rep = bf_sandwich_check(small_corpus, spec)
    assert rep.corpus_size == 6
    assert rep.constant_in <= 1.0 + 1e-9
    assert rep.constant_out <= 1.0 + 1e-9
    with pytest.raises(ValueError, match="F-scale"):
        bf_sandwich_check(small_corpus, SpaceSpec("B", pv, qv, w, sys, J))


# ------------------------------------------------------ smooth-signal checks


def test_schwartz_embedding(grid64, setup):
    sys, pv, qv, w = setup
    spec = SpaceSpec("B", pv, qv, w, sys, J)
    bumps = lambda g: standard_corpus(g)[20:28]
    rep = schwartz_embedding_checks(bumps, spec, N=3)
    assert rep.seminorm_constant > 0.0 and np.isfinite(rep.seminorm_constant)
    assert rep.pairing_constant > 0.0 and np.isfinite(rep.pairing_constant)
    with pytest.raises(ValueError, match="need N >"):
        schwartz_embedding_checks(bumps, spec, N=0)


# ------------------------------------------------ one reducer for constants


def test_band_rule():
    # 0/0 is skipped, x/0 is inf, the count is the members used
    assert _band([(0.0, 0.0), (1.0, 0.0), (2.0, 4.0)]) == (0.5, np.inf, 2)
    with pytest.raises(ValueError, match="no usable ratios"):
        _band([(0.0, 0.0)])


def test_uninformative_corpus_raises(grid64, setup):
    sys, pv, qv, w = setup
    zeros = lambda g: [g.zeros()]
    spec_b = SpaceSpec("B", pv, qv, w, sys, J)
    spec_f = SpaceSpec("F", pv, qv, w, sys, J)
    q_big = VariableExponent.constant(grid64, 4.0)
    checks = [
        lambda: q_monotone_embedding_check(zeros, spec_b, q_big),
        lambda: weight_pair_embedding_check(zeros, spec_b, w),
        lambda: bf_sandwich_check(zeros, spec_f),
        lambda: schwartz_embedding_checks(zeros, spec_b, N=3),
        lambda: quasi_triangle_probe(spec_b, [(grid64.zeros(), grid64.zeros())]),
    ]
    for check in checks:
        with pytest.raises(ValueError, match="no usable ratios"):
            check()


def _reducer_specs():
    g = Grid(1, 64)
    x = g.coords[0]
    sys = admissible_system(g, J, "plateau")
    p = VariableExponent(g, 1.8 + 0.3 * np.sin(2.0 * np.pi * x))
    q = VariableExponent(g, 2.2 + 0.4 * np.cos(2.0 * np.pi * x))
    w = make_generalized(g, J, 2.0 ** (0.5 * np.arange(J + 1, dtype=float)))
    yield SpaceSpec("B", p, q, w, sys, J), standard_corpus(g)[:5]
    yield SpaceSpec("F", p, q, w, sys, J), standard_corpus(g)[:5]
    g2, J2 = Grid(2, 32), 4
    x, y = g2.coords
    sys2 = admissible_system(g2, J2, "plateau")
    p2 = VariableExponent(g2, 2.0 + 0.3 * np.sin(2.0 * np.pi * (x + y)))
    q2 = VariableExponent(g2, 2.0 + 0.2 * np.cos(2.0 * np.pi * x))
    w2 = make_2microlocal(g2, J2, 0.5, -0.25, [[0.5, 0.5]])
    for scale in ("B", "F"):
        yield SpaceSpec(scale, p2, q2, w2, sys2, J2), standard_corpus(g2)[18:21]


@pytest.mark.parametrize("spec, fns", list(_reducer_specs()))
def test_constants_match_per_member_loop(spec, fns):
    grid = spec.grid
    corpus = lambda g: fns
    q1 = VariableExponent(grid, spec.q.values + 1.0)
    v = make_variable_smoothness(grid, spec.J, lambda *x: 0.3 + 0.1 * np.sin(2 * np.pi * x[0]))

    target = replace(spec, q=q1)
    rep = q_monotone_embedding_check(corpus, spec, q1)
    expect = max(quasi_norm(f, target) / quasi_norm(f, spec) for f in fns)
    assert (rep.constant, rep.corpus_size) == (expect, len(fns))

    target = replace(spec, w=v, q=q1)
    rep = weight_pair_embedding_check(corpus, spec, v, q1)
    expect = max(quasi_norm(f, target) / quasi_norm(f, spec) for f in fns)
    assert (rep.constant, rep.corpus_size) == (expect, len(fns))

    pairs = list(zip(fns, fns[1:] + fns[:1]))
    expect = max(
        quasi_norm(f + g, spec) / (quasi_norm(f, spec) + quasi_norm(g, spec))
        for f, g in pairs
    )
    assert quasi_triangle_probe(spec, pairs) == expect

    if spec.scale == "F":
        b_lo = replace(spec, scale="B", q=pointwise_min(spec.p, spec.q))
        b_hi = replace(spec, scale="B", q=pointwise_max(spec.p, spec.q))
        rep = bf_sandwich_check(corpus, spec)
        c_in = max(quasi_norm(f, spec) / quasi_norm(f, b_lo) for f in fns)
        c_out = max(quasi_norm(f, b_hi) / quasi_norm(f, spec) for f in fns)
        assert (rep.constant_in, rep.constant_out, rep.corpus_size) == (
            c_in, c_out, len(fns)
        )
        return
    rep = schwartz_embedding_checks(corpus, spec, N=3)
    c_semi = max(
        max(lebesgue_norm(e, spec.p) for e in weighted_blocks(f, spec))
        / schwartz_seminorm(f, 3)
        for f in fns
    )
    psi = GridFunction(grid, _torus_gauss(grid, (0.5,) * grid.dim, 0.1))
    b_inf = replace(spec, scale="B", q=VariableExponent.constant(grid, np.inf))
    c_pair = max(abs(quadrature(f * psi)) / quasi_norm(f, b_inf) for f in fns)
    assert (rep.seminorm_constant, rep.pairing_constant, rep.corpus_size) == (
        c_semi, c_pair, len(fns)
    )


# -------------------------------------------------------------- multipliers


def test_multiplier_identity_is_tight(grid64, setup):
    sys, pv, qv, w = setup
    spec = SpaceSpec("B", pv, qv, w, sys, J)
    rep = multiplier_bound_checks(small_corpus, spec, MultiplierSymbol("1", dim=1), "norm_2l")
    assert rep.multiplier_norm == 1.0
    assert rep.ratio_min == pytest.approx(1.0, rel=1e-12)
    assert rep.ratio_max == pytest.approx(1.0, rel=1e-12)
    assert rep.constant == pytest.approx(1.0, rel=1e-12)
    assert rep.refinement_drift < 1e-12


def test_multiplier_riesz_type(grid64, setup):
    sys, pv, qv, w = setup
    m = MultiplierSymbol("xi1 * (1 + xi1**2)**(-1/2)", dim=1)
    for scale, mode in (("B", "norm_2l"), ("F", "h2kappa")):
        spec = SpaceSpec(scale, pv, qv, w, sys, J)
        rep = multiplier_bound_checks(small_corpus, spec, m, mode)
        assert isinstance(rep, EquivalenceReport) and rep.passes
        assert 2.0 * rep.order > rep.threshold if mode == "norm_2l" else rep.order > rep.threshold
        assert rep.ratio_max <= rep.constant * rep.multiplier_norm * (1.0 + 1e-12)


def test_multiplier_report_is_an_equivalence_report():
    # the band fields are EquivalenceReport's; a multiplier may send a member
    # to 0, so ratio_min = 0 passes here and fails a plain equivalence
    band = (0.0, 2.0, 3, 0.0)
    extra = dict(mode="norm_2l", order=1.0, threshold=1.0, multiplier_norm=1.0, constant=2.0)
    rep = MultiplierReport(*band, **extra)
    assert rep.passes and not EquivalenceReport(*band).passes
    assert not replace(rep, multiplier_norm=np.inf).passes
    with pytest.raises(TypeError):
        MultiplierReport(*band, (), *extra.values())


def test_multiplier_threshold_and_infinite_norm(grid64, setup):
    sys, pv, qv, w = setup
    spec = SpaceSpec("B", pv, qv, w, sys, J)
    m = MultiplierSymbol("1", dim=1)
    with pytest.raises(ValueError, match="need 2l >"):
        multiplier_bound_checks(small_corpus, spec, m, "norm_2l", order=0)
    growing = MultiplierSymbol("(1 + xi1**2)**(1/2)", dim=1)
    with pytest.raises(ValueError, match="infinite"):
        multiplier_bound_checks(small_corpus, spec, growing, "norm_2l")
    with pytest.raises(ValueError, match="mode"):
        multiplier_order_threshold(spec, "bogus")


def test_multiplier_matches_lifting(grid64, setup):
    # the windowed Bessel symbol acts exactly like the lifting operator
    sys, pv, qv, w = setup
    spec = SpaceSpec("B", pv, qv, w, sys, J)
    sigma = 1.5
    mask = (1.0 + grid64.xi_norm**2) ** (sigma / 2.0)
    target = SpaceSpec("B", pv, qv, w.shifted(-sigma), sys, J)
    for f in small_corpus(grid64):
        via_mask = quasi_norm(apply_multiplier(f, mask), target)
        via_lift = quasi_norm(lift(f, sigma), target)
        assert via_mask == pytest.approx(via_lift, rel=1e-12)


def test_bessel_scale_multiplier(grid64):
    sys = admissible_system(grid64, J, "plateau")
    p = VariableExponent.from_function(
        grid64, lambda x: 2.0 + 0.5 * np.sin(2.0 * np.pi * x)
    )
    m = MultiplierSymbol("xi1 * (1 + xi1**2)**(-1/2)", dim=1)
    rep = bessel_scale_multiplier_check(small_corpus, p, 1.0, m, sys, J)
    assert rep.passes
    assert rep.threshold == pytest.approx(1.0 / min(p.p_minus, 2.0) + 0.5, rel=1e-12)
    p_bad = VariableExponent.constant(grid64, 1.0)
    with pytest.raises(ValueError, match="p_minus"):
        bessel_scale_multiplier_check(small_corpus, p_bad, 1.0, m, sys, J)


# ----------------------------------------------------------- derivative sum


def test_derivative_sum_kappa_zero(grid64, setup):
    sys, pv, qv, w = setup
    spec = SpaceSpec("B", pv, qv, w, sys, J)
    rep = derivative_sum_check(small_corpus, spec, 0)
    assert rep.ratio_min == pytest.approx(1.0, rel=1e-12)
    assert rep.ratio_max == pytest.approx(1.0, rel=1e-12)


def test_derivative_sum_kappa_one(grid64, setup):
    sys, pv, qv, w = setup
    spec = SpaceSpec("B", pv, qv, w, sys, J)
    rep = derivative_sum_check(small_corpus, spec, 1)
    assert rep.passes and rep.ratio_min >= 1.0  # includes the identity term


# ------------------------------------------------------- classical crosscheck


def test_sobolev_cross_check(grid64):
    corpus = lambda g: standard_corpus(g)[:8]
    for s in (0.0, 1.0):
        rep = sobolev_cross_check(corpus, grid64, s)
        assert rep.passes
        assert rep.refinement_drift < 0.1
        assert 0.5 < rep.ratio_min <= rep.ratio_max < 4.0


# ------------------------------------------------------------------- corpus


def test_standard_corpus_fixed(grid64):
    a = standard_corpus(grid64)
    b = standard_corpus(grid64)
    assert len(a) == 50
    assert all(np.array_equal(x.samples, y.samples) for x, y in zip(a, b))
    other = standard_corpus(grid64, seed=7)
    assert not np.array_equal(a[0].samples, other[0].samples)


def test_standard_corpus_samples_only_indexed_members(grid64, monkeypatch):
    sampled = []
    real = spaces.GridFunction

    def counted(grid, values):
        sampled.append(grid)
        return real(grid, values)

    monkeypatch.setattr(spaces, "GridFunction", counted)
    corpus = standard_corpus(grid64)
    assert sampled == [] and len(corpus) == 50
    head = corpus[:2]
    assert isinstance(head, list) and len(sampled) == 2
    assert np.array_equal(corpus[1].samples, head[1].samples)
    with pytest.raises(TypeError):
        corpus[0] = head[0]


def test_standard_corpus_band_limited(grid64):
    from vexspaces import coefficients

    k = np.fft.fftfreq(64, d=1.0 / 64)
    for f in standard_corpus(grid64)[:20]:
        c = coefficients(f)
        assert np.max(np.abs(c[np.abs(k) > 16])) < 1e-13


def test_standard_corpus_2d():
    grid = Grid(2, 32)
    fns = standard_corpus(grid)
    assert len(fns) == 50
    assert all(f.samples.shape == (32, 32) and f.max_abs() > 0.0 for f in fns)


def test_equivalence_report_contract():
    with pytest.raises(ValueError, match="ratio_min"):
        EquivalenceReport(2.0, 1.0, 5, 0.0)
    good = EquivalenceReport(1.0, 2.0, 5, 0.1)
    assert good.passes
    assert not EquivalenceReport(1.0, np.inf, 5, 0.1).passes
    assert not EquivalenceReport(1.0, 2.0, 5, 0.31).passes


# ------------------------------------------------------------------ 2d smoke


def test_corpus_checks_2d_smoke():
    grid = Grid(2, 32)
    JJ = 4
    sys = admissible_system(grid, JJ, "plateau")
    p2 = VariableExponent.constant(grid, 2.0)
    qv = VariableExponent.from_function(
        grid, lambda x, y: 2.0 + 0.3 * np.sin(2.0 * np.pi * (x + y))
    )
    w = make_2microlocal(grid, JJ, 0.5, -0.25, [[0.5, 0.5]])
    spec = SpaceSpec("B", p2, qv, w, sys, JJ)
    corpus = lambda g: standard_corpus(g)[20:24]
    rep = maximal_equivalence_check(corpus, spec)
    assert rep.passes and rep.ratio_min >= 1.0 - 1e-9


def _b_spec_parts():
    grid, J = Grid(1, 64), 5
    x = grid.coords[0]
    w = make_generalized(grid, J, 2.0 ** (0.5 * np.arange(J + 1)))
    f = GridFunction(grid, np.cos(2.0 * np.pi * 3.0 * x))
    return grid, J, x, w, admissible_system(grid, J), f


def test_constant_q_b_norm_is_one_modular_call(monkeypatch):
    # constant q closes the norm by homogeneity: one lq_lp_modular call,
    # which takes one lebesgue.norm per level, and no outer root solve
    grid, J, _, w, system, f = _b_spec_parts()
    two = VariableExponent.constant(grid, 2.0)
    calls = {"modular": 0, "norm": 0}
    real_modular, real_norm = mixed.lq_lp_modular, mixed.lebesgue_norm

    def modular(*args, **kwargs):
        calls["modular"] += 1
        return real_modular(*args, **kwargs)

    def norm(*args, **kwargs):
        calls["norm"] += 1
        return real_norm(*args, **kwargs)

    monkeypatch.setattr(mixed, "lq_lp_modular", modular)
    monkeypatch.setattr(mixed, "lebesgue_norm", norm)
    assert quasi_norm(f, SpaceSpec("B", two, two, w, system, J)) > 0.0
    assert calls == {"modular": 1, "norm": J + 1}


def test_b_scale_q_inf_root_solve_work_count(monkeypatch):
    # where q = inf on a quarter of the grid the outer solve runs over
    # lq_lp_modular on chord slopes and each level infimum takes tangent
    # steps on its own slope.  They take 9 outer evaluations and at most 7
    # per level solve, whose roots lie near 7e-22, 70 halvings below the
    # start; the budgets allow one more
    grid, J, x, w, system, f = _b_spec_parts()
    p = VariableExponent(grid, 1.5 + 0.5 * np.sin(2 * np.pi * x))
    q = VariableExponent(grid, np.where(x < 0.25, np.inf, 2.0 + 0.8 * np.cos(2 * np.pi * x)))
    solves = []  # evaluations of each root solve, in the order they finish
    real_root = mixed.luxemburg_root

    def root(value, hi, lo=None):
        counted = []
        try:
            return real_root(lambda lam: counted.append(lam) or value(lam), hi, lo)
        finally:
            solves.append(len(counted))

    monkeypatch.setattr(mixed, "luxemburg_root", root)
    assert quasi_norm(f, SpaceSpec("B", p, q, w, system, J)) > 0.0
    *levels, outer = solves  # the outer solve finishes last
    assert outer <= 10 and max(levels) <= 8


def test_b_scale_root_solve_work_count(monkeypatch):
    # constant q is one modular call; variable q is one outer root solve
    # whose value(mu) solves the level infima as warm-started lanes, both
    # with tangent steps.  They take 5 outer evaluations and 20 lane steps
    # (5, 5, 4, 3, 3); the budgets allow one more of each.  Bisection
    # needs ~45 outer evaluations
    grid, J, x, w, system, f = _b_spec_parts()
    two = VariableExponent.constant(grid, 2.0)
    p = VariableExponent(grid, 1.5 + 0.5 * np.sin(2 * np.pi * x))
    q = VariableExponent(grid, 2.0 + 0.8 * np.cos(2 * np.pi * x))
    modular_calls, outer, lane_steps = [], [], []
    real_modular, real_lanes, real_root = (
        mixed.lq_lp_modular, mixed._level_lanes, mixed.luxemburg_root
    )

    def modular(F, *args, **kwargs):
        modular_calls.append(F)
        return real_modular(F, *args, **kwargs)

    def lanes(*args):
        value = real_lanes(*args)

        def counted(mu):
            outer.append(mu)
            lane_steps.append(0)
            return value(mu)

        return counted

    def root(value, hi, lo=None):
        if np.ndim(hi) == 0:
            return real_root(value, hi, lo)

        def counted(lam, rows):
            lane_steps[-1] += 1
            return value(lam, rows)

        return real_root(counted, hi, lo)

    monkeypatch.setattr(mixed, "lq_lp_modular", modular)
    monkeypatch.setattr(mixed, "_level_lanes", lanes)
    monkeypatch.setattr(mixed, "luxemburg_root", root)
    assert quasi_norm(f, SpaceSpec("B", two, two, w, system, J)) > 0.0
    assert len(modular_calls) == 1 and not outer
    modular_calls.clear()
    assert quasi_norm(f, SpaceSpec("B", p, q, w, system, J)) > 0.0
    assert not modular_calls
    assert 0 < len(outer) <= 6
    assert len(set(outer)) == len(outer)  # no mu evaluated twice
    assert max(lane_steps) <= 6 and sum(lane_steps) <= 21

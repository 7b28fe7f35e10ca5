"""Acceptance gate: one test per shipped claim, each at its stated
tolerance, with runtime budgets asserted where the claim carries one.

Run with -v to get one pass/fail line per criterion; each test also
prints the measured quantities it gated on.
"""

import dataclasses
import time

import numpy as np
import pytest

from vexspaces import Grid, GridFunction, VariableExponent
from vexspaces import lebesgue
from vexspaces.analysis import (
    MultiplierSymbol,
    admissible_system,
    lift,
    littlewood_paley,
    local_means,
    peetre_maximal,
)
from vexspaces.grid import FunctionSequence
from vexspaces.mixed import (
    iterated_constant_q_norm,
    lp_lq_norm,
    lq_lp_modular,
    lq_lp_norm,
    smooth_sequence,
    smoothing_constants,
)
from vexspaces.spaces import (
    SpaceSpec,
    bf_sandwich_check,
    lifting_check,
    local_means_equivalence_check,
    maximal_equivalence_check,
    maximal_threshold,
    multiplier_bound_checks,
    pair_independence_check,
    q_monotone_embedding_check,
    quasi_norm,
    sobolev_cross_check,
    standard_corpus,
    weighted_blocks,
)
from vexspaces.weights import make_2microlocal, make_generalized, verify_admissible


def _smooth_field(grid, rng, lo, hi, kmax=6):
    """Random log-Holder-smooth field with range exactly [lo, hi]."""
    ks = np.arange(1, kmax + 1)
    amps = rng.normal(size=kmax) / (1.0 + ks)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=kmax)
    x = grid.coords[0]
    v = np.cos(2.0 * np.pi * np.outer(ks, x) + phases[:, None]).T @ amps
    v = (v - v.min()) / max(v.max() - v.min(), 1e-300)
    return lo + (hi - lo) * v


def _rand_f(grid, rng, kmax=40):
    ks = np.arange(1, kmax + 1)
    amps = rng.normal(size=kmax) / (1.0 + ks)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=kmax)
    x = grid.coords[0]
    return GridFunction(
        grid, np.cos(2.0 * np.pi * np.outer(ks, x) + phases[:, None]).T @ amps
    )


def _smooth_param_fn(rng, lo, hi, kmax=6):
    """Closed-form random field with values inside [lo, hi]; resamples
    identically on refined grids."""
    ks = np.arange(1, kmax + 1)
    amps = rng.normal(size=kmax) / (1.0 + ks)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=kmax)
    total = np.sum(np.abs(amps))
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)

    def fn(x):
        v = np.cos(2.0 * np.pi * np.outer(ks, x) + phases[:, None]).T @ amps
        return mid + half * v / total

    return fn


def _variable_spec(grid, J, scale="B", seed=17, profile="plateau"):
    rng = np.random.default_rng(seed)
    p = VariableExponent.from_function(grid, _smooth_param_fn(rng, 1.5, 2.6))
    q = VariableExponent.from_function(grid, _smooth_param_fn(rng, 1.8, 3.0))
    w = make_2microlocal(grid, J, 0.5, -0.25, [[0.5] * grid.dim])
    return SpaceSpec(scale, p, q, w, admissible_system(grid, J, profile), J)


def test_c01_unit_ball_and_sandwich():
    t0 = time.perf_counter()
    grid = Grid(1, 256)
    rng = np.random.default_rng(101)
    min_modular = 1.0
    for _ in range(200):
        p = VariableExponent(grid, _smooth_field(grid, rng, 0.5, 8.0))
        f = GridFunction(grid, np.abs(_rand_f(grid, rng).samples) + 0.01)
        n = lebesgue.norm(f, p)
        m = lebesgue.modular(f * (1.0 / n), p).value
        assert 1.0 - 1e-8 <= m <= 1.0
        min_modular = min(min_modular, m)
        raw = lebesgue.modular(f, p).value
        lo = min(raw ** (1.0 / p.p_minus), raw ** (1.0 / p.p_plus))
        hi = max(raw ** (1.0 / p.p_minus), raw ** (1.0 / p.p_plus))
        assert lo * (1.0 - 1e-9) <= n <= hi * (1.0 + 1e-9)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"unit ball + sandwich: 200 cases, min modular {min_modular:.3e}, "
          f"{elapsed:.1f}s")


def test_c02_holder_constant_two():
    grid = Grid(1, 256)
    rng = np.random.default_rng(202)
    violations = 0
    margin = np.inf
    for _ in range(200):
        p = VariableExponent(grid, _smooth_field(grid, rng, 1.0, 6.0))
        f, g = _rand_f(grid, rng), _rand_f(grid, rng)
        lhs, rhs = lebesgue.holder_pairing(f, g, p)
        violations += lhs > rhs
        margin = min(margin, rhs / lhs if lhs > 0 else np.inf)
    assert violations == 0
    print(f"Holder constant 2: 200 pairs, 0 violations, min rhs/lhs {margin:.3f}")


def _outer_root_norm(F, p, q):
    """l_q(L_p) norm as the outer Luxemburg root over lq_lp_modular.

    For constant finite q the modular of F/mu is mu^-q m(F), so its slope
    d log m / d log mu is -q; for q = inf it has none.
    """
    slope = -q.p_plus if np.isfinite(q.p_plus) else None

    def value(mu):
        m = lq_lp_modular(F.scaled(1.0 / mu), p, q)
        return m if slope is None else (m, slope)

    peak = max(f.max_abs() for f in F)
    return lebesgue.luxemburg_root(value, 2.0 * peak, peak)


def test_c03_iterated_identity():
    # three routes: lq_lp_norm (homogeneity of the modular for finite q),
    # the outer root solve over the modular, and l_q of the level norms
    grid = Grid(1, 256)
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(100):
        F = FunctionSequence(
            [GridFunction(grid, rng.normal(size=256)) for _ in range(7)]
        )
        p = VariableExponent(grid, _smooth_field(grid, rng, 1.2, 3.5))
        for q_const in (1.0, 2.0, np.inf):
            q = VariableExponent.constant(grid, q_const)
            direct = lq_lp_norm(F, p, q)
            for other in (_outer_root_norm(F, p, q), iterated_constant_q_norm(F, p, q_const)):
                rel = abs(direct - other) / direct
                worst = max(worst, rel)
                assert rel <= 1e-8
    print(f"iterated identity: 100 sequences x q in {{1,2,inf}}, 3 routes, "
          f"max rel diff {worst:.3e}")


def test_c04_smoothing_explicit_constants():
    t0 = time.perf_counter()
    grid = Grid(1, 64)
    rng = np.random.default_rng(404)
    deltas = (0.5, 1.0, 2.0)
    mink_viol = mod_viol = 0
    worst_mod = 0.0
    for i in range(50):
        g = FunctionSequence(
            [GridFunction(grid, np.abs(rng.normal(size=64))) for _ in range(6)]
        )
        p = VariableExponent(grid, _smooth_field(grid, rng, 1.0, 3.0))
        q_const = VariableExponent.constant(grid, (1.0, 1.5, 2.0, 4.0)[i % 4])
        q_var = VariableExponent(grid, _smooth_field(grid, rng, 1.0, 4.0))
        for delta in deltas:
            G = smooth_sequence(g, delta)
            minkowski, modular_c = smoothing_constants(delta)
            lhs = lp_lq_norm(G, p, q_const)
            rhs = minkowski * lp_lq_norm(g, p, q_const)
            mink_viol += lhs > rhs * (1.0 + 1e-12)
            mu = lq_lp_norm(g, p, q_var)
            value = lq_lp_modular(G.scaled(1.0 / (modular_c * mu)), p, q_var)
            worst_mod = max(worst_mod, value)
            mod_viol += value > 1.0 + 1e-12
    elapsed = time.perf_counter() - t0
    assert mink_viol == 0 and mod_viol == 0
    assert elapsed < 30.0
    print(f"smoothing constants: 50 sequences x 3 deltas, 0 violations, "
          f"max modular {worst_mod:.3f}, {elapsed:.1f}s")


def test_c05_embedding_inequalities():
    grid = Grid(1, 64)
    J = 5
    sys = admissible_system(grid, J, "plateau")
    corpus = lambda g: standard_corpus(g)[:5]
    rng = np.random.default_rng(505)
    instances = 0
    sandwich_constants = []
    for i in range(25):
        p = VariableExponent(grid, _smooth_field(grid, rng, 1.3, 2.8))
        q0 = VariableExponent(grid, _smooth_field(grid, rng, 1.5, 2.5))
        bump = _smooth_field(grid, rng, 0.2, 1.2)
        q1 = VariableExponent(grid, q0.values + bump)
        w = make_2microlocal(
            grid, J, rng.uniform(0.2, 0.8), rng.uniform(-0.4, 0.0), [[0.5]]
        )
        for scale in ("B", "F"):
            spec = SpaceSpec(scale, p, q0, w, sys, J)
            band = q_monotone_embedding_check(corpus, spec, q1)
            assert band.ratio_max <= 1.0 + 1e-9
            instances += 1
        inward, outward = bf_sandwich_check(corpus, SpaceSpec("F", p, q0, w, sys, J))
        c_in, c_out = inward.ratio_max, outward.ratio_max
        assert np.isfinite(c_in) and np.isfinite(c_out)
        assert c_in <= 1.0 + 1e-9 and c_out <= 1.0 + 1e-9
        sandwich_constants.append((c_in, c_out))
        instances += 2
    # refinement stability of the sandwich constants on a subsample
    spec64 = _variable_spec(grid, J, "F", seed=77)
    in64, out64 = bf_sandwich_check(corpus, spec64)
    in128, out128 = bf_sandwich_check(corpus, spec64.refine(Grid(1, 128)))
    drift_in = abs(np.log(in64.ratio_max) - np.log(in128.ratio_max))
    drift_out = abs(np.log(out64.ratio_max) - np.log(out128.ratio_max))
    assert drift_in < 0.3 and drift_out < 0.3
    assert instances == 100
    print(f"embeddings: 100 inequality instances, all C <= 1+1e-9; sandwich "
          f"drift in/out {drift_in:.3e}/{drift_out:.3e}")


def test_c06_pair_independence():
    t0 = time.perf_counter()
    grid = Grid(1, 256)
    J = 7
    rng = np.random.default_rng(606)
    p = VariableExponent.from_function(grid, _smooth_param_fn(rng, 1.5, 2.6))
    q = VariableExponent.from_function(grid, _smooth_param_fn(rng, 1.8, 3.0))
    w = make_2microlocal(grid, J, 0.5, -0.25, [[0.5]])
    spec_a = SpaceSpec("B", p, q, w, admissible_system(grid, J, "plateau"), J)
    spec_b = SpaceSpec("B", p, q, w, admissible_system(grid, J, "hann"), J)
    rep = pair_independence_check(standard_corpus, spec_a, spec_b)
    elapsed = time.perf_counter() - t0
    assert rep.corpus_size == 50
    assert np.isfinite(rep.ratio_max) and rep.ratio_min > 0.0
    assert rep.refinement_drift < 0.3
    assert elapsed < 120.0
    print(f"pair independence: band [{rep.ratio_min:.4f}, {rep.ratio_max:.4f}], "
          f"drift {rep.refinement_drift:.3e}, {elapsed:.1f}s")


def test_c07_maximal_characterization():
    grid = Grid(1, 64)
    J = 5
    corpus = lambda g: standard_corpus(g)[:8]
    floor = np.inf
    for f in corpus(grid):
        spec = _variable_spec(grid, J, "B")
        F = FunctionSequence(littlewood_paley(f, spec.system).entries[: J + 1])
        M = peetre_maximal(F, maximal_threshold(spec) + 1.0)
        floor = min(
            floor,
            min(
                float(np.min(m.samples - np.abs(e.samples)))
                for m, e in zip(M, F.entries)
            ),
        )
    assert floor >= 0.0  # pointwise domination, exact
    bands = {}
    for scale in ("B", "F"):
        rep = maximal_equivalence_check(corpus, _variable_spec(grid, J, scale))
        assert rep.ratio_min >= 1.0 - 1e-9
        assert np.isfinite(rep.ratio_max)
        assert rep.refinement_drift < 0.3
        bands[scale] = (rep.ratio_min, rep.ratio_max)
    print(f"maximal: pointwise floor {floor:.1e}; B band {bands['B']}, "
          f"F band {bands['F']}, a = threshold + 1")


def test_c08_lifting():
    grid = Grid(1, 64)
    J = 5
    spec = _variable_spec(grid, J, "B")
    corpus = lambda g: standard_corpus(g)[:8]
    f = standard_corpus(grid)[4]
    for sigma in (-2.0, 1.0):
        rep = lifting_check(corpus, spec, sigma)
        assert np.isfinite(rep.ratio_max) and rep.ratio_min > 0.0
        assert rep.refinement_drift < 0.3
        roundtrip = (lift(lift(f, sigma), -sigma) - f).max_abs()
        assert roundtrip <= 1e-9 * f.max_abs()
        shifted = spec.w.shifted(-sigma)
        assert shifted.declared_alpha1 == spec.w.declared_alpha1 - sigma
        assert shifted.declared_alpha2 == spec.w.declared_alpha2 - sigma
        admissible = verify_admissible(shifted)
        assert admissible.passes
        print(f"lifting sigma={sigma}: band [{rep.ratio_min:.4f}, "
              f"{rep.ratio_max:.4f}], drift {rep.refinement_drift:.3e}, "
              f"roundtrip {roundtrip:.1e}")


def test_c09_classical_consistency():
    grid = Grid(1, 128)
    J = grid.max_levels()
    p2 = VariableExponent.constant(grid, 2.0)
    corpus = lambda g: standard_corpus(g)[:8]
    for s in (0.0, 1.0):
        w = make_generalized(grid, J, 2.0 ** (s * np.arange(J + 1, dtype=float)))
        spec = SpaceSpec("B", p2, p2, w, admissible_system(grid, J, "plateau"), J)
        worst = 0.0
        for f in corpus(grid):
            blocks = weighted_blocks(f, spec)
            direct = np.sqrt(
                sum(
                    lebesgue.norm(GridFunction(grid, np.abs(e.samples)), p2) ** 2
                    for e in blocks
                )
            )
            value = quasi_norm(f, spec)
            worst = max(worst, abs(value**2 - direct**2) / direct**2)
        assert worst <= 1e-10
        rep = sobolev_cross_check(corpus, grid, s)
        assert np.isfinite(rep.ratio_max) and rep.ratio_min > 0.0
        assert rep.refinement_drift < 0.1
        print(f"classical s={s}: Parseval rel err {worst:.2e}, Sobolev band "
              f"[{rep.ratio_min:.4f}, {rep.ratio_max:.4f}] drift "
              f"{rep.refinement_drift:.2e}")


def test_c10_multiplier_bounds():
    grid = Grid(1, 64)
    J = 5
    corpus = lambda g: standard_corpus(g)[:6]
    spec_b = _variable_spec(grid, J, "B")
    one = MultiplierSymbol("1", dim=1)
    rep1 = multiplier_bound_checks(corpus, spec_b, one, "norm_2l")
    assert rep1.multiplier_norm == 1.0
    assert abs(rep1.constant - 1.0) <= 1e-12  # tight for the identity
    assert rep1.passes
    riesz = MultiplierSymbol("xi1 * (1 + xi1**2)**(-1/2)", dim=1)
    for scale, mode in (("B", "norm_2l"), ("F", "h2kappa")):
        spec = _variable_spec(grid, J, scale)
        rep = multiplier_bound_checks(corpus, spec, riesz, mode)
        order_value = 2.0 * rep.order if mode == "norm_2l" else rep.order
        assert order_value > rep.threshold  # hypothesis satisfied
        # zero violations of lhs <= C M rhs with the single reported C
        assert rep.ratio_max <= rep.constant * rep.multiplier_norm * (1.0 + 1e-12)
        assert rep.passes  # finite band, refinement-stable
        print(f"multiplier {mode}: threshold {rep.threshold:.3f}, "
              f"M {rep.multiplier_norm:.4f}, C {rep.constant:.4f}, "
              f"drift {rep.refinement_drift:.3e}")


def test_c11_local_means():
    grid = Grid(1, 64)
    J = 5
    spec = _variable_spec(grid, J, "B")
    # alpha2 = 0.5 for this weight, so one Laplacian order gives 2 > 1.5
    assert 2.0 * 1 > spec.w.declared_alpha2 + 1.0
    corpus = lambda g: standard_corpus(g)[:6]
    rep = local_means_equivalence_check(corpus, spec, laplacian_order=1)
    assert np.isfinite(rep.ratio_max) and rep.ratio_min > 0.0
    assert rep.refinement_drift < 0.3
    c = 2.0
    means = local_means(GridFunction(grid, np.full(grid.shape, c)), J, 1)
    residual = max(e.max_abs() for e in means.entries[1:])
    assert residual <= 1e-10 * c
    print(f"local means: band [{rep.ratio_min:.1f}, {rep.ratio_max:.1f}], "
          f"drift {rep.refinement_drift:.3e}, constant-signal residual "
          f"{residual:.1e}")


def test_c12_cli_determinism_and_exit_codes(tmp_path):
    from vexspaces.cli.main import main

    args = ["compare-pairs", "--corpus-size", "6", "--seed", "11",
            "--system-b", "hann"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    identical = (
        (out_a / "ratios.csv").read_bytes() == (out_b / "ratios.csv").read_bytes()
        and (out_a / "report.txt").read_bytes()
        == (out_b / "report.txt").read_bytes()
    )
    assert identical
    assert main(["verify"]) == 0
    print("CLI: repeated seeded runs byte-identical; verify exit 0 on defaults")

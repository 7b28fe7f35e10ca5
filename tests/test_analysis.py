import tracemalloc

import numpy as np
import pytest

from vexspaces import Grid, GridFunction, spectral_derivative, synthesize
from vexspaces.analysis import (
    AnalysisSystem,
    MultiplierSymbol,
    admissible_system,
    apply_multiplier,
    audit_system,
    bessel_window_norm,
    bump_kernel,
    dyadic_bessel_norm,
    dyadic_cover_system,
    general_conditions_report,
    general_system,
    kernel_hat,
    lift,
    littlewood_paley,
    local_means,
    local_means_leakage,
    peetre_maximal,
    schwartz_seminorm,
    symbol_derivative_norm,
    theta_system,
)

from conftest import random_band_limited

HANN_FLOOR = np.cos(0.5 * np.pi * np.log2(3.0 / 5.0)) ** 2  # infimum over the region


# ------------------------------------------------------------------- systems


def test_admissible_systems_pass_audit(grid64):
    for profile, c_expect in (("plateau", 1.0), ("hann", None)):
        sys = admissible_system(grid64, 6, profile)
        rep = audit_system(sys)
        assert rep.passes and rep.support_violations == 0
        if c_expect is not None:
            assert rep.c_lower == c_expect  # plateau is exactly 1 on the region
        else:
            assert HANN_FLOOR - 1e-12 <= rep.c_lower < 1.0
        assert sys.metadata["c_lower"] == rep.c_lower


def test_admissible_system_2d():
    sys = admissible_system(Grid(2, 16), 3, "plateau")
    rep = audit_system(sys)
    assert rep.passes and rep.c_lower == 1.0


def test_admissible_rejects_large_J(grid64):
    with pytest.raises(ValueError, match="too large"):
        admissible_system(grid64, grid64.max_levels() + 1)


def test_profiles_differ(grid64):
    a = admissible_system(grid64, 5, "plateau")
    b = admissible_system(grid64, 5, "hann")
    assert max(np.max(np.abs(ma - mb)) for ma, mb in zip(a.masks, b.masks)) > 0.1


def test_admissible_meets_general_conditions(grid64):
    # the standard overlap parameters for admissible pairs
    for profile in ("plateau", "hann"):
        sys = admissible_system(grid64, 6, profile)
        passes, c, gaps = general_conditions_report(sys, 6.0 / 5.0, 25.0 / 18.0)
        assert passes and c > 0.0 and gaps == 0


def test_hann_system_is_partition_of_unity(grid64):
    sys = admissible_system(grid64, 6, "hann")
    total = np.sum(np.stack(sys.masks), axis=0)
    inside = grid64.xi_norm <= 2.0**6
    assert np.max(np.abs(total[inside] - 1.0)) < 1e-12


def test_general_system_gap_is_exact(grid64):
    sys = general_system(grid64, 4, epsilon=6.0 / 5.0, k_factor=25.0 / 18.0)
    assert audit_system(sys).passes
    r = grid64.xi_norm
    for j in range(1, 5):
        gap = r < 0.25 * sys.metadata["epsilon"] * 2.0**j
        assert np.count_nonzero(sys.masks[j][gap]) == 0  # all moments vanish


def test_general_system_validation(grid64):
    with pytest.raises(ValueError, match="k_factor"):
        general_system(grid64, 3, epsilon=1.0, k_factor=2.5)
    with pytest.raises(ValueError, match="epsilon"):
        general_system(grid64, 3, epsilon=-1.0, k_factor=1.5)
    with pytest.raises(ValueError, match="too large"):
        general_system(grid64, grid64.max_levels() + 1, epsilon=1.0, k_factor=1.5)


def test_theta_partition_exact(grid64):
    assert audit_system(theta_system(grid64)).partition_residual < 1e-12
    assert audit_system(theta_system(Grid(2, 16))).passes


def test_lambda_cover_plateau(grid256):
    sys = dyadic_cover_system(grid256, 6)
    rep = audit_system(sys)
    assert rep.passes and rep.support_violations == 0
    r = grid256.xi_norm
    j = 5
    annulus = (r >= 2.0 ** (j - 1)) & (r <= 2.0 ** (j + 1))
    assert annulus.any()
    assert np.array_equal(sys.masks[j][annulus], np.ones(np.count_nonzero(annulus)))


def test_audit_flags_broken_system(grid64):
    # a mask leaking outside its annulus must fail the exhaustive scan
    masks = admissible_system(grid64, 4, "plateau").masks
    bad = [np.array(m) for m in masks]
    bad[2] = bad[2] + 0.5  # nonzero everywhere now
    rep = audit_system(AnalysisSystem("admissible_pair", grid64, bad))
    assert not rep.passes and rep.support_violations > 0


@pytest.mark.parametrize(
    "make, required, support",
    [
        (lambda g: admissible_system(g, 6), (0.6, 5.0 / 3.0), (0.5, 2.0)),
        (lambda g: general_system(g, 5, 1.2, 25.0 / 18.0), (0.6, 1.2 * 25.0 / 18.0), (0.3, np.inf)),
        (lambda g: dyadic_cover_system(g, 6), (0.5, 2.0), (0.25, 4.0)),
    ],
)
def test_audit_reads_the_level_annuli(grid256, make, required, support):
    # level j's conditions live on {lo 2^j <= |xi| <= hi 2^j}: one entry off
    # the support is one violation, one entry of 0.25 on the required
    # annulus is the smallest bound (the other entries there are exactly 1)
    sys = make(grid256)
    r, scale = grid256.xi_norm, 2.0**3
    masks = [np.array(m) for m in sys.masks]
    off = (r < support[0] * scale) | (r > support[1] * scale)
    on = (r >= required[0] * scale) & (r <= required[1] * scale)
    masks[3].flat[np.flatnonzero(off)[0]] = 1e-3
    masks[3].flat[np.flatnonzero(on)[0]] = 0.25
    rep = audit_system(AnalysisSystem(sys.kind, grid256, masks, sys.metadata))
    assert not rep.passes and rep.support_violations == 1
    assert rep.c_lower == 0.25


def test_system_refine_recipe(grid64):
    sys = admissible_system(grid64, 5, "hann")
    fine = sys.refine(Grid(1, 128))
    assert fine.grid.n == 128 and fine.levels == 5
    assert fine.metadata["profile"] == "hann"


# ----------------------------------------------------------- littlewood-paley


def test_theta_partition_reconstructs(grid64):
    rng = np.random.default_rng(31)
    f = random_band_limited(grid64, rng)
    F = littlewood_paley(f, theta_system(grid64))
    total = np.sum(F.stack(), axis=0)
    assert np.max(np.abs(total - f.samples)) < 1e-10


def test_single_mode_selectivity(grid64):
    # |2 pi 10| / 2^6 = 0.982 sits in the plateau's exclusive window
    sys = admissible_system(grid64, 6, "plateau")
    f = grid64.mode(10)
    F = littlewood_paley(f, sys)
    for j in range(7):
        peak = np.max(np.abs(F[j].samples))
        if j == 6:
            assert np.allclose(F[j].samples, f.samples, atol=1e-12)
        else:
            assert peak < 1e-12


def test_constant_hits_level_zero_only(grid64):
    sys = admissible_system(grid64, 5, "plateau")
    F = littlewood_paley(GridFunction(grid64, np.full(grid64.shape, 3.0)), sys)
    assert np.allclose(F[0].samples, 3.0, atol=1e-12)
    for j in range(1, 6):
        assert np.max(np.abs(F[j].samples)) < 1e-12


# ------------------------------------------------------------ peetre maximal


def level_ball_max(grid, av, j):
    """max of av over the closed torus ball of radius 2^-j (the a -> inf limit)."""
    out = av.copy()
    for s in range(1, grid.n):
        if grid.shift_distance((s,)) <= 2.0**-j:
            out = np.maximum(out, np.roll(av, s))
    return out


@pytest.fixture
def lp_levels(grid64):
    rng = np.random.default_rng(32)
    f = random_band_limited(grid64, rng)
    return littlewood_paley(f, admissible_system(grid64, 5, "plateau"))


def test_peetre_dominates_plain(lp_levels):
    M = peetre_maximal(lp_levels, 3.0)
    for j in range(len(lp_levels)):
        av = np.abs(lp_levels[j].samples)
        assert np.all(M[j].samples >= av)  # y = x is among the candidates
        i = int(np.argmax(av))
        assert M[j].samples[i] == av[i]  # at the global peak nothing beats y = x


def test_peetre_constant_level(grid64):
    F = littlewood_paley(GridFunction(grid64, np.full(grid64.shape, -2.0)),
                         admissible_system(grid64, 3, "plateau"))
    M = peetre_maximal(F, 7.0)
    assert np.allclose(M[0].samples, 2.0, atol=1e-12)


def test_peetre_two_sided_in_a(lp_levels):
    # 1 + t^(a') >= (1 + t^a) / 2 for a' >= a, so doubling a costs at most 2
    M3 = peetre_maximal(lp_levels, 3.0)
    M6 = peetre_maximal(lp_levels, 6.0)
    for j in range(len(lp_levels)):
        assert np.all(M6[j].samples <= 2.0 * M3[j].samples * (1.0 + 1e-12))


def test_peetre_large_a_approaches_ball_max(lp_levels):
    # the a -> inf limit is the running max over the 2^-j ball, not |F_j|
    grid = lp_levels.grid
    M10 = peetre_maximal(lp_levels, 10.0)
    M50 = peetre_maximal(lp_levels, 50.0)
    for j in (2, 3):
        ball = level_ball_max(grid, np.abs(lp_levels[j].samples), j)
        d10 = np.max(np.abs(M10[j].samples - ball))
        d50 = np.max(np.abs(M50[j].samples - ball))
        assert d50 <= d10
    assert np.max(np.abs(M50[2].samples - level_ball_max(
        grid, np.abs(lp_levels[2].samples), 2))) < 0.05 * np.max(np.abs(lp_levels[2].samples))


def test_peetre_2d_matches_direct_max():
    grid = Grid(2, 16)
    rng = np.random.default_rng(33)
    f = random_band_limited(grid, rng, kmax=3)
    F = littlewood_paley(f, admissible_system(grid, 2, "plateau"))
    M = peetre_maximal(F, 4.0)
    j = 2
    av = np.abs(F[j].samples)
    coords = np.stack([c.ravel() for c in grid.coords])
    brute = np.empty(grid.num_points)
    for i in range(grid.num_points):
        d = grid.torus_distance(coords[:, i], coords)
        brute[i] = np.max(av.ravel() / (1.0 + (2.0**j * d) ** 4.0))
    assert np.allclose(M[j].samples.ravel(), brute, rtol=1e-12)


@pytest.mark.parametrize("n", [16, 32])
def test_peetre_2d_matches_index_gather(n):
    # max over y of |F_j|(y) w[(x - y) mod n], with w the weight array over
    # every lattice shift, the zero shift included
    grid = Grid(2, n)
    f = random_band_limited(grid, np.random.default_rng(n), kmax=5)
    F = littlewood_paley(f, admissible_system(grid, grid.max_levels(), "plateau"))
    dist = np.concatenate(([0.0], grid.shift_distances))
    x0, x1 = np.divmod(np.arange(grid.num_points), n)
    idx = ((x0[:, None] - x0[None, :]) % n) * n + (x1[:, None] - x1[None, :]) % n
    for a in (0.7, 3.12, 9.0):
        M = peetre_maximal(F, a)
        for j, level in enumerate(F):
            av = np.abs(level.samples).ravel()
            w = 1.0 / (1.0 + (2.0**j * dist) ** a)
            oracle = np.max(av[None, :] * w[idx], axis=1)
            assert np.array_equal(M[j].samples.ravel(), oracle)


def test_peetre_rejects_bad_a(lp_levels):
    with pytest.raises(ValueError, match="positive"):
        peetre_maximal(lp_levels, 0.0)


# -------------------------------------------------------------- local means


def test_kernel_mass_matches_quadrature_oracle():
    ker = bump_kernel()
    mass = float(kernel_hat(ker, (np.zeros(1),))[0].real)
    ys = np.linspace(-0.25, 0.25, 1_000_001)
    s2 = np.minimum((ys / 0.25) ** 2, 1.0 - 1e-16)
    vals = np.where(np.abs(ys) < 0.25, np.exp(-1.0 / (1.0 - s2)), 0.0)
    oracle = np.trapezoid(vals, ys)
    assert mass == pytest.approx(oracle, rel=1e-12)
    assert mass > 0.0


def test_local_means_constant(grid64):
    ker = bump_kernel()
    mass = float(kernel_hat(ker, (np.zeros(1),))[0].real)
    f = GridFunction(grid64, np.full(grid64.shape, 2.5))
    F = local_means(f, J=4, laplacian_order=2, kernel0=ker, kernel_base=ker)
    assert np.allclose(np.real(F[0].samples), 2.5 * mass, rtol=1e-12)
    for j in range(1, 5):
        assert np.max(np.abs(F[j].samples)) < 1e-14  # Laplacian kills the mean


def test_local_means_single_mode(grid64):
    # entry j of a character is the character scaled by the kernel symbol
    ker = bump_kernel()
    f = grid64.mode(5)
    xi0 = 2.0 * np.pi * 5.0
    n_lap = 1
    F = local_means(f, J=3, laplacian_order=n_lap, kernel0=ker, kernel_base=ker)
    ys = np.linspace(-0.25, 0.25, 300_001)
    s2 = np.minimum((ys / 0.25) ** 2, 1.0 - 1e-16)
    kvals = np.where(np.abs(ys) < 0.25, np.exp(-1.0 / (1.0 - s2)), 0.0)
    for j in (1, 3):
        eta = -(2.0**-j) * xi0
        khat = np.trapezoid(kvals * np.exp(-1j * eta * ys), ys)
        expected = (-(eta**2)) ** n_lap * khat
        ratio = F[j].samples / f.samples
        assert np.allclose(ratio, expected, rtol=1e-9)


def test_local_means_leakage_measured(grid256):
    # spectral truncation spoils exact support; magnitude is reported, small
    # at coarse levels and growing with level and Laplacian order
    l1 = local_means_leakage(bump_kernel(), grid256, 1, 1)
    l3 = local_means_leakage(bump_kernel(), grid256, 3, 1)
    assert 0.0 < l1 < 1e-3
    assert l1 < l3


def test_kernel_validation(grid64):
    with pytest.raises(ValueError, match="fundamental cell"):
        bump_kernel(radius=0.6)
    dead = bump_kernel().__class__(radius=0.25, profile=lambda s: np.zeros_like(s), label="zero")
    f = GridFunction(grid64, np.ones(grid64.shape))
    with pytest.raises(ValueError, match="vanishes"):
        local_means(f, J=2, laplacian_order=1, kernel0=dead, kernel_base=dead)
    with pytest.raises(ValueError, match="laplacian_order"):
        local_means(f, J=2, laplacian_order=0)


# -------------------------------------------------------- lift & multipliers


def test_lift_identity_roundtrip_mode(grid64):
    rng = np.random.default_rng(34)
    f = random_band_limited(grid64, rng)
    assert np.allclose(lift(f, 0.0).samples, f.samples, atol=1e-14)
    back = lift(lift(f, 1.7), -1.7)
    assert np.max(np.abs(back.samples - f.samples)) < 1e-10
    mode = grid64.mode(3)
    xi0 = 2.0 * np.pi * 3.0
    lifted = lift(mode, 2.0)
    assert np.allclose(lifted.samples, (1.0 + xi0**2) * mode.samples, rtol=1e-12)


def test_lift_commutes_with_littlewood_paley(grid64):
    rng = np.random.default_rng(35)
    f = random_band_limited(grid64, rng)
    sys = admissible_system(grid64, 5, "plateau")
    for j in (0, 3, 5):
        a = lift(littlewood_paley(f, sys)[j], 1.3)
        b = littlewood_paley(lift(f, 1.3), sys)[j]
        assert np.max(np.abs(a.samples - b.samples)) < 1e-11


def test_apply_multiplier_agreements(grid64):
    rng = np.random.default_rng(36)
    f = random_band_limited(grid64, rng)
    assert np.allclose(apply_multiplier(f, np.ones(grid64.shape)).samples, f.samples, atol=1e-13)
    mask = (1.0 + grid64.xi_norm**2) ** 0.75
    assert np.array_equal(apply_multiplier(f, mask).samples, lift(f, 1.5).samples)
    d = spectral_derivative(f, (1,))
    m = apply_multiplier(f, grid64.xi[0])
    assert np.allclose(d.samples, 1j * m.samples, atol=1e-12 * np.max(np.abs(d.samples)))
    with pytest.raises(ValueError, match="finite"):
        apply_multiplier(f, np.full(grid64.shape, np.inf))


def test_spectral_operators_share_one_forward_transform(grid64, monkeypatch):
    rng = np.random.default_rng(37)
    f = random_band_limited(grid64, rng)
    forward = []
    fftn = np.fft.fftn
    monkeypatch.setattr(np.fft, "fftn", lambda *a, **k: forward.append(1) or fftn(*a, **k))
    littlewood_paley(f, admissible_system(grid64, 5, "plateau"))
    local_means(f, J=5, laplacian_order=1)
    lift(f, 1.3)
    apply_multiplier(f, grid64.xi[0])
    schwartz_seminorm(f, 2)
    assert len(forward) == 1


def test_schwartz_seminorm_basics(grid64):
    assert schwartz_seminorm(grid64.zeros(), 3) == 0.0
    one = GridFunction(grid64, np.ones(grid64.shape))
    assert schwartz_seminorm(one, 0) == 1.0


def test_schwartz_seminorm_gaussian_oracle():
    grid = Grid(1, 512)
    s = 0.05
    f = GridFunction(grid, np.exp(-grid.dist_to_origin**2 / (2.0 * s * s)))
    value = schwartz_seminorm(f, 2)
    u = np.linspace(0.0, 0.5, 2_000_001)
    g = np.exp(-(u**2) / (2.0 * s * s))
    total = g + np.abs(-u / s**2) * g + np.abs(u**2 / s**4 - 1.0 / s**2) * g
    oracle = np.max((1.0 + u) ** 2 * total)
    assert value == pytest.approx(oracle, rel=1e-3)


# ---------------------------------------------------------- multiplier norms


def test_symbol_derivative_norm_constant(grid64):
    m = MultiplierSymbol("1", dim=1)
    assert symbol_derivative_norm(m, 1, grid64) == 1.0
    assert symbol_derivative_norm(m, 2, grid64) == 1.0


def test_symbol_derivative_norm_flags_growth(grid64):
    m = MultiplierSymbol("(1 + xi1**2)**(1/2)", dim=1)
    assert symbol_derivative_norm(m, 1, grid64) == np.inf


def test_symbol_derivative_norm_riesz_type(grid64):
    # m = xi (1 + xi^2)^(-1/2): bounded with bounded weighted derivatives
    m = MultiplierSymbol("xi1 * (1 + xi1**2)**(-1/2)", dim=1)
    value = symbol_derivative_norm(m, 1, grid64)
    xs = np.linspace(-2.0 * np.pi * grid64.n * 2.0, 2.0 * np.pi * grid64.n * 2.0, 1_000_001)
    m0 = np.abs(xs) * (1.0 + xs**2) ** (-0.5)
    m1 = (1.0 + xs**2) ** (-1.5)
    m2 = 3.0 * np.abs(xs) * (1.0 + xs**2) ** (-2.5)
    oracle = max(
        np.max(m0),
        np.max((1.0 + xs**2) ** 0.5 * m1),
        np.max((1.0 + xs**2) * m2),
    )
    assert np.isfinite(value)
    assert value == pytest.approx(oracle, rel=0.01)


def test_symbol_sampling_2d():
    grid = Grid(2, 16)
    m = MultiplierSymbol("xi1 * (1 + xi1**2 + xi2**2)**(-1/2)", dim=2)
    vals = m.sample(grid)
    x1 = grid.xi[0]
    assert vals.shape == grid.shape
    assert np.allclose(vals, x1 / np.sqrt(1.0 + grid.xi_norm**2), rtol=1e-12)


def test_symbol_derivative_norm_2d_constant_and_growth(grid2d):
    assert symbol_derivative_norm(MultiplierSymbol("1", dim=2), 1, grid2d) == 1.0
    growing = MultiplierSymbol("(1 + xi1^2 + xi2^2)^(1/2)", dim=2)
    assert symbol_derivative_norm(growing, 1, grid2d) == np.inf


# ------------------------------------------------------------- Taylor jets


def _falling(n, k):
    """n (n - 1) ... (n - k + 1), the k-th derivative factor of x^n."""
    return float(np.prod(np.arange(n - k + 1, n + 1))) if k <= n else 0.0


def test_bivariate_jets_exact_on_a_polynomial():
    m = MultiplierSymbol("xi1^3 * xi2^2", dim=2)
    x, y = np.meshgrid(np.arange(-3.0, 4.0), np.arange(-2.0, 3.0), indexing="ij")
    for a in range(5):
        for b in range(5 - a):
            exact = _falling(3, a) * x ** max(3 - a, 0) * _falling(2, b) * y ** max(2 - b, 0)
            assert np.array_equal(m.derivative((a, b), x, y), exact), (a, b)


def test_jets_of_compositions_match_closed_forms():
    x, y = np.meshgrid(np.linspace(0.3, 2.5, 9), np.linspace(-1.5, 1.7, 7), indexing="ij")
    s = 1.0 + x**2 + y**2
    e = np.exp(2.0 * x - y)
    cases = {
        # exp of a linear form: D^(a,b) = 2^a (-1)^b exp
        "exp(2 * xi1 - xi2)": {(a, b): 2.0**a * (-1.0) ** b * e
                               for a in range(4) for b in range(4 - a)},
        # sin of a linear form: D^(a,b) = 3^b sin(u + (a + b) pi / 2)
        "sin(xi1 + 3 * xi2)": {(a, b): 3.0**b * np.sin(x + 3.0 * y + 0.5 * np.pi * (a + b))
                               for a in range(4) for b in range(4 - a)},
        "cos(xi1 * xi2)": {
            (1, 0): -y * np.sin(x * y),
            (1, 1): -np.sin(x * y) - x * y * np.cos(x * y),
            (2, 0): -(y**2) * np.cos(x * y),
        },
        # a constant non-integer power: the recurrence
        "(1 + xi1^2 + xi2^2)^(-1/2)": {
            (1, 0): -x * s**-1.5,
            (1, 1): 3.0 * x * y * s**-2.5,
            (2, 0): (3.0 * x**2 - s) * s**-2.5,
        },
        # a non-constant exponent: exp(b log a)
        "xi1^xi2": {
            (1, 0): y * x ** (y - 1.0),
            (0, 1): x**y * np.log(x),
            (1, 1): x ** (y - 1.0) * (1.0 + y * np.log(x)),
            (0, 2): x**y * np.log(x) ** 2,
        },
        "exp(sin(xi1)) * cos(xi2)": {
            (2, 0): (np.cos(x) ** 2 - np.sin(x)) * np.exp(np.sin(x)) * np.cos(y),
            (1, 1): -np.cos(x) * np.exp(np.sin(x)) * np.sin(y),
        },
    }
    for text, partials in cases.items():
        m = MultiplierSymbol(text, dim=2)
        for gamma, exact in partials.items():
            got = m.derivative(gamma, x, y)
            assert np.allclose(got, exact, rtol=1e-12, atol=1e-12 * np.abs(exact).max()), (
                text, gamma)


def test_riesz_symbol_derivatives_match_closed_forms():
    m = MultiplierSymbol("xi1 * (1 + xi1^2)^(-1/2)", dim=1)
    x = np.linspace(-300.0, 300.0, 6001)
    s = 1.0 + x**2
    exact = [
        x * s**-0.5,
        s**-1.5,
        -3.0 * x * s**-2.5,
        (12.0 * x**2 - 3.0) * s**-3.5,
        15.0 * x * (3.0 - 4.0 * x**2) * s**-4.5,
    ]
    for k, d in enumerate(exact):
        # weighted as in symbol_derivative_norm, relative to its sup
        w = s ** (k / 2.0)
        err = np.abs(m.derivative((k,), x) - d) * w
        assert err.max() <= 1e-14 * np.max(np.abs(d) * w), k


def test_bessel_window_norm_single_mode():
    L, M = 16.0, 4096
    x = -L / 2 + (np.arange(M) + 0.5) * (L / M)
    for k0, kappa in ((20, 1.5), (7, 3.0)):
        xi0 = 2.0 * np.pi * k0 / L
        vals = np.exp(1j * xi0 * x)
        expect = (1.0 + xi0**2) ** (kappa / 2.0)
        assert bessel_window_norm(vals, L, kappa) == pytest.approx(expect, rel=1e-12)


def test_dyadic_bessel_norm_zero_and_positive(grid64):
    assert dyadic_bessel_norm(MultiplierSymbol("0", dim=1), 2.0, grid64) == 0.0
    value = dyadic_bessel_norm(MultiplierSymbol("1", dim=1), 2.0, grid64)
    assert np.isfinite(value) and value > 0.0


def test_dyadic_bessel_norm_integer_kappa_oracle(grid64):
    # integer kappa expands binomially into derivative quadratures:
    # sum (1+y^2)^2 |c|^2 = (1/L)(||g||^2 + 2||g'||^2 + ||g''||^2)
    from vexspaces.analysis import _box_points, _lam0_profile

    L, M = 16.0, 4096
    (x,) = _box_points(L, 1, M)
    g = _lam0_profile(np.abs(x))
    direct = bessel_window_norm(g, L, 2.0)
    dx = L / M
    g1 = np.gradient(g, dx)
    g2 = np.gradient(g1, dx)
    quad = lambda h: np.sum(np.abs(h) ** 2) * dx
    oracle = np.sqrt((quad(g) + 2.0 * quad(g1) + quad(g2)) / L)
    assert direct == pytest.approx(oracle, rel=1e-3)


def test_peetre_1d_matches_index_gather(lp_levels):
    grid = lp_levels.grid
    n = grid.n
    offsets = np.arange(n)
    dist = grid.wrap_deltas(offsets * grid.h)
    idx = (offsets[:, None] - offsets[None, :]) % n
    for a in (3.0, 2.5):
        M = peetre_maximal(lp_levels, a)
        for j, f in enumerate(lp_levels):
            av = np.abs(f.samples)
            w = 1.0 / (1.0 + (2.0**j * dist) ** a)
            assert np.array_equal(M[j].samples, np.max(av[None, :] * w[idx], axis=1))



def test_peetre_1d_memory_stays_bounded():
    # the scan holds one level's rolled view at a time; the N x N product of
    # weights and samples at N=2048 would take 32 MiB
    grid = Grid(1, 2048)
    f = random_band_limited(grid, np.random.default_rng(33))
    F = littlewood_paley(f, admissible_system(grid, 5, "plateau"))
    tracemalloc.start()
    try:
        peetre_maximal(F, 3.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_peetre_2d_memory_stays_bounded():
    # one level's doubled copy and ring pair maxima at a time: about 12
    # arrays of the grid's size, next to the 7 output levels
    grid = Grid(2, 128)
    f = random_band_limited(grid, np.random.default_rng(34), kmax=6)
    F = littlewood_paley(f, admissible_system(grid, 6, "plateau"))
    tracemalloc.start()
    try:
        peetre_maximal(F, 3.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_equal_symbols_give_identical_arrays(grid64):
    expr = "xi1^3 * (2 + xi1^2)^(-3/2)"
    first = MultiplierSymbol(expr, dim=1)
    second = MultiplierSymbol(expr, dim=1)
    assert np.array_equal(second.sample(grid64), first.sample(grid64))
    for gamma in ((0,), (1,), (2,), (4,)):
        assert np.array_equal(
            second.derivative(gamma, grid64.xi[0]), first.derivative(gamma, grid64.xi[0])
        )

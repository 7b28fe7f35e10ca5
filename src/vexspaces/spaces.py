"""Weighted frequency-block quasi-norms and their verification harness.

A SpaceSpec bundles a scale letter, variable integrability and summability
exponents, an admissible weight sequence, and an analysis system.  The
quasi-norm stacks the weighted blocks w_j (phi_j * f) for j <= J and takes
the B-scale l_q(L_p) or F-scale L_p(l_q) mixed norm.  The alternative
characterizations (Peetre-maximal blocks with a threshold on the exponent
a, and local means) ship alongside.

The equivalence, embedding, lifting, and multiplier-boundedness claims
these norms satisfy are checked by comparing quasi-norms over a fixed
seeded corpus.  Equivalence
constants are unknowable numerically, so each check reports the measured
ratio band together with its drift under grid refinement: a claim passes
when the band is finite and the drift of its log-spread from N to 2N stays
below DRIFT_LIMIT.
"""

from dataclasses import dataclass, replace

import numpy as np

from .analysis import (
    admissible_system,
    apply_multiplier,
    dyadic_bessel_norm,
    lift,
    littlewood_paley,
    local_means,
    multi_indices,
    peetre_maximal,
    schwartz_seminorm,
    symbol_derivative_norm,
)
from .exponents import (
    VariableExponent,
    _clog_inv,
    pointwise_max,
    pointwise_min,
)
from .grid import (
    FunctionSequence,
    Grid,
    GridFunction,
    coefficients,
    quadrature,
    spectral_derivative,
)
from .lebesgue import norm as lebesgue_norm
from .mixed import lp_lq_norm, lq_lp_norm
from .weights import make_generalized

__all__ = [
    "DRIFT_LIMIT",
    "SpaceSpec",
    "EquivalenceReport",
    "EmbeddingReport",
    "SandwichReport",
    "SchwartzEmbeddingReport",
    "MultiplierReport",
    "standard_corpus",
    "weighted_blocks",
    "quasi_norm",
    "maximal_threshold",
    "quasi_norm_maximal",
    "quasi_norm_local_means",
    "quasi_triangle_probe",
    "pair_independence_check",
    "lifting_check",
    "maximal_equivalence_check",
    "local_means_equivalence_check",
    "q_monotone_embedding_check",
    "weight_pair_embedding_check",
    "bf_sandwich_check",
    "embedding_checks",
    "schwartz_embedding_checks",
    "multiplier_order_threshold",
    "multiplier_bound_checks",
    "bessel_scale_multiplier_check",
    "derivative_sum_check",
    "sobolev_cross_check",
]

# a measured ratio band is called refinement-stable when its log-spread
# moves less than this between resolutions N and 2N
DRIFT_LIMIT = 0.3


def _band(pairs):
    """(min, max, count) of num/den over (num, den) pairs, as Python floats.

    The one reducer behind every constant measured over a corpus: a 0/0
    member carries no information and is skipped, x/0 is inf, and count
    is the number of members whose ratio was used.  A corpus with no
    usable member raises rather than reporting a constant of 0.
    """
    ratios = []
    for num, den in pairs:
        if den == 0.0 and num == 0.0:
            continue
        ratios.append(np.inf if den == 0.0 else num / den)
    if not ratios:
        raise ValueError("corpus produced no usable ratios")
    return float(min(ratios)), float(max(ratios)), len(ratios)


@dataclass(frozen=True)
class SpaceSpec:
    """Parameters of one B- or F-scale space on a fixed grid."""

    scale: str
    p: VariableExponent
    q: VariableExponent
    w: object  # WeightSequence
    system: object  # AnalysisSystem
    J: int

    def __post_init__(self):
        if self.scale not in ("B", "F"):
            raise ValueError("scale must be 'B' or 'F'")
        if self.scale == "F" and (
            not np.isfinite(self.p.p_plus) or not np.isfinite(self.q.p_plus)
        ):
            raise ValueError("the F-scale needs p_plus < inf and q_plus < inf")
        grid = self.p.grid
        if self.q.grid != grid or self.w.grid != grid or self.system.grid != grid:
            raise ValueError("all spec ingredients must share one grid")
        if not 0 <= self.J <= self.system.levels:
            raise ValueError(f"J must lie in [0, {self.system.levels}] for this system")
        if self.w.J < self.J:
            raise ValueError("weight sequence has fewer levels than J")

    @property
    def grid(self):
        return self.p.grid

    def refine(self, grid):
        """Resample every ingredient onto another grid, keeping J."""
        return SpaceSpec(
            self.scale,
            self.p.refine(grid),
            self.q.refine(grid),
            self.w.refine(grid),
            self.system.refine(grid),
            self.J,
        )


def weighted_blocks(f, spec):
    """The sequence (w_j (phi_j * f))_{j <= J}."""
    if f.grid != spec.grid:
        raise ValueError("function and spec live on different grids")
    F = littlewood_paley(f, spec.system)
    return FunctionSequence(F.entries[: spec.J + 1]).weighted(spec.w.levels)


def _mixed_norm(blocks, spec):
    if spec.scale == "B":
        return lq_lp_norm(blocks, spec.p, spec.q)
    return lp_lq_norm(blocks, spec.p, spec.q)


def quasi_norm(f, spec):
    """l_q(L_p) (B) or L_p(l_q) (F) norm of the weighted blocks."""
    return _mixed_norm(weighted_blocks(f, spec), spec)


def maximal_threshold(spec, clog_override=None):
    """Lower bound the Peetre exponent a must exceed for the maximal route.

    B-scale: alpha + n/p^- + c_log(1/q) with the grid estimate of c_log
    (overridable); F-scale: alpha + n/min{p^-, q^-}.
    """
    n = spec.grid.dim
    alpha = spec.w.declared_alpha
    if spec.scale == "B":
        clog = _clog_inv(spec.q) if clog_override is None else float(clog_override)
        return alpha + n / spec.p.p_minus + clog
    return alpha + n / min(spec.p.p_minus, spec.q.p_minus)


def quasi_norm_maximal(f, spec, a, clog_override=None):
    """(plain, maximal) mixed norms of the weighted blocks at exponent a.

    plain uses the blocks themselves, maximal their Peetre maximal
    functions; plain <= maximal always since y = x enters the supremum.
    The system may be any band system (admissible or general pair).
    """
    threshold = maximal_threshold(spec, clog_override)
    if not a > threshold:
        raise ValueError(f"a = {a} must exceed the threshold {threshold}")
    if f.grid != spec.grid:
        raise ValueError("function and spec live on different grids")
    F = littlewood_paley(f, spec.system)
    F = FunctionSequence(F.entries[: spec.J + 1])
    plain = _mixed_norm(F.weighted(spec.w.levels), spec)
    M = peetre_maximal(F, a)
    maximal = _mixed_norm(M.weighted(spec.w.levels), spec)
    return plain, maximal


def _measured_alpha2(w, J):
    """log2 of the largest level-to-level weight ratio up to level J."""
    return max(
        (float(np.log2(np.max(w.levels[j + 1] / w.levels[j]))) for j in range(J)),
        default=0.0,
    )


def quasi_norm_local_means(f, spec, laplacian_order=1):
    """Local-means counterpart: head L_p term plus the j >= 1 mixed norm.

    Entry 0 is the unscaled kernel average w_0 k_0(1, f) measured in
    L_{p(.)}; entries j >= 1 carry the 2^-j-scaled Laplacian-power kernel.
    Both kernels are the default bumps of analysis.local_means.
    Requires 2*laplacian_order > measured alpha2 of the weight levels.
    """
    alpha2 = _measured_alpha2(spec.w, spec.J)
    if not 2.0 * laplacian_order > alpha2:
        raise ValueError(
            f"need 2*laplacian_order > measured alpha2 = {alpha2}, "
            f"got laplacian_order = {laplacian_order}"
        )
    if f.grid != spec.grid:
        raise ValueError("function and spec live on different grids")
    means = local_means(f, spec.J, laplacian_order)
    head = lebesgue_norm(
        GridFunction(spec.grid, spec.w[0] * np.abs(means[0].samples)), spec.p
    )
    if spec.J == 0:
        return head
    tail = FunctionSequence(means.entries[1:]).weighted(spec.w.levels[1:])
    return head + _mixed_norm(tail, spec)


def quasi_triangle_probe(spec, pairs):
    """Largest ||f+g|| / (||f|| + ||g||) over the pairs; may exceed 1."""
    return _band(
        (quasi_norm(f + g, spec), quasi_norm(f, spec) + quasi_norm(g, spec))
        for f, g in pairs
    )[1]


# ------------------------------------------------------------------ corpus


def _torus_gauss(grid, center, width):
    deltas = [grid.wrap_deltas(x - c) for x, c in zip(grid.coords, center)]
    d2 = sum(d * d for d in deltas)
    return np.exp(-d2 / (2.0 * width * width))


# capped at |k| = 16 (1D) and |k|_inf = 5 (2D) so the full band of every
# member is resolved by the top dyadic level at N >= 64 / 32
_MODES_1D = (1, 2, 3, 4, 5, 6, 8, 11, 13, 16)
_MODES_2D = (
    (1, 0), (0, 1), (1, 1), (2, 1), (3, 2),
    (2, 3), (4, 1), (5, 0), (4, 3), (5, 5),
)


def _chirp(x, a, b):
    return np.sin(2.0 * np.pi * (a * np.sin(np.pi * x) ** 2 + b * np.sin(2.0 * np.pi * x)))


def standard_corpus(grid, seed=2026):
    """Fifty fixed signals: 20 band-limited, 10 bumps, 10 modes, 10 chirps.

    All random parameters are drawn before the grid is touched and every
    signal is sampled from a closed form, so the same seed produces the
    same underlying functions at any resolution.  No member is zero.
    """
    rng = np.random.default_rng(seed)
    out = []
    # 20 random trigonometric polynomials with decaying amplitudes
    for _ in range(20):
        if grid.dim == 1:
            ks = np.arange(1, 17, dtype=float)
            amps = rng.standard_normal(ks.size) / (1.0 + ks) ** 1.5
            phases = rng.uniform(0.0, 2.0 * np.pi, ks.size)
            offset = rng.uniform(-0.5, 0.5)
            x = grid.coords[0]
            vals = offset + np.cos(
                2.0 * np.pi * np.multiply.outer(ks, x) + phases[:, None]
            ).T @ amps
        else:
            k1 = rng.integers(-5, 6, size=12)
            k2 = rng.integers(-5, 6, size=12)
            amps = rng.standard_normal(12) / (1.0 + np.hypot(k1, k2)) ** 1.5
            phases = rng.uniform(0.0, 2.0 * np.pi, 12)
            offset = rng.uniform(-0.5, 0.5)
            x, y = grid.coords
            vals = np.full(grid.shape, offset)
            for a, b, amp, ph in zip(k1, k2, amps, phases):
                vals = vals + amp * np.cos(2.0 * np.pi * (a * x + b * y) + ph)
        out.append(GridFunction(grid, vals))
    # 10 gaussian bumps
    for _ in range(10):
        center = rng.uniform(0.0, 1.0, size=grid.dim)
        width = rng.uniform(0.04, 0.12)
        amp = rng.uniform(0.5, 2.0)
        out.append(GridFunction(grid, amp * _torus_gauss(grid, center, width)))
    # 10 single modes with random phases
    for i in range(10):
        ph = rng.uniform(0.0, 2.0 * np.pi)
        if grid.dim == 1:
            vals = np.cos(2.0 * np.pi * _MODES_1D[i] * grid.coords[0] + ph)
        else:
            a, b = _MODES_2D[i]
            vals = np.cos(2.0 * np.pi * (a * grid.coords[0] + b * grid.coords[1]) + ph)
        out.append(GridFunction(grid, vals))
    # 10 smooth frequency-modulated chirps
    for _ in range(10):
        a, b = rng.uniform(1.0, 4.0), rng.uniform(0.5, 2.0)
        if grid.dim == 1:
            vals = _chirp(grid.coords[0], a, b)
        else:
            a2, b2 = rng.uniform(1.0, 4.0), rng.uniform(0.5, 2.0)
            vals = _chirp(grid.coords[0], a, b) * _chirp(grid.coords[1], a2, b2)
        out.append(GridFunction(grid, vals))
    return out


# ------------------------------------------------- equivalence measurement


@dataclass(frozen=True)
class EquivalenceReport:
    """Measured ratio band over a corpus plus its refinement drift."""

    ratio_min: float
    ratio_max: float
    corpus_size: int
    refinement_drift: float
    pairs: tuple = ()  # base-grid (num, den) per corpus member, in corpus order

    def __post_init__(self):
        if self.ratio_min > self.ratio_max:
            raise ValueError("ratio_min must not exceed ratio_max")

    @property
    def passes(self):
        return (
            np.isfinite(self.ratio_max)
            and self.ratio_min > 0.0
            and self.refinement_drift < DRIFT_LIMIT
        )


def _equivalence_report(corpus, grid, make_pair_fn):
    """Band of num/den over corpus(grid), drift measured against 2N."""
    pair = make_pair_fn(grid)
    pairs = tuple(pair(f) for f in corpus(grid))
    lo, hi, count = _band(pairs)
    fine = Grid(grid.dim, 2 * grid.n)
    pair = make_pair_fn(fine)
    lo2, hi2, _ = _band(pair(f) for f in corpus(fine))
    drift = abs(np.log(hi / lo) - np.log(hi2 / lo2))
    return EquivalenceReport(lo, hi, count, float(drift), pairs)


def _on(spec, grid):
    return spec if grid == spec.grid else spec.refine(grid)


def pair_independence_check(corpus, spec_a, spec_b):
    """Quasi-norm ratios between two specs differing only in the system.

    corpus is a callable grid -> iterable of GridFunctions so the same
    signals can be resampled for the refinement leg.  Because the specs must
    share p, q and w, the refinement leg refines those once, from spec_a,
    and takes only the system from spec_b.
    """
    if spec_a.scale != spec_b.scale or spec_a.J != spec_b.J:
        raise ValueError("specs must differ only in the analysis system")
    if not (
        np.array_equal(spec_a.p.values, spec_b.p.values)
        and np.array_equal(spec_a.q.values, spec_b.q.values)
        and all(
            np.array_equal(wa, wb)
            for wa, wb in zip(spec_a.w.levels, spec_b.w.levels)
        )
    ):
        raise ValueError("specs must differ only in the analysis system")
    for s in (spec_a, spec_b):
        if s.system.kind != "admissible_pair":
            raise ValueError("pair independence is claimed for admissible pairs")

    def make(grid):
        sa = _on(spec_a, grid)
        sb = spec_b if sa is spec_a else replace(sa, system=spec_b.system.refine(grid))
        return lambda f: (quasi_norm(f, sa), quasi_norm(f, sb))

    return _equivalence_report(corpus, spec_a.grid, make)


def lifting_check(corpus, spec, sigma):
    """Ratios of ||lift(f, sigma)|| in the (-sigma)-shifted-weight space
    to ||f|| in the source space."""

    def make(grid):
        s = _on(spec, grid)
        target = replace(s, w=s.w.shifted(-float(sigma)))
        return lambda f: (quasi_norm(lift(f, sigma), target), quasi_norm(f, s))

    return _equivalence_report(corpus, spec.grid, make)


def maximal_equivalence_check(corpus, spec, a=None, clog_override=None):
    """Ratio band of the maximal-route norm over the plain block norm.

    The Peetre exponent and the c_log estimate are frozen on the base grid
    so both refinement legs run with identical parameters; by pointwise
    domination every ratio is >= 1.
    """
    clog = None
    if spec.scale == "B":
        clog = _clog_inv(spec.q) if clog_override is None else float(clog_override)
    threshold = maximal_threshold(spec, clog)
    a = threshold + 1.0 if a is None else float(a)

    def make(grid):
        s = _on(spec, grid)

        def pair(f):
            plain, maximal = quasi_norm_maximal(f, s, a, clog_override=clog)
            return maximal, plain

        return pair

    return _equivalence_report(corpus, spec.grid, make)


def local_means_equivalence_check(corpus, spec, laplacian_order=1):
    """Ratio band of the local-means route over the block quasi-norm,
    with the default kernels of analysis.local_means."""

    def make(grid):
        s = _on(spec, grid)

        def pair(f):
            return (
                quasi_norm_local_means(f, s, laplacian_order),
                quasi_norm(f, s),
            )

        return pair

    return _equivalence_report(corpus, spec.grid, make)


# -------------------------------------------------------------- embeddings


@dataclass(frozen=True)
class EmbeddingReport:
    """Measured constant of one norm inequality over a corpus."""

    variant: str
    skipped: bool
    reason: str
    constant: float
    condition_value: float
    corpus_size: int  # members whose ratio was used


def q_monotone_embedding_check(corpus, spec, q1):
    """Growing the summability exponent can only shrink the norm band."""
    if np.any(q1.values < spec.q.values):
        return EmbeddingReport(
            "q_monotone", True, "need q0 <= q1 pointwise", np.nan, np.nan, 0
        )
    if spec.scale == "F" and not np.isfinite(q1.p_plus):
        return EmbeddingReport(
            "q_monotone", True, "F-scale needs q1_plus < inf", np.nan, np.nan, 0
        )
    target = replace(spec, q=q1)
    _, constant, count = _band(
        (quasi_norm(f, target), quasi_norm(f, spec)) for f in corpus(spec.grid)
    )
    return EmbeddingReport("q_monotone", False, "", constant, np.nan, count)


def _q_star(q0, q1):
    """Exponent with 1/q* = (1/q1 - 1/q0^+)_+ (inf where non-positive)."""
    inv0 = 0.0 if not np.isfinite(q0.p_plus) else 1.0 / q0.p_plus
    inv = np.maximum(q1.reciprocal_values() - inv0, 0.0)
    with np.errstate(divide="ignore"):
        values = np.where(inv > 0.0, 1.0 / inv, np.inf)
    return VariableExponent(q1.grid, values)


def weight_pair_embedding_check(corpus, spec, v, q1=None):
    """Weight-for-weight embedding with the q*-summability condition.

    Reports the mixed norm of the ratios (v_j/w_j)_j — l_{q*}(L_inf) on
    the B-scale, L_inf(l_{q*}) on the F-scale — alongside the measured
    constant of ||f||_{target} <= C ||f||_{source}.
    """
    grid = spec.grid
    q1 = spec.q if q1 is None else q1
    if spec.scale == "F" and not (
        np.isfinite(spec.q.p_plus) and np.isfinite(q1.p_plus)
    ):
        return EmbeddingReport(
            "weight_pair", True, "F-scale needs finite q0, q1", np.nan, np.nan, 0
        )
    qstar = _q_star(spec.q, q1)
    ratios = FunctionSequence(
        [
            GridFunction(grid, v.levels[j] / spec.w.levels[j])
            for j in range(spec.J + 1)
        ]
    )
    p_inf = VariableExponent.constant(grid, np.inf)
    if spec.scale == "B":
        condition = lq_lp_norm(ratios, p_inf, qstar)
    else:
        condition = lp_lq_norm(ratios, p_inf, qstar)
    target = replace(spec, w=v, q=q1)
    _, constant, count = _band(
        (quasi_norm(f, target), quasi_norm(f, spec)) for f in corpus(grid)
    )
    return EmbeddingReport("weight_pair", False, "", constant, condition, count)


@dataclass(frozen=True)
class SandwichReport:
    """Constants of B_{min(p,q)} -> F -> B_{max(p,q)} over a corpus."""

    constant_in: float
    constant_out: float
    corpus_size: int  # members used, the smaller count of the two constants


def bf_sandwich_check(corpus, f_spec):
    """Measure both constants of the two-sided scale comparison."""
    if f_spec.scale != "F":
        raise ValueError("the sandwich starts from an F-scale spec")
    b_lo = replace(f_spec, scale="B", q=pointwise_min(f_spec.p, f_spec.q))
    b_hi = replace(f_spec, scale="B", q=pointwise_max(f_spec.p, f_spec.q))
    norms = [
        (quasi_norm(f, b_lo), quasi_norm(f, f_spec), quasi_norm(f, b_hi))
        for f in corpus(f_spec.grid)
    ]
    _, c_in, n_in = _band((mid, lo) for lo, mid, _ in norms)
    _, c_out, n_out = _band((hi, mid) for _, mid, hi in norms)
    return SandwichReport(c_in, c_out, min(n_in, n_out))


def embedding_checks(corpus, variants):
    """Run a batch of embedding comparisons.

    Each variant is a tuple: ("q_monotone", spec, q1),
    ("weight_pair", spec, v[, q1]), or ("sandwich", f_spec).
    """
    out = []
    for variant in variants:
        kind = variant[0]
        if kind == "q_monotone":
            out.append(q_monotone_embedding_check(corpus, *variant[1:]))
        elif kind == "weight_pair":
            out.append(weight_pair_embedding_check(corpus, *variant[1:]))
        elif kind == "sandwich":
            out.append(bf_sandwich_check(corpus, *variant[1:]))
        else:
            raise ValueError(f"unknown embedding variant {kind!r}")
    return out


# ------------------------------------------------- smooth-signal inequalities


@dataclass(frozen=True)
class SchwartzEmbeddingReport:
    """Constants tying quasi-norms to seminorm and pairing bounds."""

    seminorm_constant: float
    pairing_constant: float
    seminorm_order: int
    threshold: float
    corpus_size: int  # members used, the smaller count of the two constants


def schwartz_embedding_checks(corpus, spec, N):
    """(a) sup_j ||w_j (phi_j*f)||_p against the order-N decay seminorm;
    (b) |quadrature(f psi)| against the q = inf B-scale quasi-norm.

    Needs N > alpha + n/p^-; psi is a fixed centered bump.
    """
    threshold = spec.w.declared_alpha + spec.grid.dim / spec.p.p_minus
    if not N > threshold:
        raise ValueError(f"need N > {threshold}, got N = {N}")
    grid = spec.grid
    fns = list(corpus(grid))
    _, c_semi, n_semi = _band(
        (
            max(lebesgue_norm(e, spec.p) for e in weighted_blocks(f, spec)),
            schwartz_seminorm(f, N),
        )
        for f in fns
    )
    psi = GridFunction(grid, _torus_gauss(grid, (0.5,) * grid.dim, 0.1))
    b_inf = replace(
        spec, scale="B", q=VariableExponent.constant(grid, np.inf)
    )
    _, c_pair, n_pair = _band(
        (abs(quadrature(f * psi)), quasi_norm(f, b_inf)) for f in fns
    )
    return SchwartzEmbeddingReport(c_semi, c_pair, N, threshold, min(n_semi, n_pair))


# -------------------------------------------------------------- multipliers


@dataclass(frozen=True)
class MultiplierReport:
    """Measured multiplier bound ||T_m f|| <= C M ||f|| over a corpus."""

    mode: str
    order: float
    threshold: float
    multiplier_norm: float
    constant: float
    ratio_min: float
    ratio_max: float
    corpus_size: int
    refinement_drift: float
    pairs: tuple  # base-grid (||T_m f||, ||f||) per corpus member, in corpus order

    @property
    def passes(self):
        return (
            np.isfinite(self.multiplier_norm)
            and np.isfinite(self.ratio_max)
            and self.refinement_drift < DRIFT_LIMIT
        )


def multiplier_order_threshold(spec, mode, clog_override=None):
    """Bound that 2l (mode "norm_2l") or kappa (mode "h2kappa") must exceed."""
    n = spec.grid.dim
    if mode == "norm_2l":
        return maximal_threshold(spec, clog_override) + n
    if mode == "h2kappa":
        return maximal_threshold(spec, clog_override) + n / 2.0
    raise ValueError("mode must be 'norm_2l' or 'h2kappa'")


def multiplier_bound_checks(corpus, spec, m, mode, order=None, clog_override=None):
    """Measure the constant in the multiplier inequality for symbol m.

    order is the integer l (mode "norm_2l", bound on 2l) or kappa (mode
    "h2kappa"); when omitted the smallest admissible integer is used.  A
    non-finite multiplier norm or an order below the threshold is an error.
    """
    threshold = multiplier_order_threshold(spec, mode, clog_override)
    if mode == "norm_2l":
        order = int(np.floor(threshold / 2.0)) + 1 if order is None else int(order)
        if not 2 * order > threshold:
            raise ValueError(f"need 2l > {threshold}, got l = {order}")
        mnorm = symbol_derivative_norm(m, order, spec.grid)
    else:
        order = int(np.floor(threshold)) + 1 if order is None else int(order)
        if not order > threshold:
            raise ValueError(f"need kappa > {threshold}, got kappa = {order}")
        mnorm = dyadic_bessel_norm(m, float(order), spec.grid, J=spec.J)
    if not np.isfinite(mnorm):
        raise ValueError("multiplier norm is infinite for this symbol")

    def make(grid):
        s = _on(spec, grid)
        mask = m.sample(grid)
        return lambda f: (quasi_norm(apply_multiplier(f, mask), s), quasi_norm(f, s))

    rep = _equivalence_report(corpus, spec.grid, make)
    return MultiplierReport(
        mode,
        float(order),
        threshold,
        mnorm,
        rep.ratio_max / mnorm,
        rep.ratio_min,
        rep.ratio_max,
        rep.corpus_size,
        rep.refinement_drift,
        rep.pairs,
    )


def bessel_scale_multiplier_check(corpus, p, s, m, system, J, kappa=None):
    """Multiplier bound on the F-scale space with q = 2 and weights 2^{js}.

    This is the Bessel-potential-type configuration: requires s >= 0 and
    1 < p^- <= p^+ < inf; the threshold reduces to n/min{p^-, 2} + n/2.
    """
    if s < 0.0:
        raise ValueError("need s >= 0")
    if not (1.0 < p.p_minus and np.isfinite(p.p_plus)):
        raise ValueError("need 1 < p_minus and p_plus < inf")
    grid = p.grid
    q2 = VariableExponent.constant(grid, 2.0)
    w = make_generalized(grid, J, 2.0 ** (s * np.arange(J + 1, dtype=float)))
    spec = SpaceSpec("F", p, q2, w, system, J)
    return multiplier_bound_checks(corpus, spec, m, "h2kappa", order=kappa)


def derivative_sum_check(corpus, spec, kappa):
    """Sum of all derivative norms up to order kappa, measured in the
    (-kappa)-shifted-weight space, against the source norm."""
    kappa = int(kappa)
    if kappa < 0:
        raise ValueError("kappa must be a nonnegative integer")
    gammas = multi_indices(spec.grid.dim, kappa)

    def make(grid):
        s = _on(spec, grid)
        target = replace(s, w=s.w.shifted(-float(kappa)))

        def pair(f):
            total = sum(
                quasi_norm(spectral_derivative(f, g), target) for g in gammas
            )
            return total, quasi_norm(f, s)

        return pair

    return _equivalence_report(corpus, spec.grid, make)


# ------------------------------------------------------ classical cross-check


def sobolev_cross_check(corpus, grid, s, profile="plateau"):
    """p = q = 2, weights 2^{js}: quasi-norm vs the direct coefficient form.

    The denominator is (sum_xi (1 + |xi|^2)^s |c_xi|^2)^(1/2); the ratio
    band is determined by the mask overlap and must be refinement-stable.
    J is grid-maximal on each leg.
    """

    def make(g):
        J = g.max_levels()
        sys = admissible_system(g, J, profile)
        p2 = VariableExponent.constant(g, 2.0)
        w = make_generalized(g, J, 2.0 ** (s * np.arange(J + 1, dtype=float)))
        spec = SpaceSpec("B", p2, p2, w, sys, J)
        weight = (1.0 + g.xi_norm**2) ** s

        def pair(f):
            c = coefficients(f)
            den = float(np.sqrt(np.sum(weight * np.abs(c) ** 2)))
            return quasi_norm(f, spec), den

        return pair

    return _equivalence_report(corpus, grid, make)

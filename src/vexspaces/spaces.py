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

from collections.abc import Sequence
from dataclasses import dataclass, field, replace

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
from .expr import InputError
from .lebesgue import norm as lebesgue_norm
from .mixed import lp_lq_norm, lq_lp_norm, lq_lp_norms
from .weights import _level_growth, make_generalized

__all__ = [
    "DRIFT_LIMIT",
    "SpaceSpec",
    "Band",
    "EquivalenceReport",
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

# block samples in one stacked mixed-norm solve of a check leg (2^15 at
# 16 bytes = 512 KiB of complex blocks)
_LEG_BLOCK = 1 << 15


@dataclass(frozen=True)
class Band:
    """Measured ratio band num/den over a corpus.

    pairs holds every member's (num, den) in corpus order; corpus_size is
    the number of members whose ratio was used.
    """

    ratio_min: float
    ratio_max: float
    corpus_size: int
    pairs: tuple

    def __post_init__(self):
        if self.ratio_min > self.ratio_max:
            raise ValueError("ratio_min must not exceed ratio_max")


def _band(pairs):
    """Band of num/den over (num, den) pairs, bounds as Python floats.

    The one reducer behind every constant measured over a corpus: a 0/0
    member carries no information and is skipped, x/0 is inf, and count
    is the number of members whose ratio was used.  A corpus with no
    usable member raises rather than reporting a constant of 0.
    """
    pairs = tuple(pairs)
    ratios = [
        np.inf if den == 0.0 else num / den
        for num, den in pairs
        if not (den == 0.0 and num == 0.0)
    ]
    if not ratios:
        raise ValueError("corpus produced no usable ratios")
    return Band(float(min(ratios)), float(max(ratios)), len(ratios), pairs)


@dataclass(frozen=True)
class SpaceSpec:
    """Parameters of one B- or F-scale space on a fixed grid."""

    scale: str
    p: VariableExponent
    q: VariableExponent
    w: object  # WeightSequence
    system: object  # AnalysisSystem
    J: int
    # grid -> refined spec; replace() starts a fresh, empty one
    _refined: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
        """Resample every ingredient onto another grid, keeping J.

        The spec is immutable, so the refinement onto one grid is built once
        (weight scans, system masks) and returned again for any equal grid.
        It is kept, with no size limit, as long as this spec lives: a spec
        refined onto k grids holds k refined specs (their p, q, weight levels
        and system masks).  The spec's own grid returns the spec itself.
        """
        if grid == self.grid:
            return self
        fine = self._refined.get(grid)
        if fine is None:
            fine = self._refined[grid] = SpaceSpec(
                self.scale,
                self.p.refine(grid),
                self.q.refine(grid),
                self.w.refine(grid),
                self.system.refine(grid),
                self.J,
            )
        return fine


def _bands(f, spec):
    """The unweighted blocks (phi_j * f)_{j <= J}."""
    if f.grid != spec.grid:
        raise ValueError("function and spec live on different grids")
    return FunctionSequence(littlewood_paley(f, spec.system).entries[: spec.J + 1])


def weighted_blocks(f, spec):
    """The sequence (w_j (phi_j * f))_{j <= J}."""
    return _bands(f, spec).weighted(spec.w.levels)


def _mixed_norm(blocks, spec):
    if spec.scale == "B":
        return lq_lp_norm(blocks, spec.p, spec.q)
    return lp_lq_norm(blocks, spec.p, spec.q)


def _stacked_pairs(spec, blocks):
    """The (num, den) pairs of a leg's members, as _equivalence_report asks.

    blocks(f) gives a member's num and den block sequences, both normed in
    spec's scale and exponents.  On the B-scale the sequences are the rows
    of one lq_lp_norms solve, _LEG_BLOCK stacked samples at a time (one
    sequence at least), so a leg holds at most that budget plus one
    member's sequences.  The F-scale norm gains nothing from rows, so each
    sequence is normed as blocks(f) gives it.
    """
    if spec.scale == "F":
        return lambda members: (
            tuple(lp_lq_norm(F, spec.p, spec.q) for F in blocks(f)) for f in members
        )

    def pairs(members):
        out, held, size = [], [], 0
        for f in members:
            for F in blocks(f):
                n = len(F) * F.grid.num_points
                if held and size + n > _LEG_BLOCK:
                    out += lq_lp_norms(held, spec.p, spec.q)
                    held, size = [], 0
                held.append(F)
                size += n
        out += lq_lp_norms(held, spec.p, spec.q)
        return zip(out[0::2], out[1::2])

    return pairs


def quasi_norm(f, spec):
    """l_q(L_p) (B) or L_p(l_q) (F) norm of the weighted blocks."""
    return _mixed_norm(weighted_blocks(f, spec), spec)


def _alpha_n_over_p(spec):
    """alpha + n/p^-: the Schwartz threshold and the B-scale maximal base."""
    return spec.w.declared_alpha + spec.grid.dim / spec.p.p_minus


def maximal_threshold(spec):
    """Lower bound the Peetre exponent a must exceed for the maximal route.

    B-scale: alpha + n/p^- + c_log(1/q) with c_log measured on the grid;
    F-scale: alpha + n/min{p^-, q^-}.
    """
    if spec.scale == "B":
        return _alpha_n_over_p(spec) + _clog_inv(spec.q)
    return spec.w.declared_alpha + spec.grid.dim / min(spec.p.p_minus, spec.q.p_minus)


def quasi_norm_maximal(f, spec, a):
    """(plain, maximal) mixed norms of the weighted blocks at exponent a.

    plain uses the blocks themselves, maximal their Peetre maximal
    functions; plain <= maximal always since y = x enters the supremum.
    The system may be any band system (admissible or general pair).
    """
    maximal, plain = (_mixed_norm(F, spec) for F in _maximal_blocks(f, spec, a))
    return plain, maximal


def _maximal_blocks(f, spec, a):
    """The weighted Peetre maximal blocks at a, then the weighted blocks,
    each built when it is asked for."""
    threshold = maximal_threshold(spec)
    if not a > threshold:
        raise ValueError(f"a = {a} must exceed the threshold {threshold}")
    F = _bands(f, spec)
    yield peetre_maximal(F, a).weighted(spec.w.levels)
    yield F.weighted(spec.w.levels)


def quasi_norm_local_means(f, spec, laplacian_order=1):
    """Local-means counterpart: head L_p term plus the j >= 1 mixed norm.

    Entry 0 is the unscaled kernel average w_0 k_0(1, f) measured in
    L_{p(.)}; entries j >= 1 carry the 2^-j-scaled Laplacian-power kernel.
    Both kernels are the default bumps of analysis.local_means.
    Requires 2*laplacian_order > measured alpha2 of the weight levels.
    """
    alpha2 = _level_growth(spec.w, spec.J)[2]
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
    ).ratio_max


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


def _trig_1d(grid, amps, phases, offset):
    ks = np.arange(1, 17, dtype=float)
    x = grid.coords[0]
    return offset + np.cos(2.0 * np.pi * np.multiply.outer(ks, x) + phases[:, None]).T @ amps


def _trig_2d(grid, k1, k2, amps, phases, offset):
    x, y = grid.coords
    vals = np.full(grid.shape, offset)
    for a, b, amp, ph in zip(k1, k2, amps, phases):
        vals = vals + amp * np.cos(2.0 * np.pi * (a * x + b * y) + ph)
    return vals


def _bump(grid, center, width, amp):
    return amp * _torus_gauss(grid, center, width)


def _mode(grid, k, ph):
    if grid.dim == 1:
        return np.cos(2.0 * np.pi * k * grid.coords[0] + ph)
    a, b = k
    return np.cos(2.0 * np.pi * (a * grid.coords[0] + b * grid.coords[1]) + ph)


def _chirp_member(grid, a, b, a2=None, b2=None):
    vals = _chirp(grid.coords[0], a, b)
    return vals if grid.dim == 1 else vals * _chirp(grid.coords[1], a2, b2)


class _Corpus(Sequence):
    """Read-only corpus; a member is sampled when it is indexed.

    Member parameters come from one iterator, drawn in stream order up to
    the highest member indexed so far, so every access order gives the same
    members.  Slices return lists of sampled members.
    """

    def __init__(self, grid, size, draws):
        self._grid = grid
        self._size = size
        self._draws = draws  # (sampler, parameters) per member, in order
        self._members = []

    def __len__(self):
        return self._size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(*i.indices(self._size))]
        i = range(self._size)[i]  # IndexError past the end, as a list
        while len(self._members) <= i:
            self._members.append(next(self._draws))
        sampler, params = self._members[i]
        return GridFunction(self._grid, sampler(self._grid, *params))


def _corpus_draws(dim, seed):
    """(sampler, parameters) of the 50 standard members, drawn lazily."""
    rng = np.random.default_rng(seed)
    # 20 random trigonometric polynomials with decaying amplitudes
    for _ in range(20):
        if dim == 1:
            ks = np.arange(1, 17, dtype=float)
            amps = rng.standard_normal(ks.size) / (1.0 + ks) ** 1.5
            phases = rng.uniform(0.0, 2.0 * np.pi, ks.size)
            yield _trig_1d, (amps, phases, rng.uniform(-0.5, 0.5))
        else:
            k1 = rng.integers(-5, 6, size=12)
            k2 = rng.integers(-5, 6, size=12)
            amps = rng.standard_normal(12) / (1.0 + np.hypot(k1, k2)) ** 1.5
            phases = rng.uniform(0.0, 2.0 * np.pi, 12)
            yield _trig_2d, (k1, k2, amps, phases, rng.uniform(-0.5, 0.5))
    # 10 gaussian bumps
    for _ in range(10):
        center = rng.uniform(0.0, 1.0, size=dim)
        width = rng.uniform(0.04, 0.12)
        yield _bump, (center, width, rng.uniform(0.5, 2.0))
    # 10 single modes with random phases
    modes = _MODES_1D if dim == 1 else _MODES_2D
    for i in range(10):
        yield _mode, (modes[i], rng.uniform(0.0, 2.0 * np.pi))
    # 10 smooth frequency-modulated chirps
    for _ in range(10):
        ab = (rng.uniform(1.0, 4.0), rng.uniform(0.5, 2.0))
        if dim == 2:
            ab += (rng.uniform(1.0, 4.0), rng.uniform(0.5, 2.0))
        yield _chirp_member, ab


def standard_corpus(grid, seed=2026):
    """Fifty fixed signals: 20 band-limited, 10 bumps, 10 modes, 10 chirps.

    The random parameters depend on the seed and the dimension alone, and
    every signal is sampled from a closed form, so the same seed produces
    the same underlying functions at any resolution.  No member is zero.
    The result is a read-only sequence that draws a member's parameters
    and samples it only when it is indexed, so a caller taking the first
    few pays for those alone.
    """
    return _Corpus(grid, 50, _corpus_draws(grid.dim, seed))


# ------------------------------------------------- equivalence measurement


@dataclass(frozen=True)
class EquivalenceReport(Band):
    """Base-grid ratio band over a corpus plus its refinement drift."""

    refinement_drift: float

    @property
    def passes(self):
        return (
            np.isfinite(self.ratio_max)
            and self.ratio_min > 0.0
            and self.refinement_drift < DRIFT_LIMIT
        )


def _equivalence_report(corpus, grid, make):
    """Band of num/den over corpus(grid), drift measured against 2N.

    make(g) takes the leg's members, corpus(g), and gives their (num, den)
    pairs in order.
    """

    def leg(g):
        return _band(make(g)(corpus(g)))

    band, fine = leg(grid), leg(Grid(grid.dim, 2 * grid.n))
    drift = abs(
        np.log(band.ratio_max / band.ratio_min)
        - np.log(fine.ratio_max / fine.ratio_min)
    )
    return EquivalenceReport(**vars(band), refinement_drift=float(drift))


def pair_independence_check(corpus, spec_a, spec_b):
    """Quasi-norm ratios between two specs differing only in the system.

    corpus is a callable grid -> iterable of GridFunctions so the same
    signals can be resampled for the refinement leg.  Because the specs must
    share p, q and w, the refinement leg refines those once, from spec_a,
    and takes only the system from spec_b.
    """
    if spec_a.scale != spec_b.scale or spec_a.J != spec_b.J:
        raise InputError("specs must differ only in the analysis system")
    if not (
        np.array_equal(spec_a.p.values, spec_b.p.values)
        and np.array_equal(spec_a.q.values, spec_b.q.values)
        and all(
            np.array_equal(wa, wb)
            for wa, wb in zip(spec_a.w.levels, spec_b.w.levels)
        )
    ):
        raise InputError("specs must differ only in the analysis system")
    for s in (spec_a, spec_b):
        if s.system.kind != "admissible_pair":
            raise InputError("pair independence is claimed for admissible pairs")

    def make(grid):
        sa = spec_a.refine(grid)
        sb = spec_b if sa is spec_a else replace(sa, system=spec_b.system.refine(grid))
        return _stacked_pairs(sa, lambda f: (weighted_blocks(f, sa), weighted_blocks(f, sb)))

    return _equivalence_report(corpus, spec_a.grid, make)


def lifting_check(corpus, spec, sigma):
    """Ratios of ||lift(f, sigma)|| in the (-sigma)-shifted-weight space
    to ||f|| in the source space."""

    def make(grid):
        s = spec.refine(grid)
        target = replace(s, w=s.w.shifted(-float(sigma)))
        return _stacked_pairs(
            s, lambda f: (weighted_blocks(lift(f, sigma), target), weighted_blocks(f, s))
        )

    return _equivalence_report(corpus, spec.grid, make)


def maximal_equivalence_check(corpus, spec):
    """Ratio band of the maximal-route norm over the plain block norm.

    The Peetre exponent a is the base-grid threshold + 1, used on both
    refinement legs; each leg checks a against its own measured threshold.
    By pointwise domination every ratio is >= 1.
    """
    a = maximal_threshold(spec) + 1.0

    def make(grid):
        s = spec.refine(grid)
        return _stacked_pairs(s, lambda f: _maximal_blocks(f, s, a))  # (maximal, plain)

    return _equivalence_report(corpus, spec.grid, make)


def local_means_equivalence_check(corpus, spec, laplacian_order=1):
    """Ratio band of the local-means route over the block quasi-norm,
    with the default kernels of analysis.local_means."""

    def make(grid):
        s = spec.refine(grid)

        def pair(f):
            return (
                quasi_norm_local_means(f, s, laplacian_order),
                quasi_norm(f, s),
            )

        return lambda members: map(pair, members)

    return _equivalence_report(corpus, spec.grid, make)


# -------------------------------------------------------------- embeddings


def q_monotone_embedding_check(corpus, spec, q1):
    """Band of ||f||_{q1} / ||f||_{q0}: growing q can only shrink the norm,
    so ratio_max is the measured embedding constant."""
    if np.any(q1.values < spec.q.values):
        raise InputError("need q0 <= q1 pointwise")
    if spec.scale == "F" and not np.isfinite(q1.p_plus):
        raise InputError("F-scale needs q1_plus < inf")
    target = replace(spec, q=q1)
    return _band(
        (quasi_norm(f, target), quasi_norm(f, spec)) for f in corpus(spec.grid)
    )


def _q_star(q0, q1):
    """Exponent with 1/q* = (1/q1 - 1/q0^+)_+ (inf where non-positive)."""
    inv0 = 0.0 if not np.isfinite(q0.p_plus) else 1.0 / q0.p_plus
    inv = np.maximum(q1.reciprocal_values() - inv0, 0.0)
    with np.errstate(divide="ignore"):
        values = np.where(inv > 0.0, 1.0 / inv, np.inf)
    return VariableExponent(q1.grid, values)


def weight_pair_embedding_check(corpus, spec, v, q1=None):
    """Weight-for-weight embedding with the q*-summability condition.

    Returns (band, condition): the band of ||f||_{target} / ||f||_{source},
    whose ratio_max is the measured constant C, and the mixed norm of the
    ratios (v_j/w_j)_j — l_{q*}(L_inf) on the B-scale, L_inf(l_{q*}) on the
    F-scale.
    """
    grid = spec.grid
    q1 = spec.q if q1 is None else q1
    if spec.scale == "F" and not (
        np.isfinite(spec.q.p_plus) and np.isfinite(q1.p_plus)
    ):
        raise InputError("F-scale needs finite q0, q1")
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
    band = _band((quasi_norm(f, target), quasi_norm(f, spec)) for f in corpus(grid))
    return band, condition


def bf_sandwich_check(corpus, f_spec):
    """Bands (inward, outward) of the comparison B_{min(p,q)} -> F ->
    B_{max(p,q)}: ||f||_F / ||f||_{B_min} and ||f||_{B_max} / ||f||_F."""
    if f_spec.scale != "F":
        raise InputError("the sandwich starts from an F-scale spec")
    b_lo = replace(f_spec, scale="B", q=pointwise_min(f_spec.p, f_spec.q))
    b_hi = replace(f_spec, scale="B", q=pointwise_max(f_spec.p, f_spec.q))
    norms = [
        (quasi_norm(f, b_lo), quasi_norm(f, f_spec), quasi_norm(f, b_hi))
        for f in corpus(f_spec.grid)
    ]
    return (
        _band((mid, lo) for lo, mid, _ in norms),
        _band((hi, mid) for _, mid, hi in norms),
    )


# ------------------------------------------------- smooth-signal inequalities


def schwartz_embedding_checks(corpus, spec, N):
    """Bands (seminorm, pairing): (a) sup_j ||w_j (phi_j*f)||_p over the
    order-N decay seminorm; (b) |quadrature(f psi)| over the q = inf
    B-scale quasi-norm.

    Needs N > alpha + n/p^-; psi is a fixed centered bump.
    """
    threshold = _alpha_n_over_p(spec)
    if not N > threshold:
        raise InputError(f"need N > {threshold}, got N = {N}")
    grid = spec.grid
    fns = list(corpus(grid))
    seminorm = _band(
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
    pairing = _band((abs(quadrature(f * psi)), quasi_norm(f, b_inf)) for f in fns)
    return seminorm, pairing


# -------------------------------------------------------------- multipliers


@dataclass(frozen=True, kw_only=True)
class MultiplierReport(EquivalenceReport):
    """Measured multiplier bound ||T_m f|| <= C M ||f|| over a corpus.

    pairs are the base-grid (||T_m f||, ||f||).  A multiplier may send a
    member to 0, so passes does not ask for ratio_min > 0.
    """

    mode: str
    order: float
    threshold: float
    multiplier_norm: float
    constant: float

    @property
    def passes(self):
        return (
            np.isfinite(self.multiplier_norm)
            and np.isfinite(self.ratio_max)
            and self.refinement_drift < DRIFT_LIMIT
        )


def multiplier_order_threshold(spec, mode):
    """Bound that 2l (mode "norm_2l") or kappa (mode "h2kappa") must exceed."""
    n = spec.grid.dim
    if mode == "norm_2l":
        return maximal_threshold(spec) + n
    if mode == "h2kappa":
        return maximal_threshold(spec) + n / 2.0
    raise InputError("mode must be 'norm_2l' or 'h2kappa'")


def multiplier_bound_checks(corpus, spec, m, mode, order=None):
    """Measure the constant in the multiplier inequality for symbol m.

    order is the integer l (mode "norm_2l", bound on 2l) or kappa (mode
    "h2kappa"); when omitted the smallest admissible integer is used.  A
    non-finite multiplier norm, an order below the threshold or an unknown
    mode raises InputError (a ValueError).
    """
    threshold = multiplier_order_threshold(spec, mode)
    if mode == "norm_2l":
        order = int(np.floor(threshold / 2.0)) + 1 if order is None else int(order)
        if not 2 * order > threshold:
            raise InputError(f"need 2l > {threshold}, got l = {order}")
        mnorm = symbol_derivative_norm(m, order, spec.grid)
    else:
        order = int(np.floor(threshold)) + 1 if order is None else int(order)
        if not order > threshold:
            raise InputError(f"need kappa > {threshold}, got kappa = {order}")
        mnorm = dyadic_bessel_norm(m, float(order), spec.grid, J=spec.J)
    if not np.isfinite(mnorm):
        raise InputError("multiplier norm is infinite for this symbol")

    def make(grid):
        s = spec.refine(grid)
        mask = m.sample(grid)
        return _stacked_pairs(
            s, lambda f: (weighted_blocks(apply_multiplier(f, mask), s), weighted_blocks(f, s))
        )

    rep = _equivalence_report(corpus, spec.grid, make)
    return MultiplierReport(
        **vars(rep),
        mode=mode,
        order=float(order),
        threshold=threshold,
        multiplier_norm=mnorm,
        constant=rep.ratio_max / mnorm,
    )


def bessel_scale_multiplier_check(corpus, p, s, m, system, J, kappa=None):
    """Multiplier bound on the F-scale space with q = 2 and weights 2^{js}.

    This is the Bessel-potential-type configuration: requires s >= 0 and
    1 < p^- <= p^+ < inf; the threshold reduces to n/min{p^-, 2} + n/2.
    """
    if s < 0.0:
        raise InputError("need s >= 0")
    if not (1.0 < p.p_minus and np.isfinite(p.p_plus)):
        raise InputError("need 1 < p_minus and p_plus < inf")
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
        raise InputError("kappa must be a nonnegative integer")
    gammas = multi_indices(spec.grid.dim, kappa)

    def make(grid):
        s = spec.refine(grid)
        target = replace(s, w=s.w.shifted(-float(kappa)))

        def pair(f):
            total = sum(
                quasi_norm(spectral_derivative(f, g), target) for g in gammas
            )
            return total, quasi_norm(f, s)

        return lambda members: map(pair, members)

    return _equivalence_report(corpus, spec.grid, make)


# ------------------------------------------------------ classical cross-check


def sobolev_cross_check(corpus, grid, s):
    """p = q = 2, weights 2^{js}, plateau system: quasi-norm vs coefficients.

    The denominator is (sum_xi (1 + |xi|^2)^s |c_xi|^2)^(1/2); the ratio
    band is determined by the mask overlap and must be refinement-stable.
    J is grid-maximal on each leg.
    """

    def make(g):
        J = g.max_levels()
        sys = admissible_system(g, J)
        p2 = VariableExponent.constant(g, 2.0)
        w = make_generalized(g, J, 2.0 ** (s * np.arange(J + 1, dtype=float)))
        spec = SpaceSpec("B", p2, p2, w, sys, J)
        weight = (1.0 + g.xi_norm**2) ** s

        def pair(f):
            c = coefficients(f)
            den = float(np.sqrt(np.sum(weight * np.abs(c) ** 2)))
            return quasi_norm(f, spec), den

        return lambda members: map(pair, members)

    return _equivalence_report(corpus, grid, make)

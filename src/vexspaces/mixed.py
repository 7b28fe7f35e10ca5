"""Mixed Lebesgue-sequence quasi-norms and the smoothing inequalities.

Two scales act on a finite sequence (f_0, ..., f_J):

* L_p(l_q): the pointwise l_{q(x)} norm over levels, then the Luxemburg
  norm in L_{p(.)}.
* l_q(L_p): modular sum_nu inf{lam_nu > 0 : rho_p(f_nu / lam_nu^(1/q(.)))
  <= 1}, normed by an outer Luxemburg root solve.  When q^+ < inf the inner
  infimum collapses to || |f_nu|^q ||_{p/q} (an exact identity, kept as a
  checkable dual route); where q = inf, lam^(1/inf) = 1 makes the predicate
  lambda-independent and the infimum degenerates to 0 or inf, handled by an
  explicit case split.

The norm takes one of three routes.  For constant finite q the modular of
F/mu is mu^-q times that of F, so one modular evaluation closes the norm:
||F|| = peak * m^(1/q) with m the modular of F/peak.  For variable finite q
each outer step solves the J+1 level infima as lanes of one luxemburg_root
over the stacked levels, every lane warm-started from the nearest mu
already solved: with c = mu'/mu > 1, lam_nu(mu') lies in
[c^-q^+ lam_nu(mu), c^-q^- lam_nu(mu)] by monotonicity and homogeneity.
The same lane pass gives the slope of each level infimum in mu, and of
each lane's modular in its lam, for the tangent (Newton) steps of
luxemburg_root.  Where q = inf somewhere the outer solve runs over
lq_lp_modular, whose level infima give their slopes too; the outer
modular gives none, so its steps take the chord slope.  A level infimum
below the double range adds 0 to the modular; a norm below it raises
BracketError.

The module also ships the smoothing operators whose mixed-norm bounds carry
explicit constants: the level coupling G_nu = sum_k 2^(-|k-nu| delta) g_k
and convolution with periodized kernels eta_{nu,R} = 2^(n nu)
(1 + 2^nu |x|)^(-R).  In 1D their image series is summed in closed form
through the Hurwitz zeta by Euler-Maclaurin.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exponents import _clog_inv, pointwise_min, pointwise_max
from .grid import FunctionSequence, GridFunction, coefficients, convolve, quadrature
from .lebesgue import (
    REL_TOL,
    BracketError,
    _modular_value,
    luxemburg_root,
    norm as lebesgue_norm,
)

__all__ = [
    "BracketError",
    "pointwise_lq",
    "lp_lq_norm",
    "lq_lp_modular",
    "lq_lp_norm",
    "iterated_constant_q_norm",
    "smooth_sequence",
    "smoothing_constants",
    "EtaKernel",
    "eta_kernel",
    "eta_integrability_probe",
    "MixedEmbeddingReport",
    "mixed_embedding_check",
    "ConvolutionInequalityReport",
    "convolution_inequality_report",
]


def _check_seq(F, p, q):
    if F.grid != p.grid or F.grid != q.grid:
        raise ValueError("sequence and exponents must share one grid")


def pointwise_lq(stack_abs, q_values):
    """l_{q(x)} norm across axis 0 of a stack of |samples|.

    As hypot does, the levels are divided by their pointwise maximum before
    the power and the sum is multiplied back, so the power neither
    underflows nor overflows at any amplitude.
    """
    out = np.max(stack_abs, axis=0)  # the norm itself where q = inf
    finite = np.isfinite(q_values)
    if finite.any():
        qf = q_values[finite]
        top = np.where(out[finite] > 0.0, out[finite], 1.0)
        with np.errstate(over="ignore"):
            sums = np.sum((stack_abs[:, finite] / top) ** qf, axis=0)
            out[finite] = top * sums ** (1.0 / qf)
    return out


def lp_lq_norm(F, p, q):
    """Norm of F in L_{p(.)}(l_{q(.)}): inner levels, outer space."""
    _check_seq(F, p, q)
    inner = pointwise_lq(F.abs_stack(), q.values)
    return lebesgue_norm(GridFunction(F.grid, inner), p)


def _level_infimum(abs_samples, p, q, cell_volume):
    """inf{lam > 0 : rho_p(f / lam^(1/q(.))) <= 1} for one level.

    On {q = inf} the scaling is lam-independent, so that region contributes
    a fixed amount to the modular; if nothing varies with lam the infimum is
    0 when the fixed part is admissible and inf otherwise.  Otherwise the
    root solve walks from lam = 1 (halving or doubling) and returns inf if
    no lam up to 2^MAX_ITER is admissible.
    """
    q_inf = ~np.isfinite(q.values)
    inv_q = np.where(q_inf, 0.0, 1.0 / np.where(q_inf, 1.0, q.values))

    fixed_part, _ = _modular_value(np.where(q_inf, abs_samples, 0.0), p.values, cell_volume)
    if fixed_part > 1.0:
        return np.inf
    if not abs_samples[~q_inf].any():
        return 0.0
    p_inf = ~np.isfinite(p.values)
    pv = p.values[~p_inf]
    weights = pv * inv_q[~p_inf]  # each term scales as lam^-p/q

    def value(lam):
        with np.errstate(over="ignore", invalid="ignore"):
            scaled = abs_samples * lam**-inv_q
            if np.any(scaled[p_inf] > 1.0):
                return np.inf, None
            t = scaled[~p_inf] ** pv
            total = float(t.sum())
            return cell_volume * total, -weights.dot(t) / total

    return luxemburg_root(value, 2.0, 1.0)


def lq_lp_modular(F, p, q, force_general=False):
    """Modular of F in l_{q(.)}(L_{p(.)}); may be inf.

    With q^+ < inf the per-level infimum equals || |f_nu|^q ||_{L_{p/q}}
    and that closed route is taken; where |f_nu|^q overflows, that level,
    and so the modular, is inf; a level whose infimum is below the double
    range adds 0.  force_general keeps the raw root solve on the defining
    infimum (used to cross-check the identity).
    """
    _check_seq(F, p, q)
    if q.p_plus < np.inf and not force_general:
        pq = p.divided_pointwise(q)
        total = 0.0
        for f in F:
            with np.errstate(over="ignore"):
                aq = np.abs(f.samples) ** q.values
            if np.isinf(aq).any():
                return np.inf
            try:
                total += lebesgue_norm(GridFunction(F.grid, aq), pq)
            except BracketError:
                pass  # a level below the double range adds 0 to the sum
        return total
    cell = F.grid.cell_volume
    total = 0.0
    for f in F:
        level = _level_infimum(np.abs(f.samples), p, q, cell)
        if level == np.inf:
            return np.inf
        total += level
    return total


def _level_lanes(F, p, q):
    """modular(mu) of F/mu in l_{q(.)}(L_{p(.)}) for finite q, by lanes,
    with its slope d log modular / d log mu.

    One call solves the J+1 closed-route infima || |f_nu/mu|^q ||_{p/q} as
    lanes of one luxemburg_root over the (J+1, N^dim) stack, each split
    into its p = inf region (an ess-sup) and its finite part, as
    lebesgue.norm does.  Each lane starts from the mu already solved
    nearest to this one: with c = mu'/mu, |f/mu'|^q = c^-q |f/mu|^q, so by
    monotonicity and homogeneity of the norm lam(mu') lies between
    c^-q^+ lam(mu) and c^-q^- lam(mu) (the two swap for c < 1).  The
    previous lam is known within REL_TOL, and the powers are not computed as
    c^-q times the old ones, so the ends carry a rounding margin.

    A warm lane and the cold per-level solve of lq_lp_modular end at
    different points of their REL_TOL brackets, so the returned modular is
    the lane sum over (1 - REL_TOL), which bounds the sum lq_lp_modular
    computes from above: the norm it yields keeps lq_lp_modular <= 1.

    The slope comes from the same lane pass.  A finite-part root lam_nu
    solves sum t = 1 over the terms t = cell |f_nu/mu|^p lam_nu^-p/q, so
    d log lam_nu / d log mu = -sum p t / sum (p/q) t, taken from the terms
    at each lane's last evaluation (within REL_TOL of its root); an
    ess-sup level moves as mu^-q(x*) at its maximizer x*.  The slope of
    the modular is the level-weighted mean of the level slopes.  Each lane
    also gets its own slope in lam, -sum (p/q) t / sum t, so the lanes
    take tangent steps too.
    """
    levels = len(F)
    a = F.abs_stack().reshape(levels, -1)
    qv = q.values.ravel()
    pq = p.values.ravel() / qv
    finite = np.isfinite(pq)
    pv = pq[finite]
    moments_of = np.stack([pv * qv[finite], pv], axis=1)  # columns p and p/q
    q_ess = qv[~finite]
    cell = F.grid.cell_volume
    q_minus, q_plus = q.p_minus, q.p_plus
    solved = {}  # mu -> finite-part root of every level (0 where none)
    # reused buffers: temporaries of this size cost a fresh allocation each
    g = np.empty(a.shape)  # |f_nu/mu|^q
    buf = np.empty((levels, pv.size))  # one evaluation of the open lanes
    moments = np.zeros((levels, 2))  # sum p t, sum (p/q) t at the last evaluation

    def modular(mu):
        # 0 * inf is NaN where 1/mu overflows (a subnormal mu)
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply(a, 1.0 / mu, out=g)
            np.power(g, qv, out=g)
        ess = np.zeros(levels)
        slope = np.zeros(levels)  # d log level / d log mu where the ess-sup sets it
        if q_ess.size:
            G_ess = g[:, ~finite]
            at = np.argmax(G_ess, axis=1)
            ess = G_ess[np.arange(levels), at]
            slope = -q_ess[at]
        G = g if finite.all() else g[:, finite]
        hi = np.max(G, axis=1, initial=0.0)  # a root bound on a measure-1 domain
        lo = hi / 2.0
        near = min(solved, key=lambda m: abs(math.log(m / mu)), default=None)
        # start cold where c^-q could overflow
        if near is not None and abs(math.log(mu / near)) * q_plus < 600.0:
            c = mu / near
            low, high = sorted((c**-q_plus, c**-q_minus))
            prev = solved[near]
            warm = prev > 0.0
            # the old root lies in ((1 - REL_TOL) prev, prev]; one more
            # REL_TOL on each end covers the rounding
            hi = np.where(warm, np.minimum(hi, high * (1.0 + REL_TOL) * prev), hi)
            lo = np.where(warm, np.minimum(hi, low * (1.0 - 2.0 * REL_TOL) * prev), lo)
            # a warm lo that underflows would end its lane at 0 unevaluated
            lo = np.where(lo > 0.0, lo, hi / 2.0)
        rows = np.flatnonzero(hi > 0.0)

        def value(lam, open_rows):
            x = buf[: open_rows.size]
            np.take(G, rows[open_rows], axis=0, out=x)
            with np.errstate(over="ignore", invalid="ignore"):
                np.divide(x, lam[:, None], out=x)
                np.power(x, pv, out=x)
                m = x @ moments_of
                moments[rows[open_rows]] = m
                total = x.sum(axis=1)
                return cell * total, -m[:, 1] / total

        fin = np.zeros(levels)
        fin[rows] = luxemburg_root(value, hi[rows], lo[rows])
        solved[mu] = fin
        level = np.maximum(ess, fin)
        total = float(np.sum(level))
        if not 0.0 < total < np.inf:
            return total / (1.0 - REL_TOL), None
        by_fin = fin > ess
        with np.errstate(divide="ignore", invalid="ignore"):
            slope[by_fin] = -moments[by_fin, 0] / moments[by_fin, 1]
        return total / (1.0 - REL_TOL), float(np.dot(level, slope)) / total

    return modular


def lq_lp_norm(F, p, q):
    """Norm of F in l_{q(.)}(L_{p(.)}): outer Luxemburg on the modular.

    Constant finite q needs no outer solve: the modular of F/mu is
    mu^-q times that of F, so the norm is peak * m^(1/q) with m the
    modular of F/peak over (1 - REL_TOL), the margin _level_lanes takes:
    each level of F/mu lands anywhere in its own REL_TOL bracket.
    Variable finite q solves the outer root over _level_lanes, which gives
    each modular with its slope, so the outer solve takes tangent (Newton)
    steps on log modular over log mu; q = inf somewhere keeps
    lq_lp_modular and its _level_infimum, with chord slopes outside.  The
    outer root walks from mu = peak until it brackets the root.  Either
    route raises BracketError when the norm is outside the double range or
    no mu below 2^MAX_ITER peak is admissible.
    """
    _check_seq(F, p, q)
    peak = max(f.max_abs() for f in F)
    if peak == 0.0:
        return 0.0
    if q.p_plus < np.inf and q.is_constant():
        m = lq_lp_modular(F.scaled(1.0 / peak), p, q)
        with np.errstate(over="ignore"):
            mu = peak * np.float64(m / (1.0 - REL_TOL)) ** (1.0 / q.p_plus)
    else:
        if q.p_plus < np.inf:
            modular = _level_lanes(F, p, q)
        else:
            modular = lambda mu: lq_lp_modular(F.scaled(1.0 / mu), p, q)
        mu = luxemburg_root(modular, 2.0 * peak, peak)
    if not np.isfinite(mu):
        raise BracketError("failed to bracket the mixed norm from above")
    if mu == 0.0:
        raise BracketError("norm below the double range")
    return float(mu)


def iterated_constant_q_norm(F, p, q_const):
    """l_q of the per-level Luxemburg norms, for constant q (dual route).

    For constant q the mixed norm factors through the scalar sequence of
    level norms; this computes that factored form directly.
    """
    level_norms = np.array([lebesgue_norm(f, p) for f in F])
    if np.isinf(q_const):
        return float(level_norms.max())
    return float(np.sum(level_norms**q_const) ** (1.0 / q_const))


def smooth_sequence(g, delta):
    """Level coupling G_nu = sum_k 2^(-|k - nu| delta) g_k, exact finite sum.

    Entries must be real and nonnegative; the explicit-constant bounds
    downstream are stated for nonnegative sequences.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    stack = g.stack()
    if np.iscomplexobj(stack):
        if np.max(np.abs(stack.imag)) > 0:
            raise ValueError("smooth_sequence needs real nonnegative entries")
        stack = stack.real
    if np.any(stack < 0):
        raise ValueError("smooth_sequence needs nonnegative entries")
    k = np.arange(len(g))
    coupling = 2.0 ** (-np.abs(k[:, None] - k[None, :]) * float(delta))
    return FunctionSequence.from_stack(g.grid, np.tensordot(coupling, stack, axes=(1, 0)))


def smoothing_constants(delta):
    """(Minkowski constant, modular constant) for the coupling at delta.

    2 / (1 - 2^-delta) bounds the constant-q L_p(l_q) operator norm of the
    coupling; the modular bound rho((G_nu)/(c mu)) <= 1 holds with
    c = c(delta)^2 where c(delta) = (1 + 2^(-delta/2)) / (1 - 2^(-delta/2))
    is the two-sided geometric sum sum_l 2^(-|l| delta / 2), and mu the
    l_q(L_p) norm of the input (p, q >= 1 pointwise).
    """
    minkowski = 2.0 / (1.0 - 2.0 ** (-delta))
    c_delta = (1.0 + 2.0 ** (-delta / 2.0)) / (1.0 - 2.0 ** (-delta / 2.0))
    return minkowski, c_delta**2


@dataclass(frozen=True)
class EtaKernel:
    """Periodized decay kernel eta_{nu,R}(x) = 2^(n nu) (1 + 2^nu |x|)^(-R).

    truncation_radius is -1 when the periodization was summed in closed
    form; otherwise tail_bound bounds pointwise the discarded image sum.
    """

    grid: object
    level: int
    decay: float
    samples: object
    mask: object
    truncation_radius: int
    tail_bound: float

    def convolve(self, f):
        """Convolution eta * f through the grid frequency set."""
        return convolve(f, self.mask)

    def l1_norm(self):
        return float(np.real(quadrature(self.samples.abs())))


def _even_bernoulli(m):
    """B_2, B_4, ..., B_2m as exact fractions (Akiyama-Tanigawa)."""
    row, out = [], []
    for n in range(2 * m + 1):
        row.append(Fraction(1, n + 1))
        for j in range(n, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        if n >= 2 and n % 2 == 0:
            out.append(row[0])
    return out


# Euler-Maclaurin for the Hurwitz zeta (F. Johansson, arXiv:1309.2877):
# _ZETA_HEAD terms summed directly, then the integral, the half term and the
# Bernoulli corrections B_2j / (2j)! up to B_16
_ZETA_HEAD = 12
_ZETA_CORRECTIONS = tuple(
    float(b / math.factorial(2 * j)) for j, b in enumerate(_even_bernoulli(8), start=1)
)


def _scaled_hurwitz_zeta(s, a):
    """a^s zeta(s, a) = sum_{k>=0} (a / (a + k))^s for s > 1 and a > 0.

    Every term is at most 1, so the scaled form neither overflows at small a
    nor underflows where zeta(s, a) itself would.  With b = a + _ZETA_HEAD
    the tail after the head is (a/b)^s (b/(s-1) + 1/2 + sum_j B_2j/(2j)!
    s(s+1)...(s+2j-2) b^(1-2j)).
    """
    k = np.arange(_ZETA_HEAD - 1, -1, -1.0)  # smallest terms first
    head = np.sum((a[..., None] / (a[..., None] + k)) ** s, axis=-1)
    b = a + _ZETA_HEAD
    term = s / b  # rising factorial over b^(2j-1), j = 1
    tail = b / (s - 1.0) + 0.5
    for j, coef in enumerate(_ZETA_CORRECTIONS, start=1):
        tail = tail + coef * term
        term = term * ((s + 2 * j - 1) * (s + 2 * j)) / (b * b)
    return head + (a / b) ** s * tail


def _eta_samples_1d(grid, level, decay):
    # image sum in closed form: the images right of x give
    # sum_{k>=0} (1 + 2^nu (x + k))^(-R) = (2^nu a)^(-R) a^R zeta(R, a) with
    # a = 2^-nu + x, and those left of x the same at a = 2^-nu + 1 - x
    x = grid.coords[0]
    scale = 2.0**level
    c = 1.0 / scale
    vals = sum((scale * a) ** -decay * _scaled_hurwitz_zeta(decay, a) for a in (c + x, c + 1.0 - x))
    return scale * vals, -1, 0.0


def _eta_samples_2d(grid, level, decay):
    x, y = grid.coords
    c = 2.0 ** (-level)
    pref = 2.0 ** (level * (2.0 - decay))
    total = pref * (c + np.sqrt(x * x + y * y)) ** (-decay)
    ring = 1
    while ring <= 256:
        offsets = [(a, b) for a in range(-ring, ring + 1) for b in (-ring, ring)]
        offsets += [(a, b) for a in (-ring, ring) for b in range(-ring + 1, ring)]
        ring_max = 0.0
        for ox, oy in offsets:
            term = pref * (c + np.sqrt((x + ox) ** 2 + (y + oy) ** 2)) ** (-decay)
            total += term
            ring_max = max(ring_max, float(term.max()))
        if ring > 1 and ring_max < 1e-15:
            break
        ring += 1
    # images at ring r sit at distance >= r - 1 and number 8r <= 16(r - 1)
    # for r >= 2, so the discarded sum is <= 16 pref sum_{m >= ring-1} m^(1-R)
    tail = 16.0 * pref * (ring - 2.0) ** (2.0 - decay) / (decay - 2.0) if decay > 2.0 else np.inf
    return total, ring, float(tail)


def eta_kernel(grid, level, decay):
    """Periodize the kernel and cache its convolution mask.

    1D periodization is exact (Hurwitz zeta by Euler-Maclaurin); 2D
    sums square rings of images until a ring's peak drops below 1e-15 (at
    most 256 rings), reporting the truncation radius and a pointwise bound
    on the discarded tail.  decay <= dim is the non-integrable regime:
    construction is refused, probe it with eta_integrability_probe
    instead.
    """
    if level < 0:
        raise ValueError("level must be >= 0")
    if decay <= grid.dim:
        raise ValueError(
            f"decay {decay} <= dim {grid.dim}: kernel not integrable; "
            "use eta_integrability_probe to document the growth"
        )
    if grid.dim == 1:
        vals, radius, tail = _eta_samples_1d(grid, level, decay)
    else:
        vals, radius, tail = _eta_samples_2d(grid, level, decay)
    gf = GridFunction(grid, vals)
    return EtaKernel(
        grid=grid,
        level=int(level),
        decay=float(decay),
        samples=gf,
        mask=coefficients(gf),
        truncation_radius=radius,
        tail_bound=tail,
    )


def eta_integrability_probe(grid, level, decay):
    """Mean of the truncated image sum at radii 8 and 64 (its L1 mass).

    For decay <= dim the mass keeps growing with the radius; the returned
    pair documents the divergence without attempting a full periodization.
    """
    c = 2.0 ** (-level)
    pref = 2.0 ** (level * (grid.dim - decay))
    masses = []
    if grid.dim == 1:
        x = grid.coords[0]
        for radius in (8, 64):
            total = np.zeros(grid.shape)
            for k in range(-radius, radius + 1):
                total += pref * (c + np.abs(x + k)) ** (-decay)
            masses.append(float(total.mean()))
    else:
        x, y = grid.coords
        for radius in (8, 64):
            total = np.zeros(grid.shape)
            for ox in range(-radius, radius + 1):
                for oy in range(-radius, radius + 1):
                    total += pref * (c + np.sqrt((x + ox) ** 2 + (y + oy) ** 2)) ** (-decay)
            masses.append(float(total.mean()))
    return tuple(masses)


@dataclass(frozen=True)
class MixedEmbeddingReport:
    """Measured constants of the four sequence-space embeddings.

    The two monotone ratios must be <= 1 (embedding constant 1); the
    sandwich ratios are finite constants only, NaN when p or q hits inf.
    A ratio of two zero norms (F = 0) is NaN too.
    """

    c_lp_lq_monotone: float  # ||F||_{Lp(lq1)} / ||F||_{Lp(lq0)}
    c_lq_lp_monotone: float  # ||F||_{lq1(Lp)} / ||F||_{lq0(Lp)}
    c_sandwich_in: float  # ||F||_{Lp(lq1)} / ||F||_{l_min(Lp)}
    c_sandwich_out: float  # ||F||_{l_max(Lp)} / ||F||_{Lp(lq1)}


def _ratio(x, y):
    """x / y as a measured constant: x/0 is inf and 0/0, which carries no
    information, is NaN."""
    if y == 0.0:
        return np.nan if x == 0.0 else np.inf
    return x / y


def mixed_embedding_check(F, p, q0, q1):
    """Measure the embedding constants for q0 <= q1 pointwise.

    The sandwich l_min{p,q}(L_p) -> L_p(l_q) -> l_max{p,q}(L_p) is
    evaluated at q = q1 and needs p^+, q1^+ < inf.
    """
    if np.any(q0.values > q1.values):
        raise ValueError("need q0 <= q1 pointwise")
    lp_q0 = lp_lq_norm(F, p, q0)
    lp_q1 = lp_lq_norm(F, p, q1)
    lq0_p = lq_lp_norm(F, p, q0)
    lq1_p = lq_lp_norm(F, p, q1)
    if p.p_plus == np.inf or q1.p_plus == np.inf:
        lo = hi = np.nan
    else:
        lo = lq_lp_norm(F, p, pointwise_min(p, q1))
        hi = lq_lp_norm(F, p, pointwise_max(p, q1))
    return MixedEmbeddingReport(
        c_lp_lq_monotone=_ratio(lp_q1, lp_q0),
        c_lq_lp_monotone=_ratio(lq1_p, lq0_p),
        c_sandwich_in=_ratio(lp_q1, lo),
        c_sandwich_out=_ratio(hi, lp_q1),
    )


@dataclass(frozen=True)
class ConvolutionInequalityReport:
    """Measured constants for the two smoothing inequalities."""

    delta: float
    decay: float
    c_coupling_lp_lq: float
    c_coupling_lq_lp: float
    minkowski_bound: float
    minkowski_applicable: bool  # constant q >= 1
    modular_value: float  # rho((G_nu)/(c mu)) with the proof constant c
    modular_applicable: bool  # p, q >= 1 pointwise
    c_eta_lp_lq: float
    c_eta_lq_lp: float
    eta_f_applicable: bool  # 1 < p- <= p+ < inf, 1 < q- <= q+ < inf, decay > dim
    eta_b_applicable: bool  # p- >= 1, decay > dim + c_log(1/q)
    clog_inv_q: float


def convolution_inequality_report(g, p, q, delta, decay):
    """Measure both smoothing-inequality constants on one sequence.

    The coupling part applies smooth_sequence; the kernel part convolves
    level nu with eta_{nu,decay}.  Analytic constants are attached where
    the hypotheses hold; elsewhere only measured ratios are reported.  A
    ratio of two zero norms (g = 0) is NaN.
    """
    grid = g.grid
    base_f = lp_lq_norm(g, p, q)
    base_b = lq_lp_norm(g, p, q)
    G = smooth_sequence(g, delta)
    minkowski, modular_c = smoothing_constants(delta)
    modular_value = (
        lq_lp_modular(G.scaled(1.0 / (modular_c * base_b)), p, q) if base_b > 0 else 0.0
    )
    H = FunctionSequence(
        [eta_kernel(grid, nu, decay).convolve(f) for nu, f in enumerate(g)]
    )
    clog = _clog_inv(q)
    return ConvolutionInequalityReport(
        delta=delta,
        decay=decay,
        c_coupling_lp_lq=_ratio(lp_lq_norm(G, p, q), base_f),
        c_coupling_lq_lp=_ratio(lq_lp_norm(G, p, q), base_b),
        minkowski_bound=minkowski,
        minkowski_applicable=bool(q.is_constant() and q.p_minus >= 1.0),
        modular_value=modular_value,
        modular_applicable=bool(p.p_minus >= 1.0 and q.p_minus >= 1.0),
        c_eta_lp_lq=_ratio(lp_lq_norm(H, p, q), base_f),
        c_eta_lq_lp=_ratio(lq_lp_norm(H, p, q), base_b),
        eta_f_applicable=bool(
            1.0 < p.p_minus
            and p.p_plus < np.inf
            and 1.0 < q.p_minus
            and q.p_plus < np.inf
            and decay > grid.dim
        ),
        eta_b_applicable=bool(p.p_minus >= 1.0 and decay > grid.dim + clog),
        clog_inv_q=clog,
    )

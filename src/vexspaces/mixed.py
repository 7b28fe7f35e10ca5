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

The norm takes one of four routes.  For constant finite q the modular of
F/mu is mu^-q times that of F, so one modular evaluation closes the norm:
||F|| = peak * m^(1/q) with m the modular of F/peak.  For constant
q = inf it is the largest level norm.  For variable finite q one Newton
solve (_joint_root) finds log mu and the log of every level infimum
together: the level equations and the norm equation are log-sum-exps
whose Jacobian is an arrowhead, so a step costs one pass over the terms.
lq_lp_norms takes many sequences on one grid: for variable finite q they
are the rows of one such solve, each row with its own masks, stop test
and iteration budget, so a row's norm has the same bits alone or among
others, and numpy's cost per call is paid once per pass for all rows.
Where that solve does not converge, and where q = inf on part of the
grid, an outer luxemburg_root runs over the defining level infima of
F/mu (_infimum_modular), which sum their terms as log-sum-exps on the
same logs and give the modular with its slope.  Both aim at the modular
1 - 2 REL_TOL, and both take log|f| - log peak for a sample so far below
the peak that |f|/peak is not a normal double.  A level infimum below the
double range adds 0 to the modular and one above it makes the modular
inf; a norm outside the range raises BracketError.

The module also ships the smoothing operators whose mixed-norm bounds carry
explicit constants: the level coupling G_nu = sum_k 2^(-|k-nu| delta) g_k
and convolution with periodized kernels eta_{nu,R} = 2^(n nu)
(1 + 2^nu |x|)^(-R).  In 1D their image series is summed in closed form
through the Hurwitz zeta by Euler-Maclaurin.
"""

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exponents import _clog_inv, pointwise_min, pointwise_max
from .grid import FunctionSequence, GridFunction, coefficients, convolve, quadrature
from .lebesgue import (
    MAX_ITER,
    REL_TOL,
    BracketError,
    luxemburg_root,
    norm as lebesgue_norm,
)

__all__ = [
    "BracketError",
    "pointwise_lq",
    "lp_lq_norm",
    "lq_lp_modular",
    "lq_lp_norm",
    "lq_lp_norms",
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


# the modular every variable-q route aims at: each level that lebesgue.norm
# computes for lq_lp_modular lies up to REL_TOL above its infimum, and this
# margin keeps their sum <= 1
_AIM = 1.0 - 2.0 * REL_TOL


def _log_sum(t, moments, log_cell):
    """log(cell sum exp(t)) over the last axis of t, as a log-sum-exp on the
    largest term, and the means of the columns of moments weighted by the
    terms exp(t).  t is overwritten."""
    top = t.max(axis=-1, initial=-np.inf)
    t -= top[..., None]
    t = np.exp(t, out=t)
    total = t.sum(axis=-1)
    return log_cell + top + np.log(total), t @ moments / total[..., None]


def _level_infimum(d, p, q, cell_volume):
    """inf{lam > 0 : rho_p(f / lam^(1/q(.))) <= 1} for one level f of F/mu,
    from d = log|f| (-inf where f = 0), and its rate d log lam / d log mu.

    Each finite-p term of the modular is exp(p d - (p/q) log lam), summed
    by _log_sum, so no power overflows at any amplitude.  On {q = inf},
    p/q = 0: those terms do not vary with lam, and over p = inf there the
    predicate is d <= 0, so if that fixed part exceeds 1 the infimum is
    inf.  Over p = inf where q is finite the predicate is lam >= exp(q d),
    so the infimum is the larger of that ess-sup level and the root over
    the finite-p terms, 0 where none of them varies with lam.  The root
    solve walks from lam = 1 and gives 0.0 or inf outside the double range.
    Its rate, where it sets the infimum, is -sum p t / sum (p/q) t over the
    terms t of its last evaluation; the ess-sup level's is -q at its
    maximiser.
    """
    pv, qv, d = p.values.ravel(), q.values.ravel(), d.ravel()
    p_fin, q_fin = np.isfinite(pv), np.isfinite(qv)
    pf, fixed, ess = pv[p_fin], ~q_fin[p_fin], ~p_fin & q_fin
    moments = np.stack([pf, pf / qv[p_fin]], axis=1)  # p/q = 0 where q = inf
    t0, e = pf * d[p_fin], qv[ess] * d[ess]
    with np.errstate(over="ignore"):
        if np.any(d[~(p_fin | q_fin)] > 0.0) or cell_volume * np.exp(t0[fixed]).sum() > 1.0:
            return np.inf, 0.0
        # the ess-sup level and its rate
        lam, rate = (np.exp(e.max()), -qv[ess][e.argmax()]) if e.size else (0.0, 0.0)
    if not (t0[~fixed] > -np.inf).any():
        return lam, rate
    log_cell, last = math.log(cell_volume), 0.0  # last: the latest evaluation's rate

    def value(root):
        nonlocal last
        log_value, (P, W) = _log_sum(t0 - moments[:, 1] * math.log(root), moments, log_cell)
        last = -P / W
        with np.errstate(over="ignore"):
            return np.exp(log_value), -W

    root = luxemburg_root(value, 2.0, 1.0)
    return (lam, rate) if lam >= root else (root, last)


def _infimum_modular(F, p, q, mu):
    """Modular of F/mu in l_{q(.)}(L_{p(.)}) from the defining level infima,
    and its slope d log modular / d log mu, or None where the modular is 0
    or inf.

    F/mu is not formed: each level infimum runs on log|f_nu/mu| = log(|f_nu|
    / peak) - log(mu/peak), as _joint_root takes them (_log_ratio), with
    mu/peak one quotient wherever it is a normal double; the slope is the
    mean of the level rates weighted by the infima.
    """
    a = F.abs_stack()
    peak = a.max()
    if peak == 0.0:
        return 0.0, None
    ratio = mu / peak
    normal = sys.float_info.min <= ratio <= sys.float_info.max
    u = math.log(ratio) if normal else math.log(mu) - math.log(peak)
    logs = _log_ratio(a, peak) - u
    levels, rates = np.array([_level_infimum(d, p, q, F.grid.cell_volume) for d in logs]).T
    total = float(levels.sum())
    return total, (levels @ rates / total if 0.0 < total < np.inf else None)


def lq_lp_modular(F, p, q):
    """Modular of F in l_{q(.)}(L_{p(.)}); may be inf.

    With q^+ < inf the per-level infimum equals || |f_nu|^q ||_{L_{p/q}}
    and that closed route is taken; a level where |f_nu|^q overflows takes
    its defining infimum (_level_infimum) instead, which is inf only above
    the double range, and a level whose infimum is below the range adds 0.
    Otherwise the defining infima are solved.
    """
    _check_seq(F, p, q)
    if q.p_plus < np.inf:
        pq = p.divided_pointwise(q)
        total = 0.0
        for a in F.abs_stack():
            with np.errstate(over="ignore"):
                aq = a ** q.values
            if np.isfinite(aq).all():
                total += _norm_or_zero(GridFunction(F.grid, aq), pq)
            else:
                with np.errstate(divide="ignore"):
                    total += _level_infimum(np.log(a), p, q, F.grid.cell_volume)[0]
        return total
    return _infimum_modular(F, p, q, 1.0)[0]


def _norm_or_zero(f, p):
    """lebesgue.norm(f, p), or 0 where it is below the double range."""
    try:
        return lebesgue_norm(f, p)
    except BracketError:
        return 0.0


def _log_ratio(a, peak):
    """log(a / peak), taken as log a - log peak wherever a / peak is not a
    normal double: that quotient has lost bits or underflowed to 0, yet at
    small p such samples still move the norm."""
    with np.errstate(divide="ignore"):
        ratio = a / peak
        out = np.log(ratio)
        low = ratio < sys.float_info.min
        if low.any():
            out[low] = np.log(a[low]) - np.log(np.broadcast_to(peak, a.shape)[low])
    return out


def _joint_root(a, pv, qv, cell_volume):
    """The l_{q(.)}(L_{p(.)}) norm of each row of a for finite variable q by
    one Newton solve, as a list with None for a row that does not converge.

    a holds the |f_nu| of one sequence per row, shape (rows, levels,
    points), none all zero; pv and qv hold p and q per row, shape (rows,
    points) or (1, points) for exponents that all rows share.  Each row
    keeps its own masks, stop test and MAX_ITER budget, and freezes once it
    stops, so its result does not depend on the other rows.

    The unknowns of a row are u = log(mu/peak) and v_nu = log lam_nu, the
    log of each level infimum of F/mu.  With l = log(|f_nu|/peak)
    (_log_ratio), a finite-part root solves g_nu = log(cell sum exp(p (l -
    u) - (p/q) v_nu)) = 0 over the finite-p points, and the ess-sup level
    over p = inf is e_nu = max_x q (l - u), whose maximiser moves with u
    where q varies.  The norm solves h = log sum_nu exp(max(e_nu, v_nu)) -
    log(_AIM) = 0.  Every sum is a log-sum-exp (_log_sum), so no term
    overflows at any amplitude; a level with no finite part has no v_nu,
    and an all-zero level adds 0.

    g_nu depends on u and v_nu alone, so the Jacobian is an arrowhead and
    one Newton step costs one pass over the terms (H. B. Keller's
    bordering algorithm, 1977): with s the softmax of the level logs and
    P, W the term-weighted means of p and p/q,
    du = (h + sum_fin s g / W) / (sum_ess s q* + sum_fin s P / W) and
    dv = (g - P du) / W, where q* is q at each ess-sup maximiser and a
    level is fin where v_nu >= e_nu, ess otherwise.  A row stops once its
    step is down to rounding: |du| <= 1e-14 max(1, |u|), and the same for
    each dv, or a step of at most 1e-10 that is no smaller than the one
    before.  Newton squares the step on every pass until rounding stops
    it, and where p/q is small, rounding in g_nu of a few ulps moves v_nu
    by more than 1e-14 (g/W).  It gives peak * exp(u), which is 0.0 or inf
    outside the double range; a step that is not finite, or MAX_ITER
    passes without stopping, give None.
    """
    a = a[:, a.any(axis=(0, 2))]  # a level that is 0 in every row adds 0
    peak = a.max(axis=(1, 2))
    logs = _log_ratio(a, peak[:, None, None])  # -inf where f_nu = 0
    pv, qv = (np.broadcast_to(e, (len(a), a.shape[2])) for e in (pv, qv))
    finite = np.isfinite(pv)
    fin, ess = finite.any(axis=0), ~finite.all(axis=0)  # the columns some row needs
    # the finite-p terms p l; a row's p = inf points among them are -inf terms
    # of p = 1.  A level with no finite term has no v_nu, and its terms are 0.
    off = ~finite.compress(fin, axis=1)[:, None, :]
    pf = np.where(off, 1.0, pv.compress(fin, axis=1)[:, None, :])
    wf = pf / qv.compress(fin, axis=1)[:, None, :]
    pl = np.where(off, -np.inf, logs.compress(fin, axis=2))
    has_v = (pl > -np.inf).any(axis=2)
    pl *= pf
    pl[~has_v] = 0.0
    moments = np.stack([pf[:, 0], wf[:, 0]], axis=2)
    # a column at -inf gives every level an ess-sup, -inf where it has none
    le = np.where(finite[:, None, ess], -np.inf, logs.compress(ess, axis=2))
    le = np.pad(le, ((0, 0), (0, 0), (0, 1)), constant_values=-np.inf)
    qe = np.concatenate([qv.compress(ess, axis=1), np.ones((len(a), 1))], axis=1)
    rows = np.arange(len(a))  # the rows still running
    x = np.zeros((len(a), 1 + a.shape[1]))  # u, then v_nu for each level
    last = np.full(len(a), np.inf)  # the previous step, relative to max(1, |x|)
    log_cell, log_target = math.log(cell_volume), math.log(_AIM)
    terms = np.empty_like(pl)
    out = [None] * len(a)

    def total(y):
        # in level order, so that a level adding 0 changes no bit of a row
        return np.cumsum(y, axis=1)[:, -1]

    for _ in range(MAX_ITER):
        u, v = x[:, :1], x[:, 1:]
        t = np.multiply(wf, v[..., None], out=terms[: len(x)])
        t += pf * u[..., None]
        np.subtract(pl, t, out=t)
        g, means = _log_sum(t, moments, log_cell)
        P, W = means[..., 0], means[..., 1]
        te = qe[:, None, :] * (le - u[..., None])
        m = te.max(axis=2)  # e_nu
        q_at = qe[np.arange(len(x))[:, None], te.argmax(axis=2)]
        by_v = has_v & (v >= m)  # the fin levels
        m = np.where(has_v, np.maximum(m, v), m)
        top = m.max(axis=1, keepdims=True)
        lse = top + np.log(total(np.exp(m - top)))[:, None]
        s = np.exp(m - lse)
        s_fin = np.where(by_v, s, 0.0)
        sw = s_fin / W
        du = (lse - log_target + total(sw * g)[:, None]) / total(sw * P + (s - s_fin) * q_at)[:, None]
        step = np.concatenate([du, np.where(has_v, (g - P * du) / W, 0.0)], axis=1)
        bad = ~np.isfinite(step).all(axis=1)
        step[bad] = 0.0
        x += step
        size = np.max(np.abs(step) / np.maximum(1.0, np.abs(x)), axis=1)
        done = bad | (size <= 1e-14) | ((last <= size) & (size <= 1e-10))
        last = size
        if done.any():
            for r in np.flatnonzero(done & ~bad):
                # two factors, so that mu is in range wherever peak * exp(u) is
                with np.errstate(over="ignore"):
                    half = np.exp(0.5 * x[r, 0])
                out[rows[r]] = float(peak[r] * half * half)
            keep = ~done
            rows, x, last, peak, pf, wf, pl, has_v, moments, le, qe = (
                y[keep] for y in (rows, x, last, peak, pf, wf, pl, has_v, moments, le, qe)
            )
            if not rows.size:
                break
    return out


def lq_lp_norms(Fs, p, q):
    """Norm of each sequence of Fs in l_{q(.)}(L_{p(.)}), the root mu of
    modular(F/mu) = 1; every sequence lives on the grid of p and q.

    Constant q needs no outer solve.  For finite q the modular of F/mu is
    mu^-q times that of F, so the norm is peak * m^(1/q) with m the
    modular of F/peak over (1 - REL_TOL): each level of F/mu lands
    anywhere in its own REL_TOL bracket.  For q = inf the modular of F/mu
    is 0 where mu is at least every level norm and inf elsewhere, so the
    norm is the largest level norm (a level below the double range counts
    as 0).  These routes run sequence by sequence.  For variable finite q
    the sequences of one length are the rows of one joint Newton solve of
    the norm and its level infima (_joint_root), with no modular call; a
    row's result does not depend on the other rows.  A row that does not
    converge, and every sequence where q = inf on part of the grid, takes
    the outer root over _infimum_modular, the defining level infima of
    F/mu with the slope of their sum, walking from mu = peak until it
    brackets the root.  Both aim at modular 1 - 2 REL_TOL (_AIM).  Every
    route keeps lq_lp_modular(F/mu) <= 1 and lies within k REL_TOL above
    the root, k = 2 + 4/q^-, and raises BracketError when a norm is
    outside the double range.
    """
    for F in Fs:
        _check_seq(F, p, q)
    stacks = [F.abs_stack().reshape(len(F), -1) for F in Fs]
    peaks = [float(a.max()) for a in stacks]
    mus = [0.0 if peak == 0.0 else None for peak in peaks]
    todo = [i for i, mu in enumerate(mus) if mu is None]
    if q.is_constant():
        for i in todo:
            if q.p_plus == np.inf:
                mus[i] = max(_norm_or_zero(f, p) for f in Fs[i])
            else:
                m = lq_lp_modular(Fs[i].scaled(1.0 / peaks[i]), p, q)
                with np.errstate(over="ignore"):
                    mus[i] = peaks[i] * np.float64(m / (1.0 - REL_TOL)) ** (1.0 / q.p_plus)
    elif q.p_plus < np.inf:
        pv, qv = p.values.reshape(1, -1), q.values.reshape(1, -1)
        for n in {len(Fs[i]) for i in todo}:
            rows = [i for i in todo if len(Fs[i]) == n]
            a = np.stack([stacks[i] for i in rows])
            # a solve that reports no convergence at all may give None
            for i, mu in zip(rows, _joint_root(a, pv, qv, p.grid.cell_volume) or ()):
                mus[i] = mu
    for i in todo:
        if mus[i] is None:

            def modular(mu):
                m, slope = _infimum_modular(Fs[i], p, q, mu)
                return m / _AIM, slope

            mus[i] = luxemburg_root(modular, 2.0 * peaks[i], peaks[i])
        if not np.isfinite(mus[i]):
            raise BracketError("norm above the double range")
        if mus[i] == 0.0:
            raise BracketError("norm below the double range")
    return [float(mu) for mu in mus]


def lq_lp_norm(F, p, q):
    """Norm of F in l_{q(.)}(L_{p(.)}), the root mu of modular(F/mu) = 1.

    This is lq_lp_norms([F], p, q)[0]: F is one row of the routes
    described there, and a row's bits do not depend on the other rows, so
    F gets the same norm here as in any batch.  The norm keeps
    lq_lp_modular(F/mu) <= 1, lies within k REL_TOL above the root, k = 2
    + 4/q^-, and raises BracketError when it is outside the double range.
    """
    return lq_lp_norms([F], p, q)[0]


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

"""Semimodular and Luxemburg quasi-norm of variable-exponent Lebesgue spaces.

The modular is rho(f) = sum_cells h^dim * phi_{p(x)}(|f(x)|) with

    phi_p(t) = t^p            (p finite)
    phi_inf(t) = 0 if t <= 1, inf otherwise,

and the quasi-norm is the Luxemburg functional inf{lam > 0 : rho(f/lam) <= 1}.
Because the p = inf region contributes 0 or inf only, the norm splits exactly
into max(ess-sup over the inf region, finite part); the finite part's
modular is finite and decreasing in lam, so its root solve (luxemburg_root)
never fails to bracket.

luxemburg_root is the one Luxemburg root solver.  The lam it returns
satisfies modular(f/lam) <= 1 and lies within REL_TOL of the infimum, and
so does norm; mixed.lp_lq_norm is one norm.  mixed.lq_lp_norm sums J+1
level functionals, each within its own REL_TOL, and solves for the
modular 1 - 2 REL_TOL on its variable-q route, so it lies up to k
REL_TOL above its infimum, k = 2 + 4/q^-, which tests/test_lq_lp_oracle.py
checks against a 40-digit solve.  luxemburg_root finds its own bracket
from any starting point: one loop walks down while the modular stays <= 1
and up while it exceeds 1, squaring its step factor on every walk step,
and then narrows the bracket, all in at most MAX_ITER evaluations.  The
walk has no cap inside the double range: it returns 0.0 only where the
smallest subnormal is admissible (a norm below the range raises
BracketError) and inf only where the largest finite double is not.  Its
one step rule is the tangent (Newton) step on log modular over log lam:
every modular of the package gives its slope.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .exponents import VariableExponent, _clog_inv, conjugate
from .grid import GridFunction

__all__ = [
    "ModularResult",
    "modular",
    "norm",
    "holder_pairing",
    "characteristic_norm_check",
    "CubeNormReport",
    "luxemburg_root",
    "BracketError",
]

# Tighter than the documented 1e-10 so downstream identities hold with margin.
REL_TOL = 1e-13
MAX_ITER = 200
_LOG_MAX = 709.0  # math.exp of more overflows
_TINY = math.ulp(0.0)  # the ends of the positive doubles
_HUGE = sys.float_info.max


class BracketError(ArithmeticError):
    """A norm outside the double range, or a root solve that finds no
    bracket."""


@dataclass(frozen=True)
class ModularResult:
    value: float
    infinity_region_violated: bool


def modular(f, p):
    """Semimodular rho_{p(.)}(f) of a GridFunction."""
    if f.grid != p.grid:
        raise ValueError("grid mismatch between f and p")
    a, finite = np.abs(f.samples), np.isfinite(p.values)
    if np.any(a[~finite] > 1.0):
        return ModularResult(value=np.inf, infinity_region_violated=True)
    with np.errstate(over="ignore"):
        total = f.grid.cell_volume * np.sum(a[finite] ** p.values[finite])
    return ModularResult(value=float(total), infinity_region_violated=False)


def _tangent(lam, v, s):
    """Root of the tangent to log value over log lam at (lam, v) with slope
    s, aimed REL_TOL/4 above it; 0.0, below every bracket, where there is
    no tangent (no slope, a value of 0, inf or NaN, or a slope that is not
    finite and negative)."""
    if s is None or not (0.0 < v < np.inf and -np.inf < s < 0.0):
        return 0.0
    # a factor on lam, not exp(log lam + step): log lam ~ 700 would cost
    # the last digits of a step near REL_TOL
    return lam * math.exp(min(-math.log(v) / s, _LOG_MAX)) * (1.0 + 0.25 * REL_TOL)


def luxemburg_root(value, hi, lo=None):
    """inf{lam > 0 : value(lam) <= 1} for a modular value decreasing in lam.

    hi is a first guess above lo (hi/2 if None); neither needs to bracket
    the root.  One loop of at most MAX_ITER evaluations keeps two ends:
    below, the latest point with value > 1, and above, the latest with
    value <= 1.  Each step evaluates one point, moves the end its value
    falls on, and the loop returns above once above - below <= REL_TOL
    above.  A finite result always has value <= 1, and the root exceeds
    (1 - REL_TOL) times it.  The first point is lo (the smallest subnormal
    if lo is 0.0); a lo that is not finite (an overflowed start) gives inf
    at once, with no evaluation: there is no point to walk from.

    While one end is unknown the loop walks, a galloping (doubly
    exponential) search in the manner of Bentley and Yao's unbounded
    search: up to hi at the first step and to grow * below after it, down
    to above / grow.  grow starts at 2 and squares on every walk step, so
    the walk crosses the whole double range in about a dozen steps, with
    no cap; its points are clamped to the positive doubles.  The loop
    returns 0.0 only where the smallest subnormal has value <= 1 (the root
    is below the double range, and callers that return it as a norm raise
    BracketError), and inf only where the largest finite double has value
    > 1.  With both ends known the fallback point is the midpoint in log
    lam.

    A modular is a sum of powers of lam, so log value is convex in log lam,
    and linear when the exponent is constant.  The one step rule is the
    root of a tangent to log value over log lam (Newton's step), aimed
    REL_TOL/4 above it.  value returns (value, slope) with slope = d log
    value / d log lam at lam, which is -sum(w t) / sum(t) for a modular
    that sums terms t ~ lam^-w.  A value returned alone (a predicate with
    no slope) gives no tangent, so the step after it is the fallback point.
    On a convex log value every tangent root lies below the root, so from
    below the steps converge from one side, quadratically, and the aim
    carries the last one across: where log value is linear the first
    tangent is exact, and the next point, REL_TOL/2 below it, closes the
    bracket.  The aim leaves the returned lam with value below 1 by far
    more than rounding, so modular(f/lam) <= 1 holds however f/lam is
    computed.

    One guard, as in safeguarded Newton (rtsafe, Numerical Recipes 3rd ed.
    9.4), serves every phase: the step goes to the higher of the two
    latest points' tangent roots inside the bracket (up to REL_TOL/2 above
    `above`, the aim and rounding) where that root
    - is within REL_TOL/2 of above (a closing step: it closes the bracket
      or moves above down by REL_TOL/2),
    - or is at most half as far from its point in log lam as the tangent
      step three tangent steps before (the first three steps pass),
    - or, walking up, lies at or past the walk's next point (a lower bound
      of the root there);
    otherwise to the fallback.  Points stay a factor REL_TOL/2 inside each
    known end.  The halving window measures the tangent step, not the
    bracket, because a sequence that converges from one side leaves the far
    end of the bracket where it is.  A value of 0 or inf, or a slope that is
    not finite and negative, gives no tangent, so the step after such
    points is the fallback.  A NaN value reads as above 1.
    """
    lo = hi / 2.0 if lo is None else lo
    if not math.isfinite(lo):
        return np.inf
    up, down, inf = 1.0 + 0.5 * REL_TOL, 1.0 - 0.5 * REL_TOL, math.inf
    below, above = 0.0, inf  # latest points with value > 1 and <= 1
    b, tb = (0.0, 0.0, None), 0.0  # the latest point and its tangent root; none yet
    gaps = [inf] * 3  # |log| of each tangent step
    grow = 2.0  # the walk's factor, squared on every walk step
    lam = max(lo, _TINY)
    for i in range(MAX_ITER):
        out = value(lam)
        a, b = b, (lam, *out) if isinstance(out, tuple) else (lam, out, None)
        if b[1] <= 1.0:  # NaN reads as above 1
            above = lam
        else:
            below = lam
        if above == inf:  # walking up
            if below == _HUGE:
                return inf
            lam = hi if i == 0 else grow * below
            grow = min(grow * grow, _HUGE)
        elif below == 0.0:  # walking down
            if above == _TINY:
                return 0.0
            lam = above / grow
            grow = min(grow * grow, _HUGE)
        elif above - below <= REL_TOL * above:
            break
        else:  # narrowing
            lam = math.sqrt(below) * math.sqrt(above)
        ta, tb = tb, _tangent(*b)
        # every tangent root of a convex log value is below the root, so the
        # higher one inside the bracket is the better; up to REL_TOL/2 above
        # `above` is inside (the aim and rounding)
        top = up * above
        t, base = (tb, b[0]) if below < tb <= top else (0.0, 0.0)
        if below < ta <= top and (ta, a[0]) > (t, base):
            t, base = ta, a[0]
        if t:
            gaps.append(abs(math.log(t / base)))
            # a root within REL_TOL/2 of `above` is a closing step: it closes
            # the bracket or moves `above` down by REL_TOL/2
            if t >= down * above or gaps[-1] <= 0.5 * gaps[-4] or (above == inf and t >= lam):
                lam = t
        # margins relative to each end: a tangent may land far below `above`
        lam = min(max(lam, up * below, _TINY), down * above, _HUGE)
    return above


def norm(f, p):
    """Luxemburg quasi-norm of f in L_{p(.)} on the grid.

    Root solve (luxemburg_root) on the modular of f/lam; the returned value
    lam satisfies modular(f/lam) <= 1 and is within REL_TOL of the infimum.
    A nonzero f whose norm is below the double range raises BracketError:
    no double lam > 0 has modular(f/lam) <= 1, and 0 would divide f by 0.
    """
    if f.grid != p.grid:
        raise ValueError("grid mismatch between f and p")
    a = np.abs(f.samples)
    if not a.any():
        return 0.0
    finite = p.finite_mask
    ess = float(a[~finite].max()) if np.any(~finite) else 0.0
    af = a[finite]
    if af.size == 0 or not af.any():
        # predicate on the finite region is vacuous: exact left endpoint
        return ess
    pv, cell_volume = p.values[finite], f.grid.cell_volume

    def value(lam):
        with np.errstate(over="ignore", invalid="ignore"):
            t = (af / lam) ** pv
            total = float(t.sum())
            if total == np.inf:
                # af / lam overflows below lam = 1 where (af / lam)^p need
                # not: those terms alone are taken through logs
                big = af / lam == np.inf
                t[big] = np.exp(pv[big] * (np.log(af[big]) - math.log(lam)))
                total = float(t.sum())
            return cell_volume * total, -pv.dot(t) / total

    # on a measure-1 domain the modular at lam = max|f| is <= 1 already
    lam = max(ess, luxemburg_root(value, float(af.max())))
    if lam == 0.0:
        raise BracketError("norm below the double range")
    return lam


def holder_pairing(f, g, p):
    """(lhs, rhs) of the Holder inequality ||f g||_1 <= 2 ||f||_p ||g||_p'.

    Raises if the inequality fails beyond root-solve noise; callers compare
    the returned sides for reporting.
    """
    if p.p_minus < 1.0:
        raise ValueError("Holder pairing needs p >= 1 pointwise")
    one = VariableExponent.constant(f.grid, 1.0)
    lhs = norm(f * g, one)
    rhs = 2.0 * norm(f, p) * norm(g, conjugate(p))
    if lhs > rhs * (1.0 + 1e-9):
        raise AssertionError(f"Holder inequality violated: {lhs} > {rhs}")
    return lhs, rhs


@dataclass(frozen=True)
class CubeNormReport:
    """Spread of ||chi_Q||_p / |Q|^(1/p(anchor)) over a family of cubes."""

    cube_side: float
    cube_volume: float
    ratio_min: float
    ratio_max: float
    spread: float
    anchors: int
    c_log_local: float


def characteristic_norm_check(p, cube_side):
    """Measure how far cube indicator norms sit from |Q|^(1/p(anchor)).

    Cubes are half-open, side a multiple of h, anchored at sample points
    (the anchor is the low corner, itself a point of Q): every point in
    1D, every max(1, n // 32)-th point per axis in 2D.  The max/min ratio
    over the family is the measured constant of the norm-of-indicator
    equivalence; it should stay bounded as the grid refines.
    """
    grid = p.grid
    cells = int(round(cube_side / grid.h))
    if cells < 1 or abs(cells * grid.h - cube_side) > 1e-12:
        raise ValueError("cube_side must be a positive multiple of the grid spacing")
    if cube_side > 1.0:
        raise ValueError("cubes must have volume <= 1")
    anchor_stride = 1 if grid.dim == 1 else max(1, grid.n // 32)
    vol = (cells * grid.h) ** grid.dim
    ratios = []
    anchor_range = range(0, grid.n, anchor_stride)
    if grid.dim == 1:
        anchors = [(i,) for i in anchor_range]
    else:
        anchors = [(i, j) for i in anchor_range for j in anchor_range]
    for anchor in anchors:
        chi = np.zeros(grid.shape)
        idx = tuple(
            (np.arange(a, a + cells) % grid.n) for a in anchor
        )
        chi[np.ix_(*idx) if grid.dim == 2 else idx[0]] = 1.0
        nval = norm(GridFunction(grid, chi), p)
        p_anchor = p.values[anchor]
        target = 1.0 if not np.isfinite(p_anchor) else vol ** (1.0 / p_anchor)
        ratios.append(nval / target)
    ratios = np.asarray(ratios)
    return CubeNormReport(
        cube_side=cube_side,
        cube_volume=vol,
        ratio_min=float(ratios.min()),
        ratio_max=float(ratios.max()),
        spread=float(ratios.max() / ratios.min()),
        anchors=len(anchors),
        c_log_local=_clog_inv(p),
    )

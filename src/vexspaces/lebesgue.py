"""Semimodular and Luxemburg quasi-norm of variable-exponent Lebesgue spaces.

The modular is rho(f) = sum_cells h^dim * phi_{p(x)}(|f(x)|) with

    phi_p(t) = t^p            (p finite)
    phi_inf(t) = 0 if t <= 1, inf otherwise,

and the quasi-norm is the Luxemburg functional inf{lam > 0 : rho(f/lam) <= 1}.
Because the p = inf region contributes 0 or inf only, the norm splits exactly
into max(ess-sup over the inf region, finite part); the finite part's
modular is finite and decreasing in lam, so its root solve (luxemburg_root)
never fails to bracket.

Every Luxemburg functional of the package is solved to one contract: the
returned lam satisfies modular(f/lam) <= 1 and lies within REL_TOL of the
infimum.  luxemburg_root is the one solver, and it finds its own bracket
from any starting point: it halves down while the modular stays <= 1, to
the bottom of the double range if it must (a norm below that range raises
BracketError), and doubles up while it exceeds 1, returning inf where no
lam below 2^MAX_ITER times the start is admissible.  The narrowing takes
at most MAX_ITER steps.  Its one step rule is the tangent (Newton) step on
log modular over log lam: every modular of the package gives its slope,
and a value without one takes the chord through its two latest points.
It also runs many such functionals as lanes of one call, each lane with its
own bracket, so that their modulars are evaluated together.
"""

import math
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


class BracketError(ArithmeticError):
    """A norm outside the double range, or a root solve that finds no
    bracket."""


@dataclass(frozen=True)
class ModularResult:
    value: float
    infinity_region_violated: bool


def _modular_value(abs_samples, p_values, cell_volume):
    """Raw modular of |samples| under exponent values; may return inf."""
    finite = np.isfinite(p_values)
    violated = bool(np.any(abs_samples[~finite] > 1.0))
    if violated:
        return np.inf, True
    a = abs_samples[finite]
    if a.size == 0:
        return 0.0, False
    with np.errstate(over="ignore"):
        total = cell_volume * np.sum(a ** p_values[finite])
    return float(total), False


def modular(f, p):
    """Semimodular rho_{p(.)}(f) of a GridFunction."""
    if f.grid != p.grid:
        raise ValueError("grid mismatch between f and p")
    value, violated = _modular_value(np.abs(f.samples), p.values, f.grid.cell_volume)
    return ModularResult(value=value, infinity_region_violated=violated)


def _tangent(lam, v, s):
    """Root of the tangent to log value over log lam at (lam, v) with slope
    s, aimed REL_TOL/4 above it; None where there is no tangent (no slope,
    a value of 0, inf or NaN, or a slope that is not finite and negative)."""
    if s is None or not (0.0 < v < np.inf and -np.inf < s < 0.0):
        return None
    # a factor on lam, not exp(log lam + step): log lam ~ 700 would cost
    # the last digits of a step near REL_TOL
    return lam * math.exp(min(-math.log(v) / s, _LOG_MAX)) * (1.0 + 0.25 * REL_TOL)


def _lane(hi, lo):
    """One lane of luxemburg_root as a generator.

    It yields each lam it needs the value of, is sent (value(lam), slope)
    back, slope None where the caller gives none, and returns its root
    through StopIteration.
    """
    if not math.isfinite(lo):
        return np.inf
    chord = []  # latest finite, nonzero point without a given slope; log lam, log value

    def point(lam, sent):
        """[lam, value, slope] of an evaluation, with the chord slope where
        value gives none (see luxemburg_root)."""
        pt = [lam, *sent]
        if pt[2] is None and 0.0 < pt[1] < np.inf:
            x, y = math.log(lam), math.log(pt[1])
            if chord and chord[1] != x:
                pt[2] = (y - chord[2]) / (x - chord[1])
                chord[0][2] = None
            chord[:] = pt, x, y
        return pt

    hi_pt = None
    misses = 0  # tangent steps in a row that did not pass the root
    while True:
        # at most about 3 x 2100 steps take a finite lo to 0
        if lo == 0.0:
            return 0.0
        lo_pt = point(lo, (yield lo))
        if not lo_pt[1] <= 1.0:  # NaN reads as above 1, as in the narrowing
            break
        hi, hi_pt = lo, lo_pt
        # two tangent steps that do not pass the root are followed by a
        # halving (the second closes the bracket where the first landed)
        t = _tangent(*hi_pt) if misses < 2 else None
        if t is not None and t > 0.0:
            misses += 1
            lo = min(t, (1.0 - 0.5 * REL_TOL) * hi)
        else:
            misses = 0
            lo = hi / 2.0
    if hi_pt is None:
        top = hi * 2.0 ** (MAX_ITER - 1)
        step = np.inf  # the last step up
        for _ in range(MAX_ITER):
            # a tangent step is taken where it reaches past the doubling
            # point or at most halves the last step
            t = _tangent(*lo_pt)
            if t is not None:
                t = max(t, (1.0 + 0.5 * REL_TOL) * lo)
                if t >= hi or t - lo <= 0.5 * step:
                    hi = min(t, top)
            step = hi - lo
            hi_pt = point(hi, (yield hi))
            if hi_pt[1] <= 1.0:
                break
            if hi >= top:
                return np.inf
            lo, lo_pt = hi, hi_pt
            hi *= 2.0
        else:
            return np.inf
    a, b = hi_pt, lo_pt  # the two latest points
    gaps = [np.inf] * 3  # |log| of each tangent step
    for _ in range(MAX_ITER):
        if hi - lo <= REL_TOL * hi:
            break
        tangents = [(t, x[0]) for x in (a, b) if (t := _tangent(*x)) is not None]
        lam = _tangent_step(tangents, lo, hi, gaps)
        a, b = b, point(lam, (yield lam))
        if b[1] <= 1.0:
            hi = lam
        else:
            lo = lam
    return hi


def _tangent_step(tangents, lo, hi, gaps):
    """Next point of a narrowing: one of the (tangent root, point) pairs,
    or the midpoint in log lam."""
    lam = math.sqrt(lo) * math.sqrt(hi)
    # every tangent root of a convex log value is below the root, so the
    # higher one inside the bracket is the better; up to REL_TOL/2 above hi
    # is inside (the aim and rounding)
    inside = [(t, base) for t, base in tangents if lo < t <= (1.0 + 0.5 * REL_TOL) * hi]
    if inside:
        t, base = max(inside)
        gaps.append(abs(math.log(t / base)))
        # a root within REL_TOL/2 of hi is a closing step: it closes the
        # bracket or moves hi down by REL_TOL/2
        if t >= (1.0 - 0.5 * REL_TOL) * hi or gaps[-1] <= 0.5 * gaps[-4]:
            lam = t
    # margins relative to each end: a tangent may land far below hi
    return min(max(lam, (1.0 + 0.5 * REL_TOL) * lo), (1.0 - 0.5 * REL_TOL) * hi)


def luxemburg_root(value, hi, lo=None):
    """inf{lam > 0 : value(lam) <= 1} for a modular value decreasing in lam.

    hi is a first guess above lo (hi/2 if None); neither needs to bracket
    the root.  The walk evaluates lo first and halves it while value stays
    <= 1, the last such point becoming hi (0.0 is returned if the halving
    underflows to zero: the root is below the double range, and callers
    that return it as a norm raise BracketError).  If lo already exceeds
    1, hi is evaluated and doubled while value exceeds 1, the last such
    point becoming lo; if none of hi, 2 hi, ..., 2^(MAX_ITER-1) hi has
    value <= 1 the root is inf.  A lo that is not finite (an overflowed
    start, as where |f/mu|^q overflows in mixed._level_lanes) gives inf at
    once, with no evaluation: there is no point to halve from.  Then the
    bracket is narrowed until it is within REL_TOL of hi.  A finite result
    always has value <= 1, and the root exceeds (1 - REL_TOL) times it.

    A modular is a sum of powers of lam, so log value is convex in log lam,
    and linear when the exponent is constant.  Every step goes to the root
    of a tangent to log value over log lam (Newton's step), aimed REL_TOL/4
    above it.  value returns (value, slope) with slope = d log value /
    d log lam at lam, which is -sum(w t) / sum(t) for a modular that sums
    terms t ~ lam^-w.  A value returned alone takes the chord slope
    through the lane's two latest finite, nonzero points, the secant's
    slope; the older point's chord is then dropped, since its root is a
    point already evaluated.  On a convex log value every tangent root lies
    below the root, so from below the steps converge from one side,
    quadratically, and the aim carries the last one across: where log value
    is linear the first tangent is exact, and the next point, REL_TOL/2
    below it, closes the bracket.  The aim leaves the returned hi with
    value below 1 by far more than rounding, so modular(f/hi) <= 1 holds
    however f/hi is computed.  Safeguards keep the walk and the narrowing
    finite on any value:
    - walking down, the tangent root of the last point (at most
      (1 - REL_TOL/2) times it) replaces the halving; two tangent steps in
      a row that stay at value <= 1 (the second closes a bracket where the
      first landed) are followed by a halving;
    - walking up, the tangent root (at least (1 + REL_TOL/2) lo) replaces
      the first guess or the doubling where it lies beyond that point (a
      lower bound of the root there) or at most halves the last step up;
      the points stop at 2^(MAX_ITER-1) hi as the doubling does, and
      MAX_ITER points with value > 1 give inf;
    - narrowing, the step goes to the higher of the two latest points'
      tangent roots inside the bracket (up to REL_TOL/2 above hi, the aim
      and rounding) where that root is within REL_TOL/2 of hi (a closing
      step) or its distance to its point in log lam has halved over the
      last three tangent steps; otherwise to the midpoint in log lam.
      Points stay a factor REL_TOL/2 inside each end.
    The halving window measures the tangent step, not the bracket,
    because a sequence that converges from one side leaves the far end of
    the bracket where it is.  A value of 0 or inf, or a slope that is not
    finite and negative, gives no tangent: the walk then halves or doubles,
    and a narrowing step where neither latest point has one goes to the
    midpoint.  A NaN value reads as above 1 throughout.

    Lanes: with hi (and lo) arrays of one entry per lane, the call solves
    every lane at once.  value(lam, rows) then gets the lam of the lanes
    still open and their indices, and returns their values as an array (or
    values and slopes as two arrays); each lane keeps its own bracket and
    step state and closes on its own, so a lane takes exactly the steps of
    a one-lane call.  A lo from a warm start (a bound known to lie below
    the root) skips the halving.  Returns an array of roots, one per lane.
    """
    if np.ndim(hi) == 0:
        lane = _lane(hi, hi / 2.0 if lo is None else lo)
        sent = None
        try:
            while True:
                out = value(lane.send(sent))
                sent = out if isinstance(out, tuple) else (out, None)
        except StopIteration as done:
            return done.value
    hi = np.asarray(hi, dtype=float)
    lo = hi / 2.0 if lo is None else np.asarray(lo, dtype=float)
    lanes = [_lane(h, l) for h, l in zip(hi.tolist(), lo.tolist())]
    roots = np.empty(len(lanes))
    rows, sent = list(range(len(lanes))), [None] * len(lanes)
    while rows:
        open_rows, lams = [], []
        for r, v in zip(rows, sent):
            try:
                lams.append(lanes[r].send(v))
                open_rows.append(r)
            except StopIteration as done:
                roots[r] = done.value
        rows = open_rows
        if rows:
            out = value(np.array(lams), np.array(rows))
            values, slopes = out if isinstance(out, tuple) else (out, None)
            slopes = [None] * len(rows) if slopes is None else slopes.tolist()
            sent = list(zip(values.tolist(), slopes))
    return roots


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

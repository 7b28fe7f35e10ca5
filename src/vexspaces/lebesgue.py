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
infimum, in at most MAX_ITER steps per solver phase.
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
    "upper_bracket",
    "luxemburg_root",
]

# Tighter than the documented 1e-10 so downstream identities hold with margin.
REL_TOL = 1e-13
MAX_ITER = 200


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


def upper_bracket(value, start, grow):
    """First start * grow^k (k < MAX_ITER) at which value <= 1, or None."""
    lam = start
    for _ in range(MAX_ITER):
        if value(lam) <= 1.0:
            return lam
        lam *= grow
    return None


def luxemburg_root(value, hi):
    """inf{lam > 0 : value(lam) <= 1} for a modular value decreasing in lam.

    hi must satisfy value(hi) <= 1.  It is halved until value exceeds 1 (0.0
    if the halving reaches zero first), then the bracket is narrowed until it
    is within REL_TOL of hi; the returned hi always has value <= 1.

    A modular is a sum of powers of lam, so log value is convex in log lam,
    and linear when the exponent is constant.  Each step therefore takes the
    secant on (log lam, log value) through the two latest evaluations, which
    lands on the root at once in the linear case and converges superlinearly
    otherwise.  The midpoint replaces it where it is undefined (a value of 0
    or inf, or log value not decreasing) and where the bracket has not halved
    over the last three steps, so the bracket halves at least every fourth
    step.  (The first secant steps after the halving move only hi, so a
    two-step window would cut short a secant that is converging.)  Every
    point stays REL_TOL/2 * hi inside the bracket, which closes it on the
    step after the secant lands.  The secant aims REL_TOL/4 above its root,
    so where it is exact the returned hi has value below 1 by far more than
    rounding: modular(f/hi) <= 1 holds however f/hi is computed.
    """
    lo, v_hi = hi / 2.0, None
    for _ in range(MAX_ITER):
        if lo == 0.0:
            return 0.0
        v_lo = value(lo)
        if v_lo > 1.0:
            break
        hi, v_hi = lo, v_lo
        lo = hi / 2.0
    if v_hi is None:
        v_hi = value(hi)
    (lam_a, v_a), (lam_b, v_b) = (hi, v_hi), (lo, v_lo)
    widths = [np.inf] * 3  # bracket widths at the start of each step
    for _ in range(MAX_ITER):
        if hi - lo <= REL_TOL * hi:
            break
        widths.append(hi - lo)
        lam = 0.5 * (lo + hi)
        if 0.0 < v_a < np.inf and 0.0 < v_b < np.inf and widths[-1] <= 0.5 * widths[-4]:
            x_a, x_b = math.log(lam_a), math.log(lam_b)
            y_a, y_b = math.log(v_a), math.log(v_b)
            if (y_b - y_a) * (x_b - x_a) < 0.0:
                x = x_b - y_b * (x_b - x_a) / (y_b - y_a)
                lam = math.exp(min(max(x, math.log(lo)), math.log(hi)))
                lam *= 1.0 + 0.25 * REL_TOL
        margin = 0.5 * REL_TOL * hi
        lam = min(max(lam, lo + margin), hi - margin)
        v = value(lam)
        if v <= 1.0:
            hi = lam
        else:
            lo = lam
        (lam_a, v_a), (lam_b, v_b) = (lam_b, v_b), (lam, v)
    return hi


def _finite_part_norm(a, pv, cell_volume):
    """inf{lam : h^dim sum (a/lam)^pv <= 1} for finite exponents pv, a != 0."""

    def value(lam):
        with np.errstate(over="ignore"):
            return cell_volume * np.sum((a / lam) ** pv)

    # On a measure-1 domain the modular at lam = max|f| is <= 1 already, so
    # max|f| is a valid upper bracket.
    return luxemburg_root(value, float(a.max()))


def norm(f, p):
    """Luxemburg quasi-norm of f in L_{p(.)} on the grid.

    Root solve (luxemburg_root) on the modular of f/lam; the returned value
    lam satisfies modular(f/lam) <= 1 and is within REL_TOL of the infimum.
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
    lam_fin = _finite_part_norm(af, p.values[finite], f.grid.cell_volume)
    return max(ess, lam_fin)


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

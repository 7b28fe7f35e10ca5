"""Semimodular and Luxemburg quasi-norm of variable-exponent Lebesgue spaces.

The modular is rho(f) = sum_cells h^dim * phi_{p(x)}(|f(x)|) with

    phi_p(t) = t^p            (p finite)
    phi_inf(t) = 0 if t <= 1, inf otherwise,

and the quasi-norm is the Luxemburg functional inf{lam > 0 : rho(f/lam) <= 1}.
Because the p = inf region contributes 0 or inf only, the norm splits exactly
into max(ess-sup over the inf region, bisected finite part); the bisection is
monotone so bracketing never fails.
"""

from dataclasses import dataclass

import numpy as np

from .exponents import VariableExponent, conjugate, log_holder_estimate
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


def upper_bracket(ok, start, grow, max_iter):
    """First start * grow^k (k < max_iter) at which ok holds, or None."""
    lam = start
    for _ in range(max_iter):
        if ok(lam):
            return lam
        lam *= grow
    return None


def luxemburg_root(ok, hi, rel_tol, max_iter):
    """inf{lam > 0 : ok(lam)} for a predicate ok that is monotone in lam.

    hi must satisfy ok.  It is halved until ok fails (0.0 if the halving
    reaches zero first), then the bracket is bisected until it is within
    rel_tol of hi; the returned hi always satisfies ok.
    """
    lo = hi / 2.0
    for _ in range(max_iter):
        if lo == 0.0:
            return 0.0
        if not ok(lo):
            break
        hi = lo
        lo = hi / 2.0
    for _ in range(max_iter):
        if hi - lo <= rel_tol * hi:
            break
        mid = 0.5 * (lo + hi)
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _finite_part_norm(a, pv, cell_volume, rel_tol, max_iter):
    """inf{lam : h^dim sum (a/lam)^pv <= 1} for finite exponents pv, a != 0."""

    def ok(lam):
        with np.errstate(over="ignore"):
            return cell_volume * np.sum((a / lam) ** pv) <= 1.0

    # On a measure-1 domain the modular at lam = max|f| is <= 1 already, so
    # max|f| is a valid upper bracket.
    return luxemburg_root(ok, float(a.max()), rel_tol, max_iter)


def norm(f, p, rel_tol=REL_TOL, max_iter=MAX_ITER):
    """Luxemburg quasi-norm of f in L_{p(.)} on the grid.

    Monotone bisection on the unit-ball predicate; the returned value lam
    satisfies modular(f/lam) <= 1 and is within rel_tol of the infimum.
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
    lam_fin = _finite_part_norm(af, p.values[finite], f.grid.cell_volume, rel_tol, max_iter)
    return max(ess, lam_fin)


def holder_pairing(f, g, p):
    """(lhs, rhs) of the Holder inequality ||f g||_1 <= 2 ||f||_p ||g||_p'.

    Raises if the inequality fails beyond bisection noise; callers compare
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


def characteristic_norm_check(p, cube_side, anchor_stride=None):
    """Measure how far cube indicator norms sit from |Q|^(1/p(anchor)).

    Cubes are half-open, side a multiple of h, anchored at sample points
    (the anchor is the low corner, itself a point of Q).  The max/min ratio
    over the family is the measured constant of the norm-of-indicator
    equivalence; it should stay bounded as the grid refines.
    """
    grid = p.grid
    cells = int(round(cube_side / grid.h))
    if cells < 1 or abs(cells * grid.h - cube_side) > 1e-12:
        raise ValueError("cube_side must be a positive multiple of the grid spacing")
    if cube_side > 1.0:
        raise ValueError("cubes must have volume <= 1")
    if anchor_stride is None:
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
    report = log_holder_estimate(GridFunction(grid, p.reciprocal_values()))
    return CubeNormReport(
        cube_side=cube_side,
        cube_volume=vol,
        ratio_min=float(ratios.min()),
        ratio_max=float(ratios.max()),
        spread=float(ratios.max() / ratios.min()),
        anchors=len(anchors),
        c_log_local=report.c_log_local,
    )

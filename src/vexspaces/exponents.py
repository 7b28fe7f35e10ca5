"""Variable exponents p(.) on the grid and log-Holder regularity estimates.

An exponent is a measurable function with 0 < p^- and possibly p(x) = inf on
part of the grid; infinity is encoded literally as np.inf so the conventions
t^(1/inf) = 1 and the ess-sup modular fall out of case splits, never out of
large finite surrogates.
"""

from dataclasses import dataclass

import numpy as np

from .grid import GridFunction

__all__ = [
    "VariableExponent",
    "LogHolderReport",
    "log_holder_estimate",
    "conjugate",
    "pointwise_min",
    "pointwise_max",
]


class VariableExponent:
    """Exponent values per lattice point; np.inf marks the p = inf region.

    p_minus must be strictly positive (and finite); p_plus may be inf.
    An optional recipe (callable grid -> VariableExponent) lets the same
    exponent be resampled on a refined grid.
    """

    __slots__ = ("grid", "values", "recipe", "_partner", "_clog")

    def __init__(self, grid, values, recipe=None):
        values = np.asarray(values, dtype=np.float64)
        if values.shape != grid.shape:
            raise ValueError(f"values shape {values.shape} != grid shape {grid.shape}")
        if np.any(np.isnan(values)) or np.any(values <= 0.0):
            raise ValueError("exponent values must be > 0 (np.inf allowed)")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "recipe", recipe)
        object.__setattr__(self, "_partner", None)
        object.__setattr__(self, "_clog", None)

    def __setattr__(self, *_):
        raise AttributeError("VariableExponent is immutable")

    @classmethod
    def constant(cls, grid, value):
        value = float(value)
        recipe = lambda g: cls.constant(g, value)
        return cls(grid, np.full(grid.shape, value), recipe=recipe)

    @classmethod
    def from_function(cls, grid, fn):
        recipe = lambda g: cls.from_function(g, fn)
        return cls(grid, fn(*grid.coords), recipe=recipe)

    @property
    def p_minus(self):
        return float(self.values.min())

    @property
    def p_plus(self):
        return float(self.values.max())

    @property
    def finite_mask(self):
        return np.isfinite(self.values)

    def is_constant(self):
        v = self.values
        return bool(np.all(v == v.flat[0]))

    def reciprocal_values(self):
        """1/p with the convention 1/inf = 0, as a plain array."""
        with np.errstate(divide="ignore"):
            return np.where(np.isfinite(self.values), 1.0 / self.values, 0.0)

    def divided_by(self, r):
        """p(.)/r for a positive scalar r (inf stays inf)."""
        r = float(r)
        if r <= 0:
            raise ValueError("divisor must be positive")
        return VariableExponent(self.grid, self.values / r)

    def divided_pointwise(self, q):
        """p(.)/q(.) for a finite exponent q (used on the q^+ < inf path)."""
        if not np.all(np.isfinite(q.values)):
            raise ValueError("pointwise division needs a finite divisor exponent")
        return VariableExponent(self.grid, self.values / q.values)

    def refine(self, grid):
        if self.recipe is None:
            raise ValueError("exponent has no resampling recipe")
        return self.recipe(grid)

    def __repr__(self):
        return f"VariableExponent(p_minus={self.p_minus:.4g}, p_plus={self.p_plus:.4g})"


def _combine_recipes(fn, p, q):
    if p.recipe is None or q.recipe is None:
        return None
    return lambda g: fn(p.refine(g), q.refine(g))


def pointwise_min(p, q):
    recipe = _combine_recipes(pointwise_min, p, q)
    return VariableExponent(p.grid, np.minimum(p.values, q.values), recipe=recipe)


def pointwise_max(p, q):
    recipe = _combine_recipes(pointwise_max, p, q)
    return VariableExponent(p.grid, np.maximum(p.values, q.values), recipe=recipe)


def conjugate(p):
    """Pointwise Holder conjugate p' = p/(p-1), with 1 <-> inf.

    Conjugating twice returns the original object, so the involution is
    exact despite floating-point division.
    """
    if p._partner is not None:
        return p._partner
    if p.p_minus < 1.0:
        raise ValueError(f"conjugate needs p >= 1 pointwise, got p_minus={p.p_minus}")
    v = p.values
    out = np.empty_like(v)
    inf_mask = ~np.isfinite(v)
    one_mask = v == 1.0
    mid = ~(inf_mask | one_mask)
    out[inf_mask] = 1.0
    out[one_mask] = np.inf
    with np.errstate(divide="ignore"):
        out[mid] = v[mid] / (v[mid] - 1.0)
    q = VariableExponent(p.grid, out)
    object.__setattr__(q, "_partner", p)
    return q


@dataclass(frozen=True)
class LogHolderReport:
    """Grid estimates of local and at-infinity log-Holder constants."""

    c_log_local: float
    g_infinity: float
    c_log_global: float


def _c_log_local(scan):
    """max over h of max_x |g(x) - g(x-h)| * log(e + 1/d(h)) from a signed scan.

    scan = grid.pruned_scan(g, np.subtract) holds D(h) = max_x g(x) - g(x-h);
    D(-h) is the same array at grid.reflections.  a - b == -(b - a)
    exactly in floating point, so max(D(h), D(-h)) is the |a - b| scan bit
    for bit.  Only the rows of shifts whose bound may reach the running
    maximum are scanned; the others hold -inf and cannot be the maximum.
    """
    grid = scan.grid
    weight = np.log(np.e + 1.0 / grid.shift_distances)
    spread = lambda D: np.maximum(D, D[grid.reflections]) * weight
    scan.visit(spread, 0.0)
    return max(0.0, np.max(spread(scan.maxima)))


def log_holder_estimate(g):
    """Measure log-Holder constants of a real GridFunction on its grid.

    c_log_local  = max over sample pairs of |g(x)-g(y)| * log(e + 1/d(x,y)),
    g_infinity   = grid mean (the natural torus stand-in for the limit),
    c_log_global = max of |g(x)-g_infinity| * log(e + |x|) with |x| the
    torus distance to the origin representative.
    """
    if isinstance(g, GridFunction):
        grid = g.grid
        values = np.real(g.samples)
    else:
        raise TypeError("log_holder_estimate expects a GridFunction")
    c_local = _c_log_local(grid.pruned_scan(values, np.subtract))
    g_inf = float(values.mean())
    weight = np.log(np.e + grid.dist_to_origin)
    c_global = float(np.max(np.abs(values - g_inf) * weight))
    return LogHolderReport(c_log_local=c_local, g_infinity=g_inf, c_log_global=c_global)


def _clog_inv(p):
    """Grid log-Holder constant c_log_local of 1/p (zero when p is constant),
    measured once and kept on the immutable exponent."""
    if p._clog is None:
        g = GridFunction(p.grid, p.reciprocal_values())
        object.__setattr__(p, "_clog", log_holder_estimate(g).c_log_local)
    return p._clog

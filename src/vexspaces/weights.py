"""Admissible weight sequences (w_j) and their verification scan.

A weight sequence is admissible for class parameters (alpha, alpha1, alpha2)
when

    (i)  w_j(x) <= c * w_j(y) * (1 + 2^j d(x,y))^alpha   for all j, x, y,
    (ii) 2^alpha1 * w_j <= w_{j+1} <= 2^alpha2 * w_j     pointwise,

with d the torus distance.  verify_admissible measures both conditions.
Condition (i) is a shift scan: the worst ratio max_x w_j(x) / w_j(x - s) for
every nonzero lattice shift s, at every grid size (Grid.shift_maxima, in
Grid.shifts() order, so a witness is the first worst (j, s) in that order).
Comparisons run on the ratio scale so integer level-shifts (which
rescale every ratio by an exact power of two) reproduce the unshifted
comparisons bit for bit.
"""

from dataclasses import dataclass, field

import numpy as np

from .exponents import _c_log_local

__all__ = [
    "WeightSequence",
    "AdmissibilityReport",
    "verify_admissible",
    "make_2microlocal",
    "make_variable_smoothness",
    "make_generalized",
    "make_weighted",
]

# slack for float noise in ratio comparisons; exact shifts stay exact
_REL_SLACK = 1e-9


@dataclass(frozen=True)
class WeightSequence:
    """Positive per-level weights with declared class parameters."""

    grid: object
    levels: tuple  # tuple of positive arrays, one per level 0..J
    declared_alpha: float
    declared_alpha1: float
    declared_alpha2: float
    declared_c: float
    recipe: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if len(self.levels) < 1:
            raise ValueError("need at least one level")
        for w in self.levels:
            if w.shape != self.grid.shape:
                raise ValueError("weight level shape mismatch")
            if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
                raise ValueError("weights must be positive and finite")
        if not (self.declared_alpha >= 0 and self.declared_alpha1 <= self.declared_alpha2):
            raise ValueError("need alpha >= 0 and alpha1 <= alpha2")
        if self.declared_c < 1.0:
            raise ValueError("declared c must be >= 1")

    @property
    def J(self):
        return len(self.levels) - 1

    def __getitem__(self, j):
        return self.levels[j]

    def truncated(self, J):
        if J + 1 > len(self.levels):
            raise ValueError(f"weight sequence has only {self.J + 1} levels")
        return WeightSequence(
            self.grid,
            self.levels[: J + 1],
            self.declared_alpha,
            self.declared_alpha1,
            self.declared_alpha2,
            self.declared_c,
            recipe=self.recipe,
        )

    def shifted(self, sigma):
        """Level-rescaled sequence (2^(j*sigma) w_j).

        The lifted space of order sigma uses shifted(-sigma); the class
        parameters move to (alpha, alpha1 + sigma, alpha2 + sigma).
        """
        sigma = float(sigma)
        levels = tuple(w * 2.0 ** (j * sigma) for j, w in enumerate(self.levels))
        recipe = None
        if self.recipe is not None:
            parent = self.recipe
            recipe = lambda g, J: parent(g, J).shifted(sigma)
        return WeightSequence(
            self.grid,
            levels,
            self.declared_alpha,
            self.declared_alpha1 + sigma,
            self.declared_alpha2 + sigma,
            self.declared_c,
            recipe=recipe,
        )

    def refine(self, grid):
        """The same sequence, with the same J, rebuilt on another grid."""
        if self.recipe is None:
            raise ValueError("weight sequence has no resampling recipe")
        return self.recipe(grid, self.J)


@dataclass(frozen=True)
class AdmissibilityReport:
    passes: bool
    measured_alpha: float
    measured_alpha1: float
    measured_alpha2: float
    measured_c: float
    witness_spatial: tuple  # (j, shift, ratio) of the worst condition-(i) pair
    witness_levels: tuple  # (j, flat_index, ratio) of the worst condition-(ii) cell


def _shift(grid, i):
    """The lattice shift at index i of a Grid.shift_maxima result."""
    return tuple(int(v) for v in np.unravel_index(i + 1, grid.shape))


def _scalar_powers(bases, alpha):
    """bases ** alpha for a 1D array, one scalar power per entry.

    Array powers differ from scalar ones in the last place on some CPUs;
    scalar powers give the constants a per-shift loop gives.
    """
    return np.array([b**alpha for b in bases.tolist()])


def verify_admissible(w):
    """Scan both admissibility conditions and report measured constants.

    measured_alpha1/2 are log2 of the extremal level ratios; measured_c is
    the worst spatial ratio divided by (1 + 2^j d)^declared_alpha; and
    measured_alpha is the smallest exponent >= 0 consistent with declared_c.
    """
    grid = w.grid

    # condition (ii): level-to-level growth, compared on the ratio scale
    ratio_min, ratio_max = np.inf, -np.inf
    wit_levels = (0, 0, 1.0)
    lo_bound = 2.0**w.declared_alpha1
    hi_bound = 2.0**w.declared_alpha2
    ok_levels = True
    for j in range(w.J):
        r = w.levels[j + 1] / w.levels[j]
        jmin, jmax = float(r.min()), float(r.max())
        if jmin < ratio_min:
            ratio_min = jmin
        if jmax > ratio_max:
            ratio_max = jmax
        bad_lo = r < lo_bound * (1.0 - _REL_SLACK)
        bad_hi = r > hi_bound * (1.0 + _REL_SLACK)
        if np.any(bad_lo) or np.any(bad_hi):
            ok_levels = False
            idx = int(np.argmax(np.abs(np.log(r / np.clip(r, lo_bound, hi_bound)))))
            wit_levels = (j, idx, float(r.flat[idx]))
    if w.J == 0:
        ratio_min = ratio_max = 1.0

    # condition (i): spatial comparability at declared alpha
    measured_c = 1.0
    measured_alpha = 0.0
    wit_spatial = (0, (0,) * grid.dim, 1.0)
    for j, wj in enumerate(w.levels):
        if wj.min() == wj.max():
            # every ratio is exactly 1 <= declared_c: no constant can move
            continue
        worst = grid.shift_maxima(wj, np.divide)
        bases = 1.0 + 2.0**j * grid.shift_distances
        cval = worst / _scalar_powers(bases, w.declared_alpha)
        i = int(np.argmax(cval))  # the first worst shift of this level
        if cval[i] > measured_c:
            measured_c = float(cval[i])
            wit_spatial = (j, _shift(grid, i), float(worst[i]))
        over = worst > w.declared_c
        need = np.log(worst[over] / w.declared_c) / np.log(bases[over])
        measured_alpha = max(measured_alpha, float(need.max(initial=0.0)))

    passes = ok_levels and measured_c <= w.declared_c * (1.0 + _REL_SLACK)
    return AdmissibilityReport(
        passes=passes,
        measured_alpha=measured_alpha,
        measured_alpha1=float(np.log2(ratio_min)),
        measured_alpha2=float(np.log2(ratio_max)),
        measured_c=measured_c,
        witness_spatial=wit_spatial,
        witness_levels=wit_levels,
    )


def _dist_to_set(grid, points):
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != grid.dim:
        raise ValueError(f"anchor points need {grid.dim} coordinates")
    best = None
    for pt in pts:
        if grid.dim == 1:
            d = grid.torus_distance(grid.coords[0], pt[0])
        else:
            d = np.sqrt(
                grid.wrap_deltas(grid.coords[0] - pt[0]) ** 2
                + grid.wrap_deltas(grid.coords[1] - pt[1]) ** 2
            )
        best = d if best is None else np.minimum(best, d)
    return best


def make_2microlocal(grid, J, s, s_prime, anchor_points):
    """Weights w_j = 2^(j s) (1 + 2^j d(x, U))^(s') for a point set U.

    Declared class: alpha = |s'|, alpha1 = s + min(0, s'),
    alpha2 = s + max(0, s'), c = 1.
    """
    d = _dist_to_set(grid, anchor_points)
    levels = tuple(
        2.0 ** (j * s) * (1.0 + 2.0**j * d) ** s_prime for j in range(J + 1)
    )
    recipe = lambda g, JJ: make_2microlocal(g, JJ, s, s_prime, anchor_points)
    return WeightSequence(
        grid,
        levels,
        declared_alpha=abs(s_prime),
        declared_alpha1=s + min(0.0, s_prime),
        declared_alpha2=s + max(0.0, s_prime),
        declared_c=1.0,
        recipe=recipe,
    )


def make_variable_smoothness(grid, J, s):
    """Weights w_j = 2^(j s(x)) for a real function s on the grid.

    Declared class: alpha = c_log(s) estimated on the grid, alpha1 = min s,
    alpha2 = max s, and c measured as the exact smallest constant for that
    alpha on the grid (the analytic constant is non-constructive).

    One signed scan D(h) = max_x s(x) - s(x - h) gives both: alpha is c_log
    of s, and since 2^(j .) is monotone, the worst level-j ratio
    max_x w_j(x) / w_j(x - h) is 2^(j D(h)).
    """
    if callable(s):
        fn = s
        s_vals = fn(*grid.coords)
        recipe = lambda g, JJ: make_variable_smoothness(g, JJ, fn)
    else:
        s_vals = np.asarray(s, dtype=float)
        recipe = None
    if s_vals.shape != grid.shape:
        raise ValueError("smoothness values must match the grid")
    D = grid.shift_maxima(s_vals, np.subtract)
    alpha = _c_log_local(grid, D)
    levels = tuple(2.0 ** (j * s_vals) for j in range(J + 1))
    # exact smallest c on the grid for the declared alpha (level 0 gives 1)
    c = 1.0
    for j in range(1, J + 1):
        growth = (1.0 + 2.0**j * grid.shift_distances) ** alpha
        c = max(c, float(np.max(2.0 ** (j * D) / growth)))
    return WeightSequence(
        grid,
        levels,
        declared_alpha=float(alpha),
        declared_alpha1=float(s_vals.min()),
        declared_alpha2=float(s_vals.max()),
        declared_c=c * (1.0 + _REL_SLACK),
        recipe=recipe,
    )


def make_generalized(grid, J, sigma):
    """Constant-in-x weights w_j = sigma_j for positive scalars sigma_j.

    Declared class: alpha = 0, alpha1 = log2(min ratio), alpha2 =
    log2(max ratio), c = 1.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 1 or len(sigma) < J + 1:
        raise ValueError("need at least J+1 scalars")
    if np.any(sigma <= 0) or not np.all(np.isfinite(sigma)):
        raise ValueError("sigma_j must be positive and finite")
    ratios = sigma[1 : J + 1] / sigma[: J]
    levels = tuple(np.full(grid.shape, sigma[j]) for j in range(J + 1))
    recipe = lambda g, JJ: make_generalized(g, JJ, sigma)
    return WeightSequence(
        grid,
        levels,
        declared_alpha=0.0,
        declared_alpha1=float(np.log2(ratios.min())) if len(ratios) else 0.0,
        declared_alpha2=float(np.log2(ratios.max())) if len(ratios) else 0.0,
        declared_c=1.0,
        recipe=recipe,
    )


def make_weighted(grid, J, rho, s, beta, c=None):
    """Weights w_j = 2^(j s) rho(x) for an admissible weight function rho.

    rho must satisfy rho(x) <= C rho(y) (1 + d(x,y)^2)^(beta/2) on the grid;
    C is measured when not supplied, verified (with a witnessing pair in the
    error) when supplied.  Declared class: (beta, s, s).
    """
    if callable(rho):
        fn = rho
        rho_vals = fn(*grid.coords)
        recipe = lambda g, JJ: make_weighted(g, JJ, fn, s, beta, c=c)
    else:
        rho_vals = np.asarray(rho, dtype=float)
        recipe = None
    if rho_vals.shape != grid.shape:
        raise ValueError("rho values must match the grid")
    if np.any(rho_vals <= 0) or not np.all(np.isfinite(rho_vals)):
        idx = int(np.argmin(rho_vals))
        raise ValueError(f"rho must be positive; offending flat index {idx}")
    worst = grid.shift_maxima(rho_vals, np.divide)
    dists = grid.shift_distances
    growth = _scalar_powers(1.0 + dists * dists, beta / 2.0)
    cval = worst / growth
    i = int(np.argmax(cval))  # the first worst shift
    measured = max(1.0, float(cval[i]))
    witness = None
    if measured > 1.0:
        witness = (_shift(grid, i), float(worst[i]), float(growth[i]))
    if c is not None and measured > c * (1.0 + _REL_SLACK):
        raise ValueError(
            f"rho violates the declared constant {c}: measured {measured} at pair {witness}"
        )
    levels = tuple(2.0 ** (j * s) * rho_vals for j in range(J + 1))
    return WeightSequence(
        grid,
        levels,
        declared_alpha=float(beta),
        declared_alpha1=float(s),
        declared_alpha2=float(s),
        declared_c=float(c if c is not None else measured * (1.0 + _REL_SLACK)),
        recipe=recipe,
    )

"""Admissible weight sequences (w_j) and their verification scan.

A weight sequence is admissible for class parameters (alpha, alpha1, alpha2)
when

    (i)  w_j(x) <= c * w_j(y) * (1 + 2^j d(x,y))^alpha   for all j, x, y,
    (ii) 2^alpha1 * w_j <= w_{j+1} <= 2^alpha2 * w_j     pointwise,

with d the torus distance.  verify_admissible measures both conditions.
Condition (i) is a shift scan: the worst ratio max_x w_j(x) / w_j(x - s) for
every nonzero lattice shift s, at every grid size, and a witness is the
first worst (j, s) in Grid.shift_vectors order.  The scan is
Grid.pruned_scan: in 2D it leaves out a row of shifts only where the bound
of every shift in it (worst ratios are submultiplicative in the shift) is
strictly below the running constant, so every constant and witness is that
of the dense scan, bit for bit.  make_weighted and make_variable_smoothness
(through exponents._c_log_local) measure their constants the same way.
Condition (ii) is one reduction over the level ratios w_{j+1} / w_j,
stacked as a (J, points) array (_level_growth), whose witness is the first
worst cell over all levels; the local-means route of spaces reads its
alpha2 from the same helper.
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
    witness_levels: tuple  # (j, flat_index, ratio) of the worst condition-(ii) cell, all levels


def _scalar_powers(bases, alpha):
    """bases ** alpha for a 1D array, one scalar power per entry.

    Array powers differ from scalar ones in the last place on some CPUs;
    scalar powers give the constants a per-shift loop gives.
    """
    return np.array([b**alpha for b in bases.tolist()])


def _level_growth(w, J):
    """Condition (ii) up to level J: the ratios w_{j+1} / w_j for j < J,
    stacked as one (J, points) array, and log2 of their smallest and
    largest (both 0 when J = 0)."""
    levels = np.reshape(w.levels[: J + 1], (J + 1, -1))
    ratios = levels[1:] / levels[:-1]
    if J == 0:
        return ratios, 0.0, 0.0
    return ratios, float(np.log2(ratios.min())), float(np.log2(ratios.max()))


def verify_admissible(w):
    """Scan both admissibility conditions and report measured constants.

    measured_alpha1/2 are log2 of the extremal level ratios; measured_c is
    the worst spatial ratio divided by (1 + 2^j d)^declared_alpha; and
    measured_alpha is the smallest exponent >= 0 consistent with declared_c.
    """
    grid = w.grid

    # condition (ii): level-to-level growth, compared on the ratio scale
    ratios, alpha1, alpha2 = _level_growth(w, w.J)
    lo_bound = 2.0**w.declared_alpha1
    hi_bound = 2.0**w.declared_alpha2
    bad = (ratios < lo_bound * (1.0 - _REL_SLACK)) | (ratios > hi_bound * (1.0 + _REL_SLACK))
    ok_levels = not bad.any()
    wit_levels = (0, 0, 1.0)
    if not ok_levels:
        excess = np.abs(np.log(ratios / np.clip(ratios, lo_bound, hi_bound)))
        j, idx = np.unravel_index(np.argmax(excess), ratios.shape)  # the first worst cell
        wit_levels = (int(j), int(idx), float(ratios[j, idx]))

    # condition (i): spatial comparability at declared alpha
    measured_c = 1.0
    measured_alpha = 0.0
    wit_spatial = (0, (0,) * grid.dim, 1.0)
    for j, wj in enumerate(w.levels):
        if wj.min() == wj.max():
            # every ratio is exactly 1 <= declared_c: no constant can move
            continue
        scan = grid.pruned_scan(wj, np.divide)
        bases = 1.0 + 2.0**j * grid.shift_distances
        # scan the rows of shifts whose bound may reach either running constant
        scan.visit(lambda worst: worst / bases**w.declared_alpha, measured_c)
        scan.visit(lambda worst: np.log(worst / w.declared_c) / np.log(bases), measured_alpha)
        seen = np.flatnonzero(scan.scanned)
        worst, bases = scan.maxima[seen], bases[seen]
        cval = worst / _scalar_powers(bases, w.declared_alpha)
        i = int(np.argmax(cval))  # the first worst shift of this level
        if cval[i] > measured_c:
            measured_c = float(cval[i])
            wit_spatial = (j, tuple(grid.shift_vectors[seen[i]].tolist()), float(worst[i]))
        over = worst > w.declared_c
        need = np.log(worst[over] / w.declared_c) / np.log(bases[over])
        measured_alpha = max(measured_alpha, float(need.max(initial=0.0)))

    passes = ok_levels and measured_c <= w.declared_c * (1.0 + _REL_SLACK)
    return AdmissibilityReport(
        passes=passes,
        measured_alpha=measured_alpha,
        measured_alpha1=alpha1,
        measured_alpha2=alpha2,
        measured_c=measured_c,
        witness_spatial=wit_spatial,
        witness_levels=wit_levels,
    )


def _dist_to_set(grid, points):
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != grid.dim:
        raise ValueError(f"anchor points need {grid.dim} coordinates")
    x = grid.coords[0] if grid.dim == 1 else grid.coords
    best = None
    for pt in pts:
        d = grid.torus_distance(x, pt)
        best = d if best is None else np.minimum(best, d)
    return best


def _sample(grid, fn, name):
    """fn of the coordinate arrays as a float array of grid shape; a result
    that broadcasts to it, such as a constant, is broadcast."""
    values = np.asarray(fn(*grid.coords), dtype=float)
    try:
        return np.array(np.broadcast_to(values, grid.shape))
    except ValueError:
        raise ValueError(f"{name} values must match the grid") from None


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
    """Weights w_j = 2^(j s(x)) for a real function s of the coordinate
    arrays, which the recipe keeps.

    Declared class: alpha = c_log(s) estimated on the grid, alpha1 = min s,
    alpha2 = max s, and c measured as the exact smallest constant for that
    alpha on the grid (the analytic constant is non-constructive).

    One signed scan D(h) = max_x s(x) - s(x - h) gives both: alpha is c_log
    of s, and since 2^(j .) is monotone, the worst level-j ratio
    max_x w_j(x) / w_j(x - h) is 2^(j D(h)).  The scan visits first the rows
    of shifts that alpha may need, then those that c may need.
    """
    s_vals = _sample(grid, s, "smoothness")
    scan = grid.pruned_scan(s_vals, np.subtract)
    alpha = _c_log_local(scan)
    levels = tuple(2.0 ** (j * s_vals) for j in range(J + 1))
    # exact smallest c on the grid for the declared alpha (level 0 gives 1)
    growth = [(1.0 + 2.0**j * grid.shift_distances) ** alpha for j in range(1, J + 1)]
    ratios = lambda D: [2.0 ** (j * D) / g for j, g in enumerate(growth, 1)]
    if growth:
        scan.visit(lambda D: np.max(ratios(D), axis=0), 1.0)
    c = max([1.0] + [float(np.max(r)) for r in ratios(scan.maxima)])
    return WeightSequence(
        grid,
        levels,
        declared_alpha=float(alpha),
        declared_alpha1=float(s_vals.min()),
        declared_alpha2=float(s_vals.max()),
        declared_c=c * (1.0 + _REL_SLACK),
        recipe=lambda g, JJ: make_variable_smoothness(g, JJ, s),
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
    """Weights w_j = 2^(j s) rho(x) for an admissible weight function rho
    of the coordinate arrays, which the recipe keeps.

    rho must satisfy rho(x) <= C rho(y) (1 + d(x,y)^2)^(beta/2) on the grid;
    C is measured when not supplied, verified (with a witnessing pair in the
    error) when supplied.  Declared class: (beta, s, s).
    """
    rho_vals = _sample(grid, rho, "rho")
    if np.any(rho_vals <= 0) or not np.all(np.isfinite(rho_vals)):
        idx = int(np.argmin(rho_vals))
        raise ValueError(f"rho must be positive; offending flat index {idx}")
    scan = grid.pruned_scan(rho_vals, np.divide)
    dists = grid.shift_distances
    bases = 1.0 + dists * dists
    scan.visit(lambda worst: worst / bases ** (beta / 2.0), 1.0)
    seen = np.flatnonzero(scan.scanned)
    worst = scan.maxima[seen]
    growth = _scalar_powers(bases[seen], beta / 2.0)
    cval = worst / growth
    i = int(np.argmax(cval))  # the first worst shift
    measured = max(1.0, float(cval[i]))
    witness = None
    if measured > 1.0:
        witness = (tuple(grid.shift_vectors[seen[i]].tolist()), float(worst[i]), float(growth[i]))
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
        recipe=lambda g, JJ: make_weighted(g, JJ, rho, s, beta, c=c),
    )

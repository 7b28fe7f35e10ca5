"""Fourier-side analysis systems and the operators built on them.

Masks live directly on the grid's frequency set (FFT order), built from
C-infinity radial profiles so support statements are exact: a profile is
identically 0 or 1 outside its transition bands, not merely small.  Spatial
kernels are materialized only where the definitions demand it (local means).

Systems come in four kinds:

* admissible_pair: mask_0 supported in {|xi| <= 2} and bounded below on
  {|xi| <= 5/3}; mask_j (j >= 1) supported in the dyadic annulus
  [2^(j-1), 2^(j+1)] and bounded below on [(3/5) 2^j, (5/3) 2^j].
* general_pair: mask_0 positive on {|xi| <= k eps}, dilated band masks
  positive on [eps/2, k eps] scaled by 2^j and identically zero near the
  origin (all moments vanish exactly).
* theta_partition: masks summing to exactly 1 on the frequency set.
* lambda_cover: dilates of a window equal to 1 on [2^(j-1), 2^(j+1)] and
  vanishing off (2^(j-2), 2^(j+2)).
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .expr import InputError, Interval, evaluate, parse_symbol, taylor
from .grid import (
    _SCAN_BLOCK,
    FunctionSequence,
    convolve,
    spectral_derivative,
    synthesize,
)

__all__ = [
    "AnalysisSystem",
    "SystemAuditReport",
    "audit_system",
    "general_conditions_report",
    "admissible_system",
    "general_system",
    "theta_system",
    "dyadic_cover_system",
    "littlewood_paley",
    "peetre_maximal",
    "RadialKernel",
    "bump_kernel",
    "kernel_hat",
    "local_means",
    "local_means_leakage",
    "lift",
    "apply_multiplier",
    "schwartz_seminorm",
    "MultiplierSymbol",
    "symbol_derivative_norm",
    "bessel_window_norm",
    "dyadic_bessel_norm",
    "multi_indices",
]


# ------------------------------------------------------------------ profiles


def _ramp(t):
    """C-infinity monotone ramp: exactly 0 for t <= 0, exactly 1 for t >= 1."""
    t = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        a = np.where(t > 0.0, np.exp(-1.0 / np.where(t > 0.0, t, 1.0)), 0.0)
        b = np.where(t < 1.0, np.exp(-1.0 / np.where(t < 1.0, 1.0 - t, 1.0)), 0.0)
    return a / (a + b)


def _band_profile(r, lo0, lo1, hi0, hi1):
    """0 below lo0, ramp to exactly 1 on [lo1, hi0], 0 above hi1."""
    return _ramp((r - lo0) / (lo1 - lo0)) * (1.0 - _ramp((r - hi0) / (hi1 - hi0)))


def _ball_profile(r, hi0, hi1):
    """Exactly 1 up to hi0, ramp down, 0 from hi1 on."""
    return 1.0 - _ramp((r - hi0) / (hi1 - hi0))


def _hann_band(r):
    # cos^2((pi/2) log2 r) on (1/2, 2); C^1 at the edges, 1 at r = 1
    r = np.asarray(r, dtype=float)
    inside = (r > 0.5) & (r < 2.0)
    safe = np.where(inside, r, 1.0)
    return np.where(inside, np.cos(0.5 * np.pi * np.log2(safe)) ** 2, 0.0)


def _hann_ball(r):
    r = np.asarray(r, dtype=float)
    upper = (r > 1.0) & (r < 2.0)
    safe = np.where(upper, r, 1.0)
    out = np.where(upper, np.cos(0.5 * np.pi * np.log2(safe)) ** 2, 0.0)
    return np.where(r <= 1.0, 1.0, out)


_PROFILES = {
    "plateau": (
        lambda r: _ball_profile(r, 5.0 / 3.0, 1.9),
        lambda r: _band_profile(r, 0.55, 0.6, 5.0 / 3.0, 1.9),
    ),
    "hann": (_hann_ball, _hann_band),
}


# ------------------------------------------------------------------- systems


class AnalysisSystem:
    """Masks on the grid frequency set, one per level, plus their pedigree."""

    __slots__ = ("kind", "grid", "masks", "metadata", "recipe")

    def __init__(self, kind, grid, masks, metadata=None, recipe=None):
        masks = tuple(np.ascontiguousarray(m) for m in masks)
        for m in masks:
            if m.shape != grid.shape:
                raise ValueError("mask shape must match grid shape")
            m.setflags(write=False)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "masks", masks)
        object.__setattr__(self, "metadata", dict(metadata or {}))
        object.__setattr__(self, "recipe", recipe)

    def __setattr__(self, *_):
        raise AttributeError("AnalysisSystem is immutable")

    @property
    def levels(self):
        return len(self.masks) - 1

    def refine(self, grid):
        if self.recipe is None:
            raise ValueError("system has no resampling recipe")
        return self.recipe(grid)

    def __repr__(self):
        return f"AnalysisSystem(kind={self.kind!r}, levels={self.levels}, grid={self.grid!r})"


def admissible_system(grid, J, profile="plateau"):
    """Admissible pair masks: mask_0 = ball profile, mask_j its band dilates.

    J must satisfy J <= max_levels so the top annulus fits the frequency
    set.  Two named profiles are available; "plateau" has lower bound
    exactly 1 on the required regions, "hann" a smaller measured bound.
    """
    if J > grid.max_levels():
        raise ValueError(f"J={J} too large; grid supports J <= {grid.max_levels()}")
    if profile not in _PROFILES:
        raise ValueError(f"unknown profile {profile!r}; have {sorted(_PROFILES)}")
    ball, band = _PROFILES[profile]
    r = grid.xi_norm
    masks = [ball(r)] + [band(2.0 ** (-j) * r) for j in range(1, J + 1)]
    c = _floor(grid, masks, _ADMISSIBLE_REGIONS[0])
    return AnalysisSystem(
        "admissible_pair",
        grid,
        masks,
        metadata={"profile": profile, "J": J, "c_lower": c},
        recipe=lambda g: admissible_system(g, J, profile),
    )


def general_system(grid, J, epsilon, k_factor):
    """General pair masks with a hard spectral gap at the origin.

    The band mask is identically zero for |xi| <= 3 eps / 8, so every
    derivative of its (notional) profile vanishes at the origin: the
    construction delivers vanishing moments of every order at once.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if not 1.0 < k_factor <= 2.0:
        raise ValueError("k_factor must lie in (1, 2]")
    if J > grid.max_levels():
        raise ValueError(f"J={J} too large; grid supports J <= {grid.max_levels()}")
    top = 1.5 * k_factor * epsilon * 2.0**J
    if top > np.pi * grid.n:
        raise ValueError("top band mask would spill past the frequency set")
    ke = k_factor * epsilon
    r = grid.xi_norm
    ball = _ball_profile(r, ke, 1.5 * ke)
    masks = [ball] + [
        _band_profile(2.0 ** (-j) * r, 0.375 * epsilon, 0.5 * epsilon, ke, 1.5 * ke)
        for j in range(1, J + 1)
    ]
    return AnalysisSystem(
        "general_pair",
        grid,
        masks,
        metadata={
            "epsilon": epsilon,
            "k_factor": k_factor,
            "J": J,
        },
        recipe=lambda g: general_system(g, J, epsilon, k_factor),
    )


def theta_system(grid):
    """Telescoping partition of unity on the whole frequency set.

    Theta_0 is the plateau ball, Theta_k the difference of consecutive ball
    dilates; the sum collapses to the widest ball, which is exactly 1 on
    every grid frequency by choice of the number of levels.
    """
    r = grid.xi_norm
    r_max = float(r.max())
    K = 0
    while (5.0 / 3.0) * 2.0**K < r_max:
        K += 1
    ball = lambda rr: _ball_profile(rr, 5.0 / 3.0, 1.9)
    masks = [ball(r)]
    for k in range(1, K + 1):
        masks.append(ball(2.0 ** (-k) * r) - ball(2.0 ** (-k + 1) * r))
    return AnalysisSystem(
        "theta_partition",
        grid,
        masks,
        metadata={"K": K},
        recipe=theta_system,
    )


def _lam0_profile(r):
    # window equal to 1 on the ball of radius 2, gone by radius 4
    return _ball_profile(r, 2.0, 4.0)


def _lam_profile(r):
    # annular window: 1 on [1/2, 2], supported in (1/4, 4)
    return _lam0_profile(r) - _lam0_profile(8.0 * np.asarray(r, dtype=float))


def dyadic_cover_system(grid, J):
    """Dilated annular windows lambda_j: 1 on [2^(j-1), 2^(j+1)], 0 off
    (2^(j-2), 2^(j+2))."""
    if J > grid.max_levels():
        raise ValueError(f"J={J} too large; grid supports J <= {grid.max_levels()}")
    r = grid.xi_norm
    masks = [_lam_profile(2.0 ** (-j) * r) for j in range(J + 1)]
    return AnalysisSystem(
        "lambda_cover",
        grid,
        masks,
        metadata={"J": J},
        recipe=lambda g: dyadic_cover_system(g, J),
    )


@dataclass(frozen=True)
class SystemAuditReport:
    """Exhaustive frequency-set scan of a system's defining conditions."""

    kind: str
    passes: bool
    c_lower: float  # smallest required lower bound actually attained
    support_violations: int  # frequencies where a mask must vanish but doesn't
    partition_residual: float  # max |sum - 1| (theta) or plateau defect (cover)


def audit_system(sys):
    kind = sys.kind
    residual = 0.0
    if kind == "admissible_pair":
        passes, c_lower, violations = _pair_conditions(sys, *_ADMISSIBLE_REGIONS)
    elif kind == "general_pair":
        passes, c_lower, violations = general_conditions_report(
            sys, sys.metadata["epsilon"], sys.metadata["k_factor"]
        )
    elif kind == "theta_partition":
        total = np.sum(np.stack(sys.masks), axis=0)
        residual = float(np.max(np.abs(total - 1.0)))
        c_lower, violations = 0.0, 0
        passes = residual <= 1e-10
    elif kind == "lambda_cover":
        plateau = _annuli(sys.grid, len(sys.masks), (0.5, 2.0), ball=False)
        defects = [float(np.max(np.abs(m[a] - 1.0))) for m, a in zip(sys.masks, plateau) if a.any()]
        residual = max([0.0] + defects)
        violations = _leaks(sys.grid, sys.masks, (0.25, 4.0), ball=False)
        c_lower = 1.0 - residual
        passes = violations == 0 and residual <= 1e-12
    else:
        raise ValueError(f"unknown system kind {kind!r}")
    if not np.isfinite(c_lower):
        c_lower = 0.0
    return SystemAuditReport(
        kind=kind,
        passes=bool(passes),
        c_lower=c_lower,
        support_violations=violations,
        partition_residual=residual,
    )


def general_conditions_report(sys, epsilon, k_factor):
    """Scan any system against the general-pair positivity/gap conditions.

    Used to confirm that admissible pairs qualify with epsilon = 6/5,
    k = 25/18.  Returns (passes, c_lower, gap_violations).
    """
    return _pair_conditions(sys, (0.5 * epsilon, k_factor * epsilon), (0.25 * epsilon, np.inf))


# ------------------------------------------------------- defining regions
#
# Every condition on a system is stated on closed dyadic annuli
# {lo 2^j <= |xi| <= hi 2^j}, one per level, given by bounds = (lo, hi); a
# pair's level-0 region is the ball {|xi| <= hi}.  Two reducers read them:
# the smallest |m_j| on the required regions (_floor) and the number of
# nonzero entries off the support (_leaks).

# (required, support) bounds of an admissible pair
_ADMISSIBLE_REGIONS = ((0.6, 5.0 / 3.0), (0.5, 2.0))


def _annuli(grid, levels, bounds, ball=True):
    """The regions of levels 0..levels-1 as boolean masks on the frequency set."""
    lo, hi = bounds
    r = grid.xi_norm
    return [
        (r >= (0.0 if ball and j == 0 else lo * 2.0**j)) & (r <= hi * 2.0**j)
        for j in range(levels)
    ]


def _floor(grid, masks, bounds, ball=True):
    """Smallest |m_j| on the regions; 0 when none holds a frequency."""
    regions = _annuli(grid, len(masks), bounds, ball)
    c = min([np.inf] + [float(np.min(np.abs(m[a]))) for m, a in zip(masks, regions) if a.any()])
    return c if np.isfinite(c) else 0.0


def _leaks(grid, masks, bounds, ball=True):
    """Number of nonzero mask entries off the regions."""
    regions = _annuli(grid, len(masks), bounds, ball)
    return sum(int(np.count_nonzero(m[~a])) for m, a in zip(masks, regions))


def _pair_conditions(sys, required, support):
    """(passes, c_lower, support violations) of a pair with these regions."""
    c_lower = _floor(sys.grid, sys.masks, required)
    violations = _leaks(sys.grid, sys.masks, support)
    return bool(violations == 0 and c_lower > 0.0), c_lower, violations


# ------------------------------------------------------- transform operators


def littlewood_paley(f, sys):
    """Band decomposition: entry j is the mask_j filtered copy of f."""
    if f.grid != sys.grid:
        raise ValueError("function and system must share one grid")
    return FunctionSequence([convolve(f, m) for m in sys.masks])


def peetre_maximal(F, a):
    """Sharp discrete Peetre maximal functions of a level sequence.

    Entry j at x is the exact maximum over grid points y of
    |F_j(y)| / (1 + |2^j (x - y)|^a), with the torus metric.  This is an
    under-approximation of the continuum supremum, adequate because level
    j data is band-limited and varies on scale 2^(-j) >> h.

    Shifts are scanned one symmetry class at a time.  Class (k, b),
    0 <= b <= k <= n/2 (b = 0 in 1D), holds the shifts (+-k, +-b) and
    (+-b, +-k); their Grid.shift_distances are bitwise equal (h is dyadic
    and wrapping is exact), so they share one weight w.  Rounding a product
    by a fixed w >= 0 is monotone, so max_s |F_j|(x - s) w equals
    w max_s |F_j|(x - s) bit for bit, and a class costs one multiply.  Its
    maximum is separable: pair maxima over +-k along one axis, then over +-b
    along the other, on slices of one doubled copy of |F_j|.  Classes go
    ring by ring in Chebyshev radius k, and only ring k's two pair maxima
    are held.  A class is skipped, and the scan stops, only where max |F_j|
    times its weight, or the largest weight of the rings left, cannot raise
    any entry; no step assumes that rounded weights fall with distance.
    """
    if a <= 0:
        raise ValueError("a must be positive")
    grid = F.grid
    dim, n, half = grid.dim, grid.n, grid.n // 2
    # the distance of class (k, b) sits at [k, b]; one array power over all
    # classes gives every shift the bits of its full-lattice weight
    dist = np.concatenate(([0.0], grid.shift_distances)).reshape(grid.shape)
    dist = np.ascontiguousarray(dist[(slice(half + 1),) * dim])
    rows = np.empty((n, 2 * n)[:dim])  # ring k's pair maxima, doubled along axis 1
    if dim == 2:
        cols, m = np.empty((2 * n, n)), np.empty((n, n))
    out = np.empty((len(F), *grid.shape))
    for j, (f, best) in enumerate(zip(F.stack(), out)):
        w = 1.0 / (1.0 + (2.0**j * dist) ** a)
        ring = w if dim == 1 else np.tril(w).max(axis=1)  # largest weight of ring k
        left = np.maximum.accumulate(ring[::-1])[::-1]  # ... of rings k and beyond
        np.abs(f, out=best)
        peak = float(best.max())
        twice = np.tile(best, (2,) * dim)  # |F_j|(x - s) == twice[x - s + n]
        for k in range(1, half + 1):
            bmin = best.min()
            if not peak * left[k] > bmin:
                break
            minus, plus = slice(n - k, 2 * n - k), slice(k, k + n)  # x - k, x + k
            np.maximum(twice[minus], twice[plus], out=rows)  # shifts (+-k, 0)
            if dim == 1:
                rows *= w[k]
                np.maximum(best, rows, out=best)
                continue
            np.maximum(twice[:, minus], twice[:, plus], out=cols)  # shifts (0, +-k)
            for b in np.flatnonzero(peak * w[k, : k + 1] > bmin):
                minus, plus = slice(n - b, 2 * n - b), slice(b, b + n)
                np.maximum(rows[:, minus], rows[:, plus], out=m)  # shifts (+-k, +-b)
                np.maximum(m, cols[minus], out=m)  # and (+-b, +-k)
                np.maximum(m, cols[plus], out=m)
                m *= w[k, b]
                np.maximum(best, m, out=best)
    return FunctionSequence.from_stack(grid, out)


# ----------------------------------------------------------------- local means


@dataclass(frozen=True)
class RadialKernel:
    """Spatial kernel profile(|y| / radius), supported in |y| < radius."""

    radius: float
    profile: object
    label: str = "custom"

    def __post_init__(self):
        if not 0.0 < self.radius < 0.5:
            raise ValueError("kernel radius must fit inside the fundamental cell")


def _bump_profile(s):
    s = np.asarray(s, dtype=float)
    inside = s < 1.0
    safe = np.where(inside, s, 0.0)
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        return np.where(inside, np.exp(-1.0 / (1.0 - safe**2)), 0.0)


def bump_kernel(radius=0.25):
    """The standard bump exp(-1/(1-|y/r|^2)) restricted to |y| < r."""
    return RadialKernel(radius=radius, profile=_bump_profile, label="bump")


_KERNEL_QUAD_1D = 2048
_KERNEL_QUAD_2D = 256


def _kernel_lattice(kernel, dim):
    m = _KERNEL_QUAD_1D if dim == 1 else _KERNEL_QUAD_2D
    step = 2.0 * kernel.radius / m
    y = -kernel.radius + (np.arange(m) + 0.5) * step
    if dim == 1:
        vals = kernel.profile(np.abs(y) / kernel.radius)
    else:
        vals = kernel.profile(np.hypot(y[:, None], y[None, :]) / kernel.radius)
    return y, vals, step**dim


def kernel_hat(kernel, eta_axes):
    """Continuum Fourier transform of the kernel at tensor-lattice frequencies.

    eta_axes is a tuple of per-axis frequency arrays; the transform is
    evaluated on their tensor product via midpoint quadrature, exploiting
    the separable phase to stay at matrix-product cost in 2D.
    """
    dim = len(eta_axes)
    y, vals, weight = _kernel_lattice(kernel, dim)
    phases = [np.exp(-1j * np.outer(ax, y)) for ax in eta_axes]
    if dim == 1:
        return weight * (phases[0] @ vals)
    return weight * (phases[0] @ vals @ phases[1].T)


def _means_mask(kernel, grid, scale, laplacian_order):
    axes = tuple(-scale * 2.0 * np.pi * grid.axis_wavenumbers for _ in range(grid.dim))
    base = kernel_hat(kernel, axes)
    if laplacian_order == 0:
        return base
    eta_sq = np.zeros(grid.shape)
    for ax_vals in np.meshgrid(*axes, indexing="ij") if grid.dim == 2 else (axes[0],):
        eta_sq = eta_sq + ax_vals**2
    return (-eta_sq) ** laplacian_order * base


@lru_cache(maxsize=32)
def _means_masks(grid, J, laplacian_order, kernel0, kernel_base):
    # a raise is not cached, so a vanishing kernel is refused on every call
    for k in (kernel0, kernel_base):
        mass = kernel_hat(k, tuple(np.zeros(1) for _ in range(grid.dim)))
        if abs(complex(mass.ravel()[0])) < 1e-12:
            raise ValueError("kernel transform vanishes at the origin")
    masks = [_means_mask(kernel0, grid, 1.0, 0)]
    for j in range(1, J + 1):
        masks.append(_means_mask(kernel_base, grid, 2.0 ** (-j), laplacian_order))
    return tuple(masks)


def local_means(f, J, laplacian_order, kernel0=None, kernel_base=None):
    """Local means sequence: entry 0 uses kernel0 at scale 1, entry j >= 1
    the 2N-th order Laplacian of kernel_base at scale 2^-j.

    k(t, f)(x) = integral of f(x + t y) k(y) dy, realized on the frequency
    set as f^(xi) k^(-t xi); the Laplacian is applied spectrally, so the
    means of entries j >= 1 vanish identically.
    """
    if laplacian_order < 1:
        raise ValueError("laplacian_order must be >= 1")
    kernel0 = kernel0 or bump_kernel()
    kernel_base = kernel_base or kernel0
    masks = _means_masks(f.grid, J, laplacian_order, kernel0, kernel_base)
    return FunctionSequence([convolve(f, m) for m in masks])


def local_means_leakage(kernel, grid, level, laplacian_order):
    """Relative spill of the synthesized level kernel outside its ball.

    The spectral Laplacian and the frequency-set truncation both break
    exact compact support; this measures max |K| outside the nominal
    support (radius 2^-level * kernel.radius, plus two cells of slack)
    against max |K| overall.
    """
    scale = 2.0 ** (-level)
    mask = _means_mask(kernel, grid, scale, laplacian_order)
    spatial = np.abs(synthesize(grid, mask).samples)
    outside = grid.dist_to_origin > scale * kernel.radius + 2.0 * grid.h
    if not outside.any():
        return 0.0
    peak = float(spatial.max())
    return float(spatial[outside].max() / peak) if peak > 0 else 0.0


# ------------------------------------------------------ lifting / multipliers


def lift(f, sigma):
    """Smoothness shift: ((1 + |xi|^2)^(sigma/2) f^)^v on the frequency set."""
    return convolve(f, (1.0 + f.grid.xi_norm**2) ** (sigma / 2.0))


def apply_multiplier(f, mask):
    """(m f^)^v for a sampled Fourier-side multiplier."""
    mask = np.asarray(mask)
    if not np.all(np.isfinite(mask)):
        raise InputError("multiplier must be finite on the frequency set")
    return convolve(f, mask)


def multi_indices(dim, order):
    """All multi-indices of total order <= order, ascending."""
    if dim == 1:
        return [(g,) for g in range(order + 1)]
    return [(g1, g2) for g1 in range(order + 1) for g2 in range(order + 1 - g1)]


def schwartz_seminorm(f, N):
    """max over the grid of (1 + |x|)^N sum_{|gamma| <= N} |D^gamma f(x)|.

    |x| is the distance to the origin representative on the torus and the
    derivatives are spectral, so the value is meaningful for functions
    concentrated well inside the fundamental cell.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    grid = f.grid
    total = np.zeros(grid.shape)
    for gamma in multi_indices(grid.dim, N):
        total += np.abs(spectral_derivative(f, gamma).samples)
    return float(np.max((1.0 + grid.dist_to_origin) ** N * total))


class MultiplierSymbol:
    """Fourier symbol with exact derivatives, from an expression string.

    The text is an expression of vexspaces.expr in xi1 (and xi2 in 2D),
    validated by parse_symbol.  Values and derivatives both come from its
    Taylor jets: a value is the order-0 coefficient (expr.evaluate).
    """

    def __init__(self, text, dim):
        if dim not in (1, 2):
            raise ValueError("dim must be 1 or 2")
        self.dim = dim
        self.text = text
        self.ast = parse_symbol(text, dim)

    def jet(self, order, *points):
        """Taylor coefficients to total order `order` at points (see
        vexspaces.expr.taylor): multi-index gamma -> c_gamma, with
        D^gamma m = gamma! c_gamma and absent indices zero."""
        return taylor(self.ast, order, dict(zip(("xi1", "xi2"), points)))

    def derivative(self, gamma, *points):
        """D^gamma m at points: gamma! times the Taylor coefficient c_gamma."""
        if len(gamma) != self.dim or len(points) != self.dim:
            raise ValueError("gamma and points must match the symbol dimension")
        gamma = tuple(int(g) for g in gamma)
        c = self.jet(sum(gamma), *points).get(gamma, 0.0)
        out = math.prod(math.factorial(g) for g in gamma) * np.asarray(c)
        shape = np.broadcast_shapes(*(np.shape(p) for p in points))
        return np.broadcast_to(out, shape)

    def __call__(self, *points):
        if len(points) != self.dim:
            raise ValueError("points must match the symbol dimension")
        out = np.asarray(evaluate(self.ast, **dict(zip(("xi1", "xi2"), points))), dtype=float)
        shape = np.broadcast_shapes(*(np.shape(p) for p in points))
        return np.broadcast_to(out, shape)

    def sample(self, grid):
        """Values on the grid frequency set, for apply_multiplier."""
        if grid.dim != self.dim:
            raise ValueError("grid dimension mismatch")
        return np.array(self(*grid.xi))

    def __repr__(self):
        return f"MultiplierSymbol({self.text!r}, dim={self.dim})"


# The seminorm lattices have _LATTICE[dim] points per axis; their scan
# takes coarse boxes and fine boxes of _BOX_SIDES[dim] points per axis.
_LATTICE = {1: 200_001, 2: 513}
_BOX_SIDES = {1: (4096, 256), 2: (64, 16)}


def _lattice_axis(radius, m, index):
    """np.linspace(-radius, radius, m)[index], computed as linspace does;
    radius broadcasts against index."""
    out = index * (2.0 * radius / (m - 1)) - radius
    np.copyto(out, radius, where=index == m - 1)
    return out


def _split(first, last, side):
    """The boxes of side `side` from the first corners on that tile the
    boxes with corners first and last (inclusive indices, one row per
    axis), and the box each one came from."""
    dim, count = first.shape
    pieces = -(-(last - first + 1).max(initial=1) // side)  # per axis, at most
    offsets = np.stack(np.meshgrid(*[np.arange(pieces) * side] * dim, indexing="ij"))
    new_first = (first[:, :, None] + offsets.reshape(dim, 1, -1)).reshape(dim, -1)
    parent = np.repeat(np.arange(count), pieces**dim)
    new_last = np.minimum(new_first + side - 1, last[:, parent])
    keep = (new_first <= new_last).all(axis=0)
    return new_first[:, keep], new_last[:, keep], parent[keep]


def _weighted_terms(symbol, l, points):
    """(gamma!, (1 + |xi|^2)^(|gamma|/2) |c_gamma|) for every |gamma| <= 2l
    with a nonzero jet coefficient c_gamma at points: arrays of lattice
    points, or Intervals over boxes of them.  The weights are powers of one
    square root."""
    order = 2 * l
    coeffs = symbol.jet(order, *points)
    root = np.sqrt(1.0 + sum(p * p for p in points))
    powers = [1.0, root]  # root^k
    for gamma in multi_indices(symbol.dim, order):
        if gamma not in coeffs:
            continue
        k = sum(gamma)
        while len(powers) <= k:
            powers.append(powers[-1] * root)
        yield math.prod(math.factorial(g) for g in gamma), powers[k] * np.abs(coeffs[gamma])


def _lattice_sup(symbol, l, radius, index, axis=None):
    """The largest weighted term at the lattice points with index arrays
    `index` per axis (broadcasting against each other and radius), over
    `axis` of them (all by default); InputError where a term is NaN."""
    m = _LATTICE[symbol.dim]
    points = [_lattice_axis(radius, m, i) for i in index]
    shape = np.broadcast_shapes(*[p.shape for p in points])
    best = 0.0
    with np.errstate(all="ignore"):  # a term may overflow, and then reads inf
        for scale, term in _weighted_terms(symbol, l, points):
            best = np.maximum(best, scale * np.max(np.broadcast_to(term, shape), axis=axis))
    if np.isnan(best).any():
        raise InputError(
            f"symbol {symbol.text!r} or a derivative of order <= {2 * l} "
            "is not a number on the evaluation lattice"
        )
    return best


def _box_bounds(symbol, l, radius, first, last):
    """Per box, a bound of the weighted terms at its lattice points (radius
    per box), from their enclosures; NaN where the box has no enclosure."""
    m = _LATTICE[symbol.dim]
    boxes = [Interval(_lattice_axis(radius, m, f), _lattice_axis(radius, m, g))
             for f, g in zip(first, last)]
    bound = np.zeros(first.shape[1])
    with np.errstate(all="ignore"):
        for scale, term in _weighted_terms(symbol, l, boxes):
            bound = np.maximum(bound, scale * (term.hi if isinstance(term, Interval) else term))
    return bound


def _chunks(cells, side, m):
    """Index arrays per axis of at most _SCAN_BLOCK lattice points each that
    hold every point of the given boxes of side `side` (corners cells *
    side, one row per axis) once: runs of boxes in 1D; in 2D bands of rows,
    by the columns of the boxes in them, so the other points of those rows
    and columns too."""

    def points(c):  # c ascending, so only the last box may pass the lattice's end
        index = (c[:, None] * side + np.arange(side)).ravel()
        return index[: index.size - max(0, index[-1] + 1 - m)] if index.size else index

    if len(cells) == 1:
        cells, per = np.sort(cells[0]), _SCAN_BLOCK // side
        for start in range(0, cells.size, per):
            yield (points(cells[start : start + per]),)
        return
    if not cells.size:
        return
    held = np.zeros((-(-m // side),) * 2, dtype=bool)
    held[tuple(cells)] = True
    rows = points(np.flatnonzero(held.any(axis=1)))
    per = _SCAN_BLOCK // points(np.flatnonzero(held.any(axis=0))).size
    for start in range(0, rows.size, per):
        band = rows[start : start + per]
        cols = points(np.flatnonzero(held[band[0] // side : band[-1] // side + 1].any(axis=0)))
        yield band[:, None], cols[None, :]


def _derivative_sups(symbol, l, radii):
    """The weighted derivative sup over the dense lattice
    np.linspace(-r, r, m)^dim, m = _LATTICE[dim], for the first radius r of
    radii, and max(that, the sup over the lattice) for every other one.

    A branch-and-bound scan over boxes of lattice points, all lattices at
    once.  A lattice's running value is the largest weighted term evaluated
    on it so far, first at the centre of every coarse box, or the first
    lattice's if that is larger.  An interval enclosure of the weighted
    terms over a box (expr.Interval, through the same jets) bounds the float
    terms at its points, so a box whose bound is strictly below its
    lattice's running value cannot change the result and is dropped.  The
    coarse boxes kept are split into fine boxes, which are enclosed and
    dropped alike, and the fine boxes kept are evaluated, the first lattice
    first, at most _SCAN_BLOCK points at a time.  A box without an
    enclosure (a pole, 0/0, a power of a negative base) or whose bound ties
    the running value is kept, so every result is the dense scan's, bit for
    bit: a max does not depend on the order of its operands.  A weighted
    term that is NaN at a lattice point, where every enclosure is NaN,
    raises InputError.
    """
    dim = symbol.dim
    m, (coarse, fine) = _LATTICE[dim], _BOX_SIDES[dim]
    first, last, _ = _split(np.zeros((dim, 1), int), np.full((dim, 1), m - 1), coarse)
    lattice = np.repeat(np.arange(len(radii)), first.shape[1])
    first, last = np.tile(first, len(radii)), np.tile(last, len(radii))
    radii = np.asarray(radii, dtype=float)
    centre = _lattice_sup(symbol, l, radii[lattice, None], ((first + last) // 2)[..., None], axis=-1)
    running = np.zeros(len(radii))
    np.maximum.at(running, lattice, centre)

    def floor():  # the running values, the first lattice's flooring the others
        return np.maximum(running, np.where(np.arange(len(radii)) > 0, running[0], 0.0))

    for side in (fine, None):
        bound = _box_bounds(symbol, l, radii[lattice], first, last) if lattice.size else np.zeros(0)
        live = ~(bound < floor()[lattice])
        first, last, lattice, bound = first[:, live], last[:, live], lattice[live], bound[live]
        if side is not None:
            first, last, parent = _split(first, last, side)
            lattice = lattice[parent]
    for k, radius in enumerate(radii):  # the first lattice first: it floors the others
        mine = (lattice == k) & ~(bound < floor()[k])
        for index in _chunks(first[:, mine] // fine, fine, m):
            running[k] = max(running[k], _lattice_sup(symbol, l, radius, index))
    return [float(v) for v in floor()]


def symbol_derivative_norm(symbol, l, grid):
    """sup over |gamma| <= 2l and xi of (1 + |xi|^2)^(|gamma|/2) |D^gamma m|.

    Evaluated on dense lattices covering twice the grid's Nyquist radius
    plus a fine window |xi| <= 8 near the origin, which is shared by both
    radii: only max(sup, near) of the wider lattices is used, so their scan
    may skip every box that cannot reach it (see _derivative_sups).  If
    doubling the evaluation radius grows the sup by more than 1% the symbol
    is unbounded in this seminorm and inf is returned.  A symbol or
    derivative that is NaN at a lattice point raises InputError.
    """
    if l < 1:
        raise ValueError("l must be >= 1")
    radius = 2.0 * np.pi * grid.n
    _, base, probe = _derivative_sups(symbol, l, (8.0, radius, 2.0 * radius))
    if probe > base * 1.01:
        return float("inf")
    return max(base, probe)


def _box_frequencies(box_length, shape):
    axes = [2.0 * np.pi * np.fft.fftfreq(m, d=box_length / m) for m in shape]
    if len(shape) == 1:
        return axes[0] ** 2
    return axes[0][:, None] ** 2 + axes[1][None, :] ** 2


def bessel_window_norm(values, box_length, kappa):
    """Bessel-potential norm of a window sampled on a periodic box.

    Normalized on Fourier coefficients, so a unit-amplitude lattice mode
    e^(i xi0 . x) has norm exactly (1 + |xi0|^2)^(kappa/2).
    """
    values = np.asarray(values)
    c = np.fft.fftn(values) / values.size
    weight = (1.0 + _box_frequencies(box_length, values.shape)) ** kappa
    return float(np.sqrt(np.sum(weight * np.abs(c) ** 2)))


def _box_points(box_length, dim, m):
    ax = -0.5 * box_length + (np.arange(m) + 0.5) * (box_length / m)
    if dim == 1:
        return (ax,)
    return tuple(np.meshgrid(ax, ax, indexing="ij"))


def dyadic_bessel_norm(symbol, kappa, grid, J=None):
    """||lam0 m | H2^kappa|| + max_j ||lam(.) m(2^j .) | H2^kappa||.

    lam0 / lam are the ball and annular windows of the dyadic cover,
    sampled with the symbol on a periodic box of side 16, which contains
    their supports with a wide margin, at 4096 points per axis in 1D and
    512 in 2D.
    """
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    if J is None:
        J = grid.max_levels()
    box_length = 16.0
    pts = _box_points(box_length, symbol.dim, 4096 if symbol.dim == 1 else 512)
    r = np.sqrt(sum(np.asarray(p) ** 2 for p in pts))
    lam0 = _lam0_profile(r)
    lam = _lam_profile(r)
    total = bessel_window_norm(lam0 * symbol(*pts), box_length, kappa)
    peak = 0.0
    for j in range(1, J + 1):
        scaled = tuple(2.0**j * p for p in pts)
        peak = max(peak, bessel_window_norm(lam * symbol(*scaled), box_length, kappa))
    return total + peak

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

from dataclasses import dataclass
from functools import cache, lru_cache

import numpy as np

from .grid import FunctionSequence, GridFunction, convolve, spectral_derivative, synthesize

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

    def __len__(self):
        return len(self.masks)

    def __getitem__(self, j):
        return self.masks[j]

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
    c = _admissible_lower_bound(grid, masks)
    return AnalysisSystem(
        "admissible_pair",
        grid,
        masks,
        metadata={"profile": profile, "J": J, "c_lower": c},
        recipe=lambda g: admissible_system(g, J, profile),
    )


def _admissible_lower_bound(grid, masks):
    r = grid.xi_norm
    c = np.inf
    for j, m in enumerate(masks):
        if j == 0:
            region = r <= 5.0 / 3.0
        else:
            region = (r >= 0.6 * 2.0**j) & (r <= (5.0 / 3.0) * 2.0**j)
        if region.any():
            c = min(c, float(np.min(np.abs(m[region]))))
    return c


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
    r = sys.grid.xi_norm
    kind = sys.kind
    violations = 0
    residual = 0.0
    if kind == "admissible_pair":
        for j, m in enumerate(sys.masks):
            if j == 0:
                outside = r > 2.0
            else:
                outside = (r < 2.0 ** (j - 1)) | (r > 2.0 ** (j + 1))
            violations += int(np.count_nonzero(m[outside]))
        c_lower = _admissible_lower_bound(sys.grid, sys.masks)
        passes = violations == 0 and c_lower > 0.0
    elif kind == "general_pair":
        passes, c_lower, violations = general_conditions_report(
            sys, sys.metadata["epsilon"], sys.metadata["k_factor"]
        )
    elif kind == "theta_partition":
        total = np.sum(np.stack(sys.masks), axis=0)
        residual = float(np.max(np.abs(total - 1.0)))
        c_lower = 0.0
        passes = residual <= 1e-10
    elif kind == "lambda_cover":
        for j, m in enumerate(sys.masks):
            s = 2.0**j
            plateau = (r >= 0.5 * s) & (r <= 2.0 * s)
            outside = (r < 0.25 * s) | (r > 4.0 * s)
            if plateau.any():
                residual = max(residual, float(np.max(np.abs(m[plateau] - 1.0))))
            violations += int(np.count_nonzero(m[outside]))
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
    r = sys.grid.xi_norm
    ke = k_factor * epsilon
    c_lower = np.inf
    gap_violations = 0
    for j, m in enumerate(sys.masks):
        am = np.abs(m)
        if j == 0:
            region = r <= ke
            gap = np.zeros(r.shape, dtype=bool)
        else:
            s = 2.0**j
            region = (r >= 0.5 * epsilon * s) & (r <= ke * s)
            gap = r < 0.25 * epsilon * s
        gap_violations += int(np.count_nonzero(am[gap]))
        if region.any():
            c_lower = min(c_lower, float(am[region].min()))
    if not np.isfinite(c_lower):
        c_lower = 0.0
    return bool(gap_violations == 0 and c_lower > 0.0), c_lower, gap_violations


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
    j data is band-limited and varies on scale 2^(-j) >> h.  Shifts are
    scanned nearest first, one rolled copy at a time, and the scan stops
    once max |F_j| times the next weight cannot raise any entry.
    """
    if a <= 0:
        raise ValueError("a must be positive")
    grid = F.grid
    shifts = [s for s, _ in grid.shifts()]
    # weights come from one array power over all distances, the zero shift
    # included, so they equal a full-lattice weight array bit for bit (a
    # scalar power can differ by an ulp)
    dist = np.concatenate(([0.0], grid.shift_distances))
    order = np.argsort(grid.shift_distances)
    out = []
    for j, f in enumerate(F):
        av = np.abs(f.samples)
        rolled = grid.rolls(av)
        w = (1.0 / (1.0 + (2.0**j * dist) ** a))[1:]
        peak = float(av.max())
        best = av.copy()
        for i in order:
            if peak * w[i] <= best.min():
                break  # farther shifts are weighted even lower
            np.maximum(best, w[i] * rolled[shifts[i]], out=best)
        out.append(GridFunction(grid, best))
    return FunctionSequence(out)


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
    grid = f.grid
    for k in (kernel0, kernel_base):
        mass = kernel_hat(k, tuple(np.zeros(1) for _ in range(grid.dim)))
        if abs(complex(mass.ravel()[0])) < 1e-12:
            raise ValueError("kernel transform vanishes at the origin")
    masks = _means_masks(grid, J, laplacian_order, kernel0, kernel_base)
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
        raise ValueError("multiplier must be finite on the frequency set")
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


@cache
def _compiled_derivative(expr, variables, gamma):
    """D^gamma expr as a numpy function, compiled once per distinct key.

    Equal symbols share the compiled function: lambdify is slow, and each
    function it returns holds its generated source in linecache while alive.
    """
    import sympy as sp

    for v, g in zip(variables, gamma):
        if g:
            expr = sp.diff(expr, v, g)
    return sp.lambdify(variables, expr, modules="numpy")


class MultiplierSymbol:
    """Fourier symbol with exact derivatives, backed by a symbolic expression.

    Accepts an expression string in xi1 (and xi2 in 2D) or a sympy
    expression; each derivative is compiled once per multi-index and shared
    by equal symbols.
    """

    def __init__(self, expr, dim):
        import sympy as sp

        if dim not in (1, 2):
            raise ValueError("dim must be 1 or 2")
        self.dim = dim
        names = ("xi1", "xi2")[:dim]
        self.vars = tuple(sp.Symbol(n, real=True) for n in names)
        if isinstance(expr, str):
            self.expr = sp.sympify(expr, locals=dict(zip(names, self.vars)))
        else:
            self.expr = sp.sympify(expr)

    def _fn(self, gamma):
        return _compiled_derivative(self.expr, self.vars, tuple(int(g) for g in gamma))

    def derivative(self, gamma, *points):
        if len(gamma) != self.dim or len(points) != self.dim:
            raise ValueError("gamma and points must match the symbol dimension")
        out = np.asarray(self._fn(gamma)(*points))
        shape = np.broadcast_shapes(*(np.shape(p) for p in points))
        return np.broadcast_to(out, shape)

    def __call__(self, *points):
        return self.derivative((0,) * self.dim, *points)

    def sample(self, grid):
        """Values on the grid frequency set, for apply_multiplier."""
        if grid.dim != self.dim:
            raise ValueError("grid dimension mismatch")
        return np.array(self(*grid.xi))

    def __repr__(self):
        return f"MultiplierSymbol({self.expr}, dim={self.dim})"


def _derivative_sup(symbol, l, radius):
    """The weighted derivative sup on a dense lattice over [-radius, radius]^dim."""
    if symbol.dim == 1:
        pts = (np.linspace(-radius, radius, 200_001),)
    else:
        axis = np.linspace(-radius, radius, 513)
        pts = tuple(np.meshgrid(axis, axis, indexing="ij"))
    sq = sum(np.asarray(p, dtype=float) ** 2 for p in pts)
    best = 0.0
    for gamma in multi_indices(symbol.dim, 2 * l):
        order = sum(gamma)
        vals = np.abs(symbol.derivative(gamma, *pts))
        best = max(best, float(np.max((1.0 + sq) ** (order / 2.0) * vals)))
    return best


def symbol_derivative_norm(symbol, l, grid):
    """sup over |gamma| <= 2l and xi of (1 + |xi|^2)^(|gamma|/2) |D^gamma m|.

    Evaluated on dense lattices covering twice the grid's Nyquist radius
    plus a fine window |xi| <= 8 near the origin, which is evaluated once
    and shared by both radii.  If doubling the evaluation radius grows the
    sup by more than 1% the symbol is unbounded in this seminorm and inf
    is returned.
    """
    if l < 1:
        raise ValueError("l must be >= 1")
    radius = 2.0 * np.pi * grid.n
    near = _derivative_sup(symbol, l, 8.0)
    base = max(_derivative_sup(symbol, l, radius), near)
    probe = max(_derivative_sup(symbol, l, 2.0 * radius), near)
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

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

The module also ships the smoothing operators whose mixed-norm bounds carry
explicit constants: the level coupling G_nu = sum_k 2^(-|k-nu| delta) g_k
and convolution with periodized kernels eta_{nu,R} = 2^(n nu)
(1 + 2^nu |x|)^(-R).
"""

from dataclasses import dataclass
from functools import cache

import numpy as np
from scipy.special import zeta as hurwitz_zeta

from .exponents import _clog_inv, pointwise_min, pointwise_max
from .grid import FunctionSequence, GridFunction, coefficients, convolve, quadrature
from .lebesgue import _modular_value, luxemburg_root, norm as lebesgue_norm, upper_bracket

__all__ = [
    "pointwise_lq",
    "lp_lq_norm",
    "lq_lp_modular",
    "lq_lp_norm",
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
    """l_{q(x)} norm across axis 0 of a stack of |samples|."""
    finite = np.isfinite(q_values)
    out = np.empty(q_values.shape)
    if finite.any():
        qf = q_values[finite]
        with np.errstate(over="ignore"):
            sums = np.sum(stack_abs[:, finite] ** qf[None, :], axis=0)
        out[finite] = np.where(sums > 0.0, sums ** (1.0 / qf), 0.0)
    if (~finite).any():
        out[~finite] = np.max(stack_abs[:, ~finite], axis=0)
    return out


def lp_lq_norm(F, p, q):
    """Norm of F in L_{p(.)}(l_{q(.)}): inner levels, outer space."""
    _check_seq(F, p, q)
    inner = pointwise_lq(F.abs_stack(), q.values)
    return lebesgue_norm(GridFunction(F.grid, inner), p)


def _level_infimum(abs_samples, p, q, cell_volume):
    """inf{lam > 0 : rho_p(f / lam^(1/q(.))) <= 1} for one level.

    On {q = inf} the scaling is lam-independent, so that region contributes
    a fixed amount to the modular; if nothing varies with lam the infimum is
    0 when the fixed part is admissible and inf otherwise.
    """
    q_inf = ~np.isfinite(q.values)
    inv_q = np.where(q_inf, 0.0, 1.0 / np.where(q_inf, 1.0, q.values))

    fixed_part, _ = _modular_value(np.where(q_inf, abs_samples, 0.0), p.values, cell_volume)
    if fixed_part > 1.0:
        return np.inf
    if not abs_samples[~q_inf].any():
        return 0.0

    @cache  # the root phase may ask again for upper_bracket's value at hi
    def value(lam):
        with np.errstate(over="ignore"):
            scaled = abs_samples * lam**-inv_q
        return _modular_value(scaled, p.values, cell_volume)[0]

    hi = upper_bracket(value, 1.0, 4.0)
    return np.inf if hi is None else luxemburg_root(value, hi)


def lq_lp_modular(F, p, q, force_general=False):
    """Modular of F in l_{q(.)}(L_{p(.)}); may be inf.

    With q^+ < inf the per-level infimum equals || |f_nu|^q ||_{L_{p/q}}
    and that closed route is taken; force_general keeps the raw root solve
    on the defining infimum (used to cross-check the identity).
    """
    _check_seq(F, p, q)
    if q.p_plus < np.inf and not force_general:
        pq = p.divided_pointwise(q)
        total = 0.0
        for f in F:
            with np.errstate(over="ignore"):
                aq = np.abs(f.samples) ** q.values
            total += lebesgue_norm(GridFunction(F.grid, aq), pq)
        return total
    cell = F.grid.cell_volume
    total = 0.0
    for f in F:
        level = _level_infimum(np.abs(f.samples), p, q, cell)
        if level == np.inf:
            return np.inf
        total += level
    return total


def lq_lp_norm(F, p, q):
    """Norm of F in l_{q(.)}(L_{p(.)}): outer Luxemburg on the modular."""
    _check_seq(F, p, q)
    peak = max(f.max_abs() for f in F)
    if peak == 0.0:
        return 0.0

    @cache  # the root phase may ask again for upper_bracket's value at hi
    def value(mu):
        return lq_lp_modular(F.scaled(1.0 / mu), p, q)

    hi = upper_bracket(value, peak, 2.0)
    if hi is None:
        raise ArithmeticError("failed to bracket the mixed norm from above")
    return luxemburg_root(value, hi)


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


def _eta_samples_1d(grid, level, decay):
    # image sum in closed form: sum_{k>=0} (c + x + k)^(-R) = zeta(R, c + x)
    x = grid.coords[0]
    c = 2.0 ** (-level)
    pref = 2.0 ** (level * (1.0 - decay))
    vals = pref * (hurwitz_zeta(decay, c + x) + hurwitz_zeta(decay, c + 1.0 - x))
    return vals, -1, 0.0


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

    1D periodization is exact (Hurwitz zeta); 2D sums square rings of
    images until a ring's peak drops below 1e-15 (at most 256 rings),
    reporting the truncation radius and a pointwise bound on the
    discarded tail.  decay <= dim is the non-integrable regime:
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
    """

    c_lp_lq_monotone: float  # ||F||_{Lp(lq1)} / ||F||_{Lp(lq0)}
    c_lq_lp_monotone: float  # ||F||_{lq1(Lp)} / ||F||_{lq0(Lp)}
    c_sandwich_in: float  # ||F||_{Lp(lq1)} / ||F||_{l_min(Lp)}
    c_sandwich_out: float  # ||F||_{l_max(Lp)} / ||F||_{Lp(lq1)}


def _ratio(x, y):
    if y == 0.0:
        return 0.0 if x == 0.0 else np.inf
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
    the hypotheses hold; elsewhere only measured ratios are reported.
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

"""Quick invariant suites, one per library module, for `vexspaces verify`.

Each check recomputes a structural identity on freshly seeded data and
compares against a tolerance; a suite is a list of (name, passed, detail)
triples.  These are smoke-level guarantees meant to run in seconds, not
the full test suite.
"""

import numpy as np

from .. import analysis, lebesgue, mixed, spaces
from ..exponents import (
    VariableExponent,
    conjugate,
    log_holder_estimate,
    pointwise_max,
    pointwise_min,
)
from ..grid import Grid, GridFunction, coefficients, quadrature, synthesize
from ..weights import make_2microlocal, make_generalized, verify_admissible


def _check(name, value, bound, ok=None):
    passed = bool(value <= bound) if ok is None else bool(ok)
    return (name, passed, f"{value:.3e} vs {bound:.3e}")


def _band_limited(grid, rng, kmax=10):
    coeffs = np.zeros(grid.shape, dtype=complex)
    if grid.dim == 1:
        for k in range(-kmax, kmax + 1):
            coeffs[k % grid.n] = rng.normal() + 1j * rng.normal()
    else:
        for k1 in range(-4, 5):
            for k2 in range(-4, 5):
                coeffs[k1 % grid.n, k2 % grid.n] = rng.normal() + 1j * rng.normal()
    f = synthesize(grid, coeffs)
    return GridFunction(grid, np.real(f.samples))


def _variable_p(grid, lo=1.4, hi=2.8):
    span = hi - lo
    return VariableExponent.from_function(
        grid,
        lambda *cs: lo + 0.5 * span * (1.0 + np.sin(2.0 * np.pi * sum(cs))),
    )


def suite_grid(grid, rng):
    f = _band_limited(grid, rng)
    c = coefficients(f)
    checks = [
        _check(
            "parseval",
            abs(float(quadrature(f * f)) - float(np.sum(np.abs(c) ** 2)))
            / float(np.sum(np.abs(c) ** 2)),
            1e-10,
        ),
        _check(
            "synthesis-roundtrip",
            (synthesize(grid, c) - f).max_abs() / f.max_abs(),
            1e-12,
        ),
    ]
    k = 3 if grid.dim == 1 else (3, 0)
    ck = coefficients(grid.mode(k))
    idx = (3,) if grid.dim == 1 else (3, 0)
    off = np.abs(ck).sum() - np.abs(ck[idx])
    checks.append(_check("mode-coefficient", float(abs(ck[idx] - 1.0) + off), 1e-12))
    return checks


def suite_exponents(grid, rng):
    p = _variable_p(grid)
    const = VariableExponent.constant(grid, 2.5)
    pc = conjugate(const)
    checks = [
        _check(
            "constant-clog",
            log_holder_estimate(GridFunction(grid, const.values)).c_log_local,
            1e-12,
        ),
        _check(
            "conjugate-identity",
            float(np.max(np.abs(1.0 / const.values + 1.0 / pc.values - 1.0))),
            1e-12,
        ),
        _check(
            "reciprocal",
            float(np.max(np.abs(p.reciprocal_values() - 1.0 / p.values))),
            1e-15,
        ),
    ]
    q = VariableExponent.constant(grid, 2.0)
    lo, hi = pointwise_min(p, q), pointwise_max(p, q)
    ordered = np.all(lo.values <= p.values) and np.all(p.values <= hi.values + 1e-15)
    checks.append(_check("pointwise-ordering", 0.0, 1.0, ok=bool(ordered)))
    return checks


def suite_lebesgue(grid, rng):
    f = _band_limited(grid, rng)
    p = _variable_p(grid)
    base = lebesgue.norm(f, p)
    checks = [
        _check(
            "homogeneity",
            abs(lebesgue.norm(f * 3.5, p) - 3.5 * base) / (3.5 * base),
            1e-11,
        )
    ]
    mod = lebesgue.modular(GridFunction(grid, np.abs(f.samples) / base), p).value
    checks.append(_check("unit-ball-modular", abs(mod - 1.0), 1e-8))
    p2 = VariableExponent.constant(grid, 2.0)
    l2 = float(np.sqrt(quadrature(f * f)))
    checks.append(
        _check("p2-matches-l2", abs(lebesgue.norm(f, p2) - l2) / l2, 1e-12)
    )
    g = _band_limited(grid, rng)
    lhs, rhs = lebesgue.holder_pairing(f, g, _variable_p(grid, 1.2, 3.0))
    checks.append(_check("holder-constant-2", lhs, rhs * (1.0 + 1e-12)))
    p_inf = VariableExponent.constant(grid, np.inf)
    checks.append(
        _check("p-inf-is-max", abs(lebesgue.norm(f, p_inf) - f.max_abs()), 1e-15)
    )
    return checks


def suite_mixed(grid, rng):
    from ..grid import FunctionSequence

    F = FunctionSequence([_band_limited(grid, rng) for _ in range(5)])
    p = _variable_p(grid)
    q2 = VariableExponent.constant(grid, 2.0)
    direct = mixed.lq_lp_norm(F, p, q2)
    iterated = mixed.iterated_constant_q_norm(F, p, 2.0)
    checks = [_check("iterated-identity", abs(direct - iterated) / direct, 1e-8)]
    lf = mixed.lp_lq_norm(F, p, p)
    lb = mixed.lq_lp_norm(F, p, p)
    checks.append(_check("q-equals-p-collapse", abs(lf - lb) / lb, 1e-8))
    scaled = mixed.lp_lq_norm(F.scaled(2.0), p, q2)
    base = mixed.lp_lq_norm(F, p, q2)
    checks.append(_check("homogeneity", abs(scaled - 2.0 * base) / (2.0 * base), 1e-10))
    q4 = VariableExponent.constant(grid, 4.0)
    checks.append(
        _check(
            "q-monotonicity",
            mixed.lp_lq_norm(F, p, q4) / mixed.lp_lq_norm(F, p, q2),
            1.0 + 1e-12,
        )
    )
    return checks


def suite_weights(grid, rng):
    J = min(4, grid.max_levels())
    anchor = [0.5] * grid.dim
    w = make_2microlocal(grid, J, 0.5, -0.3, [anchor])
    rep = verify_admissible(w)
    checks = [_check("2microlocal-admissible", 0.0, 1.0, ok=rep.passes)]
    g = make_generalized(grid, J, 2.0 ** (0.5 * np.arange(J + 1)))
    shifted = g.shifted(1.0)
    err = max(
        float(np.max(np.abs(lv - 2.0**j * base)))
        for j, (lv, base) in enumerate(zip(shifted.levels, g.levels))
    )
    checks.append(_check("shift-by-one", err, 1e-9))
    t = w.truncated(2)
    same = all(np.array_equal(a, b) for a, b in zip(t.levels, w.levels[:3]))
    checks.append(_check("truncation-prefix", 0.0, 1.0, ok=same and t.J == 2))
    return checks


def suite_analysis(grid, rng):
    J = min(5, grid.max_levels())
    sys = analysis.admissible_system(grid, J, "plateau")
    aud = analysis.audit_system(sys)
    checks = [
        _check("plateau-floor", abs(aud.c_lower - 1.0), 1e-12),
        _check("support-violations", float(aud.support_violations), 0.5),
    ]
    theta = analysis.audit_system(analysis.theta_system(grid))
    checks.append(_check("theta-partition", theta.partition_residual, 1e-12))
    f = _band_limited(grid, rng)
    F = analysis.littlewood_paley(f, sys)
    peetre = analysis.peetre_maximal(F, a=3.0)
    floor = float(np.min(peetre.stack() - F.abs_stack()))
    checks.append(_check("peetre-dominates", 0.0, 1.0, ok=floor >= -1e-12))
    rt = (analysis.lift(analysis.lift(f, 1.0), -1.0) - f).max_abs() / f.max_abs()
    checks.append(_check("lift-roundtrip", rt, 1e-9))
    return checks


def suite_spaces(grid, rng):
    J = min(5, grid.max_levels())
    sys = analysis.admissible_system(grid, J, "plateau")
    p2 = VariableExponent.constant(grid, 2.0)
    s = 0.5
    w = make_generalized(grid, J, 2.0 ** (s * np.arange(J + 1)))
    spec = spaces.SpaceSpec("B", p2, p2, w, sys, J)
    checks = [
        _check("zero-function", spaces.quasi_norm(grid.zeros(), spec), 1e-15)
    ]
    # wavenumber in the top level's exclusive plateau window
    kw = int((5.0 / 3.0) * 2.0**J / (2.0 * np.pi))
    k = kw if grid.dim == 1 else (kw, 0)
    target = 2.0 ** (J * s)
    value = spaces.quasi_norm(grid.mode(k), spec)
    checks.append(_check("single-mode-value", abs(value - target) / target, 1e-9))
    f = _band_limited(grid, rng)
    pv = _variable_p(grid)
    wv = make_2microlocal(grid, J, 0.4, -0.2, [[0.5] * grid.dim])
    nb = spaces.quasi_norm(f, spaces.SpaceSpec("B", pv, pv, wv, sys, J))
    nf = spaces.quasi_norm(f, spaces.SpaceSpec("F", pv, pv, wv, sys, J))
    checks.append(_check("b-equals-f-at-q-p", abs(nb - nf) / nb, 1e-8))
    spec_v = spaces.SpaceSpec("B", pv, p2, wv, sys, J)
    base = spaces.quasi_norm(f, spec_v)
    checks.append(
        _check(
            "homogeneity",
            abs(spaces.quasi_norm(f * 2.5, spec_v) - 2.5 * base) / (2.5 * base),
            1e-9,
        )
    )
    rep = spaces.lifting_check(lambda g: [_band_limited(g, np.random.default_rng(5))], spec_v, 0.0)
    checks.append(
        _check(
            "lift-zero-identity",
            max(abs(rep.ratio_min - 1.0), abs(rep.ratio_max - 1.0)),
            1e-11,
        )
    )
    return checks


SUITES = {
    "grid": suite_grid,
    "exponents": suite_exponents,
    "lebesgue": suite_lebesgue,
    "mixed": suite_mixed,
    "weights": suite_weights,
    "analysis": suite_analysis,
    "spaces": suite_spaces,
}


def run_suites(names, grid, seed):
    """Run the named suites; returns (lines, all_passed)."""
    results = []
    for name in names:
        rng = np.random.default_rng(seed)
        for check, passed, detail in SUITES[name](grid, rng):
            results.append((f"{name}.{check}", passed, detail))
    return results, all(passed for _, passed, _ in results)

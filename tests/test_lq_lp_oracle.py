"""lq_lp_norm for variable q against a 40-digit solve of its defining system.

For finite q the l_{q(.)}(L_{p(.)}) norm mu* of F = (f_nu) is the root of
sum_nu lam_nu(mu) = 1, where lam_nu(mu) is the larger of the ess-sup of
|f_nu/mu|^q over p = inf and the root lam of sum_x cell (|f_nu/mu|^q /
lam)^(p/q) = 1 over the finite-p points (Almeida and Hasto, J. Funct. Anal.
258, 2010, in the closed form of mixed.lq_lp_modular).  The oracle solves
that system in U = log mu and v_nu = log lam_nu by Newton in decimal at 40
digits; the float inputs convert exactly, and exponent limits of +-10^6 keep
every power in range.  It then certifies the root: value(mu (1 + 1e-24)) <=
1 < value(mu (1 - 1e-24)), each level infimum solved on its own by Newton
in v_nu.  Each case asserts mu* <= lq_lp_norm <= (1 + k REL_TOL) mu* with
k = 2 + 4/q^-, once through the joint solve and once with that solve
reporting no convergence, through the outer root it falls back to.
"""

from decimal import Context, Decimal, localcontext

import numpy as np
import pytest

from vexspaces import FunctionSequence, Grid, VariableExponent, mixed
from vexspaces.lebesgue import REL_TOL
from vexspaces.mixed import lq_lp_norm

ORACLE = Context(prec=40, Emax=10**6, Emin=-(10**6))
CERTIFY = Decimal("1e-24")
ONE = Decimal(1)


def _log_sum_exp(xs):
    top = max(xs)
    return top + sum((x - top).exp() for x in xs).ln()


def _levels(F, p, q):
    """Per nonzero level, the finite-p terms as (log|f|, p, p/q) and the
    p = inf terms as (log|f|, q), over its nonzero samples."""
    pv, qv = p.values.ravel().tolist(), q.values.ravel().tolist()
    levels = []
    for f in F:
        fin, ess = [], []
        for a, pe, qe in zip(np.abs(f.samples).ravel().tolist(), pv, qv):
            if a > 0.0:
                la, qd = Decimal(a).ln(), Decimal(qe)
                if pe == np.inf:
                    ess.append((la, qd))
                else:
                    fin.append((la, Decimal(pe), Decimal(pe) / qd))
        if fin or ess:
            levels.append((fin, ess))
    return levels


def _finite_part(fin, log_cell, U, v):
    """g = log(cell sum exp(p (log|f| - U) - (p/q) v)) and the term-weighted
    means P of p and W of p/q."""
    t = [pe * (la - U) - w * v for la, pe, w in fin]
    top = max(t)
    e = [(x - top).exp() for x in t]
    total = sum(e)
    P = sum(x * pe for x, (_, pe, _) in zip(e, fin)) / total
    W = sum(x * w for x, (_, _, w) in zip(e, fin)) / total
    return log_cell + top + total.ln(), P, W


def _ess_sup(ess, U):
    """(max_x q (log|f| - U) over p = inf, q at the maximiser); None where
    the level is 0 on p = inf."""
    return max(((qd * (la - U), qd) for la, qd in ess), default=None)


def _joint_newton(levels, log_cell, U):
    """Newton on the joint system from U = log peak, v = 0, with the step
    of mixed._joint_root and target sum_nu lam_nu = 1; returns U."""
    v = [Decimal(0)] * len(levels)
    for _ in range(100):
        e = [_ess_sup(ess, U) for _, ess in levels]
        fin = {i: _finite_part(f, log_cell, U, v[i]) for i, (f, _) in enumerate(levels) if f}
        by_v = [i in fin and (e[i] is None or v[i] >= e[i][0]) for i in range(len(levels))]
        m = [v[i] if by_v[i] else e[i][0] for i in range(len(levels))]
        h = _log_sum_exp(m)
        s = [(x - h).exp() for x in m]  # the softmax of the level logs
        num = h + sum(s[i] * g / W for i, (g, _, W) in fin.items() if by_v[i])
        den = sum(s[i] * (fin[i][1] / fin[i][2] if by_v[i] else e[i][1]) for i in range(len(m)))
        du = num / den
        dv = {i: (g - P * du) / W for i, (g, P, W) in fin.items()}
        U += du
        for i, d in dv.items():
            v[i] += d
        if max(map(abs, [du, *dv.values()])) < Decimal("1e-34"):
            return U
    raise AssertionError("the oracle's Newton did not converge")


def _value(levels, log_cell, U):
    """sum_nu lam_nu(exp U), each finite-part root by Newton in v_nu."""
    total = Decimal(0)
    for fin, ess in levels:
        e = _ess_sup(ess, U)
        level = e[0].exp() if e else Decimal(0)
        if fin:
            v = Decimal(0)
            for _ in range(200):
                g, _, W = _finite_part(fin, log_cell, U, v)
                v += g / W
                if abs(g) < Decimal("1e-36"):
                    break
            else:
                raise AssertionError("a level root did not converge")
            level = max(level, v.exp())
        total += level
    return total


def _oracle(F, p, q):
    """mu* within a factor 1 +- 1e-24, certified."""
    with localcontext(ORACLE):
        levels = _levels(F, p, q)
        log_cell = Decimal(F.grid.cell_volume).ln()
        peak = max(f.max_abs() for f in F)
        U = _joint_newton(levels, log_cell, Decimal(peak).ln())
        assert _value(levels, log_cell, U + (ONE + CERTIFY).ln()) <= ONE
        assert _value(levels, log_cell, U + (ONE - CERTIFY).ln()) > ONE
        return U.exp()


CASES = [
    # seed, amplitude, p range, p = inf region, q range, zero level, support
    (1, 1.0, (0.5, 4.0), False, (1.0, 3.0), False, 16),
    (2, 1.0, (0.5, 4.0), True, (1.0, 3.0), False, 16),
    (3, 1.0, (0.5, 4.0), False, (1.0, 3.0), True, 16),
    (4, 1.0, (0.5, 4.0), False, (0.2, 0.5), False, 16),
    (5, 1e-200, (0.1, 16.0), True, (0.5, 8.0), False, 16),
    (6, 1e200, (0.1, 16.0), False, (0.5, 8.0), True, 16),
    (7, 1e-200, (0.2, 8.0), True, (0.3, 16.0), True, 16),
    (8, 1e200, (1.0, 2.0), True, (0.1, 0.5), False, 16),
    # two samples per level at small p and large q: |f_nu/mu|^q overflows
    # at the norm, so an outer root over the closed route of lq_lp_modular,
    # which read that level as inf, landed 45 times above it
    (13, 1.0, (0.02, 0.06), False, (4.0, 16.0), False, 2),
    # p near 0.0025: the norm is 1e-438 times the peak, so exp(log(mu/peak))
    # is below the double range while mu is not, and p/q is so small that
    # rounding in the level residuals moves log lam_nu by about 1e-13
    (14, 1e200, (0.002, 0.003), False, (1.0, 3.0), False, 2),
]


def _case(seed, amplitude, p_range, p_inf, q_range, zero_level, support):
    """(F, p, q) of a case: 1D N=16, J=2, moduli spread over three decades
    with random signs on the first `support` samples, p and q log-uniform
    per sample, p = inf on the samples 4..7."""
    g = Grid(1, 16)
    rng = np.random.default_rng(seed)
    shape = 10.0 ** rng.uniform(-3.0, 0.0, (3, 16)) * rng.choice([-1.0, 1.0], (3, 16))
    shape[:, support:] = 0.0
    if zero_level:
        shape[1] = 0.0
    F = FunctionSequence.from_stack(g, amplitude * shape)
    p = 10.0 ** rng.uniform(*np.log10(p_range), 16)
    if p_inf:
        p[4:8] = np.inf
    q = VariableExponent(g, 10.0 ** rng.uniform(*np.log10(q_range), 16))
    return F, VariableExponent(g, p), q


def _assert_matches_the_oracle(F, p, q):
    truth = _oracle(F, p, q)
    mu = Decimal(lq_lp_norm(F, p, q))
    k = 2.0 + 4.0 / q.p_minus
    with localcontext(ORACLE):
        assert truth * (ONE + CERTIFY) <= mu
        assert mu <= truth * (ONE - CERTIFY) * (ONE + Decimal(k) * Decimal(REL_TOL))


@pytest.mark.parametrize(
    "seed, amplitude, p_range, p_inf, q_range, zero_level, support", CASES
)
def test_lq_lp_norm_matches_the_oracle(
    seed, amplitude, p_range, p_inf, q_range, zero_level, support
):
    _assert_matches_the_oracle(
        *_case(seed, amplitude, p_range, p_inf, q_range, zero_level, support)
    )


@pytest.mark.parametrize(
    "seed, amplitude, p_range, p_inf, q_range, zero_level, support", CASES
)
def test_outer_route_matches_the_oracle(
    seed, amplitude, p_range, p_inf, q_range, zero_level, support, monkeypatch
):
    # the same cases and bound through the outer root over the defining
    # level infima, the route lq_lp_norm falls back to
    monkeypatch.setattr(mixed, "_joint_root", lambda *args: None)
    _assert_matches_the_oracle(
        *_case(seed, amplitude, p_range, p_inf, q_range, zero_level, support)
    )

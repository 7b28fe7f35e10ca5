"""Seeded sweep of the variable-q l_q(L_p) norm against its root contract.

    PYTHONPATH=src python tools/lq_lp_sweep.py          # 1000 cases
    PYTHONPATH=src python tools/lq_lp_sweep.py 200      # the first 200

Case i draws, from seed i, four levels on 1D N=64 (odd i) or 2D N=16 (even
i) with samples of modulus 0.25..1 and random signs, scaled by an amplitude
log-uniform in 1e-300..1e300; p and q log-uniform in 0.1..16 per sample;
p = inf on a quarter of the points in a quarter of the cases; and one zero
level in one case of five.  For each case it checks both sides of the root
contract of lq_lp_norm, lq_lp_modular(F/mu) <= 1 < lq_lp_modular(F/((1 -
k REL_TOL) mu)) with k = 2 + 4/q^-, and compares mu with the outer root over
the defining level infima (mixed._infimum_modular).  It then checks the same
contract on the route lq_lp_norm falls back to, with the joint Newton solve
(mixed._joint_root) patched to report no convergence.

It prints every contract failure, the number of cases whose joint solve fell
back to the outer root, a histogram of its passes, the largest relative
difference from the outer root, in units of REL_TOL, and on a line of its
own the contract failures of the forced fallback.  A case's pass count is
the smallest MAX_ITER at which the joint solve converges.  Last, it solves
all cases again with the cases of one grid as the rows of one joint solve,
each row with its own p and q, and prints the rows that did not converge or
that break the contract, and the largest relative difference from the solo
result.  Exits 1 if any case breaks the contract on any route.
"""

import argparse
import collections
import sys

import numpy as np

from vexspaces import mixed
from vexspaces.exponents import VariableExponent
from vexspaces.grid import FunctionSequence, Grid
from vexspaces.lebesgue import REL_TOL, luxemburg_root


def draw(i):
    """(F, p, q) of case i."""
    rng = np.random.default_rng(i)
    g = Grid(1, 64) if i % 2 else Grid(2, 16)
    shape = rng.uniform(0.25, 1.0, (4,) + g.shape) * rng.choice([-1.0, 1.0], (4,) + g.shape)
    if i % 5 == 0:
        shape[rng.integers(4)] = 0.0
    F = FunctionSequence.from_stack(g, 10.0 ** rng.uniform(-300.0, 300.0) * shape)
    p, q = 10.0 ** rng.uniform(-1.0, np.log10(16.0), (2,) + g.shape)
    if i % 4 == 0:
        p = np.where(rng.random(g.shape) < 0.25, np.inf, p)
    return F, VariableExponent(g, p), VariableExponent(g, q)


def rows(F, p, q):
    """The arguments of mixed._joint_root for the one row (F, p, q)."""
    return F.abs_stack().reshape(1, len(F), -1), p.values.reshape(1, -1), q.values.reshape(1, -1)


def passes(F, p, q):
    """Passes the joint solve takes, or None where it does not converge."""
    limit = mixed.MAX_ITER
    try:
        for cap in range(1, limit + 1):
            mixed.MAX_ITER = cap
            if mixed._joint_root(*rows(F, p, q), F.grid.cell_volume)[0] is not None:
                return cap
        return None
    finally:
        mixed.MAX_ITER = limit


def batched(cases):
    """The joint solve of every case with the cases of one grid as the rows
    of one solve, each row with its own p and q."""
    out = {}
    for grid in {F.grid for F, _, _ in cases.values()}:
        ids = [i for i, (F, _, _) in cases.items() if F.grid == grid]
        a, pv, qv = (np.concatenate(parts) for parts in zip(*(rows(*cases[i]) for i in ids)))
        out.update(zip(ids, mixed._joint_root(a, pv, qv, grid.cell_volume)))
    return out


def breach(F, p, q, mu):
    """The contract failure of mu, or None where both sides hold."""
    k = 2.0 + 4.0 / q.p_minus
    at = mixed.lq_lp_modular(F.scaled(1.0 / mu), p, q)
    below = mixed.lq_lp_modular(F.scaled(1.0 / ((1.0 - k * REL_TOL) * mu)), p, q)
    return None if at <= 1.0 < below else f"modular {at!r} at mu, {below!r} at (1 - k REL_TOL) mu"


def forced_fallback(F, p, q):
    """lq_lp_norm with the joint solve reporting no convergence."""
    joint_root = mixed._joint_root
    try:
        mixed._joint_root = lambda *args: None
        return mixed.lq_lp_norm(F, p, q)
    finally:
        mixed._joint_root = joint_root


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("cases", nargs="?", type=int, default=1000)
    cases = parser.parse_args(argv).cases
    failures, forced, fallbacks, worst = [], [], 0, 0.0
    histogram = collections.Counter()
    solo = {}
    for i in range(cases):
        F, p, q = draw(i)
        peak = max(f.max_abs() for f in F)
        n = passes(F, p, q)
        fallbacks += n is None
        histogram[n] += 1
        mu = solo[i] = mixed.lq_lp_norm(F, p, q)
        if failure := breach(F, p, q, mu):
            failures.append(f"case {i}: {failure}")
        if failure := breach(F, p, q, forced_fallback(F, p, q)):
            forced.append(f"case {i}, forced fallback: {failure}")
        outer = luxemburg_root(lambda m: mixed._infimum_modular(F, p, q, m), 2.0 * peak, peak)
        worst = max(worst, abs(mu - outer) / outer)
    for line in failures + forced:
        print(line)
    print(f"{cases} cases, {len(failures)} contract failures, {fallbacks} fallbacks")
    print("passes: " + ", ".join(
        f"{n}: {histogram[n]}" for n in sorted(histogram, key=lambda n: (n is None, n))
    ))
    print(f"largest |mu - outer root| / outer root: {worst / REL_TOL:.2f} REL_TOL")
    print(f"forced fallback: {len(forced)} contract failures")
    together, moved = [], 0.0
    for i, mu in batched({i: draw(i) for i in range(cases)}).items():
        if mu is None:
            together.append(f"case {i}, batched: no convergence")
        elif mu != solo[i]:
            moved = max(moved, abs(mu - solo[i]) / solo[i])
            if failure := breach(*draw(i), mu):
                together.append(f"case {i}, batched: {failure}")
    for line in together:
        print(line)
    print(f"batched by grid: {len(together)} contract failures or fallbacks, "
          f"largest |batched - solo| / solo: {moved / REL_TOL:.2g} REL_TOL")
    return 1 if failures or forced or together else 0


if __name__ == "__main__":
    sys.exit(main())

"""Torus symmetries as properties (metamorphic tests).

A lattice roll, the reflection x -> -x and, in 2D, the axis swap, applied
to f, p, q and every weight level at once, leave every norm unchanged.
Each norm ends somewhere inside its root solve's REL_TOL bracket, so the
two sides may differ by a few REL_TOL; no property needs more.  The exact
maps (the shift scans, the Peetre maximal functions and the measured
admissibility constants) move or stay bit for bit.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from vexspaces import Grid, GridFunction, VariableExponent
from vexspaces.analysis import admissible_system, peetre_maximal
from vexspaces.grid import FunctionSequence
from vexspaces.lebesgue import REL_TOL, norm
from vexspaces.mixed import lp_lq_norm, lq_lp_norm
from vexspaces.spaces import (
    SpaceSpec,
    maximal_threshold,
    quasi_norm,
    quasi_norm_local_means,
    quasi_norm_maximal,
)
from vexspaces.weights import WeightSequence, make_2microlocal, verify_admissible

TOL = 4.0 * REL_TOL
J = 3


def _grid(dim):
    return Grid(1, 64) if dim == 1 else Grid(2, 16)


@st.composite
def symmetries(draw, shifts=False):
    """(grid, map on sample arrays, seed).  With shifts, also the map that
    moves an array indexed by shift (Grid.shift_vectors order) along: a
    roll keeps every shift, the reflection sends s to -s and the axis swap
    sends (s0, s1) to (s1, s0)."""
    grid = _grid(draw(st.sampled_from([1, 2])))
    kinds = ["roll", "reflect"] + (["swap"] if grid.dim == 2 else [])
    kind = draw(st.sampled_from(kinds))
    axes = tuple(range(grid.dim))
    if kind == "roll":
        shift = tuple(draw(st.integers(1, grid.n - 1)) for _ in axes)
        op = lambda a: np.roll(a, shift, axis=axes)
    elif kind == "reflect":  # sample i goes to sample -i (mod n)
        op = lambda a: np.roll(np.flip(a, axis=axes), 1, axis=axes)
    else:
        op = lambda a: a.T
    seed = draw(st.integers(0, 2**16))
    if not shifts:
        return grid, op, seed
    # shifts form the lattice itself, the zero shift at index 0 left out
    relabel = lambda m: m if kind == "roll" else op(np.append(0.0, m).reshape(grid.shape)).ravel()[1:]
    return grid, op, relabel, seed


def _exponent(grid, rng, lo, hi):
    return VariableExponent(grid, rng.uniform(lo, hi, grid.shape))


def _moved(op, x):
    """x with op applied to its samples: a GridFunction, an exponent, a
    level sequence or a weight sequence."""
    if isinstance(x, GridFunction):
        return GridFunction(x.grid, op(x.samples))
    if isinstance(x, VariableExponent):
        return VariableExponent(x.grid, op(x.values))
    if isinstance(x, FunctionSequence):
        return FunctionSequence([_moved(op, f) for f in x])
    return replace(x, levels=tuple(op(w) for w in x.levels))


def _close(a, b):
    assert abs(a - b) <= TOL * max(a, b), (a, b)


def _sequence(grid, rng):
    decay = 2.0 ** -np.arange(J + 1.0)  # level nu has amplitude 2^-nu
    stack = rng.uniform(-1.0, 1.0, (J + 1, *grid.shape)) * decay.reshape((-1,) + (1,) * grid.dim)
    return FunctionSequence.from_stack(grid, stack)


@settings(max_examples=20, deadline=None)
@given(case=symmetries())
def test_lebesgue_norm_is_symmetric(case):
    grid, op, seed = case
    rng = np.random.default_rng(seed)
    f = GridFunction(grid, rng.normal(size=grid.shape))
    p = _exponent(grid, rng, 1.1, 4.0)
    _close(norm(f, p), norm(_moved(op, f), _moved(op, p)))


@settings(max_examples=15, deadline=None)
@given(case=symmetries(), inf_region=st.booleans())
def test_mixed_norms_are_symmetric(case, inf_region):
    # lq_lp_norm with variable q, or with q = inf on about a quarter of the
    # grid (its other route); lp_lq_norm with the same exponents
    grid, op, seed = case
    rng = np.random.default_rng(seed)
    F = _sequence(grid, rng)
    p = _exponent(grid, rng, 1.2, 3.0)
    q = _exponent(grid, rng, 1.5, 3.5)
    if inf_region:
        q = VariableExponent(grid, np.where(rng.random(grid.shape) < 0.25, np.inf, q.values))
    moved = [_moved(op, x) for x in (F, p, q)]
    _close(lq_lp_norm(F, p, q), lq_lp_norm(*moved))
    _close(lp_lq_norm(F, p, q), lp_lq_norm(*moved))


def _spec(scale, grid, p, q):
    anchor = [[0.3]] if grid.dim == 1 else [[0.3, 0.7]]
    w = make_2microlocal(grid, J, 0.5, -0.25, anchor)
    return SpaceSpec(scale, p, q, w, admissible_system(grid, J), J)


def _moved_case(case, scale):
    """(f, spec) and their images under the case's symmetry."""
    grid, op, seed = case
    rng = np.random.default_rng(seed)
    f = GridFunction(grid, rng.normal(size=grid.shape))
    spec = _spec(scale, grid, _exponent(grid, rng, 1.2, 3.0), _exponent(grid, rng, 1.5, 3.5))
    moved = replace(spec, p=_moved(op, spec.p), q=_moved(op, spec.q), w=_moved(op, spec.w))
    return f, spec, _moved(op, f), moved


@settings(max_examples=15, deadline=None)
@given(case=symmetries(), scale=st.sampled_from(["B", "F"]))
def test_quasi_norm_is_symmetric(case, scale):
    # the off-centre 2-microlocal weight moves with f; the admissible
    # system is radial, so it is its own image
    f, spec, moved_f, moved = _moved_case(case, scale)
    _close(quasi_norm(f, spec), quasi_norm(moved_f, moved))


@settings(max_examples=10, deadline=None)
@given(case=symmetries(), scale=st.sampled_from(["B", "F"]))
def test_maximal_and_local_means_routes_are_symmetric(case, scale):
    # a is fixed by the unmoved spec; the bump kernels of the local means
    # are radial, so they are their own images too
    f, spec, moved_f, moved = _moved_case(case, scale)
    a = maximal_threshold(spec) + 1.0
    for x, y in zip(quasi_norm_maximal(f, spec, a), quasi_norm_maximal(moved_f, moved, a)):
        _close(x, y)
    _close(quasi_norm_local_means(f, spec), quasi_norm_local_means(moved_f, moved))


@settings(max_examples=15, deadline=None)
@given(case=symmetries(), a=st.floats(min_value=0.5, max_value=8.0))
def test_peetre_maximal_is_equivariant(case, a):
    # every shift class has one weight, so moving the levels moves their
    # maximal functions bit for bit
    grid, op, seed = case
    F = _sequence(grid, np.random.default_rng(seed))
    moved = peetre_maximal(_moved(op, F), a)
    assert np.array_equal(moved.stack(), _moved(op, peetre_maximal(F, a)).stack())


@settings(max_examples=20, deadline=None)
@given(case=symmetries(shifts=True))
def test_shift_maxima_are_equivariant(case):
    # the maxima of a moved array are the maxima of its moved shifts, bit
    # for bit: each is the max of the same quotients or differences
    grid, op, relabel, seed = case
    values = np.exp(np.random.default_rng(seed).normal(size=grid.shape))
    moved = op(values)
    assert np.array_equal(grid.shift_maxima(moved, np.divide), relabel(grid.shift_maxima(values, np.divide)))
    assert np.array_equal(grid.signed_shift_maxima(moved), relabel(grid.signed_shift_maxima(values)))


@settings(max_examples=15, deadline=None)
@given(case=symmetries())
def test_measured_constants_are_invariant(case):
    # rough levels 2^(j s) b^(1 + j t) against random declared constants:
    # about a fifth pass, and either condition may fail; the witnesses move
    # with the levels and are left out
    grid, op, seed = case
    rng = np.random.default_rng(seed)
    base = np.exp(rng.uniform(0.01, 0.5) * rng.normal(size=grid.shape))
    s, t = rng.uniform(-1.0, 1.0), rng.uniform(0.0, 0.3)
    levels = tuple(2.0 ** (j * s) * base ** (1.0 + j * t) for j in range(J + 1))
    w = WeightSequence(grid, levels, declared_alpha=rng.uniform(0.0, 2.0),
                       declared_alpha1=s - rng.uniform(0.0, 0.3),
                       declared_alpha2=s + rng.uniform(0.0, 0.3), declared_c=rng.uniform(1.0, 4.0))
    constants = lambda r: (r.measured_c, r.measured_alpha, r.measured_alpha1, r.measured_alpha2, r.passes)
    assert constants(verify_admissible(_moved(op, w))) == constants(verify_admissible(w))


@settings(max_examples=15, deadline=None)
@given(
    dim=st.sampled_from([1, 2]),
    log_amplitude=st.floats(min_value=-300.0, max_value=300.0),
    seed=st.integers(0, 2**16),
)
def test_b_equals_f_when_q_equals_p(dim, log_amplitude, seed):
    # l_p(L_p) and L_p(l_p) are one space: sum_nu rho_p(f_nu) either way
    grid = _grid(dim)
    rng = np.random.default_rng(seed)
    f = GridFunction(grid, 10.0**log_amplitude * rng.normal(size=grid.shape))
    p = _exponent(grid, rng, 1.2, 3.0)
    _close(quasi_norm(f, _spec("B", grid, p, p)), quasi_norm(f, _spec("F", grid, p, p)))

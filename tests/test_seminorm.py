"""The multiplier seminorm scan: boxes of the dense lattices, interval
enclosures of the weighted jets, and the dense scan it must reproduce."""

import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vexspaces import Grid
from vexspaces.analysis import (
    _LATTICE,
    _chunks,
    _lattice_axis,
    _split,
    _weighted_terms,
    MultiplierSymbol,
    multi_indices,
    symbol_derivative_norm,
)
from vexspaces.expr import InputError, Interval
from vexspaces.grid import _SCAN_BLOCK

# ------------------------------------------------------------ dense oracle
#
# The scan as it was before boxes: every lattice point, in blocks of rows.
# It also reports whether any weighted term was NaN, which the dense loop
# dropped.


def _dense_blocks(dim, radius):
    m = 200_001 if dim == 1 else 513
    step = 2.0 * radius / (m - 1)
    rows = _SCAN_BLOCK // m ** (dim - 1)

    def axis(a, b):
        out = np.arange(a, b, dtype=float) * step - radius
        if b == m:
            out[-1] = radius
        return out

    full = axis(0, m)[None, :] if dim == 2 else None
    for start in range(0, m, rows):
        head = axis(start, min(start + rows, m))
        yield (head,) if dim == 1 else (head[:, None], full)


@lru_cache(maxsize=None)
def _dense_derivative_sup(text, dim, l, radius):
    symbol = MultiplierSymbol(text, dim)
    order = 2 * l
    indices = multi_indices(dim, order)
    best, nan = 0.0, False
    for pts in _dense_blocks(dim, radius):
        coeffs = symbol.jet(order, *pts)
        root = np.sqrt(1.0 + sum(p * p for p in pts))
        powers = [1.0, root]
        for gamma in indices:
            if gamma not in coeffs:
                continue
            k = sum(gamma)
            while len(powers) <= k:
                powers.append(powers[-1] * root)
            scale = math.prod(math.factorial(g) for g in gamma)
            with np.errstate(over="ignore"):
                value = scale * float(np.max(powers[k] * np.abs(coeffs[gamma])))
            nan |= value != value
            best = max(best, value)
    return best, nan


def _dense_norm(text, dim, l, n):
    """symbol_derivative_norm by the dense scan; None where a term is NaN."""
    radius = 2.0 * np.pi * n
    sups = [_dense_derivative_sup(text, dim, l, r) for r in (8.0, radius, 2.0 * radius)]
    if any(nan for _, nan in sups):
        return None
    near, base, probe = (s for s, _ in sups)
    base, probe = max(base, near), max(probe, near)
    if probe > base * 1.01:
        return float("inf")
    return max(base, probe)


# ------------------------------------------------------------ symbol grammar

_POWERS = ["2", "3", "(-1)", "(-2)", "0.5", "(-0.5)", "1.5", "(-1/3)"]
_LEAVES = {1: ["xi1", "0.5", "2"], 2: ["xi1", "xi2", "0.5", "2"]}


def _random_symbol(rng, dim, depth):
    """A symbol of the grammar: + - * / ^, neg, sin, cos, exp, abs."""
    if depth == 0 or rng.random() < 0.25:
        return str(rng.choice(_LEAVES[dim]))
    kind = rng.integers(4)
    inner = lambda: _random_symbol(rng, dim, depth - 1)
    if kind == 0:
        return f"({inner()} {rng.choice(list('+-*/'))} {inner()})"
    if kind == 1:
        return f"(1 + {inner()}^2)^{rng.choice(_POWERS)}"
    if kind == 2:
        return f"({inner()})^{rng.choice(_POWERS)}"
    return f"{rng.choice(['-', 'sin', 'cos', 'exp', 'abs'])}({inner()})"


def _symbols(dim):
    leaves = st.sampled_from(_LEAVES[dim])

    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from("+-*/"), inner).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
            st.tuples(inner, st.sampled_from(_POWERS)).map(lambda t: f"({t[0]})^{t[1]}"),
            st.tuples(st.sampled_from(["-", "sin", "cos", "exp", "abs"]), inner).map(
                lambda t: f"{t[0]}({t[1]})"
            ),
        )

    return st.recursive(leaves, extend, max_leaves=6)


# ------------------------------------------------------------------ lattices


@pytest.mark.parametrize("dim", [1, 2])
def test_lattice_boxes_tile_linspace(dim):
    # the lattice points are linspace's bit for bit; each level of boxes
    # tiles the lattice once; the points of any set of boxes come in chunks
    # of at most _SCAN_BLOCK points, each point once (in 2D with the other
    # points of their rows and columns)
    m = _LATTICE[dim]
    radius = 2.0 * np.pi * 64
    axis = np.linspace(-radius, radius, m)
    assert _lattice_axis(radius, m, np.arange(m)).tobytes() == axis.tobytes()
    first, last = np.zeros((dim, 1), int), np.full((dim, 1), m - 1)
    for side in (2048, 256, 32) if dim == 1 else (64, 16, 4):
        first, last, _ = _split(first, last, side)
        count = np.zeros((m,) * dim, dtype=int)
        for f, g in zip(first.T, last.T):
            count[tuple(slice(a, b + 1) for a, b in zip(f, g))] += 1
        assert (count == 1).all()
        assert (first % side == 0).all() and ((last - first + 1) <= side).all()
    pick = np.random.default_rng(25).random(first.shape[1]) < 0.3
    held = np.zeros((m,) * dim, dtype=bool)
    for f, g in zip(first[:, pick].T, last[:, pick].T):
        held[tuple(slice(a, b + 1) for a, b in zip(f, g))] = True
    seen = np.zeros(held.shape, dtype=int)
    for index in _chunks(first[:, pick] // side, side, m):
        assert math.prod(np.broadcast_shapes(*[np.shape(i) for i in index])) <= _SCAN_BLOCK
        seen[np.ix_(*[np.ravel(i) for i in index])] += 1
    assert seen.max() == 1 and (seen[held] == 1).all()
    if dim == 1:
        assert (seen == held).all()


# ------------------------------------------------------------- bit identity

_FIXED = {
    1: ["1", "(1 + xi1**2)**(1/2)", "xi1 * (1 + xi1**2)**(-1/2)", "xi1^3 * (2 + xi1^2)^(-3/2)",
        "sin(xi1)/(1+xi1^2)", "exp(-xi1^2)", "(1+xi1^2)^(-1)*xi1^2", "xi1/abs(xi1)", "exp(xi1)"],
    2: ["1", "(1 + xi1^2 + xi2^2)^(1/2)", "xi1 * (1 + xi1**2 + xi2**2)**(-1/2)",
        "cos(xi1*xi2)/(1+xi1^2+xi2^2)", "exp(-xi1^2 - xi2^2) * xi2"],
}
_SIZES = {1: (16, 64, 256), 2: (16, 32, 64)}


def _corpus(dim, count):
    rng = np.random.default_rng(250 + dim)
    texts = _FIXED[dim] + [_random_symbol(rng, dim, 3) for _ in range(count)]
    combos = [(n, l) for l in (1, 2, 3) for n in _SIZES[dim]]
    return [(text, *combos[i % len(combos)]) for i, text in enumerate(texts)]


@pytest.mark.parametrize("dim, count", [(1, 9), (2, 4)])
def test_seminorm_matches_the_dense_scan(dim, count):
    # every (N, l) pair at least once; inf verdicts, NaN refusals and
    # finite sups all agree with the dense scan, the sups by float.hex
    verdicts = set()
    for text, n, l in _corpus(dim, count):
        want = _dense_norm(text, dim, l, n)
        symbol = MultiplierSymbol(text, dim)
        if want is None:
            with pytest.raises(InputError, match="not a number"):
                symbol_derivative_norm(symbol, l, Grid(dim, n))
            verdicts.add("nan")
            continue
        got = symbol_derivative_norm(symbol, l, Grid(dim, n))
        assert got.hex() == want.hex(), (text, n, l)
        verdicts.add("inf" if got == np.inf else "finite")
    assert verdicts == {"finite", "inf", "nan"}


def test_seminorm_evaluates_few_lattice_points(monkeypatch):
    # the CLI default symbol at 1D N=64, l=1: float jets at no more than 10%
    # of the 3 x 200,001 lattice points; the rest are ruled out by boxes
    evaluated = []
    jet = MultiplierSymbol.jet

    def counting(self, order, *points):
        if not isinstance(points[0], Interval):
            evaluated.append(math.prod(np.broadcast_shapes(*[np.shape(p) for p in points])))
        return jet(self, order, *points)

    monkeypatch.setattr(MultiplierSymbol, "jet", counting)
    symbol = MultiplierSymbol("xi1 * (1 + xi1^2)^(-1/2)", 1)
    assert symbol_derivative_norm(symbol, 1, Grid(1, 64)).hex() == "0x1.279a7457db670p+0"
    assert sum(evaluated) <= 0.1 * 3 * 200_001


def test_seminorm_refuses_a_symbol_with_no_value():
    # xi1 / |xi1| is 0/0 at the lattice point xi = 0
    with pytest.raises(InputError, match="not a number on the evaluation lattice"):
        symbol_derivative_norm(MultiplierSymbol("xi1/abs(xi1)", 1), 1, Grid(1, 64))


# ------------------------------------------------------------- enclosures


def _box(data, m, dim):
    side = data.draw(st.integers(1, 64 if dim == 1 else 8))
    first = [data.draw(st.one_of(st.integers(0, m - 1), st.integers(m // 2 - side, m // 2)))
             for _ in range(dim)]
    return first, [min(f + side - 1, m - 1) for f in first]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_box_enclosures_hold_every_float_term(data):
    # every weighted term's enclosure over a box holds the float term at
    # each lattice point of the box; a box with a NaN or inf term has a
    # non-finite enclosure of that term
    dim = data.draw(st.sampled_from([1, 2]))
    symbol = MultiplierSymbol(data.draw(_symbols(dim)), dim)
    l = data.draw(st.sampled_from([1, 2]))
    radius = data.draw(st.sampled_from([8.0, 2.0 * np.pi * 16, 4.0 * np.pi * 256]))
    m = _LATTICE[dim]
    boxes = [_box(data, m, dim) for _ in range(data.draw(st.integers(1, 4)))]
    first, last = np.array([b[0] for b in boxes]).T, np.array([b[1] for b in boxes]).T
    ends = [Interval(_lattice_axis(radius, m, f), _lattice_axis(radius, m, g)) for f, g in zip(first, last)]
    with np.errstate(all="ignore"):  # as the scan takes them: overflow reads inf
        enclosures = list(_weighted_terms(symbol, l, ends))
    for b, (f, g) in enumerate(boxes):
        index = np.ix_(*[np.arange(a, c + 1) for a, c in zip(f, g)])
        with np.errstate(all="ignore"):
            terms = list(_weighted_terms(symbol, l, [_lattice_axis(radius, m, i) for i in index]))
        assert [s for s, _ in terms] == [s for s, _ in enclosures]
        for (_, term), (_, box) in zip(terms, enclosures):
            values = np.broadcast_to(term, np.broadcast_shapes(*[i.shape for i in index]))
            if not isinstance(box, Interval):  # constant over the points, computed alike
                assert (values == box).all() or np.isnan(box)
                continue
            lo, hi = box.lo[b], box.hi[b]
            if not np.isfinite(values).all():
                assert not (np.isfinite(lo) and np.isfinite(hi)), symbol
            elif np.isfinite(lo) and np.isfinite(hi):
                assert lo <= values.min() and values.max() <= hi, symbol

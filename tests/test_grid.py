import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vexspaces import (
    Grid,
    GridFunction,
    FunctionSequence,
    quadrature,
    coefficients,
    synthesize,
    convolve,
    spectral_derivative,
)
from vexspaces import grid as grid_module
from conftest import random_band_limited


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(3, 64)
    with pytest.raises(ValueError):
        Grid(1, 48)
    with pytest.raises(ValueError):
        Grid(1, 8)
    g = Grid(1, 16)
    assert g.h == pytest.approx(1 / 16)
    assert g.cell_volume == pytest.approx(1 / 16)
    g2 = Grid(2, 32)
    assert g2.cell_volume == pytest.approx(1 / 1024)


def test_frequency_set_contract():
    g = Grid(1, 16)
    ks = np.sort(g.axis_wavenumbers)
    assert ks.min() == -8 and ks.max() == 7
    assert len(ks) == 16
    # xi = 2*pi*k exactly
    assert np.allclose(np.sort(g.xi[0]), 2 * np.pi * ks)


def test_max_levels_matches_nyquist_fit():
    # top annulus [2^(J-1), 2^(J+1)] must fit under pi*n
    for n in (16, 64, 256, 1024):
        g = Grid(1, n)
        J = g.max_levels()
        assert 2.0 ** (J + 1) <= np.pi * n
        assert 2.0 ** (J + 2) > np.pi * n
    assert Grid(1, 256).max_levels() == 8


def test_quadrature_half_indicator():
    g = Grid(1, 64)
    chi = GridFunction(g, (g.coords[0] < 0.5).astype(float))
    assert quadrature(chi) == pytest.approx(0.5, abs=1e-15)


def test_quadrature_sin_squared_band_limited():
    # sin^2(2 pi x) integrates to exactly 1/2; band-limited so the midpoint
    # sum is spectrally exact.
    g = Grid(1, 256)
    f = g.sample(lambda x: np.sin(2 * np.pi * x) ** 2)
    assert quadrature(f) == pytest.approx(0.5, abs=1e-12)


def test_round_trip_and_parseval():
    rng = np.random.default_rng(3)
    for grid in (Grid(1, 64), Grid(2, 16)):
        f = GridFunction(grid, rng.normal(size=grid.shape))
        c = coefficients(f)
        back = synthesize(grid, c)
        assert np.max(np.abs(back.samples - f.samples)) <= 1e-12 * f.max_abs()
        # Parseval: h^dim sum |f|^2 = sum |c_k|^2
        lhs = quadrature(f.abs() * f.abs())
        rhs = np.sum(np.abs(c) ** 2)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_single_mode_coefficients():
    g = Grid(1, 64)
    f = g.mode(5)
    c = coefficients(f)
    expected = np.zeros(g.shape, dtype=complex)
    expected[5] = 1.0
    assert np.max(np.abs(c - expected)) < 1e-13


def test_spectral_derivative_cosine():
    # (d/dx)^2 cos(4 pi x) = -16 pi^2 cos(4 pi x), resolvable at any n >= 16
    g = Grid(1, 64)
    f = g.sample(lambda x: np.cos(4 * np.pi * x))
    d2 = spectral_derivative(f, 2)
    target = -16 * np.pi**2 * f.samples
    assert np.max(np.abs(d2.samples - target)) < 1e-10 * np.max(np.abs(target))


def test_spectral_derivative_2d_mixed():
    g = Grid(2, 32)
    f = g.sample(lambda x, y: np.sin(2 * np.pi * x) * np.cos(6 * np.pi * y))
    dxy = spectral_derivative(f, (1, 1))
    target = g.sample(
        lambda x, y: -(2 * np.pi) * (6 * np.pi) * np.cos(2 * np.pi * x) * np.sin(6 * np.pi * y)
    )
    assert np.max(np.abs(dxy.samples - target.samples)) < 1e-9 * target.max_abs()


def test_convolve_is_diagonal_multiplication():
    rng = np.random.default_rng(11)
    g = Grid(1, 64)
    f = random_band_limited(g, rng)
    mask = np.exp(-g.xi_norm**2 / 100.0)
    out = convolve(f, mask)
    assert np.allclose(coefficients(out), mask * coefficients(f), atol=1e-14)


def test_convolution_commutes_band_limited():
    # convolving with two masks commutes exactly up to float noise
    rng = np.random.default_rng(12)
    g = Grid(1, 64)
    f = random_band_limited(g, rng)
    m1 = 1.0 / (1.0 + g.xi_norm**2)
    m2 = np.cos(g.xi_norm / 50.0)
    a = convolve(convolve(f, m1), m2)
    b = convolve(convolve(f, m2), m1)
    assert np.max(np.abs(a.samples - b.samples)) < 1e-12 * max(a.max_abs(), 1e-30)


@pytest.mark.parametrize("dim, n", [(1, 16), (1, 256), (2, 16)])
def test_coefficients_are_one_shared_read_only_transform(dim, n):
    rng = np.random.default_rng(n + dim)
    g = Grid(dim, n)
    f = GridFunction(g, rng.standard_normal(g.shape))
    c = coefficients(f)
    fresh = np.fft.fftn(f.samples) * g._phase_forward / g.num_points
    assert c.tobytes() == fresh.tobytes()
    assert coefficients(f) is c
    with pytest.raises(ValueError, match="read-only"):
        c[0] = 1.0
    # synthesize still inverts with the conjugate phase, bit for bit
    back = np.fft.ifftn(c * np.conj(g._phase_forward)) * g.num_points
    assert synthesize(g, c).samples.tobytes() == back.tobytes()


def test_synthesized_function_transforms_itself():
    # a band keeps no coefficients of its input: its own come from its samples
    rng = np.random.default_rng(13)
    g = Grid(1, 64)
    f = random_band_limited(g, rng)
    out = convolve(f, np.exp(-g.xi_norm**2 / 100.0))
    fresh = np.fft.fftn(out.samples) * g._phase_forward / g.num_points
    assert coefficients(out) is not coefficients(f)
    assert coefficients(out).tobytes() == fresh.tobytes()


def test_grid_function_copies_its_samples_once():
    g = Grid(2, 16)
    ints = np.arange(256).reshape(g.shape)
    f = GridFunction(g, ints.T)  # a Fortran-order view
    assert f.samples.dtype == np.float64 and f.samples.flags.c_contiguous
    assert np.array_equal(f.samples, ints.T)
    z = np.ones(g.shape, dtype=np.complex64)
    fz = GridFunction(g, z)
    assert fz.samples.dtype == np.complex64 and not np.shares_memory(fz.samples, z)
    src = np.ones(g.shape)
    fr = GridFunction(g, src)
    src[0, 0] = 2.0
    assert fr.samples[0, 0] == 1.0 and not fr.samples.flags.writeable


def test_torus_distance_wraps():
    g = Grid(1, 64)
    assert g.torus_distance(0.1, 0.9) == pytest.approx(0.2)
    assert g.torus_distance(0.0, 0.5) == pytest.approx(0.5)
    g2 = Grid(2, 16)
    d = g2.torus_distance((0.1, 0.1), (0.9, 0.9))
    assert d == pytest.approx(np.sqrt(0.08))


def test_grid_function_immutable_and_finite():
    g = Grid(1, 16)
    f = g.zeros()
    with pytest.raises((ValueError, AttributeError)):
        f.samples[0] = 1.0
    with pytest.raises(ValueError):
        GridFunction(g, np.full(g.shape, np.nan))
    with pytest.raises(ValueError):
        GridFunction(g, np.full(g.shape, np.inf))


def test_function_sequence_checks_grid():
    g, g2 = Grid(1, 16), Grid(1, 32)
    with pytest.raises(ValueError):
        FunctionSequence([g.zeros(), g2.zeros()])
    seq = FunctionSequence([g.zeros(), g.zeros(), g.zeros()])
    assert seq.levels == 2
    assert seq.stack().shape == (3, 16)


def test_function_sequence_from_stack_copies():
    g = Grid(1, 16)
    stack = np.ones((3, 16))
    F = FunctionSequence.from_stack(g, stack)
    stack[1] = 5.0
    assert np.array_equal(F.stack(), np.ones((3, 16)))
    assert np.array_equal(F[1].samples, np.ones(16))


def test_function_sequence_stack_is_read_only():
    g = Grid(1, 16)
    F = FunctionSequence.from_stack(g, np.ones((3, 16)))
    assert not F.stack().flags.writeable
    with pytest.raises(ValueError):
        F.stack()[0, 0] = 2.0


def test_function_sequence_slice_is_a_sequence():
    g = Grid(1, 16)
    F = FunctionSequence.from_stack(g, np.arange(4.0)[:, None] * np.ones(16))
    tail = F[1:3]
    assert isinstance(tail, FunctionSequence)
    assert tail.levels == 1 and tail.grid == g
    assert np.array_equal(tail.stack(), F.stack()[1:3])
    assert isinstance(F[2], GridFunction) and np.array_equal(F[2].samples, np.full(16, 2.0))


def test_function_sequence_weighted_overflow_is_refused():
    g = Grid(1, 16)
    F = FunctionSequence.from_stack(g, np.full((2, 16), 1e10))
    with pytest.raises(ValueError, match="samples must be finite"):
        F.weighted([np.ones(16), np.full(16, 1e300)])


@settings(max_examples=20, deadline=None)
@given(k=st.integers(min_value=-8, max_value=7))
def test_mode_round_trip_property(k):
    g = Grid(1, 16)
    f = g.mode(k)
    c = coefficients(f)
    assert abs(c[k % 16] - 1.0) < 1e-12
    assert np.sum(np.abs(c) > 1e-12) == 1


# ---------------------------------------------------------------- shift scans


def _all_shifts(grid):
    """Nonzero shifts with the first component outermost (the scan order)."""
    return [s for s in itertools.product(range(grid.n), repeat=grid.dim) if any(s)]


def _abs_diff(a, b, out=None):
    return np.abs(np.subtract(a, b, out=out), out=out)


@pytest.mark.parametrize(
    "dim, n, block",
    [
        (1, 16, None),
        (1, 16, 3 * 16),  # 3 shifts per block: 16 is not a multiple of 3
        (1, 4096, None),  # several blocks of whole rolls
        (2, 16, None),
        (2, 16, 3 * 256),  # 3 shifts per block inside one row of shifts
        (2, 16, 3 * 16 * 256),  # 3 rows of shifts per block
        (2, 64, None),
    ],
)
def test_shift_maxima_match_roll_loop(dim, n, block, monkeypatch):
    if block is not None:
        monkeypatch.setattr(grid_module, "_SCAN_BLOCK", block)
    grid = Grid(dim, n)
    values = 1.5 + np.random.default_rng(41).random(grid.shape)
    axes = tuple(range(dim))
    shifts = _all_shifts(grid)
    for op in (np.divide, _abs_diff):
        oracle = [np.max(op(values, np.roll(values, s, axis=axes))) for s in shifts]
        got = grid.shift_maxima(values, op)
        assert got.shape == (len(shifts),)
        assert np.array_equal(got, oracle), op


@pytest.mark.parametrize(
    "dim, n, block",
    [
        (1, 16, None),
        (1, 16, 3 * 16),  # 3 shifts per block; the half scan ends inside a block
        (1, 4096, None),
        (2, 16, None),
        (2, 16, 3 * 256),  # 3 shifts per block inside one row of shifts
        (2, 16, 3 * 16 * 256),  # 3 rows of shifts per block
        (2, 64, None),
    ],
)
def test_signed_shift_maxima_match_roll_loop(dim, n, block, monkeypatch):
    if block is not None:
        monkeypatch.setattr(grid_module, "_SCAN_BLOCK", block)
    grid = Grid(dim, n)
    values = np.random.default_rng(43).normal(size=grid.shape)
    axes = tuple(range(dim))
    shifts = _all_shifts(grid)
    oracle = np.array([np.max(values - np.roll(values, s, axis=axes)) for s in shifts])
    got = grid.signed_shift_maxima(values)
    # bit for bit at both signs of every shift, the n/2 shifts included
    assert got.tobytes() == oracle.tobytes()
    assert got.tobytes() == grid.shift_maxima(values, np.subtract).tobytes()
    index = {s: i for i, s in enumerate(shifts)}
    for s in shifts:
        reflected = tuple(-c % n for c in s)
        assert got[index[reflected]] == np.max(np.roll(values, s, axis=axes) - values)


@pytest.mark.parametrize("n, block", [(16, None), (16, 3 * 256), (64, None)])
@pytest.mark.parametrize("op", [np.divide, np.subtract])
def test_pruned_scan_fills_rows_exactly(n, block, op, monkeypatch):
    # the axis shifts first, then whole rows on demand, each bit for bit the
    # dense maxima; the bound is an upper bound of every shift's maximum
    if block is not None:
        monkeypatch.setattr(grid_module, "_SCAN_BLOCK", block)
    grid = Grid(2, n)
    values = np.exp(np.random.default_rng(47).normal(size=grid.shape))
    if op is np.divide:
        dense = grid.shift_maxima(values, op)
    else:
        dense = grid.signed_shift_maxima(values)
    scan = grid.pruned_scan(values, op)
    row = grid.shift_vectors[:, 0]
    expected = (grid.shift_vectors == 0).any(axis=1)
    for wanted in (3, None):  # row 3 (with its mirror n - 3 when signed), then all
        assert np.array_equal(scan.scanned, expected)
        assert scan.maxima[expected].tobytes() == dense[expected].tobytes()
        assert np.all(scan.maxima[~expected] == -np.inf)
        assert np.all(scan.bound >= dense)
        hit = np.full(len(dense), np.inf) if wanted is None else np.where(row == wanted, np.inf, -np.inf)
        scan.visit(lambda M: hit, 0.0)
        rows = {wanted, n - wanted} if op is np.subtract and wanted else {wanted}
        expected = expected | (np.isin(row, list(rows)) if wanted else True)
    assert scan.maxima.tobytes() == dense.tobytes()
    with pytest.raises(ValueError):
        grid.pruned_scan(values, np.add)


@pytest.mark.parametrize("dim, n", [(1, 16), (1, 256), (2, 16), (2, 64)])
def test_shift_distances_match_scalar_distances(dim, n):
    grid = Grid(dim, n)
    scalar = [grid.shift_distance(s) for s in _all_shifts(grid)]
    assert np.array_equal(grid.shift_distances, scalar)
    shifts = _all_shifts(grid)
    assert [tuple(v) for v in grid.shift_vectors.tolist()] == shifts
    reflected = [tuple(-c % n for c in s) for s in shifts]
    assert [shifts[i] for i in grid.reflections] == reflected
    for cached in (grid.shift_vectors, grid.reflections):
        with pytest.raises(ValueError):
            cached[0] = 0


@pytest.mark.parametrize(
    "dim, n", [(1, n) for n in (16, 32, 64, 128, 256, 512, 1024, 2048, 4096)]
    + [(2, n) for n in (16, 32, 64, 128)],
)
def test_shift_distances_constant_on_symmetry_classes(dim, n):
    # the shifts (+-a, +-b) and (+-b, +-a) share one distance bit for bit
    # (h is dyadic and wrapping is exact), so they share one Peetre weight
    grid = Grid(dim, n)
    full = np.concatenate(([0.0], grid.shift_distances)).reshape(grid.shape)
    fold = np.minimum(np.arange(n), n - np.arange(n))  # |s| on the torus
    if dim == 1:
        canon = full[fold]
    else:
        i, k = fold[:, None], fold[None, :]
        canon = full[np.maximum(i, k), np.minimum(i, k)]
    assert full.tobytes() == canon.tobytes()

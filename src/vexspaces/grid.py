"""Uniform grids on the periodic unit torus and their spectral transform.

Everything downstream works with plain lattice sums, so the conventions here
pin down the whole artifact: samples sit at cell midpoints ``(i + 1/2) / n``
(midpoint quadrature), the resolvable frequency set is ``{2*pi*k : -n/2 <= k
< n/2}`` per axis in FFT order, and distances are always wrap-around torus
distances.

A GridFunction is transformed once: coefficients() keeps its Fourier
coefficients on it, read-only, so every spectral operator applied to one
signal (Littlewood-Paley bands, local means, lifts, multipliers,
derivatives) shares that one forward FFT.  A function synthesize() returns
starts without coefficients of its own.
"""

from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "Grid",
    "GridFunction",
    "FunctionSequence",
    "quadrature",
    "coefficients",
    "synthesize",
    "convolve",
    "spectral_derivative",
]


# elements in one temporary of a Grid shift scan (2^15 float64 = 256 KiB)
_SCAN_BLOCK = 1 << 15


def _is_power_of_two(n):
    return n >= 1 and (n & (n - 1)) == 0


class Grid:
    """Sampling lattice on the unit torus [0,1)^dim, dim in {1, 2}.

    n is the per-axis sample count, a power of two >= 16.  Samples sit at
    cell midpoints so lattice sums are midpoint Riemann sums.
    """

    def __init__(self, dim, n):
        if dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {dim}")
        if not _is_power_of_two(n) or n < 16:
            raise ValueError(f"n must be a power of two >= 16, got {n}")
        self.dim = int(dim)
        self.n = int(n)
        self.h = 1.0 / n

    @property
    def shape(self):
        return (self.n,) * self.dim

    @property
    def cell_volume(self):
        return self.h**self.dim

    @property
    def num_points(self):
        return self.n**self.dim

    @cached_property
    def axis_coords(self):
        """Midpoint coordinates along one axis, shape (n,)."""
        return (np.arange(self.n) + 0.5) * self.h

    @cached_property
    def coords(self):
        """Tuple of dim coordinate arrays, each of full grid shape."""
        if self.dim == 1:
            return (self.axis_coords,)
        return tuple(np.meshgrid(self.axis_coords, self.axis_coords, indexing="ij"))

    @cached_property
    def axis_wavenumbers(self):
        """Integer wavenumbers k in FFT order, -n/2 <= k < n/2."""
        return np.fft.fftfreq(self.n, d=1.0 / self.n).astype(np.int64)

    @cached_property
    def xi(self):
        """Tuple of dim frequency arrays xi = 2*pi*k of full grid shape, FFT order."""
        ax = 2.0 * np.pi * self.axis_wavenumbers
        if self.dim == 1:
            return (ax,)
        return tuple(np.meshgrid(ax, ax, indexing="ij"))

    @cached_property
    def xi_norm(self):
        """|xi| on the frequency lattice, full grid shape, FFT order."""
        sq = np.zeros(self.shape)
        for x in self.xi:
            sq = sq + x * x
        return np.sqrt(sq)

    @cached_property
    def _phase_forward(self):
        # Half-cell offset of midpoint samples shows up as a per-axis phase
        # twist on the raw FFT; see coefficients()/synthesize().
        ax = np.exp(-1j * np.pi * self.axis_wavenumbers / self.n)
        if self.dim == 1:
            return ax
        return np.multiply.outer(ax, ax)

    @cached_property
    def _phase_inverse(self):
        return np.conj(self._phase_forward)

    def max_levels(self):
        """Largest J with the whole dyadic annulus 2^(J+1) inside Nyquist."""
        return int(np.floor(np.log2(np.pi * self.n))) - 1

    def wrap_deltas(self, deltas):
        """Componentwise torus displacement |d| reduced to [0, 1/2]."""
        d = np.abs(np.asarray(deltas, dtype=float)) % 1.0
        return np.minimum(d, 1.0 - d)

    def torus_distance(self, point_a, point_b):
        """Euclidean wrap-around distance between coordinate arrays."""
        a = np.asarray(point_a, dtype=float)
        b = np.asarray(point_b, dtype=float)
        if self.dim == 1:
            return self.wrap_deltas(a - b)
        acc = 0.0
        for i in range(self.dim):
            acc = acc + self.wrap_deltas(a[i] - b[i]) ** 2
        return np.sqrt(acc)

    @cached_property
    def dist_to_origin(self):
        """Torus distance of every sample point to the origin, grid shape."""
        points = self.coords[0] if self.dim == 1 else self.coords
        return self.torus_distance(points, np.zeros(self.dim))

    def shift_distance(self, shift):
        """Torus distance between a sample and its lattice-shifted image."""
        if self.dim == 1:
            return float(self.wrap_deltas(shift[0] * self.h))
        d0 = self.wrap_deltas(shift[0] * self.h)
        d1 = self.wrap_deltas(shift[1] * self.h)
        return float(np.sqrt(d0 * d0 + d1 * d1))

    @cached_property
    def shift_vectors(self):
        """Components of every nonzero lattice shift, shape (n^dim - 1, dim),
        in C order (the first component outermost).  Every shift scan uses
        this order, so the first of equal candidates is an argmax.
        """
        v = np.array(np.unravel_index(np.arange(1, self.num_points), self.shape)).T
        v.setflags(write=False)
        return v

    @cached_property
    def reflections(self):
        """Index of the shift -s for every shift s, in shift_vectors order."""
        r = np.ravel_multi_index(tuple((-self.shift_vectors % self.n).T), self.shape) - 1
        r.setflags(write=False)
        return r

    @cached_property
    def shift_distances(self):
        """shift_distance of every nonzero lattice shift, in shift_vectors order."""
        d = self.wrap_deltas(np.arange(self.n) * self.h)
        if self.dim == 2:
            sq = d * d
            d = np.sqrt(sq[:, None] + sq[None, :]).ravel()
        d = d[1:]
        d.setflags(write=False)
        return d

    def rolls(self, values):
        """Read-only view V of every lattice roll: V[s] == np.roll(values, s).

        V has shape (n,)*dim + grid shape and is a window view over a
        2^dim-tiled copy of values, so V[s] holds exactly the numbers the roll
        would copy out, without copying them.
        """
        values = np.asarray(values)
        if values.shape != self.shape:
            raise ValueError(f"values shape {values.shape} != grid shape {self.shape}")
        windows = sliding_window_view(np.tile(values, (2,) * self.dim), self.shape)
        return windows[(slice(self.n, 0, -1),) * self.dim]

    def _shift_blocks(self, values, op, first):
        """Yield (start, block): op(values, V[s]) for a block of shifts s as
        a (shifts, points) array, start being the index of its first shift
        in C order from the zero shift.  Only shifts whose first component
        is below `first` are scanned.

        op(values, block, out=buf) is elementwise, broadcasts values against
        a block of rolls and writes into buf, as a ufunc does.  One reused
        buffer of at most _SCAN_BLOCK elements (one roll at least) holds
        every block, so no temporary grows with the number of shifts.
        """
        V = self.rolls(values)
        n = self.n
        per = max(1, _SCAN_BLOCK // self.num_points)  # shifts per block
        if self.dim == 1 or per >= n:
            rows = min(first, per if self.dim == 1 else per // n)
            blocks = (slice(a, min(a + rows, first)) for a in range(0, first, rows))
            buf = np.empty((rows,) + V.shape[1:])
        else:
            blocks = ((s0, slice(a, a + per)) for s0 in range(first) for a in range(0, n, per))
            buf = np.empty((per,) + V.shape[2:])
        start = 0
        for index in blocks:
            block = V[index]
            out = op(values, block, out=buf[: len(block)]).reshape(-1, self.num_points)
            yield start, out
            start += len(out)

    def shift_maxima(self, values, op):
        """max over x of op(values, V[s]) for every nonzero shift s, V = rolls(values).

        op is elementwise, as a ufunc (see _shift_blocks); the scan holds at
        most _SCAN_BLOCK elements at a time.  The result is in shift_vectors
        order.
        """
        values = np.asarray(values)
        maxima = np.empty(self.num_points)
        for start, out in self._shift_blocks(values, op, self.n):
            np.max(out, axis=1, out=maxima[start : start + len(out)])
        return maxima[1:]

    def signed_shift_maxima(self, values):
        """D(s) = max over x of values(x) - values(x - s) for every nonzero
        shift s, in shift_vectors order: shift_maxima(values, np.subtract)
        from half of the shifts.

        The difference block of s gives D(s) as its max and D(-s) as minus
        its min, bit for bit, since a - b == -(b - a) in IEEE arithmetic.
        Every shift or its reflection has first component at most n/2, so
        only those are scanned; a shift that is its own reflection (all
        components 0 or n/2) is scanned once.
        """
        values = np.asarray(values)
        n = self.n
        first = n // 2 + 1
        mirror = np.append(0, self.reflections + 1)  # -s by C-order index, s = 0 too
        D = np.empty(self.num_points)
        for start, out in self._shift_blocks(values, np.subtract, first):
            stop = start + len(out)
            D[mirror[start:stop]] = -out.min(axis=1)
            D[start:stop] = out.max(axis=1)
        return D[1:]

    def sample(self, fn):
        """GridFunction from a callable of the coordinate arrays."""
        return GridFunction(self, fn(*self.coords))

    def mode(self, k):
        """Unit-coefficient Fourier mode exp(i * 2*pi*k . x) as a GridFunction."""
        ks = (k,) if np.isscalar(k) else tuple(k)
        if len(ks) != self.dim:
            raise ValueError(f"mode index needs {self.dim} components, got {len(ks)}")
        phase = np.zeros(self.shape)
        for ki, xi in zip(ks, self.coords):
            if not (-self.n // 2 <= ki < self.n // 2):
                raise ValueError(f"mode {ki} outside the resolvable set")
            phase = phase + 2.0 * np.pi * ki * xi
        return GridFunction(self, np.exp(1j * phase))

    def zeros(self):
        return GridFunction(self, np.zeros(self.shape))

    def __eq__(self, other):
        return isinstance(other, Grid) and (self.dim, self.n) == (other.dim, other.n)

    def __hash__(self):
        return hash((self.dim, self.n))

    def __repr__(self):
        return f"Grid(dim={self.dim}, n={self.n})"


class GridFunction:
    """Immutable sampled function on a Grid.  Samples must be finite.

    The samples are a private read-only copy.  coefficients() keeps the
    Fourier coefficients on the function the first time it transforms it.
    """

    __slots__ = ("grid", "samples", "_coeffs")

    def __init__(self, grid, samples):
        samples = np.asarray(samples)
        if samples.shape != grid.shape:
            raise ValueError(f"samples shape {samples.shape} != grid shape {grid.shape}")
        # one private copy; complex samples keep their dtype, others become float64
        dtype = None if samples.dtype.kind == "c" else np.float64
        samples = np.array(samples, dtype=dtype, order="C")
        if not np.isfinite(samples).all():
            raise ValueError("samples must be finite")
        samples.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "_coeffs", None)

    def __setattr__(self, *_):
        raise AttributeError("GridFunction is immutable")

    def abs(self):
        return GridFunction(self.grid, np.abs(self.samples))

    def max_abs(self):
        return float(np.max(np.abs(self.samples)))

    def _coerce(self, other):
        if isinstance(other, GridFunction):
            if other.grid != self.grid:
                raise ValueError("grid mismatch")
            return other.samples
        return other

    def __add__(self, other):
        return GridFunction(self.grid, self.samples + self._coerce(other))

    __radd__ = __add__

    def __sub__(self, other):
        return GridFunction(self.grid, self.samples - self._coerce(other))

    def __mul__(self, other):
        return GridFunction(self.grid, self.samples * self._coerce(other))

    __rmul__ = __mul__

    def __repr__(self):
        return f"GridFunction({self.grid!r}, max_abs={self.max_abs():.3e})"


class FunctionSequence:
    """Finite sequence (f_0, ..., f_J) of GridFunctions on one grid."""

    __slots__ = ("grid", "entries")

    def __init__(self, entries):
        entries = tuple(entries)
        if not entries:
            raise ValueError("sequence must be nonempty")
        grid = entries[0].grid
        for e in entries:
            if e.grid != grid:
                raise ValueError("all entries must share one grid")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, *_):
        raise AttributeError("FunctionSequence is immutable")

    @property
    def levels(self):
        return len(self.entries) - 1

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, j):
        return self.entries[j]

    def stack(self):
        """Array of shape (J+1, *grid.shape) with |entries| stacked."""
        return np.stack([e.samples for e in self.entries])

    def abs_stack(self):
        return np.abs(self.stack())

    def scaled(self, factor):
        return FunctionSequence([e * factor for e in self.entries])

    def weighted(self, level_arrays):
        """Multiply entry j by level_arrays[j] (arrays or scalars)."""
        if len(level_arrays) < len(self.entries):
            raise ValueError("need one factor per entry")
        return FunctionSequence(
            [e * w for e, w in zip(self.entries, level_arrays)]
        )

    @classmethod
    def from_stack(cls, grid, stack):
        return cls([GridFunction(grid, s) for s in stack])


def quadrature(f):
    """Midpoint quadrature h^dim * sum(samples); exact for band-limited f."""
    return f.grid.cell_volume * f.samples.sum()


def coefficients(f):
    """Fourier coefficients on the grid frequency set, FFT order.

    c_k = h^dim * sum_i f(x_i) exp(-i xi_k . x_i); band-limited functions
    are recovered exactly by synthesize().  f is transformed once: the
    array is kept on f and every later call returns that same read-only
    array.
    """
    if f._coeffs is None:
        g = f.grid
        c = np.fft.fftn(f.samples) * g._phase_forward / g.num_points
        c.setflags(write=False)
        object.__setattr__(f, "_coeffs", c)
    return f._coeffs


def synthesize(grid, coeffs):
    """Inverse of coefficients(): f(x_i) = sum_k c_k exp(i xi_k . x_i)."""
    coeffs = np.asarray(coeffs)
    if coeffs.shape != grid.shape:
        raise ValueError("coefficient array must match grid shape")
    samples = np.fft.ifftn(coeffs * grid._phase_inverse) * grid.num_points
    return GridFunction(grid, samples)


def convolve(f, mask):
    """Fourier-side product (mask * f^)^v; mask indexed like grid.xi."""
    return synthesize(f.grid, np.asarray(mask) * coefficients(f))


def _derivative_mask(grid, gamma):
    if np.isscalar(gamma):
        gamma = (gamma,)
    gamma = tuple(int(g) for g in gamma)
    if len(gamma) != grid.dim or any(g < 0 for g in gamma):
        raise ValueError(f"gamma must be {grid.dim} nonnegative integers")
    mask = np.ones(grid.shape, dtype=complex)
    for g, xi in zip(gamma, grid.xi):
        if g:
            mask = mask * (1j * xi) ** g
    return mask


def spectral_derivative(f, gamma):
    """Mixed partial D^gamma via ((i xi)^gamma f^)^v on the frequency set."""
    return convolve(f, _derivative_mask(f.grid, gamma))

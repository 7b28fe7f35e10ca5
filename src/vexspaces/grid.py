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

__all__ = [
    "Grid",
    "PrunedScan",
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

# relative padding of every bound that a pruned scan compares with a running
# value: it covers the few roundings between the bound and what it bounds
# (a product or sum of maxima, a quotient, array against scalar powers),
# each a few units of 1e-16
BOUND_PAD = 1.0 + 1e-12


def _runs(mask):
    """(start, stop) of every run of True in a short boolean array."""
    runs, start = [], None
    for i, hit in enumerate(mask.tolist() + [False]):
        if hit and start is None:
            start = i
        elif not hit and start is not None:
            runs.append((start, i))
            start = None
    return runs


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

    @cached_property
    def _mirror(self):
        """C-order index of -s for every shift s, the zero shift included."""
        m = np.append(0, self.reflections + 1)
        m.setflags(write=False)
        return m

    def _as_rows(self, values):
        """values as a float (n0, n) array of rows of points: in 1D, one row."""
        values = np.asarray(values, dtype=float)
        if values.shape != self.shape:
            raise ValueError(f"values shape {values.shape} != grid shape {self.shape}")
        return values.reshape(-1, self.n)

    def _scan(self, values, op, boxes, M, neg=None):
        """Write max_x op(values(x), values(x - s)) into M[s] for every shift
        s in boxes; where neg is given, also write minus the min into neg[s].

        values, M and neg have one shape (n0, n1) (see _as_rows), and a box
        ((k0, k1), (b0, b1)) holds the shifts (k, b), k0 <= k < k1 and
        b0 <= b < b1.  Shifts are scanned row by row.  The shifted copies
        values(x - (k, b)) of row k are windows [n1 - b, 2 n1 - b) of one
        contiguous line: the transpose of values, rolled by k and doubled
        along its first axis.  So every block is a slice of a line, never a
        gather, with contiguous points; op pairs the transposed points, and
        a maximum does not depend on the order of its operands.

        op(a, block, out=buf) is elementwise and broadcasts a against a
        block of shifted copies, as a ufunc does.  One reused buffer of at
        most _SCAN_BLOCK elements (one shift at least) holds every block, so
        no temporary grows with the number of shifts.  Every shift scan of
        the grid, dense or pruned, runs through here.
        """
        if not boxes:
            return
        n0, n1 = values.shape
        points = values.size
        per = max(1, _SCAN_BLOCK // points)  # shifts per block
        rows = [max(1, per // (b1 - b0)) for _, (b0, b1) in boxes]  # rows per block
        T = np.ascontiguousarray(values.T)
        doubled = np.concatenate((T, T), axis=1)  # T rolled by k is columns [n0 - k, 2 n0 - k)
        lines = np.empty((max(rows), 2, n1, n0))
        # windows[i, b] = lines[i] flattened, from row n1 - b on: n1 rows of n0 points
        s0, _, s1, s2 = lines.strides
        windows = np.ndarray((len(lines), n1, points), float, lines, n1 * s1, (s0, -s1, s2))
        windows.flags.writeable = False
        T = T.reshape(-1)
        buf = np.empty(per * points)
        for ((k0, k1), (b0, b1)), r in zip(boxes, rows):
            step = min(per, b1 - b0)
            for k in range(k0, k1, r):
                m = min(r, k1 - k)
                for i in range(m):
                    np.copyto(lines[i], doubled[:, n0 - k - i : 2 * n0 - k - i])
                for b in range(b0, b1, step):
                    block = windows[:m, b : min(b + step, b1)]
                    out = op(T, block, out=buf[: block.size].reshape(block.shape))
                    at = (slice(k, k + m), slice(b, b + block.shape[1]))
                    M[at] = out.max(axis=2)
                    if neg is not None:
                        neg[at] = -out.min(axis=2)

    def _mirrored(self, M, neg, direct):
        """Signed maxima, flat in C order, from a scan of some shifts: D(s)
        is M(s) where direct marks s as scanned, else neg(-s), -inf where
        neither s nor -s was scanned."""
        return np.where(direct.reshape(-1), M.reshape(-1), neg.reshape(-1)[self._mirror])

    def shift_maxima(self, values, op):
        """max over x of op(values(x), values(x - s)) for every nonzero
        shift s, in shift_vectors order: the dense scan (see _scan).

        op is elementwise, as a ufunc; the scan holds at most _SCAN_BLOCK
        elements at a time.  np.divide gives the worst ratio of every shift,
        np.subtract its largest difference.
        """
        values = self._as_rows(values)
        M = np.empty(values.shape)
        self._scan(values, op, [((0, len(values)), (0, self.n))], M)
        return M.reshape(-1)[1:]

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
        values = self._as_rows(values)
        half, n = self.n // 2 + 1, self.n
        box = ((0, 1), (0, half)) if self.dim == 1 else ((0, half), (0, n))
        M, neg = np.empty(values.shape), np.empty(values.shape)
        self._scan(values, np.subtract, [box], M, neg)
        direct = np.zeros(values.shape, dtype=bool)
        direct[slice(*box[0]), slice(*box[1])] = True
        return self._mirrored(M, neg, direct)[1:]

    def pruned_scan(self, values, op):
        """The maxima of shift_maxima(values, np.divide) or (op np.subtract)
        signed_shift_maxima(values), scanned in 2D only where a reducer of
        them may need them; see PrunedScan."""
        return PrunedScan(self, values, op)

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


class PrunedScan:
    """Per-shift maxima M(s) = max_x op(values(x), values(x - s)), scanned in
    2D only where a reducer of them may need them.

    op is np.divide, for the worst ratios of Grid.shift_maxima(values,
    np.divide), or np.subtract, for the signed differences of
    Grid.signed_shift_maxima(values), whose rows k <= n/2 also give rows
    n - k.  In 2D the scan starts with the 2(n - 1) axis shifts (k, 0) and
    (0, b).  They bound every other shift: with y = x - (k, 0),
    values(x) / values(x - (k, b)) is values(x) / values(y) times
    values(y) / values(y - (0, b)), a sum for differences, so

        M(k, b) <= M(k, 0) * M(0, b)    or    M(k, b) <= M(k, 0) + M(0, b).

    bound holds M at every scanned shift and that product or sum times
    BOUND_PAD elsewhere: an upper bound through the rounding of each term.
    visit then scans whole rows (k, 1..n-1) of shifts, only those that a
    reducer cannot rule out.  Where M(k, 0) is the identity (0 for
    differences, 1 for ratios) the values repeat under (k, 0), since no
    term along a cycle of that shift can exceed it, so row k repeats row 0
    bit for bit, the same terms; where every M(0, b) is, M(k, b) = M(k, 0).
    visit copies such a row instead of scanning it.  In 1D the dense scan
    runs at once and visit has nothing left to do.

    maxima is M at every scanned shift and -inf elsewhere; scanned marks
    the scanned shifts.  Both are in shift_vectors order.  A reducer that
    visits with its own term and then reduces maxima gets the value and the
    first maximiser in C order of the dense scan, bit for bit: a shift is
    left out only where its term is strictly below the final value.
    """

    def __init__(self, grid, values, op):
        if op is not np.divide and op is not np.subtract:
            raise ValueError("a pruned scan takes np.divide or np.subtract")
        self.grid = grid
        self._op = op
        self._signed = signed = op is np.subtract
        if grid.dim == 1:
            dense = grid.signed_shift_maxima(values) if signed else grid.shift_maxima(values, op)
            self.maxima = self._bound = dense
            self.scanned = np.ones(len(dense), dtype=bool)
            return
        n = grid.n
        self._values = values = grid._as_rows(values)
        self._M = M = np.full(grid.shape, -np.inf)
        self._neg = neg = np.full(grid.shape, -np.inf) if signed else None
        self._direct = np.zeros(grid.shape, dtype=bool)
        end = n // 2 + 1 if signed else n  # the mirrors give the rest
        axis = [((0, 1), (1, end))]  # shifts (0, b); in the transpose, (b, 0)
        grid._scan(values, op, axis, M, neg)
        grid._scan(values.T, op, axis, M.T, None if neg is None else neg.T)
        self._direct[0, 1:end] = self._direct[1:end, 0] = True
        self._refresh()
        self._axes = D = np.append(0.0 if signed else 1.0, self.maxima).reshape(n, n)  # M(0) is 0 or 1
        combine = np.add if signed else np.multiply
        self._bound = (combine.outer(D[:, 0], D[0]) * BOUND_PAD).reshape(-1)[1:]

    def _refresh(self):
        if self._signed:
            D = self.grid._mirrored(self._M, self._neg, self._direct)
            direct = self._direct.reshape(-1)
            seen = direct | direct[self.grid._mirror]
        else:
            D, seen = self._M.reshape(-1), self._direct.reshape(-1)
        self.maxima, self.scanned = D[1:], seen[1:]

    @property
    def bound(self):
        """M at every scanned shift, the padded product or sum elsewhere."""
        return np.where(self.scanned, self.maxima, self._bound)

    def visit(self, term, floor):
        """Scan every row of shifts that holds a shift the running value of
        a reducer cannot rule out.

        term maps per-shift maxima (in shift_vectors order) to the
        reducer's per-shift term, nondecreasing in every maximum; floor is
        the reducer's value before this scan.  The running value is the
        largest of floor and the terms of the scanned shifts.  A shift stays
        out only where term(bound) * BOUND_PAD is strictly below it; the pad
        covers the rounding of term itself.
        """
        todo = ~self.scanned
        if not todo.any():
            return
        with np.errstate(over="ignore", invalid="ignore"):  # a bound may overflow
            est = term(self.bound)
        running = max(floor, est[self.scanned].max())
        n, half = self.grid.n, self.grid.n // 2
        keep = np.zeros(n * n, dtype=bool)
        keep[1:] = todo & ~(est * BOUND_PAD < running)
        rows = keep.reshape(n, n).any(axis=1)
        if self._signed:  # row k also gives row n - k; row n/2 is its own mirror
            rows[1:half] |= rows[: half : -1]
            rows[half + 1 :] = False
        if rows.any():
            self._copy_repeats(rows)
        if self._signed:
            middle, rows[half] = rows[half], False
        boxes = [((a, b), (1, n)) for a, b in _runs(rows)]
        if self._signed and middle:
            boxes.append(((half, half + 1), (1, half + 1)))
        self.grid._scan(self._values, self._op, boxes, self._M, self._neg)
        for (a, b), (c, d) in boxes:
            self._direct[a:b, c:d] = True
        self._refresh()

    def _copy_repeats(self, rows):
        """Copy the rows of maxima that repeat the axis shifts' (see the
        class docstring) and take them out of rows."""
        D, n = self._axes, self.grid.n
        repeats = D[:, 0] == D[0, 0]  # M(k, 0) is the identity M(0)
        copied = np.flatnonzero(rows & (repeats | (D[0, 1:] == D[0, 0]).all()))
        if not copied.size:
            return
        copy = np.where(repeats[:, None], D[0], D[:, :1])
        self._M[copied] = copy[copied]
        if self._signed:  # M(-s) of each copied shift s
            self._neg[copied] = copy[np.ix_(-copied % n, -np.arange(n) % n)]
        self._direct[copied] = True
        rows[copied] = False


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

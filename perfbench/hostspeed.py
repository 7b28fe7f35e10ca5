"""How fast the host runs right now, from fixed reference kernels.

A shared host changes its speed by up to 2x in episodes of seconds to
minutes, for the same work.  The kernels below are the benchmark's own
code and never change, so their time measures the host, not the library:
`slowness()` is 1.0 when they run at their nominal times and 1.5 when the
host runs them 1.5x slower.  Dividing a report's time by the slowness
around it gives the report's time at the reference speed.

Each kernel stands for one kind of work the library does: scalar Python
(the bisection steps of the Luxemburg root solves), FFTs of the size the
grid layer decomposes, and elementwise powers and sums (the modulars).
"""

from time import perf_counter

import numpy as np

_GRID = np.random.default_rng(0).standard_normal((64, 64))
_FLAT = _GRID.ravel()


def _scalar_python():
    s = 0.0
    for i in range(20000):
        s += (i * 0.5) ** 1.5
    return s


def _fft():
    for _ in range(20):
        np.fft.ifft2(np.fft.fft2(_GRID) * _GRID).real.sum()


def _elementwise():
    for _ in range(60):
        (np.abs(_FLAT) ** 2.3).sum()
        np.maximum(_FLAT, 0.1).mean()


# (kernel, nominal seconds): the kernels' best times on a 2-core Intel Xeon
# VM (Python 3.11, numpy 2.4) in its fast episodes; they only set the scale
KERNELS = ((_scalar_python, 1.5e-3), (_fft, 2.0e-3), (_elementwise, 1.25e-3))
REPEATS = 3  # each kernel's best of this many runs


def slowness():
    """Geometric mean over the kernels of best time / nominal time."""
    logs = []
    for kernel, nominal in KERNELS:
        best = float("inf")
        for _ in range(REPEATS):
            start = perf_counter()
            kernel()
            best = min(best, perf_counter() - start)
        logs.append(np.log(best / nominal))
    return float(np.exp(np.mean(logs)))

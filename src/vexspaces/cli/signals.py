"""Signal file I/O.

1-d signals are one sample per line, "re" or "re,im"; 2-d signals are N
rows of N comma-separated real values.  An optional leading comment line
"# dim=<d> n=<N>" is validated against the target grid.  Values are
written with repr so a save/load round trip is bit-exact.
"""

import re

import numpy as np

from ..expr import InputError
from ..grid import GridFunction

_HEADER = re.compile(r"#\s*dim\s*=\s*(\d+)\s+n\s*=\s*(\d+)\s*$")


class SignalError(InputError):
    pass


def save_signal(f, path):
    """Write a GridFunction to a signal file (see module docstring)."""
    grid = f.grid
    lines = [f"# dim={grid.dim} n={grid.n}"]
    if grid.dim == 1:
        if np.iscomplexobj(f.samples):
            lines += [f"{float(v.real)!r},{float(v.imag)!r}" for v in f.samples]
        else:
            lines += [repr(float(v)) for v in f.samples]
    else:
        if np.iscomplexobj(f.samples):
            raise SignalError("2-d signals are stored as real samples")
        lines += [",".join(repr(float(v)) for v in row) for row in f.samples]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_fields(line, line_no):
    fields = []
    for col, tok in enumerate(line.split(","), start=1):
        try:
            fields.append(float(tok))
        except ValueError:
            raise SignalError(
                f"non-numeric token {tok.strip()!r} (line {line_no}, column {col})"
            ) from None
    return fields


def load_signal(path, grid):
    """Read a signal file onto a grid; raise SignalError on format problems."""
    with open(path) as fh:
        try:
            raw = fh.read().splitlines()
        except UnicodeDecodeError as e:
            raise SignalError(f"{path}: not a text file ({e.reason})") from None
    data = []
    for line_no, line in enumerate(raw, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            m = _HEADER.match(stripped)
            if m:
                dim, n = int(m.group(1)), int(m.group(2))
                if dim != grid.dim or n != grid.n:
                    raise SignalError(
                        f"signal header dim={dim} n={n} does not match "
                        f"grid dim={grid.dim} n={grid.n}"
                    )
            continue
        data.append((line_no, _parse_fields(stripped, line_no)))
    if grid.dim == 1:
        if len(data) != grid.n:
            raise SignalError(f"expected {grid.n} samples, found {len(data)}")
        if any(len(fields) == 2 for _, fields in data):
            samples = np.empty(grid.n, dtype=complex)
            for i, (line_no, fields) in enumerate(data):
                if len(fields) > 2:
                    raise SignalError(
                        f"expected re or re,im (line {line_no}, found "
                        f"{len(fields)} values)"
                    )
                samples[i] = complex(fields[0], fields[1] if len(fields) == 2 else 0.0)
        else:
            for line_no, fields in data:
                if len(fields) != 1:
                    raise SignalError(
                        f"expected re or re,im (line {line_no}, found "
                        f"{len(fields)} values)"
                    )
            samples = np.array([fields[0] for _, fields in data])
    else:
        if len(data) != grid.n:
            raise SignalError(f"expected {grid.n} rows, found {len(data)}")
        samples = np.empty(grid.shape)
        for i, (line_no, fields) in enumerate(data):
            if len(fields) != grid.n:
                raise SignalError(
                    f"expected {grid.n} values, found {len(fields)} (line {line_no})"
                )
            samples[i] = fields
    return GridFunction(grid, samples)

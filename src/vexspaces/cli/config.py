"""Run configuration: plain-text key = value files merged with CLI flags.

Exponents are expression strings or "@table" file references; weights are
"family:params" strings; everything resolves against the grid at build
time.  Cross-field validity (e.g. F-scale needs a finite q) is checked
when the space description is assembled.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from ..analysis import admissible_system, general_system, theta_system
from ..exponents import VariableExponent
from ..expr import ExprError, InputError, evaluate, parse_expression
from ..grid import Grid
from ..spaces import SpaceSpec
from ..weights import (
    make_2microlocal,
    make_generalized,
    make_variable_smoothness,
    make_weighted,
)
from .signals import SignalError, load_signal


class ConfigError(InputError):
    pass


@dataclass
class RunConfig:
    dim: int = 1
    grid_n: int = 64
    levels: int = None
    scale: str = "B"
    p: str = "2"
    q: str = "2"
    s: str = None
    weight: str = None
    system: str = "plateau"
    system_b: str = "hann"
    suite: str = "all"
    seed: int = 2026
    out: str = None
    signal: str = None
    sigma: float = 1.0
    symbol: str = None
    mode: str = "norm_2l"
    order: int = None
    corpus_size: int = 12


# key -> its RunConfig field annotation; int and float keys parse as numbers
_TYPES = {f.name: f.type for f in fields(RunConfig)}


def read_config_file(path):
    """Parse "key = value" lines; '#' lines are comments."""
    values = {}
    with open(path) as fh:
        try:
            lines = fh.read().splitlines()
        except UnicodeDecodeError as e:
            raise ConfigError(f"{path}: not a text file ({e.reason})") from None
        for line_no, line in enumerate(lines, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            key, eq, value = stripped.partition("=")
            if not eq:
                raise ConfigError(f"{path}:{line_no}: expected key = value")
            key = key.strip().replace("-", "_")
            if key not in _TYPES:
                raise ConfigError(f"{path}:{line_no}: unknown config key {key!r}")
            values[key] = value.strip()
    return values


def resolve_config(file_values=None, flag_values=None):
    """Defaults, overridden by config-file entries, overridden by flags."""
    merged = {}
    merged.update(file_values or {})
    merged.update({k: v for k, v in (flag_values or {}).items() if v is not None})
    cfg = RunConfig()
    for key, value in merged.items():
        if key not in _TYPES:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            if _TYPES[key] in (int, float):
                value = _TYPES[key](value)
        except ValueError:
            raise ConfigError(f"config key {key}: expected a number, got {value!r}")
        setattr(cfg, key, value)
    if cfg.dim not in (1, 2):
        raise ConfigError("dim must be 1 or 2")
    if cfg.scale not in ("B", "F"):
        raise ConfigError("scale must be B or F")
    if cfg.seed < 0:
        raise ConfigError("seed must be >= 0")
    if not 1 <= cfg.corpus_size <= 50:  # spaces.standard_corpus has 50 members
        raise ConfigError("corpus_size must be between 1 and 50, the standard corpus size")
    if not math.isfinite(cfg.sigma):
        raise ConfigError("sigma must be finite")
    return cfg


def coordinate_function(text):
    """Wrap an expression in x1 (and x2) as f(*coords) for the
    recipe-carrying constructors, its values the order-0 Taylor jet
    (expr.evaluate); raise ExprError where it is not finite."""
    ast = parse_expression(text)

    def fn(*coords):
        values = np.asarray(evaluate(ast, **dict(zip(("x1", "x2"), coords))), dtype=float)
        values = np.broadcast_to(values, np.broadcast_shapes(*[c.shape for c in coords]))
        if not np.all(np.isfinite(values)):
            raise ExprError("expression is not finite on the grid (division by zero?)")
        return np.array(values, dtype=float)

    return fn


def build_grid(cfg):
    try:
        return Grid(cfg.dim, cfg.grid_n)
    except ValueError as e:
        raise ConfigError(str(e)) from None


def build_exponent(grid, text):
    """Expression string, or "@path" for a per-gridpoint table."""
    try:
        if text.startswith("@"):
            table = load_signal(text[1:], grid)
            if np.iscomplexobj(table.samples):
                raise ConfigError("exponent tables must be real")
            return VariableExponent(grid, table.samples)
        return VariableExponent.from_function(grid, coordinate_function(text))
    except (ExprError, SignalError, OSError, ValueError) as e:
        raise ConfigError(f"exponent {text!r}: {e}") from None


def build_weight(grid, J, text):
    """family:params -- 2micro:s,s',x0[,y0] | varsmooth:<expr> |
    generalized:v0,...,vJ | weighted:s,beta,<rho expr>."""
    family, _, params = text.partition(":")
    try:
        if family == "2micro":
            parts = [float(v) for v in params.split(",")]
            if len(parts) != 2 + grid.dim:
                raise ConfigError(
                    f"2micro needs s,s' and {grid.dim} anchor coordinate(s)"
                )
            return make_2microlocal(grid, J, parts[0], parts[1], [parts[2:]])
        if family == "varsmooth":
            return make_variable_smoothness(grid, J, coordinate_function(params))
        if family == "generalized":
            values = np.array([float(v) for v in params.split(",")])
            if len(values) < J + 1:
                raise ConfigError(f"generalized needs {J + 1} values for J={J}")
            return make_generalized(grid, J, values)
        if family == "weighted":
            s, beta, rho = params.split(",", 2)
            return make_weighted(
                grid, J, coordinate_function(rho), float(s), float(beta)
            )
    except ConfigError:
        raise
    except (ExprError, ValueError) as e:
        raise ConfigError(f"weight {text!r}: {e}") from None
    raise ConfigError(f"unknown weight family {family!r}")


def build_system(grid, J, name):
    try:
        if name in ("plateau", "hann"):
            return admissible_system(grid, J, name)
        if name == "general":
            return general_system(grid, J, epsilon=1.2, k_factor=25.0 / 18.0)
        if name == "theta":
            return theta_system(grid)
    except ValueError as e:
        raise ConfigError(str(e)) from None
    raise ConfigError(f"unknown system profile {name!r}")


def build_spec(cfg, grid=None):
    """Assemble the space description a RunConfig names."""
    grid = grid or build_grid(cfg)
    J = grid.max_levels() if cfg.levels is None else cfg.levels
    p = build_exponent(grid, cfg.p)
    q = build_exponent(grid, cfg.q)
    weight_text = cfg.weight
    if cfg.s is not None:
        weight_text = f"varsmooth:{cfg.s}"
    if weight_text is None:
        weight_text = "varsmooth:0.5"
    w = build_weight(grid, J, weight_text)
    system = build_system(grid, J, cfg.system)
    try:
        return SpaceSpec(cfg.scale, p, q, w, system, J)
    except ValueError as e:
        raise ConfigError(str(e)) from None

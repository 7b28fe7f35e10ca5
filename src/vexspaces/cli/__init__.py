"""Command-line surface; see `vexspaces --help`."""

from .config import ConfigError, RunConfig, read_config_file, resolve_config
from .expr import ExprError, evaluate, parse_expression, sample_expression
from .signals import SignalError, load_signal, save_signal

__all__ = [
    "ConfigError",
    "RunConfig",
    "read_config_file",
    "resolve_config",
    "ExprError",
    "evaluate",
    "parse_expression",
    "sample_expression",
    "SignalError",
    "load_signal",
    "save_signal",
]

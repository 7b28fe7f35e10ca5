"""Expression strings on grids: exponent and weight fields, and symbols.

The language itself (parser, AST, evaluator) is vexspaces.expr; this
module samples it on grids and validates the CLI's symbol strings.
"""

import numpy as np

from ..expr import ExprError, Node, evaluate, parse_expression, parse_symbol

__all__ = [
    "ExprError",
    "Node",
    "evaluate",
    "parse_expression",
    "sample_expression",
    "coordinate_function",
    "symbol_text",
]


def sample_expression(text, grid, frequency=False):
    """Sample an expression on a grid, raising ExprError if any value is
    non-finite (e.g. division by zero at a grid point)."""
    ast = text if isinstance(text, Node) else parse_expression(text)
    if frequency:
        names = ("xi1", "xi2")
        coords = grid.xi
    else:
        names = ("x1", "x2")
        coords = grid.coords
    env = dict(zip(names, coords))
    values = np.broadcast_to(np.asarray(evaluate(ast, **env), dtype=float), grid.shape)
    if not np.all(np.isfinite(values)):
        raise ExprError(
            "expression is not finite on the grid (division by zero?)"
        )
    return np.array(values, dtype=float)


def coordinate_function(text):
    """Wrap an expression as f(*coords) for recipe-carrying constructors."""
    ast = parse_expression(text)

    def fn(*coords):
        env = dict(zip(("x1", "x2"), coords))
        values = np.asarray(evaluate(ast, **env), dtype=float)
        values = np.broadcast_to(values, np.broadcast_shapes(*[c.shape for c in coords]))
        if not np.all(np.isfinite(values)):
            raise ExprError(
                "expression is not finite on the grid (division by zero?)"
            )
        return np.array(values, dtype=float)

    return fn


def symbol_text(text, dim):
    """Validate a frequency-symbol expression (see parse_symbol); returns
    the text unchanged, in the grammar MultiplierSymbol takes."""
    parse_symbol(text, dim)
    return text

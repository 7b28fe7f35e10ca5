import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vexspaces import Grid
from vexspaces.analysis import MultiplierSymbol
from vexspaces.cli.config import coordinate_function
from vexspaces.expr import ExprError, evaluate, parse_expression, parse_symbol, taylor


def ev(text, **env):
    return evaluate(parse_expression(text), **env)


def sample(text, grid):
    return coordinate_function(text)(*grid.coords)


def test_precedence():
    assert ev("2 + 3 * 4") == 14.0
    assert ev("2 * 3 ^ 2") == 18.0
    assert ev("(2 + 3) * 4") == 20.0
    assert ev("1 - 2 - 3") == -4.0  # left-assoc add/sub
    assert ev("12 / 3 / 2") == 2.0


def test_power_binds_tighter_than_unary_minus():
    assert ev("-2^2") == -4.0
    assert ev("2^-2") == 0.25
    assert ev("2^3^2") == 512.0  # right-assoc
    assert ev("2**3**2") == 512.0
    assert ev("(-2)^2") == 4.0


def test_whitespace_insensitive():
    assert ev("2+3*4") == ev("  2 +  3  *4 ") == 14.0


def test_sin_range_example(grid64):
    values = sample("2 + 0.5*sin(6.283185*x1)", grid64)
    assert np.all(values >= 1.5) and np.all(values <= 2.5)
    assert values.min() < 1.6 and values.max() > 2.4


def test_division_by_zero_is_load_time_error(grid64):
    with pytest.raises(ExprError, match="not finite"):
        sample("1/(x1 - x1)", grid64)


def test_dist_spot_values():
    # torus distance to 0.5: 0 at the point, 0.5 at the antipode
    assert ev("min(3, 2 + dist(x1, 0.5))", x1=0.5) == 2.0
    assert ev("min(3, 2 + dist(x1, 0.5))", x1=0.0) == 2.5
    assert ev("dist(x1, 0.9)", x1=0.1) == pytest.approx(0.2)


def test_dist_two_dimensional():
    grid = Grid(2, 16)
    values = sample("dist(x1, 0.25, 0.75)", grid)
    x1, x2 = grid.coords
    d1 = np.minimum(np.abs(x1 - 0.25) % 1.0, 1.0 - np.abs(x1 - 0.25) % 1.0)
    d2 = np.minimum(np.abs(x2 - 0.75) % 1.0, 1.0 - np.abs(x2 - 0.75) % 1.0)
    assert np.allclose(values, np.sqrt(d1**2 + d2**2), atol=1e-14)
    with pytest.raises(ExprError, match="2-d"):
        sample("dist(x1, 0.25, 0.75)", Grid(1, 16))


def test_syntax_errors_carry_position():
    with pytest.raises(ExprError, match="position"):
        parse_expression("2 +")
    with pytest.raises(ExprError, match="position 4"):
        parse_expression("2 + )")
    with pytest.raises(ExprError, match="unexpected character"):
        parse_expression("2 @ 3")
    with pytest.raises(ExprError, match="unknown identifier"):
        parse_expression("2 * foo")
    with pytest.raises(ExprError, match="unknown function"):
        parse_expression("bogus(1)")


def test_arity_errors():
    with pytest.raises(ExprError, match="argument"):
        parse_expression("sin(1, 2)")
    with pytest.raises(ExprError, match="argument"):
        parse_expression("min(1)")
    with pytest.raises(ExprError, match="dist takes 2 or 3"):
        parse_expression("dist(1, 2, 3, 4)")


def test_functions():
    assert ev("abs(-3.5)") == 3.5
    assert ev("max(2, 3)") == 3.0
    assert ev("exp(0)") == 1.0
    assert ev("cos(0)") == 1.0
    assert ev("dist(0.9, 0.1)") == pytest.approx(0.2)


def test_unknown_variable_at_evaluation(grid64):
    with pytest.raises(ExprError, match="x2 is not defined"):
        sample("x2", grid64)


@settings(max_examples=40, deadline=None)
@given(
    a=st.floats(-10, 10, allow_nan=False),
    b=st.floats(-10, 10, allow_nan=False),
    c=st.floats(0.1, 10, allow_nan=False),
)
def test_arithmetic_matches_python(a, b, c):
    text = f"{a!r} + {b!r} * {c!r} - {a!r}/{c!r}"
    assert ev(text) == pytest.approx(a + b * c - a / c, rel=1e-12, abs=1e-12)


def test_coordinate_function_resamples():
    fn = coordinate_function("0.5 + dist(x1, 0.5)")
    for n in (32, 64):
        g = Grid(1, n)
        vals = fn(*g.coords)
        assert vals.shape == g.shape
        assert vals.max() == pytest.approx(1.0, abs=1.0 / n)


def test_multiplier_symbol_validates_text():
    with pytest.raises(ExprError, match="not differentiable"):
        MultiplierSymbol("min(xi1, 1)", dim=1)
    with pytest.raises(ExprError, match="xi1/xi2"):
        MultiplierSymbol("x1 + 1", dim=1)
    with pytest.raises(ExprError, match="1-d"):
        MultiplierSymbol("xi2", dim=1)
    assert MultiplierSymbol("xi1 * xi2", dim=2).text == "xi1 * xi2"


# ------------------------------------------------- values: the order-0 rules


def _same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.uint64), np.asarray(b).view(np.uint64))


def test_power_with_array_exponents_takes_numpy_power():
    # exp(b log a), the route of a non-constant exponent at order >= 1, is
    # NaN at all three points
    a, b = np.array([0.0, -2.0, -2.0]), np.array([0.0, 3.0, 2.0])
    assert np.array_equal(ev("x1^x2", x1=a, x2=b), [1.0, -8.0, 4.0])
    with np.errstate(all="ignore"):
        assert np.isnan(np.exp(b * np.log(a))).all()


def test_constant_powers_keep_numpy_bits():
    # the jets' repeated products x (x x) differ from np.power in the last
    # place at 1068 of these points, and exp(x log 2) from 2^x at 11 of 101
    x = np.linspace(0.01, 3.0, 4001)
    assert _same_bits(ev("x1^3", x1=x), np.power(x, 3.0))
    assert np.any(x * (x * x) != np.power(x, 3.0))
    x = np.linspace(-1.0, 1.0, 101)
    assert _same_bits(ev("2^x1", x1=x), np.power(2.0, x))
    assert np.any(np.exp(x * np.log(2.0)) != np.power(2.0, x))


@pytest.mark.parametrize("text", ["min(xi1, 1)", "max(xi1, 1)", "dist(xi1, 0.5)"])
def test_value_only_functions_have_no_derivatives(text):
    xi = np.linspace(-2.0, 2.0, 9)
    with pytest.raises(ExprError, match="not differentiable"):
        parse_symbol(text, 1)
    ast = parse_expression(text)
    assert np.all(np.isfinite(evaluate(ast, xi1=xi)))
    for order in (1, 2):
        with pytest.raises(ExprError, match="not differentiable"):
            taylor(ast, order, {"xi1": xi})

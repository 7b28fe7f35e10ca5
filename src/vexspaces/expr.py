"""Tiny arithmetic expression language for exponents, weights, and symbols.

Precedence, loosest to tightest: add/sub, mul/div, unary minus, power
("^" or "**", right-associative), atoms.  Identifiers are the grid
coordinates (x1, x2 on signals; xi1, xi2 on frequency symbols) and the
functions sin, cos, exp, abs, min, max, dist.

dist measures wrap-around distance on the unit torus: dist(u, a) is the
circle distance between the values u and a; dist(u, a, b), available on
2-d grids, is the distance from the point (u, x2) to (a, b) -- pass x1
as the first argument for the usual distance to a fixed point.

One interpreter gives values and derivatives: taylor() evaluates by
forward-mode truncated Taylor arithmetic (Griewank & Walther, *Evaluating
Derivatives*, 2nd ed., SIAM 2008, ch. 13), where every node becomes the
array of its Taylor coefficients at the evaluation points, up to a total
order, and evaluate() is its order-0 coefficient.  min, max and dist have
values only, so a frequency symbol (parse_symbol), an expression in xi1
(and xi2), is built from the other, differentiable primitives.
"""

import re
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product

import numpy as np


class InputError(ValueError):
    """Input that cannot be used: a configuration value, an expression, a
    signal file, or a check argument outside the check's hypotheses.  The
    CLI reports it as bad configuration (exit 2)."""


class ExprError(InputError):
    """Parse or evaluation failure; carries the source position if known."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


_TOKEN = re.compile(
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\*\*|[-+*/^(),])"
)

_VARIABLES = ("x1", "x2", "xi1", "xi2")
_ARITY = {"sin": 1, "cos": 1, "exp": 1, "abs": 1, "min": 2, "max": 2}
_VALUES_ONLY = ("min", "max", "dist")  # no derivatives: order 0 only


@dataclass(frozen=True)
class Node:
    """Expression AST node.

    kind is one of const, var, add, sub, mul, div, pow, neg, call;
    value holds the constant, name the variable or function name.
    """

    kind: str
    value: float = 0.0
    name: str = ""
    children: tuple = field(default_factory=tuple)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ExprError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup == "num":
            tokens.append(("num", float(m.group()), pos))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group(), pos))
        else:
            tokens.append((m.group(), m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i][0]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ExprError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse(self):
        node = self.sum()
        tok = self.tokens[self.i]
        if tok[0] != "end":
            raise ExprError(f"unexpected {tok[1]!r}", tok[2])
        return node

    def sum(self):
        node = self.product()
        while self.peek() in ("+", "-"):
            op = self.next()[0]
            rhs = self.product()
            node = Node("add" if op == "+" else "sub", children=(node, rhs))
        return node

    def product(self):
        node = self.unary()
        while self.peek() in ("*", "/"):
            op = self.next()[0]
            rhs = self.unary()
            node = Node("mul" if op == "*" else "div", children=(node, rhs))
        return node

    def unary(self):
        if self.peek() == "-":
            self.next()
            return Node("neg", children=(self.unary(),))
        return self.power()

    def power(self):
        node = self.atom()
        if self.peek() in ("^", "**"):
            self.next()
            # right-associative; exponent may carry its own unary minus
            return Node("pow", children=(node, self.unary()))
        return node

    def atom(self):
        tok = self.next()
        kind, value, pos = tok
        if kind == "num":
            return Node("const", value=value)
        if kind == "(":
            node = self.sum()
            self.expect(")")
            return node
        if kind == "name":
            if self.peek() == "(":
                return self.call(value, pos)
            if value not in _VARIABLES:
                raise ExprError(f"unknown identifier {value!r}", pos)
            return Node("var", name=value)
        raise ExprError(f"unexpected {value!r}", pos)

    def call(self, name, pos):
        if name != "dist" and name not in _ARITY:
            raise ExprError(f"unknown function {name!r}", pos)
        self.expect("(")
        args = [self.sum()]
        while self.peek() == ",":
            self.next()
            args.append(self.sum())
        self.expect(")")
        if name == "dist":
            if len(args) not in (2, 3):
                raise ExprError(f"dist takes 2 or 3 arguments, got {len(args)}", pos)
        elif len(args) != _ARITY[name]:
            raise ExprError(
                f"{name} takes {_ARITY[name]} argument(s), got {len(args)}", pos
            )
        return Node("call", name=name, children=tuple(args))


def parse_expression(text):
    """Parse an expression string into an AST; raise ExprError on bad input."""
    return _Parser(text).parse()


def _circle_distance(u, v):
    d = np.abs(u - v) % 1.0
    return np.minimum(d, 1.0 - d)


def _value_only(name, args, points):
    """min, max or dist of the values args; x2 is the second coordinate of
    the 3-argument dist."""
    if name == "min":
        return np.minimum(*args)
    if name == "max":
        return np.maximum(*args)
    d = _circle_distance(args[0], args[1])
    if len(args) == 2:
        return d
    if "x2" not in points:
        raise ExprError("3-argument dist needs a 2-d grid")
    return np.sqrt(d**2 + _circle_distance(points["x2"], args[2]) ** 2)


def evaluate(ast, **variables):
    """Evaluate an AST with the given variable bindings (scalars or arrays):
    the order-0 coefficient of its Taylor jet (see taylor)."""
    return taylor(ast, 0, variables)[(0,) * len(variables)]


def parse_symbol(text, dim):
    """Parse a frequency symbol in xi1 (and xi2 when dim is 2).

    taylor() differentiates only smooth primitives, so min, max and dist
    are refused, as are the signal coordinates x1/x2 and xi2 in 1D.
    """
    ast = parse_expression(text)

    def walk(node):
        if node.name in _VALUES_ONLY:
            raise ExprError(f"{node.name} is not differentiable; not usable in symbols")
        if node.kind == "var" and not node.name.startswith("xi"):
            raise ExprError(f"symbols use xi1/xi2, not {node.name}")
        if node.kind == "var" and node.name == "xi2" and dim == 1:
            raise ExprError("xi2 is not defined on a 1-d grid")
        for c in node.children:
            walk(c)

    walk(ast)
    return ast


# ----------------------------------------------------------------- Taylor jets
#
# A jet maps a multi-index m (one entry per variable) to the coefficient c_m
# of s^m in f(x + s) = sum_m c_m s^m, so D^m f(x) = m! c_m.  An absent index
# is a zero coefficient, a coefficient that does not vary over the points is
# a scalar, and a unit coefficient is never multiplied out.  The nonlinear
# primitives follow from identities under the degree operator
# E = sum_i s_i d/ds_i, which multiplies the terms of total order k by k:
#     E(exp a) = exp(a) E(a)      a E(a^r) = r a^r E(a)     a E(log a) = E(a)
#     E(sin a) = cos(a) E(a)      E(cos a) = -sin(a) E(a)
# Matching the coefficients of s^m gives c_m from the lower ones; with one
# variable these are the usual univariate recurrences, with |m| for k.


@lru_cache(maxsize=None)
def _splits(dim, order):
    """((m, ((p, m - p, |p|), ...)), ...) over the multi-indices m of total
    order <= order in lexicographic order, and the p <= m componentwise with
    p = 0 first.  Every m - p with p != 0 precedes m."""
    index = [m for m in product(range(order + 1), repeat=dim) if sum(m) <= order]
    return tuple(
        (m, tuple((p, tuple(a - b for a, b in zip(m, p)), sum(p))
                  for p in index if all(b <= a for a, b in zip(m, p))))
        for m in index
    )


def _varies(c):
    """Whether a coefficient varies over the points: an array of values, or
    Intervals over boxes of points."""
    return isinstance(c, (np.ndarray, Interval))


def _is_one(c):
    return not _varies(c) and c == 1.0


def _term(f, x, y):
    """f * x * y for a scalar f, folding f into a scalar one of x, y."""
    if _varies(x):
        x, y = y, x
    if not _varies(x):
        f = f * x
        return y if f == 1.0 else f * y
    xy = x * y
    return xy if f == 1.0 else f * xy


def _sum(terms):
    """The sum of some coefficients, or None (zero) when there are none."""
    total = None
    for t in terms:
        total = t if total is None else total + t
    return total


def _over(c, a0):
    return c if _is_one(a0) else c / a0


class _Jets:
    """Truncated Taylor arithmetic to one total order in dim variables."""

    def __init__(self, dim, order):
        self.table = _splits(dim, order)
        self.zero = (0,) * dim

    def add(self, a, b, sign=1.0):
        out = dict(a)
        for m, v in b.items():
            v = v if sign == 1.0 else -v
            out[m] = out[m] + v if m in out else v
        return out

    def mul(self, a, b):
        out = {}
        for m, splits in self.table:
            c = _sum(_term(1.0, a[p], b[q]) for p, q, _ in splits if p in a and q in b)
            if c is not None:
                out[m] = c
        return out

    def div(self, a, b):
        b0 = b.get(self.zero, np.float64(0.0))
        out = {}
        for m, splits in self.table:
            rest = (_term(-1.0, b[p], out[q]) for p, q, _ in splits[1:] if p in b and q in out)
            c = _sum([a[m], *rest] if m in a else rest)
            if c is not None:
                out[m] = _over(c, b0)
        return out

    def _recur(self, a, c0, factor, a0=None):
        """c_0 = c0 and, for m != 0, c_m = sum over p != 0 of
        factor(|p|, |m|) a_p c_(m-p), divided by a0 when it is given."""
        out = {self.zero: c0}
        for m, splits in self.table[1:]:
            k = sum(m)
            c = _sum(
                _term(factor(n, k), a[p], out[q])
                for p, q, n in splits[1:]
                if p in a and q in out
            )
            if c is not None:
                out[m] = c if a0 is None else _over(c, a0)
        return out

    def power(self, a, r):
        """a^r for a constant r: repeated products for an integer r, else
        k a_0 c_m = sum_{p != 0} ((r + 1)|p| - k) a_p c_(m-p), k = |m|."""
        one = {self.zero: np.float64(1.0)}
        if float(r).is_integer():
            n = int(r)
            result, base, e = one, a, abs(n)
            while e:
                if e & 1:
                    result = self.mul(result, base)
                e >>= 1
                if e:
                    base = self.mul(base, base)
            return result if n >= 0 else self.div(one, result)
        a0 = a.get(self.zero, np.float64(0.0))
        return self._recur(a, np.power(a0, r), lambda n, k: ((r + 1.0) * n - k) / k, a0)

    def exp(self, a):
        a0 = a.get(self.zero, np.float64(0.0))
        return self._recur(a, np.exp(a0), lambda n, k: n / k)

    def log(self, a):
        # a_0 E(l)_m = |m| a_m - sum_{p != 0} |m - p| a_p l_(m-p)
        a0 = a.get(self.zero, np.float64(0.0))
        out = {self.zero: np.log(a0)}
        for m, splits in self.table[1:]:
            k = sum(m)
            rest = (
                _term(-(k - n) / k, a[p], out[q])
                for p, q, n in splits[1:]
                if n < k and p in a and q in out
            )
            c = _sum([a[m], *rest] if m in a else rest)
            if c is not None:
                out[m] = _over(c, a0)
        return out

    def sin_cos(self, a):
        a0 = a.get(self.zero, np.float64(0.0))
        s, c = {self.zero: np.sin(a0)}, {self.zero: np.cos(a0)}
        for m, splits in self.table[1:]:
            k = sum(m)
            live = [(p, q, n / k) for p, q, n in splits[1:] if p in a]
            sm = _sum(_term(f, a[p], c[q]) for p, q, f in live if q in c)
            cm = _sum(_term(-f, a[p], s[q]) for p, q, f in live if q in s)
            if sm is not None:
                s[m] = sm
            if cm is not None:
                c[m] = cm
        return s, c

    def abs(self, a):
        a0 = a.get(self.zero, np.float64(0.0))
        sign = np.sign(a0)
        return {m: np.abs(v) if m == self.zero else _term(1.0, sign, v) for m, v in a.items()}


def taylor(ast, order, variables):
    """Taylor coefficients of an AST to total order `order`.

    variables maps each variable name to its points (arrays broadcasting
    against each other, or scalars), or to Intervals over boxes of points,
    which give enclosures of the jets at those points; multi-index entry i
    belongs to the i-th name.  Returns a dict from multi-index m, |m| <=
    order, to c_m with D^m f = m! c_m at the points; an absent index is a
    zero coefficient and a coefficient constant over the points is a
    scalar.  Constant
    subexpressions stay scalars.  Integer powers are repeated products, so
    they stay exact where the base vanishes; a non-constant exponent goes
    through exp(b log a).  At order 0 every power is np.power of the
    values, and min, max and dist, refused at any higher order, are taken
    of the values.
    """
    names = tuple(variables)
    points = {n: v if isinstance(v, Interval) else np.asarray(v, dtype=float)
              for n, v in variables.items()}
    jets = _Jets(len(names), order)
    zero = jets.zero

    def jet(node):
        kind = node.kind
        if kind == "const":
            return {zero: np.float64(node.value)}
        if kind == "var":
            if node.name not in points:
                raise ExprError(f"{node.name} is not defined here")
            out = {zero: points[node.name]}
            if order:
                out[tuple(int(n == node.name) for n in names)] = 1.0
            return out
        if order and node.name in _VALUES_ONLY:
            raise ExprError(f"{node.name} is not differentiable; not usable in symbols")
        args = [jet(c) for c in node.children]
        if kind == "neg":
            return {m: -v for m, v in args[0].items()}
        if kind in ("add", "sub"):
            return jets.add(args[0], args[1], 1.0 if kind == "add" else -1.0)
        if kind == "mul":
            return jets.mul(args[0], args[1])
        if kind == "div":
            return jets.div(args[0], args[1])
        if kind == "pow":
            base, exponent = args
            if not order:  # the products and exp(b log a) below round otherwise
                return {zero: np.power(base[zero], exponent[zero], dtype=float)}
            r = exponent.get(zero, 0.0)
            if exponent.keys() <= {zero} and not _varies(r):
                return jets.power(base, r)
            return jets.exp(jets.mul(exponent, jets.log(base)))
        if node.name in _VALUES_ONLY:
            return {zero: _value_only(node.name, [a[zero] for a in args], points)}
        if node.name == "exp":
            return jets.exp(args[0])
        if node.name == "abs":
            return jets.abs(args[0])
        s, c = jets.sin_cos(args[0])
        return s if node.name == "sin" else c

    with np.errstate(all="ignore"):
        return jet(ast)


# ------------------------------------------------------- interval enclosures
#
# taylor() run on Intervals instead of arrays encloses the float jets it
# computes at points (R. E. Moore, R. B. Kearfott, M. J. Cloud, *Introduction
# to Interval Analysis*, SIAM 2009).  Each operation takes the float operation
# at the interval ends, moved outward; a float operation at a point inside
# rounds to a value between them, since rounding is monotone.  The libm
# functions are not correctly rounded, so their ends move by _LIBM_ULPS.

_LIBM_ULPS = 4


class Interval(np.lib.mixins.NDArrayOperatorsMixin):
    """Closed intervals [lo, hi], one per box of points: ends[0] holds lo
    and ends[1] hi.

    An operation on Intervals (and scalars) holds the float result of the
    same operation at any points of the boxes.  An interval that may not be
    finite is NaN at both ends, and an operation on a NaN interval is NaN:
    that box has no enclosure.  The product of an interval with itself is a
    square, since both factors are the same point.  The ufuncs taylor()
    uses are supported: arithmetic, sqrt, exp, log, sin, cos, absolute,
    sign and power with a scalar exponent.
    """

    __slots__ = ("ends",)

    def __init__(self, lo, hi=None):
        ends = np.stack((lo, hi)) if hi is not None else lo
        if not np.isfinite(ends).all():
            ends = np.where(np.isfinite(ends).all(axis=0), ends, np.nan)
        self.ends = ends

    lo = property(lambda self: self.ends[0])
    hi = property(lambda self: self.ends[1])

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        op = _INTERVAL_UFUNCS.get(ufunc)
        if method != "__call__" or op is None or "out" in kwargs:
            return NotImplemented
        return op(*inputs)

    def __repr__(self):
        return f"Interval({self.lo!r}, {self.hi!r})"


_OUTWARD = np.array([[-1.0], [1.0]])
_ULP = 2.0**-52  # |x| * _ULP is at least the spacing of doubles at x
_TINY = 2.0**-1074


def _ends(v, flip=False):
    """The ends of an Interval, in reverse order if flip, or a scalar."""
    if not isinstance(v, Interval):
        return v
    return v.ends[::-1] if flip else v.ends


def _outward(ends, ulps=1):
    """Interval of new ends moved outward by at least ulps units in the
    last place (in place)."""
    pad = np.abs(ends)
    pad *= ulps * _ULP
    pad += _TINY
    pad *= _OUTWARD
    ends += pad
    return Interval(ends)


def _hull(values, ulps=1):
    """The interval from the least to the largest of values, stacked on
    the first axis, moved outward."""
    axes = tuple(range(values.ndim - 1))
    ends = np.empty((2, values.shape[-1]))
    values.min(axis=axes, out=ends[0])
    values.max(axis=axes, out=ends[1])
    return _outward(ends, ulps)


def _add(a, b):
    return _outward(_ends(a) + _ends(b))


def _subtract(a, b):
    return _outward(_ends(a) - _ends(b, flip=True))


def _negative(a):
    return Interval(-a.ends[::-1])


def _absolute(a):
    size = np.abs(a.ends)
    ends = np.empty_like(size)
    np.minimum(size[0], size[1], out=ends[0])
    ends[0] *= a.lo * a.hi > 0.0  # 0 where [lo, hi] holds 0
    np.maximum(size[0], size[1], out=ends[1])
    return Interval(ends)


def _multiply(a, b):
    if a is b:  # a square
        ends = _absolute(a).ends
        return _outward(ends * ends)
    if not isinstance(a, Interval):
        a, b = b, a
    if not isinstance(b, Interval):  # a scalar factor keeps or flips the order
        return _outward(_ends(a, flip=b < 0.0) * b)
    return _hull(a.ends[:, None] * b.ends[None, :])


def _divide(a, b):
    if not isinstance(b, Interval):
        return _outward(_ends(a, flip=b < 0.0) / b)
    pole = b.lo * b.hi <= 0.0  # no enclosure across a pole
    ends = np.where(pole, np.nan, b.ends) if pole.any() else b.ends
    if not isinstance(a, Interval):
        return _hull(a / ends)
    return _hull(a.ends[:, None] / ends[None, :])


def _monotone(fn, ulps):
    return lambda a: _outward(fn(a.ends), ulps)


def _power(a, r):
    if isinstance(r, Interval):
        return NotImplemented
    base = np.where(a.lo < 0.0, np.nan, a.ends)  # a negative base has no monotone power
    return _hull(np.power(base, r), _LIBM_ULPS)


def _periodic(fn, peak):
    """sin or cos, whose maxima lie at even and whose minima lie at odd
    multiples of pi from peak."""

    def op(a):
        values = fn(a.ends)
        ends = np.stack((values.min(axis=0), values.max(axis=0)))
        t = (a.ends - peak) / np.pi
        slack = 1e-12 * (1.0 + np.abs(t).max(axis=0))  # err on finding one
        first, last = np.ceil(t[0] - slack), np.floor(t[1] + slack)
        ends[1] = np.where(first + np.mod(first, 2.0) <= last, 1.0, ends[1])  # an even one
        ends[0] = np.where(first + np.mod(first + 1.0, 2.0) <= last, -1.0, ends[0])  # an odd one
        return _outward(ends, _LIBM_ULPS)

    return op


_INTERVAL_UFUNCS = {
    np.add: _add,
    np.subtract: _subtract,
    np.negative: _negative,
    np.multiply: _multiply,
    np.true_divide: _divide,
    np.sqrt: _monotone(np.sqrt, 1),
    np.exp: _monotone(np.exp, _LIBM_ULPS),
    np.log: _monotone(np.log, _LIBM_ULPS),
    np.power: _power,
    np.sin: _periodic(np.sin, 0.5 * np.pi),
    np.cos: _periodic(np.cos, 0.0),
    np.absolute: _absolute,
    np.sign: lambda a: Interval(np.sign(a.ends)),
}

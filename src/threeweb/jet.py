"""Truncated Taylor arithmetic in four variables up to total degree 3.

A Jet stores the 35 Taylor coefficients of a function at a point,

    coeff[idx(alpha)] = (d^alpha F)(P) / alpha!

for every multi-index |alpha| <= 3, in the order of MULTI.  The arithmetic
is exact truncated power-series arithmetic, so the coefficients of a lifted
function are its partials up to float roundoff, with no truncation error.
Leading axes of the coefficient array are a batch of points (vectorized
Taylor arithmetic; Griewank & Walther, *Evaluating Derivatives*, ch. 13),
and `jet_lift` lifts a sequence of expressions, such as a web's two
defining functions, into one (N, k, 35) array in one call.  A batch row
outside the domain of ln or of a division becomes NaN; a single jet there
raises EvalError.

The reciprocal, exp and ln of a jet with value c0 are the series
f0 + f1 u + f2 u^2 + f3 u^3 in the value-0 jet u left after taking c0 out,
with f_k the Taylor coefficients of the function at c0: two jet products
(u^2 and u^3) where Horner's rule takes three.

`jet_lift` runs the expressions compiled into one flat Program by
`compile_lift` (see `expr.compile_program`): each distinct subtree is one
step, and a / b is a times a reciprocal step of b, so u1 and u2 share what
they have in common.  In the corpus, example04 takes the reciprocal of
x1 + y1 once for both functions, and example06 that of x1 + x2.  A Web
compiles its program on first use and keeps it (`Web.lift_program`); bare
expressions are compiled on each call.  Steps that hold no variable
(constant and parameter subtrees) compute their values from the binding
on each run by the value runner's code for the same step
(`expr._value_step`), as Python floats, which the jet steps take directly.
One rule checks every such float: a constant that is not finite raises
EvalError naming its subexpression, at one point or a batch.  So a folded
`ln` of a non-positive value reads `the constant ln(0.0 - 1.0) is nan`, a
division by zero `the constant (2.0 - 2.0)^-1 is nan` (a reciprocal step
computes b^-1), and an overflowing product `the constant a*a is inf`; an
overflowing exp or power is NaN, as the value runner makes it.  The other
steps compute coefficient arrays, with the degree of each and the pair
table of each product fixed at compile time, so a run does no dispatch on
node types or degrees.  A power x^k of a jet is one step of binary powers,
x*x for k = 2 and (x*x)*x for k = 3: at most 2 log2(k) products.

Each Jet also carries `deg`, a bound on the total degree of its nonzero
coefficients: 1 for a variable seed, the larger of the two for a sum or
difference, the same for a negation or a float multiple, min(3, d1 + d2)
for a product, and 3 for a reciprocal, exp or ln; the jet runner fixes the
same bound for each step.  A product reads only
the pairs of coefficients its factors' degrees allow, from the pair table
for (d1, d2): 25 of the 165 pairs for affine x affine, 95 for affine x
full.  The product sums its table's pairs into the 35 coefficients with
one product against a constant 0/1 matrix, at one point or a batch.  A
non-finite coefficient of either factor, at or below its degree, meets the
other factor's value coefficient in some pair, so it poisons the product.
"""

from __future__ import annotations

import itertools
import math
import operator

import numpy as np

from .expr import (EvalError, Program, VARIABLES, _apply, _value_step,
                   compile_program, format_expr)

DEGREE = 3
NVARS = 4


# by total degree, then lexicographic
MULTI = [alpha for total in range(DEGREE + 1)
         for alpha in itertools.product(range(total + 1), repeat=NVARS)
         if sum(alpha) == total]
NCOEFF = len(MULTI)  # 35
INDEX = {alpha: i for i, alpha in enumerate(MULTI)}

_FACTORIAL = np.array([math.prod(math.factorial(a) for a in alpha)
                       for alpha in MULTI], dtype=float)

# Multiplication table: all (i, j) with |MULTI[i] + MULTI[j]| <= 3, sorted
# by the index k of the sum
_K, _I, _J = np.array(sorted(
    (INDEX[tuple(x + y for x, y in zip(a, b))], i, j)
    for i, a in enumerate(MULTI) for j, b in enumerate(MULTI)
    if sum(a) + sum(b) <= DEGREE)).T
_TOTAL = np.array([sum(alpha) for alpha in MULTI])


def _pair_table(d1, d2):
    """The pairs of the table with |MULTI[i]| <= d1 and |MULTI[j]| <= d2:
    their i and j, and the 0/1 matrix (pairs x 35) that sums them by k."""
    keep = (_TOTAL[_I] <= d1) & (_TOTAL[_J] <= d2)
    return _I[keep], _J[keep], np.eye(NCOEFF)[_K[keep]]


# (d1, d2) -> the pair table of a product of jets of those degrees; every
# jet has degree at least 1, the degree of a variable seed
_PAIRS = {(d1, d2): _pair_table(d1, d2)
          for d1 in range(1, DEGREE + 1) for d2 in range(1, DEGREE + 1)}


# _UNIT[v] is the coefficient index of x_v
_VARS = np.arange(NVARS)
_UNIT = np.array([INDEX[tuple(int(i == v) for i in range(NVARS))]
                  for v in _VARS])
# the seed jets of x1, x2, y1 and y2 at the origin
_SEEDS = np.zeros((NVARS, NCOEFF))
_SEEDS[_VARS, _UNIT] = 1.0


def partial_index(tuples):
    """For each partial d/dx_a dx_b ... named by a tuple of variable numbers
    (0-3, at most three of them): the index of its coefficient, and the
    factorial that turns the coefficient into the partial, as two arrays."""
    index = np.array([INDEX[tuple(vs.count(v) for v in range(NVARS))]
                      for vs in tuples])
    return index, _FACTORIAL[index]


def _gather(c, index):
    """c[..., index]; a 1-D c (one jet) is indexed without the ellipsis,
    which costs more than the gather itself."""
    return c[index] if c.ndim == 1 else c[..., index]


def _jet(c, deg):
    """A Jet on coefficients computed here, whose total degree is at most
    `deg`: no conversion or check."""
    jet = object.__new__(Jet)
    jet.c = c
    jet.deg = deg
    return jet


def _product(a, b, table):
    """The coefficients of the product of coefficients a and b, by the pair
    table of their degrees."""
    i, j, sums = table
    return (_gather(a, i) * _gather(b, j)) @ sums


def _series_tables(deg):
    """The pair tables of u*u and of (u*u)*u, for u of degree `deg`."""
    return _PAIRS[deg, deg], _PAIRS[min(DEGREE, 2 * deg), deg]


def _powers(u, tables):
    """u, u^2 and u^3 of coefficients `u`, their value zeroed here."""
    u[..., 0] = 0.0
    u2 = _product(u, u, tables[0])
    return u, u2, _product(u2, u, tables[1])


def _value_where(c, ok, message):
    """The value column of c, NaN on the batch rows where `ok` fails (which
    poisons them); a single jet there raises EvalError instead."""
    c0 = c[..., :1]
    if c.ndim > 1:
        return np.where(ok, c0, np.nan)
    if not ok[0]:
        raise EvalError("%s %r" % (message, float(c0[0])))
    return c0


def _reciprocal(c, tables):
    c0 = _value_where(c, c[..., :1] != 0.0,
                      "jet division by a jet with value")
    # 1/(c0 (1 + u)) = (1 - u + u^2 - u^3) / c0
    u, u2, u3 = _powers(c / c0, tables)
    w = u2 - u - u3
    w[..., 0] = 1.0
    return w / c0


def _exp(c, tables):
    # exp(c0 + u) = exp(c0) (1 + u + u^2/2 + u^3/6)
    u, u2, u3 = _powers(c.copy(), tables)
    w = u + u2 * 0.5 + u3 * (1.0 / 6.0)
    w[..., 0] = 1.0
    return w * np.exp(c[..., :1])


def _ln(c, tables):
    c0 = _value_where(c, c[..., :1] > 0.0,
                      "ln of a jet with non-positive value")
    # ln(c0 (1 + u)) = ln(c0) + u - u^2/2 + u^3/3
    u, u2, u3 = _powers(c / c0, tables)
    w = u - u2 * 0.5 + u3 * (1.0 / 3.0)
    w[..., :1] = np.log(c0)
    return w


def _shift(c, x):
    """c with the float x added to its value: a copy."""
    c = c.copy()
    c[..., 0] += x
    return c


class Jet:
    """Degree-3 truncated Taylor expansion of a scalar function, at one
    point or at a batch of points (the leading axes of `c`), whose nonzero
    coefficients have total degree at most `deg`.  Built by `jet_lift`."""

    __slots__ = ("c", "deg")

    @property
    def value(self):
        return self.c[..., 0]

    # arithmetic -----------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            return _jet(self.c + other.c, max(self.deg, other.deg))
        return _jet(_shift(self.c, other), self.deg)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet):
            return _jet(self.c - other.c, max(self.deg, other.deg))
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __neg__(self):
        return _jet(-self.c, self.deg)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return _jet(self.c * other, self.deg)
        return _jet(_product(self.c, other.c, _PAIRS[self.deg, other.deg]),
                    min(DEGREE, self.deg + other.deg))

    def __rmul__(self, other):
        return self.__mul__(other)

    def reciprocal(self):
        return _jet(_reciprocal(self.c, _series_tables(self.deg)), DEGREE)

    def exp(self):
        return _jet(_exp(self.c, _series_tables(self.deg)), DEGREE)

    def ln(self):
        return _jet(_ln(self.c, _series_tables(self.deg)), DEGREE)

    def __repr__(self):
        return "Jet(value=%r)" % (self.value,)


def _power_bits(k):
    """The binary digits of k >= 1 after its leading 1.  x^k is x, then
    for each digit a squaring followed, for a 1, by a product with x: x*x
    for k = 2 and (x*x)*x for k = 3, with 2 log2(k) products at most."""
    return [bit == "1" for bit in bin(k)[3:]]


# ---------------------------------------------------------------------------
# the jet runner

def compile_lift(exprs):
    """The expressions compiled for `jet_lift`: with their reciprocals
    shared, each jet's degree known and each product's pair table fixed."""
    return compile_program(exprs, _jet_code, reciprocals=True)


def jet_lift(e, point, params=None):
    """Expand an expression tree around `point` = (x1, x2, y1, y2), or
    around every row of an (N, 4) array of points at once.

    Given a sequence of k expressions instead, or a Program that
    `compile_lift` compiled from one, lift them all with one set of seeds
    into one Jet with an axis of k before the coefficients: (k, 35) at a
    point, (N, k, 35) at N points.  Expressions are compiled on each call;
    a Web keeps its program (`Web.lift_program`)."""
    many = isinstance(e, (list, tuple, Program))
    program = e if isinstance(e, Program) else compile_lift(
        e if many else (e,))
    point = np.asarray(point, dtype=float)
    lead = point.shape[:-1]
    seeds = np.empty(lead + _SEEDS.shape)
    seeds[...] = _SEEDS
    seeds[..., 0] = point
    with np.errstate(all="ignore"):
        values = program.run(seeds, params or {})
    out = np.zeros(lead + (len(values), NCOEFF))
    for i, v in enumerate(values):
        if type(v) is float:  # a constant still gets one row per point
            out[..., i, 0] = v
        else:
            out[..., i, :] = v
    return _jet(out if many else out[..., 0, :], DEGREE)


def _jet_code(steps):
    """The jet runner's code.  A step that holds no variable computes a
    Python float by the value runner's code, which Jet arithmetic would
    take directly; any other a jet's coefficients, whose degree is fixed
    here."""
    degrees, code = [], []
    for step in steps:
        fn, deg = _jet_step(step, degrees)
        degrees.append(deg)
        code.append(fn)
    return tuple(code)


# op -> its Taylor series on a jet's coefficients
_SERIES = {"reciprocal": _reciprocal, "exp": _exp, "ln": _ln}


def _jet_step(step, degrees):
    """The code of one step, and the degree of its jet (0 for a float):
    given `degrees`, those of the steps before it."""
    op, args, value, node, scalar = step
    if op == "pow" and not isinstance(value, int):
        raise EvalError("jet powers must have integer exponents")
    if scalar:
        return _constant_step(op, args, value, node), 0
    if op == "var":
        v = VARIABLES.index(value)
        return (lambda vals, seeds, params: seeds[..., v, :]), 1
    deg = max(degrees[a] for a in args)
    if op in _SERIES:
        series, tables, (a,) = _SERIES[op], _series_tables(deg), args
        return (lambda vals, seeds, params: series(vals[a], tables)), DEGREE
    if op == "pow":
        return _jet_power(args, value, deg)
    if op == "neg":
        return _apply(operator.neg, args), deg
    a, b = args
    if degrees[a] and degrees[b]:
        if op == "mul":
            table = _PAIRS[degrees[a], degrees[b]]
            return ((lambda vals, seeds, params:
                     _product(vals[a], vals[b], table)),
                    min(DEGREE, degrees[a] + degrees[b]))
        return _apply(np.add if op == "add" else np.subtract, args), deg
    # a jet and a float: Jet arithmetic's rules, the jet first
    jet_first = degrees[a] > 0
    if op == "sub":
        fn = ((lambda c, x: _shift(c, -x)) if jet_first
              else (lambda c, x: _shift(-c, x)))
    else:
        fn = _shift if op == "add" else operator.mul
    return _apply(fn, args if jet_first else args[::-1]), deg


def _jet_power(args, k, deg):
    """The code of x^k for a jet x, and its degree."""
    if k == 0:
        return _apply(lambda c: _shift(c * 0.0, 1.0), args), deg
    schedule, d = [], deg
    for times in _power_bits(k):
        square, d = _PAIRS[d, d], min(DEGREE, 2 * d)
        schedule.append((square, _PAIRS[d, deg] if times else None))
        if times:
            d = min(DEGREE, d + deg)

    def power(c):
        out = c
        for square, times in schedule:
            out = _product(out, out, square)
            if times is not None:
                out = _product(out, c, times)
        return out

    return _apply(power, args), d


def _constant_step(op, args, value, node):
    """The code of a step that holds no variable: the value runner's, its
    result a Python float.  A constant that is not finite raises EvalError
    naming its subexpression."""
    fn = _value_step(op, args, value)

    def constant(vals, seeds, params):
        out = float(fn(vals, seeds, params))
        if not math.isfinite(out):
            raise EvalError("the constant %s is %r" % (format_expr(node),
                                                       out))
        return out

    return constant

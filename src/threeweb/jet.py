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

`jet_lift` folds constant and parameter subtrees to Python floats, which
Jet arithmetic takes directly: the results equal those of the constant
jets they replace bit for bit.  A folded `ln` of a non-positive value, a
division by zero, or a fold to inf or NaN raises EvalError, at one point or
a batch.

Each Jet also carries `deg`, a bound on the total degree of its nonzero
coefficients: 1 for a variable seed, the larger of the two for a sum or
difference, the same for a negation or a float multiple, min(3, d1 + d2)
for a product, and 3 for a reciprocal, exp or ln.  A product reads only
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

from .expr import (Add, Const, Div, EvalError, Exp, Ln, Mul, Neg, ParamRef,
                   Pow, Sub, Var, VARIABLES, format_expr)

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
        c = self.c.copy()
        c[..., 0] += other
        return _jet(c, self.deg)

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
        i, j, sums = _PAIRS[self.deg, other.deg]
        prod = _gather(self.c, i) * _gather(other.c, j)
        return _jet(prod @ sums, min(DEGREE, self.deg + other.deg))

    def __rmul__(self, other):
        return self.__mul__(other)

    def _value_where(self, ok, message):
        """The value column, NaN on the batch rows where `ok` fails (which
        poisons them); a single jet there raises EvalError instead."""
        c0 = self.c[..., :1]
        if self.c.ndim > 1:
            return np.where(ok, c0, np.nan)
        if not ok[0]:
            raise EvalError("%s %r" % (message, float(c0[0])))
        return c0

    @staticmethod
    def _powers(u, deg):
        """u, u^2 and u^3 of coefficients `u` of degree at most `deg`, their
        value zeroed here."""
        u[..., 0] = 0.0
        u = _jet(u, deg)
        u2 = u * u
        return u.c, u2.c, (u2 * u).c

    def reciprocal(self):
        c0 = self._value_where(self.c[..., :1] != 0.0,
                               "jet division by a jet with value")
        # 1/(c0 (1 + u)) = (1 - u + u^2 - u^3) / c0
        u, u2, u3 = self._powers(self.c / c0, self.deg)
        w = u2 - u - u3
        w[..., 0] = 1.0
        return _jet(w / c0, DEGREE)

    def exp(self):
        # exp(c0 + u) = exp(c0) (1 + u + u^2/2 + u^3/6)
        u, u2, u3 = self._powers(self.c.copy(), self.deg)
        w = u + u2 * 0.5 + u3 * (1.0 / 6.0)
        w[..., 0] = 1.0
        return _jet(w * np.exp(self.c[..., :1]), DEGREE)

    def ln(self):
        c0 = self._value_where(self.c[..., :1] > 0.0,
                               "ln of a jet with non-positive value")
        # ln(c0 (1 + u)) = ln(c0) + u - u^2/2 + u^3/3
        u, u2, u3 = self._powers(self.c / c0, self.deg)
        w = u - u2 * 0.5 + u3 * (1.0 / 3.0)
        w[..., :1] = np.log(c0)
        return _jet(w, DEGREE)

    def __repr__(self):
        return "Jet(value=%r)" % (self.value,)


def _reciprocal(x):
    if isinstance(x, Jet):
        return x.reciprocal()
    if x == 0.0:
        raise EvalError("jet division by a jet with value %r" % float(x))
    return 1.0 / x


def _ln(x):
    if isinstance(x, Jet):
        return x.ln()
    if not x > 0.0:
        raise EvalError("ln of a jet with non-positive value %r" % float(x))
    return float(np.log(x))


def _exp(x):
    return x.exp() if isinstance(x, Jet) else float(np.exp(x))


def _int_pow(x, k):
    """x^k for an int k, on a Jet or a float: the constant 1 for k = 0,
    NaN where x is not finite, else |k| - 1 multiplies."""
    if not isinstance(k, int):
        raise EvalError("jet powers must have integer exponents")
    if k == 0:
        return x * 0.0 + 1.0
    if k < 0:
        x, k = _reciprocal(x), -k
    out = x
    for _ in range(k - 1):
        out = out * x
    return out


def jet_lift(e, point, params=None):
    """Expand an expression tree around `point` = (x1, x2, y1, y2), or
    around every row of an (N, 4) array of points at once.

    Given a sequence of k expressions instead, lift them all with one set
    of seeds into one Jet with an axis of k before the coefficients:
    (k, 35) at a point, (N, k, 35) at N points."""
    point = np.asarray(point, dtype=float)
    lead = point.shape[:-1]
    seeds = np.zeros(lead + (NVARS, NCOEFF))
    seeds[..., 0] = point
    seeds[..., _VARS, _UNIT] = 1.0
    vars_ = {name: _jet(seeds[..., v, :], 1)
             for v, name in enumerate(VARIABLES)}
    many = isinstance(e, (list, tuple))
    exprs = e if many else (e,)
    out = np.zeros(lead + (len(exprs), NCOEFF))
    with np.errstate(all="ignore"):
        for i, expr in enumerate(exprs):
            jet = _lift(expr, vars_, params or {})
            if isinstance(jet, Jet):
                out[..., i, :] = jet.c
            else:  # a constant expression still gets one row per point
                out[..., i, 0] = jet
    return _jet(out if many else out[..., 0, :], DEGREE)


# node type -> how the lifts of its operands combine
_BINARY = {Add: operator.add, Sub: operator.sub, Mul: operator.mul,
           Div: lambda a, b: a * _reciprocal(b)}
_UNARY = {Neg: operator.neg, Exp: _exp, Ln: _ln}


def _lift(e, vars_, params):
    """The Jet of `e`, or a float where `e` holds no variable.  A float
    that folds to inf or NaN raises EvalError naming its subexpression."""
    kind = type(e)
    if kind in _BINARY:
        out = _BINARY[kind](_lift(e.left, vars_, params),
                            _lift(e.right, vars_, params))
    elif kind in _UNARY:
        out = _UNARY[kind](_lift(e.arg, vars_, params))
    elif kind is Var:
        return vars_[e.name]
    elif kind is Const:
        return float(e.value)
    elif kind is Pow:
        out = _int_pow(_lift(e.base, vars_, params), e.exponent)
    elif kind is ParamRef:
        try:
            return float(params[e.name])
        except KeyError:
            raise EvalError("parameter %r is unbound" % e.name) from None
    else:
        raise TypeError("not an expression node: %r" % (e,))
    if type(out) is float and not math.isfinite(out):
        raise EvalError("the constant %s is %r" % (format_expr(e), out))
    return out

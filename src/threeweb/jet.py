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
Jet arithmetic takes directly: where finite, the results equal those of the
constant jets they replace bit for bit.  A folded `ln` of a non-positive
value or division by zero raises EvalError, at one point or a batch.
"""

from __future__ import annotations

import itertools
import math
import operator

import numpy as np

from .expr import (Add, Const, Div, EvalError, Exp, Ln, Mul, Neg, ParamRef,
                   Pow, Sub, Var, VARIABLES)

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
# by the index k of the sum, and where each k's run of pairs starts.
_PAIRS = sorted((INDEX[tuple(x + y for x, y in zip(a, b))], i, j)
                for i, a in enumerate(MULTI) for j, b in enumerate(MULTI)
                if sum(a) + sum(b) <= DEGREE)
_MUL_K, _MUL_I, _MUL_J = (np.array(col) for col in zip(*_PAIRS))
_MUL_START = np.searchsorted(_MUL_K, np.arange(NCOEFF))


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


def _jet(c):
    """A Jet on coefficients computed here: no conversion or check."""
    jet = object.__new__(Jet)
    jet.c = c
    return jet


class Jet:
    """Degree-3 truncated Taylor expansion of a scalar function, at one
    point or at a batch of points (the leading axes of `c`)."""

    __slots__ = ("c",)

    def __init__(self, coeffs):
        self.c = np.asarray(coeffs, dtype=float)
        if self.c.shape[-1:] != (NCOEFF,):
            raise ValueError("jet needs %d coefficients" % NCOEFF)

    # construction -----------------------------------------------------

    @staticmethod
    def constant(value):
        value = np.asarray(value, dtype=float)
        c = np.zeros(value.shape + (NCOEFF,))
        c[..., 0] = value
        return _jet(c)

    # accessors ----------------------------------------------------------

    @property
    def value(self):
        return self.c[..., 0]

    def partial(self, alpha):
        """The partial derivative d^alpha F at the expansion point."""
        i = INDEX[tuple(alpha)]  # KeyError for |alpha| > 3 is right
        return self.c[..., i] * _FACTORIAL[i]

    # arithmetic -----------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            return _jet(self.c + other.c)
        c = self.c.copy()
        c[..., 0] += other
        return _jet(c)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet):
            return _jet(self.c - other.c)
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __neg__(self):
        return _jet(-self.c)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return _jet(self.c * other)
        prod = _gather(self.c, _MUL_I) * _gather(other.c, _MUL_J)
        return _jet(np.add.reduceat(prod, _MUL_START, axis=-1))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        return self * _reciprocal(other)

    def __rtruediv__(self, other):
        return self.reciprocal() * other

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
    def _powers(u):
        """u, u^2 and u^3 of coefficients `u`, their value zeroed here."""
        u[..., 0] = 0.0
        u = _jet(u)
        u2 = u * u
        return u.c, u2.c, (u2 * u).c

    def reciprocal(self):
        c0 = self._value_where(self.c[..., :1] != 0.0,
                               "jet division by a jet with value")
        # 1/(c0 (1 + u)) = (1 - u + u^2 - u^3) / c0
        u, u2, u3 = self._powers(self.c / c0)
        w = u2 - u - u3
        w[..., 0] = 1.0
        return _jet(w / c0)

    def exp(self):
        # exp(c0 + u) = exp(c0) (1 + u + u^2/2 + u^3/6)
        u, u2, u3 = self._powers(self.c.copy())
        w = u + u2 * 0.5 + u3 * (1.0 / 6.0)
        w[..., 0] = 1.0
        return _jet(w * np.exp(self.c[..., :1]))

    def ln(self):
        c0 = self._value_where(self.c[..., :1] > 0.0,
                               "ln of a jet with non-positive value")
        # ln(c0 (1 + u)) = ln(c0) + u - u^2/2 + u^3/3
        u, u2, u3 = self._powers(self.c / c0)
        w = u - u2 * 0.5 + u3 * (1.0 / 3.0)
        w[..., :1] = np.log(c0)
        return _jet(w)

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
    """x^k for an int k, on a Jet or a float: 1.0 for k = 0, else |k| - 1
    multiplies."""
    if not isinstance(k, int):
        raise EvalError("jet powers must have integer exponents")
    if k == 0:
        return 1.0
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
    vars_ = {name: _jet(seeds[..., v, :]) for v, name in enumerate(VARIABLES)}
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
    return _jet(out if many else out[..., 0, :])


# node type -> how the lifts of its operands combine
_BINARY = {Add: operator.add, Sub: operator.sub, Mul: operator.mul,
           Div: lambda a, b: a * _reciprocal(b)}
_UNARY = {Neg: operator.neg, Exp: _exp, Ln: _ln}


def _lift(e, vars_, params):
    """The Jet of `e`, or a float where `e` holds no variable."""
    kind = type(e)
    if kind in _BINARY:
        return _BINARY[kind](_lift(e.left, vars_, params),
                             _lift(e.right, vars_, params))
    if kind in _UNARY:
        return _UNARY[kind](_lift(e.arg, vars_, params))
    if kind is Var:
        return vars_[e.name]
    if kind is Const:
        return float(e.value)
    if kind is Pow:
        return _int_pow(_lift(e.base, vars_, params), e.exponent)
    if kind is ParamRef:
        try:
            return float(params[e.name])
        except KeyError:
            raise EvalError("parameter %r is unbound" % e.name) from None
    raise TypeError("not an expression node: %r" % (e,))

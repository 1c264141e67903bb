"""Truncated Taylor arithmetic in four variables up to total degree 3.

A Jet stores the 35 Taylor coefficients of a function at a point:

    coeff[idx(alpha)] = (d^alpha F)(P) / alpha!

for every multi-index alpha = (a1, a2, a3, a4) with |alpha| <= 3, in the
order produced by `_multi_indices` (by total degree, then lexicographic).
Arithmetic is exact truncated power-series arithmetic, so after lifting the
defining functions of a web through `jet_lift`, every coefficient is the
exact partial derivative (up to float roundoff), with no finite-difference
truncation error anywhere.

Any leading axes of the coefficient array are a batch of points, so one
walk of an expression tree lifts it at N points into (N, 35) coefficients
(vectorized Taylor arithmetic; Griewank & Walther, *Evaluating
Derivatives*, ch. 13).  A batch row outside the domain of ln or of a
division becomes NaN; a single jet there raises EvalError.  The tensor
pipeline reads every partial off lifted coefficients with `partials`, one
gather for all orders; `deriv` differentiates inside the algebra and is
valid through degree 2.

`jet_lift` folds constant and parameter subtrees to Python floats, and Jet
arithmetic takes a float directly: adding one shifts the value column,
multiplying by one scales the coefficients, and dividing by one multiplies
by its reciprocal.  Where they are finite, the results equal those of the
constant jets this replaces bit for bit, without building or convolving
them.  A folded `ln` of a non-positive value or division by zero raises
EvalError, at one point or a batch.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .expr import (Add, Const, Div, EvalError, Exp, Ln, Mul, Neg, ParamRef,
                   Pow, Sub, Var, VARIABLES)

DEGREE = 3
NVARS = 4


def _multi_indices():
    out = []
    for total in range(DEGREE + 1):
        for alpha in itertools.product(range(total + 1), repeat=NVARS):
            if sum(alpha) == total:
                out.append(alpha)
    return out


MULTI = _multi_indices()
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


# _UNIT[v] is the coefficient index of x_v; _GATHER lists the index of
# d/dx_a, d^2/dx_a dx_b and d^3/dx_a dx_b dx_c for every tuple of variables
# of orders 1, 2 and 3 in turn (4 + 16 + 64 columns)
_VARS = np.arange(NVARS)
_UNIT = np.array([INDEX[tuple(int(i == v) for i in range(NVARS))]
                  for v in _VARS])
_GATHER = np.array([INDEX[tuple(vs.count(v) for v in range(NVARS))]
                    for order in range(1, DEGREE + 1)
                    for vs in itertools.product(range(NVARS), repeat=order)])
_GATHER_FACTORIAL = _FACTORIAL[_GATHER]


def partials(c):
    """Every partial of orders 1 to 3 from coefficients `c` (..., 35):
    grad (..., 4), hess (..., 4, 4) and third (..., 4, 4, 4), symmetric in
    their trailing axes, read with one gather."""
    d = c[..., _GATHER] * _GATHER_FACTORIAL
    lead = c.shape[:-1]
    return (d[..., :NVARS], d[..., NVARS:20].reshape(lead + (NVARS,) * 2),
            d[..., 20:].reshape(lead + (NVARS,) * 3))


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
        return Jet(c)

    @staticmethod
    def variable(v, value):
        """The coordinate function x_v expanded at x_v = value."""
        jet = Jet.constant(value)
        jet.c[..., _UNIT[v]] = 1.0
        return jet

    # accessors ----------------------------------------------------------

    @property
    def value(self):
        return self.c[..., 0]

    def partial(self, alpha):
        """The partial derivative d^alpha F at the expansion point."""
        i = INDEX[tuple(alpha)]  # KeyError for |alpha| > 3 is right
        return self.c[..., i] * _FACTORIAL[i]

    def deriv(self, v):
        """d/dx_v inside the algebra; degree-3 coefficients of the result
        are zeroed, so treat the result as valid through degree 2 only."""
        c = np.zeros_like(self.c)
        for i, alpha in enumerate(MULTI):
            if sum(alpha) < DEGREE:
                up = alpha[:v] + (alpha[v] + 1,) + alpha[v + 1:]
                c[..., i] = self.c[..., INDEX[up]] * (alpha[v] + 1)
        return Jet(c)

    # arithmetic -----------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.c + other.c)
        c = self.c.copy()
        c[..., 0] += other
        return Jet(c)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet):
            return Jet(self.c - other.c)
        return self + (-other)

    def __rsub__(self, other):
        c = -self.c
        c[..., 0] += other
        return Jet(c)

    def __neg__(self):
        return Jet(-self.c)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return Jet(self.c * other)
        prod = self.c[..., _MUL_I] * other.c[..., _MUL_J]
        return Jet(np.add.reduceat(prod, _MUL_START, axis=-1))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        return self * _reciprocal(other)

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def _value_where(self, ok, message):
        """The value column, NaN on the batch rows where `ok` fails, which
        poisons those rows of everything computed from it; a single jet
        outside the domain raises EvalError instead."""
        c0 = self.c[..., :1]
        if self.c.ndim == 1 and not ok[0]:
            raise EvalError("%s %r" % (message, float(c0[0])))
        return np.where(ok, c0, np.nan)

    def reciprocal(self):
        c0 = self._value_where(self.c[..., :1] != 0.0,
                               "jet division by a jet with value")
        u = Jet(self.c / c0)
        u.c[..., 0] = 0.0
        # (1+u)^-1 = 1 - u + u^2 - u^3, exact at degree 3
        w = 1.0 - u * (1.0 - u * (1.0 - u))
        return Jet(w.c / c0)

    def exp(self):
        u = Jet(self.c.copy())
        u.c[..., 0] = 0.0
        w = 1.0 + u * (1.0 + u * (0.5 + u * (1.0 / 6.0)))
        return Jet(w.c * np.exp(self.c[..., :1]))

    def ln(self):
        c0 = self._value_where(self.c[..., :1] > 0.0,
                               "ln of a jet with non-positive value")
        u = Jet(self.c / c0)
        u.c[..., 0] = 0.0
        w = u * (1.0 - u * (0.5 - u * (1.0 / 3.0)))
        w.c[..., :1] = np.log(c0)
        return w

    def int_pow(self, k):
        out = _int_pow(self, k)
        if isinstance(out, Jet):
            return out
        return Jet.constant(np.full(self.c.shape[:-1], out))

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
    around every row of an (N, 4) array of points at once."""
    point = np.asarray(point, dtype=float)
    lead = point.shape[:-1]
    seeds = np.zeros(lead + (NVARS, NCOEFF))
    seeds[..., 0] = point
    seeds[..., _VARS, _UNIT] = 1.0
    vars_ = {name: Jet(seeds[..., v, :]) for v, name in enumerate(VARIABLES)}
    with np.errstate(all="ignore"):
        jet = _lift(e, vars_, params or {})
    if isinstance(jet, Jet):
        return jet
    # a constant expression still gets one row per point
    c = np.zeros(lead + (NCOEFF,))
    c[..., 0] = jet
    return Jet(c)


def _lift(e, vars_, params):
    """The Jet of `e`, or a float where `e` holds no variable."""
    if isinstance(e, Var):
        return vars_[e.name]
    if isinstance(e, Const):
        return float(e.value)
    if isinstance(e, Mul):
        return _lift(e.left, vars_, params) * _lift(e.right, vars_, params)
    if isinstance(e, Add):
        return _lift(e.left, vars_, params) + _lift(e.right, vars_, params)
    if isinstance(e, Sub):
        return _lift(e.left, vars_, params) - _lift(e.right, vars_, params)
    if isinstance(e, Pow):
        return _int_pow(_lift(e.base, vars_, params), e.exponent)
    if isinstance(e, Div):
        return (_lift(e.left, vars_, params)
                * _reciprocal(_lift(e.right, vars_, params)))
    if isinstance(e, ParamRef):
        try:
            return float(params[e.name])
        except KeyError:
            raise EvalError("parameter %r is unbound" % e.name) from None
    if isinstance(e, Neg):
        return -_lift(e.arg, vars_, params)
    if isinstance(e, Exp):
        return _exp(_lift(e.arg, vars_, params))
    if isinstance(e, Ln):
        return _ln(_lift(e.arg, vars_, params))
    raise TypeError("not an expression node: %r" % (e,))

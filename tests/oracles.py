"""Independent numerical oracles used by the test suite.

Finite differences deliberately share no code with the jet algebra: they
evaluate the web's defining functions pointwise and differentiate by
Richardson-extrapolated central stencils.  Third-order mixed partials lose
too many digits at very small steps, so the base step is 0.02 and one
extrapolation level brings the truncation error to O(h^4), which comfortably
beats the 1e-5 relative tolerance the comparisons use.

The jet helpers build and read `threeweb.jet.Jet`s from the test side: a
checking constructor, constant jets, partials, and the dense product over
all 165 pairs of coefficients, the oracle of the degree-aware product.

`naive_eval` evaluates an expression with Python floats and the math
module, independently of `threeweb.expr`.  `_lift` and `_eval_rows` are the
recursive tree walkers that `threeweb` replaced with compiled programs,
kept as references (`lift_reference` lifts by `_lift` as `jet_lift` did):
the jet runner and the value runner must match them bit for bit, with the
same EvalError messages.

`hexagonality_polynomials` adds the quartic hexagonality polynomial to the
two cubics that `threeweb.classify` tests, as their linear-dependence
oracle.
"""

import itertools
import math
import operator

import numpy as np

from threeweb.classify import _hexagonality_coefficients, _horner
from threeweb.expr import (Add, Const, Div, EvalError, Exp, Ln, Mul, Neg,
                           ParamRef, Pow, Sub, Var, VARIABLES, _nan_where,
                           _overflow_to_nan, format_expr)
from threeweb.jet import (DEGREE, INDEX, MULTI, NCOEFF, NVARS, Jet,
                          _FACTORIAL, _UNIT, _VARS, _jet, _power_bits)
from threeweb.tensor import sym3_lower

BASE_STEP = 0.02


def _diff_once(f, point, var, order, h):
    p = np.asarray(point, dtype=float)

    def shifted(k):
        q = p.copy()
        q[var] += k * h
        return tuple(q)

    if order == 1:
        return (f(shifted(1)) - f(shifted(-1))) / (2.0 * h)
    if order == 2:
        return (f(shifted(1)) - 2.0 * f(shifted(0)) + f(shifted(-1))) / h ** 2
    if order == 3:
        return (f(shifted(2)) - 2.0 * f(shifted(1))
                + 2.0 * f(shifted(-1)) - f(shifted(-2))) / (2.0 * h ** 3)
    raise ValueError("stencils cover orders 1..3, got %d" % order)


def central(f, point, alpha, h=BASE_STEP):
    """Central-difference estimate of d^alpha f at point (no extrapolation)."""
    alpha = tuple(alpha)
    total = sum(alpha)
    if total == 0:
        return f(tuple(point))
    # Peel one variable at a time; inner levels become new callables.
    for var in range(4):
        if alpha[var]:
            rest = list(alpha)
            order = rest[var]
            rest[var] = 0
            if sum(rest) == 0:
                return _diff_once(f, point, var, order, h)

            def inner(pt, _f=f, _var=var, _order=order, _h=h):
                return _diff_once(_f, pt, _var, _order, _h)

            return central(inner, point, rest, h)
    raise AssertionError("unreachable")


def partial_fd(f, point, alpha, h=BASE_STEP):
    """Richardson-extrapolated central difference, one refinement level.

    Every stencil above has error O(h^2), so combining estimates at h and
    h/2 with weights (4, -1)/3 cancels the leading term.
    """
    coarse = central(f, point, alpha, h)
    fine = central(f, point, alpha, h / 2.0)
    return (4.0 * fine - coarse) / 3.0


def rel_err(got, want):
    return abs(got - want) / max(1.0, abs(want))


def make_jet(coeffs, deg=DEGREE):
    """A Jet on `coeffs` (..., 35) whose coefficients above total degree
    `deg` must be zero."""
    c = np.asarray(coeffs, dtype=float)
    if c.shape[-1:] != (NCOEFF,):
        raise ValueError("jet needs %d coefficients" % NCOEFF)
    if np.any(c[..., [sum(alpha) > deg for alpha in MULTI]]):
        raise ValueError("jet has coefficients above degree %d" % deg)
    return _jet(c, deg)


def constant_jet(value):
    value = np.asarray(value, dtype=float)
    c = np.zeros(value.shape + (NCOEFF,))
    c[..., 0] = value
    return _jet(c, 1)  # a bound: every jet has degree at least 1


def partial(jet, alpha):
    """The partial derivative d^alpha F of a jet at its expansion point."""
    i = INDEX[tuple(alpha)]  # KeyError for |alpha| > 3 is right
    return jet.c[..., i] * _FACTORIAL[i]


# every (i, j) with |MULTI[i] + MULTI[j]| <= 3, sorted by the index k of the
# sum, and where each k's run of pairs starts
_DENSE = sorted((INDEX[tuple(x + y for x, y in zip(a, b))], i, j)
                for (i, a), (j, b) in itertools.product(enumerate(MULTI),
                                                        repeat=2)
                if sum(a) + sum(b) <= DEGREE)
_DENSE_K, _DENSE_I, _DENSE_J = (np.array(col) for col in zip(*_DENSE))
_DENSE_START = np.searchsorted(_DENSE_K, np.arange(NCOEFF))


def dense_product(a, b):
    """The coefficients of the product of coefficient arrays a and b
    (..., 35), over all 165 pairs, summed by `np.add.reduceat`."""
    return np.add.reduceat(a[..., _DENSE_I] * b[..., _DENSE_J],
                           _DENSE_START, axis=-1)


def hexagonality_polynomials(snap, t):
    """The quartic and the two cubic hexagonality polynomials at t.

    `snap` is a TensorSnapshot, or a SnapshotBatch for per-row values.
    The quartic is written here from b and sym3(b); the cubics are
    classify's.  The three are linearly dependent: quartic + t*cubic2 +
    cubic1 = 0 identically in the curvature components, an oracle for the
    cubics' transcription.
    """
    sym, b = (np.moveaxis(x, range(-4, 0), range(4))
              for x in (sym3_lower(snap.b), snap.b))
    quartic = [-b[0, 1, 1, 1], 3.0 * sym[0, 0, 1, 1] - b[1, 1, 1, 1],
               3.0 * (sym[1, 0, 1, 1] - sym[0, 0, 0, 1]),
               b[0, 0, 0, 0] - 3.0 * sym[1, 0, 0, 1], b[1, 0, 0, 0]]
    return tuple(_horner(coeffs, t)
                 for coeffs in (quartic, *_hexagonality_coefficients(snap)))


def naive_eval(e, env):
    """The value of e by Python float arithmetic and the math module, with
    env mapping variable and parameter names to floats: a second evaluator,
    which raises where Python does."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, (Var, ParamRef)):
        return env[e.name]
    if isinstance(e, Neg):
        return -naive_eval(e.arg, env)
    if isinstance(e, Exp):
        return math.exp(naive_eval(e.arg, env))
    if isinstance(e, Ln):
        return math.log(naive_eval(e.arg, env))
    if isinstance(e, Add):
        return naive_eval(e.left, env) + naive_eval(e.right, env)
    if isinstance(e, Sub):
        return naive_eval(e.left, env) - naive_eval(e.right, env)
    if isinstance(e, Mul):
        return naive_eval(e.left, env) * naive_eval(e.right, env)
    if isinstance(e, Div):
        return naive_eval(e.left, env) / naive_eval(e.right, env)
    if isinstance(e, Pow):
        return naive_eval(e.base, env) ** e.exponent
    raise TypeError(e)


# --- the recursive tree walkers --------------------------------------------

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
    NaN where x is not finite, else binary powers in the order of
    `jet._power_bits`."""
    if not isinstance(k, int):
        raise EvalError("jet powers must have integer exponents")
    if k == 0:
        return x * 0.0 + 1.0
    if k < 0:
        x, k = _reciprocal(x), -k
    out = x
    for times in _power_bits(k):
        out = out * out
        if times:
            out = out * x
    return out


# node type -> how the lifts of its operands combine
_LIFT_BINARY = {Add: operator.add, Sub: operator.sub, Mul: operator.mul,
                Div: lambda a, b: a * _reciprocal(b)}
_LIFT_UNARY = {Neg: operator.neg, Exp: _exp, Ln: _ln}


def _lift(e, vars_, params):
    """The Jet of `e`, or a float where `e` holds no variable.  A float
    that folds to inf or NaN raises EvalError naming its subexpression."""
    kind = type(e)
    if kind in _LIFT_BINARY:
        out = _LIFT_BINARY[kind](_lift(e.left, vars_, params),
                                 _lift(e.right, vars_, params))
    elif kind in _LIFT_UNARY:
        out = _LIFT_UNARY[kind](_lift(e.arg, vars_, params))
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


def lift_reference(exprs, point, params=None):
    """The coefficients (..., k, 35) of the k expressions lifted around
    `point`, or around each row of an (N, 4) array, by `_lift`."""
    point = np.asarray(point, dtype=float)
    lead = point.shape[:-1]
    seeds = np.zeros(lead + (NVARS, NCOEFF))
    seeds[..., 0] = point
    seeds[..., _VARS, _UNIT] = 1.0
    vars_ = {name: _jet(seeds[..., v, :], 1)
             for v, name in enumerate(VARIABLES)}
    out = np.zeros(lead + (len(exprs), NCOEFF))
    with np.errstate(all="ignore"):
        for i, expr in enumerate(exprs):
            jet = _lift(expr, vars_, params or {})
            if isinstance(jet, Jet):
                out[..., i, :] = jet.c
            else:  # a constant expression still gets one row per point
                out[..., i, 0] = jet
    return out


# node type -> how the values of its operands combine
_EVAL_BINARY = {Add: operator.add, Sub: operator.sub, Mul: operator.mul,
                Div: lambda a, b: a / _nan_where(b == 0.0, b)}
_EVAL_UNARY = {Neg: operator.neg,
               Exp: lambda v: _overflow_to_nan(np.exp(v), v),
               Ln: lambda v: np.log(_nan_where(v <= 0.0, v))}


def _eval_rows(e, cols, params):
    """The value of e, given each variable by name as a numpy array of
    values (or one point's np.float64 scalars), under the caller's
    np.errstate: NaN wherever it is undefined."""
    kind = type(e)
    if kind in _EVAL_BINARY:
        return _EVAL_BINARY[kind](_eval_rows(e.left, cols, params),
                                  _eval_rows(e.right, cols, params))
    if kind is Var:
        return cols[e.name]
    if kind is Pow:
        base = _eval_rows(e.base, cols, params)
        if e.exponent == 0:
            # numpy's NaN ** 0 is 1, which would hide an undefined base
            return _nan_where(base != base, 1.0)
        if type(base) is float:  # a constant, whose ** raises on overflow
            base = np.float64(base)
        return _overflow_to_nan(base ** e.exponent, base)
    if kind is Const:
        return e.value
    if kind in _EVAL_UNARY:
        return _EVAL_UNARY[kind](_eval_rows(e.arg, cols, params))
    if kind is ParamRef:
        try:
            return params[e.name]
        except KeyError:
            raise EvalError("parameter %r is unbound" % e.name) from None
    raise TypeError("not an expression node: %r" % (e,))

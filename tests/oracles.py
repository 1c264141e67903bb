"""Independent numerical oracles used by the test suite.

Finite differences deliberately share no code with the jet algebra: they
evaluate the web's defining functions pointwise and differentiate by
Richardson-extrapolated central stencils.  Third-order mixed partials lose
too many digits at very small steps, so the base step is 0.02 and one
extrapolation level brings the truncation error to O(h^4), which comfortably
beats the 1e-5 relative tolerance the comparisons use.

The jet helpers build and read `threeweb.jet.Jet`s from the test side: a
checking constructor, constant jets, the partials of a coefficient array
(as `jet_lift` returns), and the dense product over
all 165 pairs of coefficients, the oracle of the degree-aware product.

`evaluate` evaluates one expression at one point by the value runner.
`naive_eval` evaluates an expression with Python floats and the math
module, independently of `threeweb.expr`.  `_lift` and `_eval_rows` are the
recursive tree walkers that `threeweb` replaced with compiled programs,
kept as references (`lift_reference` lifts by `_lift` as `jet_lift` did):
the jet runner and the value runner must match them bit for bit, with the
same EvalError messages.  Where `_lift` meets a float, a subtree that holds
no variable, it follows the value runner's rules, as the jet runner does,
and checks each such float as the jet runner does; it still divides as
a * (1/b), and names the reciprocal of b as b^-1.

`hexagonality_polynomials` adds the quartic hexagonality polynomial to the
two cubics that `threeweb.classify` tests, as their linear-dependence
oracle.

`threeweb` writes its zero tests as specs in the snapshot's component
notation (`threeweb.tensor.read_spec`).  The lambda tables they replaced
are kept here as the reference: LINEAR_FORMULAS, MAP_FORMULAS,
APQ_FORMULAS and `formulas_at_powers`, each a function from the fields of a
batch to a list of arrays linear in the map's input x, and `read_formulas`,
the read-off of such functions as `threeweb.tensor.read_off` did it.

`plant_group_without_bol` plants the lattice contradiction that a tol near
roundoff can bring about, which no corpus web shows at a fixed tol on
every BLAS build.
"""

import itertools
import math
import operator

import numpy as np

from threeweb import classify
from threeweb.classify import IdentityVerdict
from threeweb.expr import (Add, Const, Div, EvalError, Exp, Ln, Mul, Neg,
                           ParamRef, Pow, Sub, Var, VARIABLES, _nan_where,
                           _overflow_to_nan, _value_code, compile_program,
                           format_expr)
from threeweb.jet import (DEGREE, INDEX, MULTI, NCOEFF, NVARS, Jet,
                          _FACTORIAL, _UNIT, _VARS, _jet, _power_bits)
from threeweb.tensor import _AT_UNITS, sym3_lower

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


def partial(c, alpha):
    """The partial derivative d^alpha F at the expansion point of the jet
    whose coefficients are c (..., 35)."""
    i = INDEX[tuple(alpha)]  # KeyError for |alpha| > 3 is right
    return c[..., i] * _FACTORIAL[i]


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


def _horner(coeffs, t):
    """sum_k coeffs[k] t^k by Horner's rule."""
    out = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        out = out * t + c
    return out


def _hexagonality_coefficients(snap):
    """The coefficients of the two cubic hexagonality polynomials in t, each
    a list from t^0 up.  `snap` is a TensorSnapshot at one point, or at N
    for per-row values."""
    # the tensor indices first: b[i, j, k, l] is then a number, or an array
    # over the rows of a batch
    sym, b = (np.moveaxis(x, range(-4, 0), range(4))
              for x in (sym3_lower(snap.b), snap.b))
    return [[b[i, 1, 1, 1], -3.0 * sym[i, 0, 1, 1], 3.0 * sym[i, 0, 0, 1],
             -b[i, 0, 0, 0]] for i in (0, 1)]


def hexagonality_polynomials(snap, t):
    """The quartic and the two cubic hexagonality polynomials at t.

    `snap` is a TensorSnapshot at one point, or at N for per-row values.
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


def _balance(s):
    g = s.gamma[:, 0] + s.gamma[:, 1]
    return [g[:, :, 0] - g[:, :, 1], g[:, 0] - g[:, 1]]


LINEAR_FORMULAS = {
    "isoclinic": lambda s: [s.p[:, 0, 1] - s.p[:, 1, 0],
                            s.q[:, 0, 1] - s.q[:, 1, 0]],
    "isoclinicly_geodesic": lambda s: [s.a_cov],
    "transversally_geodesic": lambda s: [s.a4],
    "almost_algebraizable": lambda s: [s.f2 + s.g2 + s.h2],
    "almost_Bol": lambda s: [s.f2 + s.g2, s.h2],
    "almost_parallelizable": lambda s: [s.f2, s.g2, s.h2],
    "a1_zero": lambda s: [s.a_cov[:, 0]],
    "a2_zero": lambda s: [s.a_cov[:, 1]],
    "a1_eq_a2": lambda s: [s.a_cov[:, 0] - s.a_cov[:, 1]],
    "omega21_zero": lambda s: [s.gamma[:, 0, 0, 1], s.gamma[:, 0, 1]],
    "omega12_zero": lambda s: [s.gamma[:, 1, 0], s.gamma[:, 1, 1, 0]],
    "p22_q22_zero": lambda s: [s.p[:, 1, 1], s.q[:, 1, 1]],
    "p11_q11_zero": lambda s: [s.p[:, 0, 0], s.q[:, 0, 0]],
    "pq_quadsum_zero": lambda s: [m[:, 0, 0] - m[:, 0, 1] - m[:, 1, 0]
                                  + m[:, 1, 1] for m in (s.p, s.q)],
    "b_222_zero": lambda s: [s.b[:, :, 1, 1, 1]],
    "b_111_zero": lambda s: [s.b[:, :, 0, 0, 0]],
    "omega_balance": _balance,
    "hex_at_1": lambda s: [_horner(cubic, 1.0)
                           for cubic in _hexagonality_coefficients(s)],
    "e_p_zero": lambda s: [s.p],
    "e_q_zero": lambda s: [s.q],
    "e_p11": lambda s: [s.p[:, 0, 0]],
    "e_p12": lambda s: [s.p[:, 0, 1], s.p[:, 1, 0]],
    "e_p22": lambda s: [s.p[:, 1, 1]],
    "e_q11": lambda s: [s.q[:, 0, 0]],
    "e_q12": lambda s: [s.q[:, 0, 1], s.q[:, 1, 0]],
    "e_q22": lambda s: [s.q[:, 1, 1]],
    "e_pq_sum": lambda s: [s.p + s.q],
    "e_p22_plus_q22": lambda s: [s.p[:, 1, 1] + s.q[:, 1, 1]],
    "e_p11_plus_q11": lambda s: [s.p[:, 0, 0] + s.q[:, 0, 0]],
}

MAP_FORMULAS = {
    **{name: lambda s, name=name: [getattr(s, name)]
       for name in ("torsion", "b", "f2", "g2", "h2", "a4", "a_cov", "p",
                    "q")},
    "pq_asym": lambda s: [m[:, 0, 1] - m[:, 1, 0] for m in (s.p, s.q)]}

APQ_FORMULAS = {"apq": lambda s: [s.a_cov, s.p, s.q]}


def formulas_at_powers(s):
    """The tests at a constant t by power of t: for each of t^0..t^3, the
    coefficients of the frame-alignment identity, then of hexagonality at
    t."""
    ws = (s.gamma.swapaxes(2, 3), s.gamma)
    frame = ([w[:, 0, 1] for w in ws], [w[:, 1, 1] - w[:, 0, 0] for w in ws],
             [-w[:, 1, 0] for w in ws], [0.0 * w[:, 1, 0] for w in ws])
    cubics = _hexagonality_coefficients(s)
    return [frame[k] + [cubic[k] for cubic in cubics] for k in range(4)]


def read_formulas(tests, fields=None):
    """The matrix (104, C) of the formulas `tests` at `fields`, the fields
    at the unit vectors of x, and each test's first column.  By default
    they are read off the unit fields of `threeweb.tensor._tail` and made
    exact: each pair of rows of the two orders of a product of two gammas
    averaged, and every entry rounded to a multiple of 1/144."""
    blocks = [np.concatenate([np.reshape(c, (104, -1)) for c in components(
                  _AT_UNITS if fields is None else fields)], 1)
              for components in tests.values()]
    starts = np.cumsum([0] + [b.shape[1] for b in blocks[:-1]])
    matrix = np.concatenate(blocks, 1)
    if fields is None:
        pairs = matrix[40:].reshape(8, 8, -1)
        matrix[40:] = ((pairs + pairs.swapaxes(0, 1)) / 2.0).reshape(64, -1)
        matrix = np.round(matrix * 144.0) / 144.0
    return matrix, starts


def evaluate(e, point, params=None):
    """Evaluate at point = (x1, x2, y1, y2); params maps names to floats.

    Raises EvalError where the value runner gives NaN: outside the domain
    of ln or of a division, where exp or a power overflows, or at inf - inf.
    """
    program = compile_program((e,), _value_code)
    with np.errstate(all="ignore"):
        (v,) = program.run(np.asarray(point, dtype=float), params or {})
    if v != v:
        raise EvalError("%s is undefined at %s" % (format_expr(e),
                                                   tuple(point)))
    return float(v)


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
    return 1.0 / _nan_where(x == 0.0, x)


def _ln(x):
    if isinstance(x, Jet):
        return x.ln()
    return np.log(_nan_where(x <= 0.0, x))


def _exp(x):
    return x.exp() if isinstance(x, Jet) else _overflow_to_nan(np.exp(x), x)


def _int_pow(x, k):
    """x^k for an int k, on a Jet by binary powers in the order of
    `jet._power_bits`, the constant 1 for k = 0; on a float by numpy's **,
    NaN where it overflows or, for k = 0, where x is NaN."""
    if not isinstance(k, int):
        raise EvalError("jet powers must have integer exponents")
    if k < 0:
        x, k = _reciprocal(x), -k
    if not isinstance(x, Jet):
        if k == 0:
            return _nan_where(x != x, 1.0)
        return _overflow_to_nan(np.float64(x) ** k, x)
    if k == 0:
        return x * 0.0 + 1.0
    out = x
    for times in _power_bits(k):
        out = out * out
        if times:
            out = out * x
    return out


def _checked(out, e):
    """A Jet as it is; a float as a Python float, or EvalError naming the
    constant `e` where it is not finite."""
    if isinstance(out, Jet):
        return out
    out = float(out)
    if not math.isfinite(out):
        raise EvalError("the constant %s is %r" % (format_expr(e), out))
    return out


# node type -> how the lifts of its operands combine
_LIFT_BINARY = {Add: operator.add, Sub: operator.sub, Mul: operator.mul}
_LIFT_UNARY = {Neg: operator.neg, Exp: _exp, Ln: _ln}


def _lift(e, vars_, params):
    """The Jet of `e`, or a float where `e` holds no variable.  A float
    that is not finite raises EvalError naming its subexpression."""
    kind = type(e)
    if kind in _LIFT_BINARY:
        out = _LIFT_BINARY[kind](_lift(e.left, vars_, params),
                                 _lift(e.right, vars_, params))
    elif kind is Div:
        out = _lift(e.left, vars_, params) * _checked(
            _reciprocal(_lift(e.right, vars_, params)), Pow(e.right, -1))
    elif kind in _LIFT_UNARY:
        out = _LIFT_UNARY[kind](_lift(e.arg, vars_, params))
    elif kind is Var:
        return vars_[e.name]
    elif kind is Const:
        out = e.value
    elif kind is Pow:
        base, k = _lift(e.base, vars_, params), e.exponent
        if isinstance(k, int) and k < 0:
            base, k = _checked(_reciprocal(base), Pow(e.base, -1)), -k
        out = _int_pow(base, k)
    elif kind is ParamRef:
        try:
            out = params[e.name]
        except KeyError:
            raise EvalError("parameter %r is unbound" % e.name) from None
    else:
        raise TypeError("not an expression node: %r" % (e,))
    return _checked(out, e)


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


def plant_group_without_bol(monkeypatch):
    """Make every classification's almost_Bol, and so Bol, fail at twice
    tol, beside its other verdicts.  f2, g2 and h2 can each be below tol
    where f2 + g2 is not, so group can hold beside them."""
    verdicts = classify._verdicts

    def planted(snaps, tol):
        table, t0, frame = verdicts(snaps, tol)
        for name in ("almost_Bol", "Bol"):
            table[name] = IdentityVerdict(False, 2 * tol, len(snaps),
                                          tuple(snaps.points[0]))
        return table, t0, frame

    monkeypatch.setattr(classify, "_verdicts", planted)

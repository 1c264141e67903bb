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

`hexagonality_polynomials` adds the quartic hexagonality polynomial to the
two cubics that `threeweb.classify` tests, as their linear-dependence
oracle.
"""

import itertools

import numpy as np

from threeweb.classify import _hexagonality_coefficients, _horner
from threeweb.jet import DEGREE, INDEX, MULTI, NCOEFF, _FACTORIAL, _jet
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

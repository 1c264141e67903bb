import math

import numpy as np
import pytest

from oracles import partial_fd, rel_err
from threeweb.corpus import load_example
from threeweb.expr import EvalError, Var, evaluate, parse_web
from threeweb.jet import MULTI, NCOEFF, Jet, _int_pow, jet_lift

RNG = np.random.default_rng(2024)


def _random_jet(scale=1.0, positive=False):
    c = RNG.uniform(-scale, scale, NCOEFF)
    if positive:
        c[0] = abs(c[0]) + 0.5
    return Jet(c)


def _close(a, b, tol=1e-10):
    scale = max(1.0, np.max(np.abs(a.c)), np.max(np.abs(b.c)))
    return np.max(np.abs(a.c - b.c)) <= tol * scale


def test_constant_and_variable_seeds():
    j = Jet.constant(7.0)
    assert j.value == 7.0
    assert j.partial((1, 0, 0, 0)) == 0.0
    v = jet_lift(Var("y1"), (0.0, 0.0, 1.5, 0.0))
    assert v.value == 1.5
    assert v.partial((0, 0, 1, 0)) == 1.0
    assert v.partial((0, 0, 2, 0)) == 0.0


def test_polynomial_partials_are_exact():
    # u = x1^2*x2 + 3*x1*y1*y2 - y2^3; every third partial is known.
    web = parse_web("u1 = x1^2*x2 + 3*x1*y1*y2 - y2^3\nu2 = x2\n")
    x1, x2, y1, y2 = 1.5, -0.5, 2.0, 0.75
    j = jet_lift(web.u1, (x1, x2, y1, y2))
    assert j.value == pytest.approx(x1 * x1 * x2 + 3 * x1 * y1 * y2
                                      - y2 ** 3, rel=1e-14)
    assert j.partial((1, 0, 0, 0)) == pytest.approx(2 * x1 * x2 + 3 * y1 * y2)
    assert j.partial((2, 0, 0, 0)) == pytest.approx(2 * x2)
    assert j.partial((2, 1, 0, 0)) == pytest.approx(2.0)
    assert j.partial((1, 0, 1, 1)) == pytest.approx(3.0)
    assert j.partial((0, 0, 0, 3)) == pytest.approx(-6.0)
    assert j.partial((0, 3, 0, 0)) == 0.0


def test_reciprocal_inverts():
    one = Jet.constant(1.0)
    for _ in range(20):
        j = _random_jet(positive=True)
        assert _close(j * j.reciprocal(), one)


def test_exp_ln_are_inverse():
    for _ in range(20):
        j = _random_jet(positive=True)
        assert _close(j.ln().exp(), j)
        assert _close(j.exp().ln(), j)


def test_int_pow_matches_repeated_product():
    for _ in range(10):
        j = _random_jet(positive=True)
        assert _close(_int_pow(j, 3), j * j * j)
        assert _close(_int_pow(j, 1), j)
        assert _int_pow(j, 0) == 1.0
        assert _close(_int_pow(j, -2), (j * j).reciprocal(), tol=1e-8)


def test_error_cases():
    zero_front = Jet.constant(0.0)
    with pytest.raises(EvalError):
        zero_front.reciprocal()
    with pytest.raises(EvalError):
        Jet.constant(-1.0).ln()
    with pytest.raises(EvalError):
        Jet.constant(0.0).ln()
    with pytest.raises(EvalError):
        _int_pow(zero_front, -1)
    with pytest.raises(EvalError):
        Jet.constant(2.0) / 0.0


# Webs with enough variety to exercise every operator: rational, exp, powers.
_FD_CASES = [
    (1, (1.0, 1.0, 0.0, 1.0)),
    (1, (2.0, 1.0, -1.0, 3.0)),
    (7, (1.0, 1.0, 2.0, 3.0)),
    (7, (0.5, 2.0, 2.5, -3.0)),
    (10, (1.0, 1.0, 0.0, 0.0)),
    (10, (0.5, 2.0, 1.0, -1.0)),
    (12, (1.0, 1.0, 2.0, 2.0)),
    (13, (2.0, 1.0, 0.5, 3.0)),
]


@pytest.mark.parametrize("index,point", _FD_CASES)
def test_partials_match_finite_differences(index, point):
    entry = load_example(index)
    web = entry.web
    for expr in (web.u1, web.u2):
        j = jet_lift(expr, point)

        def f(pt, _e=expr):
            return evaluate(_e, pt)

        for alpha in MULTI:
            if sum(alpha) == 0:
                continue
            want = partial_fd(f, point, alpha)
            got = j.partial(alpha)
            assert rel_err(got, want) < 1e-5, (alpha, got, want)


def test_exp_jet_against_closed_form():
    # exp(x1 + 2*y2) has partials exp(x1 + 2*y2) * 2^(order of y2 part).
    web = parse_web("u1 = exp(x1 + 2*y2)\nu2 = x2\n")
    point = (0.3, 0.0, 0.0, -0.1)
    j = jet_lift(web.u1, point)
    base = math.exp(0.3 + 2 * -0.1)
    for alpha in MULTI:
        if alpha[1] or alpha[2]:
            want = 0.0 if sum(alpha) > 0 else base
            if sum(alpha) == 0:
                continue
            assert j.partial(alpha) == pytest.approx(0.0, abs=1e-12)
        else:
            want = base * 2.0 ** alpha[3]
            assert j.partial(alpha) == pytest.approx(want, rel=1e-12)


# Constant and parameter subtrees fold to floats inside jet_lift.
_FOLDED = parse_web("param k = 1.5\n"
                    "u1 = exp(1)*x1 + x2/4 + 2^3*y1^2 + k*y2\n"
                    "u2 = -(x2 - 3)*y2/(1 + 1) + ln(2)*x1*y1^2 - k^-2*y1\n")


@pytest.mark.parametrize("point", [(0.5, -1.0, 2.0, 0.25),
                                   (-2.0, 1.5, -0.5, 3.0)])
def test_folded_constants_match_finite_differences(point):
    bound = _FOLDED.bind(None)
    for expr in (_FOLDED.u1, _FOLDED.u2):
        j = jet_lift(expr, point, bound)
        batch = jet_lift(expr, np.array([point, point]), bound)
        assert np.array_equal(batch.c, np.stack([j.c, j.c]))

        def f(pt, _e=expr):
            return evaluate(_e, pt, bound)

        assert j.value == pytest.approx(f(point), rel=1e-14)
        for alpha in MULTI[1:]:
            want = partial_fd(f, point, alpha)
            assert rel_err(j.partial(alpha), want) < 1e-5, (alpha, want)


@pytest.mark.parametrize("text", ["u1 = x1 + ln(0 - 1)\nu2 = x2\n",
                                  "u1 = x1 / (2 - 2)\nu2 = x2\n",
                                  "u1 = x1 * (2 - 2)^-1\nu2 = x2\n"])
def test_folded_constant_outside_its_domain_raises(text):
    web = parse_web(text)
    with pytest.raises(EvalError):
        jet_lift(web.u1, (1.0, 2.0, 3.0, 4.0))
    with pytest.raises(EvalError):
        jet_lift(web.u1, RNG.uniform(-1.0, 1.0, (5, 4)))


def test_constant_expression_lifts_to_one_row_per_point():
    web = parse_web("u1 = 2*3 + exp(0)\nu2 = x2\n")
    j = jet_lift(web.u1, np.zeros((3, 4)))
    assert j.c.shape == (3, NCOEFF)
    assert np.all(j.c[:, 0] == 7.0) and not j.c[:, 1:].any()


# No corpus web takes ln of a jet; these two, outside the corpus, put every
# series (reciprocal, exp, ln) and negative integer powers through the lift.
_SERIES_WEBS = [
    "u1 = ln(1 + x1^2) * exp(y1) / (2 + x2*y2)\nu2 = (x2 + y1 + 4)^-2 + y2\n",
    "u1 = exp(x1 - y2) / ln(3 + x2^2 + y1^2)\n"
    "u2 = ln(5 + x1*y1 + x2) * (1 + y2^2)^-1\n",
]


@pytest.mark.parametrize("text", _SERIES_WEBS)
def test_series_match_finite_differences(text):
    web = parse_web(text)
    points = np.random.default_rng(7).uniform(-1.0, 1.0, (5, 4))
    batch = jet_lift((web.u1, web.u2), points)
    assert batch.c.shape == (5, 2, NCOEFF)
    for row, point in enumerate(map(tuple, points)):
        j = jet_lift((web.u1, web.u2), point)
        np.testing.assert_allclose(batch.c[row], j.c, rtol=1e-14, atol=0.0)
        for i, expr in enumerate((web.u1, web.u2)):

            def f(pt, _e=expr):
                return evaluate(_e, pt)

            assert j.value[i] == pytest.approx(f(point), rel=1e-14)
            for alpha in MULTI[1:]:
                want = partial_fd(f, point, alpha)
                got = j.partial(alpha)[i]
                assert rel_err(got, want) < 1e-5, (i, alpha, got, want)


@pytest.mark.parametrize("text,message", [
    ("u1 = x1 + ln(0 - 1)\nu2 = x2\n", "ln of a jet with non-positive value"),
    ("u1 = x1 / (2 - 2)\nu2 = x2\n", "jet division by a jet with value"),
    ("u1 = x1 * (2 - 2)^-1\nu2 = x2\n", "jet division by a jet with value"),
])
def test_folded_constant_errors_name_the_operation(text, message):
    web = parse_web(text)
    for point in ((1.0, 2.0, 3.0, 4.0), RNG.uniform(-1.0, 1.0, (5, 4))):
        with pytest.raises(EvalError, match=message):
            jet_lift((web.u1, web.u2), point)

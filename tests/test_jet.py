import contextlib
import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (_eval_rows, _int_pow, constant_jet, dense_product,
                     evaluate, lift_reference, make_jet, naive_eval, partial,
                     partial_fd, rel_err)
from threeweb import jet
from threeweb.corpus import load_example
from threeweb.expr import (Add, Const, Div, EvalError, Exp, Ln, Mul, Neg,
                           ParamRef, Pow, Sub, Var, VARIABLES, _value_code,
                           compile_program, format_expr, parse_web)
from threeweb.jet import DEGREE, MULTI, NCOEFF, jet_lift
from threeweb.tensor import DegenerateWeb, snapshot

RNG = np.random.default_rng(2024)


def _random_jet(scale=1.0, positive=False):
    c = RNG.uniform(-scale, scale, NCOEFF)
    if positive:
        c[0] = abs(c[0]) + 0.5
    return make_jet(c)


def _close(a, b, tol=1e-10):
    scale = max(1.0, np.max(np.abs(a.c)), np.max(np.abs(b.c)))
    return np.max(np.abs(a.c - b.c)) <= tol * scale


def test_constant_and_variable_seeds():
    j = constant_jet(7.0)
    assert j.value == 7.0
    assert partial(j, (1, 0, 0, 0)) == 0.0
    v = jet_lift(Var("y1"), (0.0, 0.0, 1.5, 0.0))
    assert v.value == 1.5
    assert partial(v, (0, 0, 1, 0)) == 1.0
    assert partial(v, (0, 0, 2, 0)) == 0.0


def test_polynomial_partials_are_exact():
    # u = x1^2*x2 + 3*x1*y1*y2 - y2^3; every third partial is known.
    web = parse_web("u1 = x1^2*x2 + 3*x1*y1*y2 - y2^3\nu2 = x2\n")
    x1, x2, y1, y2 = 1.5, -0.5, 2.0, 0.75
    j = jet_lift(web.u1, (x1, x2, y1, y2))
    assert j.value == pytest.approx(x1 * x1 * x2 + 3 * x1 * y1 * y2
                                      - y2 ** 3, rel=1e-14)
    assert partial(j, (1, 0, 0, 0)) == pytest.approx(2 * x1 * x2 + 3 * y1 * y2)
    assert partial(j, (2, 0, 0, 0)) == pytest.approx(2 * x2)
    assert partial(j, (2, 1, 0, 0)) == pytest.approx(2.0)
    assert partial(j, (1, 0, 1, 1)) == pytest.approx(3.0)
    assert partial(j, (0, 0, 0, 3)) == pytest.approx(-6.0)
    assert partial(j, (0, 3, 0, 0)) == 0.0


def test_reciprocal_inverts():
    one = constant_jet(1.0)
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
        assert _close(_int_pow(j, 0), constant_jet(1.0))
        assert _close(_int_pow(j, -2), (j * j).reciprocal(), tol=1e-8)


def test_error_cases():
    zero_front = constant_jet(0.0)
    with pytest.raises(EvalError):
        zero_front.reciprocal()
    with pytest.raises(EvalError):
        constant_jet(-1.0).ln()
    with pytest.raises(EvalError):
        constant_jet(0.0).ln()
    with pytest.raises(EvalError):
        _int_pow(zero_front, -1)


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
            got = partial(j, alpha)
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
            assert partial(j, alpha) == pytest.approx(0.0, abs=1e-12)
        else:
            want = base * 2.0 ** alpha[3]
            assert partial(j, alpha) == pytest.approx(want, rel=1e-12)


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
            assert rel_err(partial(j, alpha), want) < 1e-5, (alpha, want)


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
                got = partial(j, alpha)[i]
                assert rel_err(got, want) < 1e-5, (i, alpha, got, want)


@pytest.mark.parametrize("text,message", [
    ("u1 = x1 + ln(0 - 1)\nu2 = x2\n", "the constant ln(0.0 - 1.0) is nan"),
    ("u1 = x1 / (2 - 2)\nu2 = x2\n", "the constant (2.0 - 2.0)^-1 is nan"),
    ("u1 = x1 * (2 - 2)^-1\nu2 = x2\n", "the constant (2.0 - 2.0)^-1 is nan"),
    # the reciprocal overflows, and x1 times it would be an inf jet
    ("u1 = x1 / 1e-320 + y1\nu2 = x2 + y2\n", "the constant 1e-320^-1 is inf"),
    # the value runner makes an overflowing exp or power NaN
    ("u1 = x1 * exp(1000)\nu2 = x2\n", "the constant exp(1000.0) is nan"),
    ("u1 = x1 * 1e200^2\nu2 = x2\n", "the constant 1e+200^2 is nan"),
])
def test_folded_constant_errors_name_the_constant(text, message):
    web = parse_web(text)
    for point in ((1.0, 2.0, 3.0, 4.0), RNG.uniform(-1.0, 1.0, (5, 4))):
        with pytest.raises(EvalError) as info:
            jet_lift((web.u1, web.u2), point)
        assert str(info.value) == message


# --- the degree-aware product -------------------------------------------

_TOTAL = np.array([sum(alpha) for alpha in MULTI])
_DEGREES = list(itertools.product(range(1, DEGREE + 1), repeat=2))


def _coeffs_of_degree(shape, deg):
    """Random coefficients (shape + (35,)) that vanish above total degree
    `deg`, each row at its own scale between 1e-3 and 1e3."""
    scale = 10.0 ** RNG.uniform(-3.0, 3.0, shape + (1,))
    return RNG.uniform(-1.0, 1.0, shape + (NCOEFF,)) * scale * (_TOTAL <= deg)


@pytest.mark.parametrize("shape", [(), (40,)])
@pytest.mark.parametrize("d1,d2", _DEGREES)
def test_degree_pair_product_matches_the_dense_product(d1, d2, shape):
    a = make_jet(_coeffs_of_degree(shape, d1), d1)
    b = make_jet(_coeffs_of_degree(shape, d2), d2)
    got = a * b
    want = dense_product(a.c, b.c)
    scale = dense_product(np.abs(a.c), np.abs(b.c)).max(-1, keepdims=True)
    assert got.deg == min(DEGREE, d1 + d2)
    assert got.c.shape == want.shape
    assert np.all(np.abs(got.c - want) <= 1e-15 * scale)
    assert not got.c[..., _TOTAL > got.deg].any()


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("d1,d2", _DEGREES)
def test_non_finite_factor_poisons_the_product_row(d1, d2, bad):
    # one row per coefficient of either factor at or below its degree, with
    # the non-finite value planted there; the last row stays finite
    slots = ([(0, i) for i in np.flatnonzero(_TOTAL <= d1)]
             + [(1, j) for j in np.flatnonzero(_TOTAL <= d2)])
    n = len(slots) + 1
    a, b = _coeffs_of_degree((n,), d1), _coeffs_of_degree((n,), d2)
    for row, (factor, index) in enumerate(slots):
        (a, b)[factor][row, index] = bad
    with np.errstate(all="ignore"):
        prod = (make_jet(a, d1) * make_jet(b, d2)).c
        assert not np.isfinite(prod[:-1]).all(axis=1).any()
        assert np.isfinite(prod[-1]).all()
        for row in range(n):  # one jet at a time
            one = (make_jet(a[row], d1) * make_jet(b[row], d2)).c
            assert np.isfinite(one).all() == (row == n - 1)


@contextlib.contextmanager
def _full_tables():
    """Every product reads all 165 pairs, as if every degree were 3."""
    saved = jet._PAIRS
    jet._PAIRS = {key: saved[DEGREE, DEGREE] for key in saved}
    try:
        yield
    finally:
        jet._PAIRS = saved


def _assert_degree(c, deg):
    """On the rows of c that are finite, its coefficients above total
    degree `deg` vanish."""
    finite = np.isfinite(c).all(axis=-1)
    assert not c[finite][..., _TOTAL > deg].any(), deg


@contextlib.contextmanager
def _checked_degrees():
    """Every step the jet runner compiles asserts its degree on the jet it
    computes, and so does every Jet built."""
    build, step = jet._jet, jet._jet_step

    def checked_build(c, deg):
        _assert_degree(c, deg)
        return build(c, deg)

    def checked_step(s, degrees):
        fn, deg = step(s, degrees)
        if not deg:  # a float
            return fn, deg

        def checked(vals, seeds, params):
            c = fn(vals, seeds, params)
            _assert_degree(c, deg)
            return c

        return checked, deg

    jet._jet, jet._jet_step = checked_build, checked_step
    try:
        yield
    finally:
        jet._jet, jet._jet_step = build, step


_PARAMS = {"k": 1.5, "mu": -2.0}


def _tree_strategy():
    """Trees over the variables, constants (1e200 among them, so that some
    folds overflow) and the parameters of _PARAMS, in which binary nodes
    often take one subtree twice."""
    leaves = st.one_of(st.sampled_from(["x1", "x2", "y1", "y2"]).map(Var),
                       st.sampled_from([1.0, 2.0, 0.5, -3.0, 1e200]).map(Const),
                       st.sampled_from(sorted(_PARAMS)).map(ParamRef))

    def extend(children):
        pair = st.tuples(children, children, st.booleans()).map(
            lambda t: (t[0], t[0]) if t[2] else t[:2])
        return st.one_of(
            *(pair.map(lambda t, node=node: node(*t))
              for node in (Add, Sub, Mul, Div)),
            children.map(Neg), children.map(Exp), children.map(Ln),
            st.tuples(children, st.integers(-3, 3)).map(lambda t: Pow(*t)))

    return st.recursive(leaves, extend, max_leaves=16)


def _pair_strategy():
    """Two trees, which often have a third as a common subtree."""
    tree = _tree_strategy()
    return st.one_of(st.tuples(tree, tree), st.tuples(tree, tree, tree).map(
        lambda t: (Mul(t[0], t[2]), Div(t[1], t[2]))))


# rows with zeros and negatives, so that ln and division leave some rows
# outside their domain
_TREE_POINTS = np.vstack([np.random.default_rng(5).uniform(-2.0, 2.0, (6, 4)),
                          [[0.0, 1.0, -1.0, 0.5], [1.0, 0.0, 0.0, -2.0]]])


def _outcome(lift, *args):
    """lift(*args) as bytes, or the message of the EvalError it raises."""
    try:
        return np.asarray(lift(*args)).tobytes()
    except EvalError as err:
        return "EvalError: %s" % err


@settings(max_examples=300, deadline=None)
@given(_pair_strategy())
def test_lift_matches_the_lift_with_every_degree_three(exprs):
    # the degree bounds hold on every step's jet, and the lift that relies
    # on them equals the lift that reads every pair
    def lift(points):
        try:
            return jet_lift(exprs, points, _PARAMS).c
        except EvalError:  # a folded constant outside its domain
            return None

    for points in (_TREE_POINTS, _TREE_POINTS[0]):
        with _checked_degrees():
            got = lift(points)
        with _full_tables():
            want = lift(points)
        assert (got is None) == (want is None)
        if got is None:
            continue
        finite = np.isfinite(got).all(axis=(-2, -1))
        assert np.array_equal(finite, np.isfinite(want).all(axis=(-2, -1)))
        got, want = got[finite], want[finite]
        scale = np.maximum(1.0, np.abs(want).max(axis=(-2, -1), keepdims=True))
        assert np.all(np.abs(got - want) <= 1e-13 * scale)


@settings(max_examples=300, deadline=None)
@given(_pair_strategy())
def test_compiled_lift_matches_the_tree_walk_bit_for_bit(exprs):
    # at each point: the same coefficients or the same EvalError; on the
    # batch: the same coefficients, NaN rows included
    def compiled(points):
        return jet_lift(exprs, points, _PARAMS).c

    for point in _TREE_POINTS:
        assert (_outcome(compiled, point)
                == _outcome(lift_reference, exprs, point, _PARAMS))
    assert (_outcome(compiled, _TREE_POINTS)
            == _outcome(lift_reference, exprs, _TREE_POINTS, _PARAMS))


def _evaluate_reference(e, point, params):
    """`evaluate` over the tree walk `_eval_rows`."""
    with np.errstate(all="ignore"):
        v = _eval_rows(e, dict(zip(VARIABLES, np.asarray(point))), params)
    if v != v:
        raise EvalError("%s is undefined at %s" % (format_expr(e),
                                                   tuple(point)))
    return float(v)


@settings(max_examples=300, deadline=None)
@given(_pair_strategy())
def test_compiled_values_match_the_tree_walk_bit_for_bit(exprs):
    # at each point: the value or the EvalError of the tree walk, and the
    # value of the independent evaluator; on the batch: the same values,
    # NaN rows included
    for point in _TREE_POINTS:
        env = dict(zip(VARIABLES, point.tolist()), **_PARAMS)
        for e in exprs:
            got = _outcome(evaluate, e, point, _PARAMS)
            assert got == _outcome(_evaluate_reference, e, point, _PARAMS)
            try:
                want = naive_eval(e, env)
            except (ArithmeticError, ValueError):
                continue
            if math.isfinite(want):
                assert evaluate(e, point, _PARAMS) == pytest.approx(
                    want, rel=1e-12, abs=1e-12)
    cols = dict(zip(VARIABLES, _TREE_POINTS.T))
    with np.errstate(all="ignore"):
        got = compile_program(exprs, _value_code).run(_TREE_POINTS.T, _PARAMS)
        want = [_eval_rows(e, cols, _PARAMS) for e in exprs]
    for g, w in zip(got, want):
        assert type(g) is type(w)
        assert np.asarray(g).tobytes() == np.asarray(w).tobytes()


@pytest.mark.parametrize("index", [4, 6])
def test_u1_and_u2_share_one_reciprocal(index):
    program = load_example(index).web.lift_program
    assert [s.op for s in program.steps].count("reciprocal") == 1


@settings(max_examples=100, deadline=None)
@given(_pair_strategy())
def test_every_step_of_a_lift_has_its_node(exprs):
    # so one rule can name every constant that is not finite: a reciprocal
    # step's node is b^-1, b the node of its operand's step
    program = jet.compile_lift(exprs)
    for step in program.steps:
        assert step.node is not None
        if step.op == "reciprocal":
            (a,) = step.args
            assert step.node == Pow(program.steps[a].node, -1)
    assert [program.steps[slot].node for slot in program.outputs] == list(
        exprs)


def test_unbound_parameter_is_the_first_error_met_in_the_walk():
    # the walk meets 1/x1 at x1 = 0 before the unbound parameter
    exprs = (Div(Const(1.0), Var("x1")), Mul(ParamRef("k"), Var("x2")))
    point = (0.0, 1.0, 2.0, 3.0)
    want = _outcome(lift_reference, exprs, point, {})
    assert want.startswith("EvalError: jet division")
    assert _outcome(lambda: jet_lift(exprs, point, {}).c) == want
    with pytest.raises(EvalError, match="parameter 'k' is unbound"):
        jet_lift(exprs[::-1], point, {})


@pytest.mark.parametrize("exponent", ["100000", "1000000000", "-1000000000"])
def test_a_huge_exponent_ends_quickly(exponent):
    # binary powers: 2 log2(k) products, not |k| - 1
    web = parse_web("u1 = x1 + y1*(1 + x2*y2/1000)^%s\nu2 = x2 + y2 + x1*y1\n"
                    % exponent)
    start = time.perf_counter()
    for point in ((0.5, 0.01, 1.5, 0.02), (0.5, 1.0, 1.5, 2.0)):
        try:  # a result, or an error that names the point
            snapshot(web, point)
        except (EvalError, DegenerateWeb):
            pass
    assert time.perf_counter() - start < 1.0


def test_a_long_sum_lifts():
    # the compiler keeps its own stack, where the tree walk recursed once
    # per term and exhausted Python's
    web = parse_web("u1 = %s\nu2 = x2*y2\n" % " + ".join(["x1*y1"] * 3000))
    assert snapshot(web, (1.0, 2.0, 3.0, 4.0)).det_bar == 3000 * 3.0 * 4.0

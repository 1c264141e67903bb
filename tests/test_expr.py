import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threeweb.corpus import load_corpus
from threeweb.expr import (
    Add,
    Const,
    Div,
    EvalError,
    Exp,
    Ln,
    Mul,
    Neg,
    ParamRef,
    ParseError,
    Pow,
    Sub,
    Var,
    evaluate,
    format_expr,
    format_web,
    parse_web,
)

# Constants whose repr survives the tokenizer unchanged.
_SAFE_CONSTS = [0.0, 1.0, 2.0, 0.5, 2.25, 3.75, 10.0]


def _expr_strategy(with_params=False):
    leaf_pool = [
        st.sampled_from(["x1", "x2", "y1", "y2"]).map(Var),
        st.sampled_from(_SAFE_CONSTS).map(Const),
        st.just(Const(math.e)),
    ]
    if with_params:
        leaf_pool.append(st.sampled_from(["k", "mu"]).map(ParamRef))
    leaves = st.one_of(*leaf_pool)

    def extend(children):
        pair = st.tuples(children, children)
        return st.one_of(
            pair.map(lambda t: Add(*t)),
            pair.map(lambda t: Sub(*t)),
            pair.map(lambda t: Mul(*t)),
            pair.map(lambda t: Div(*t)),
            children.map(Neg),
            children.map(Exp),
            children.map(Ln),
            st.tuples(children, st.integers(-4, 4)).map(
                lambda t: Pow(t[0], t[1])),
        )

    return st.recursive(leaves, extend, max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(_expr_strategy())
def test_expression_round_trip(expr):
    text = "u1 = %s\nu2 = x2\n" % format_expr(expr)
    assert parse_web(text).u1 == expr


@settings(max_examples=100, deadline=None)
@given(_expr_strategy(with_params=True))
def test_expression_round_trip_with_params(expr):
    text = ("param k = 1.5\nparam mu = -2.0\n"
            "u1 = %s\nu2 = x2\n" % format_expr(expr))
    assert parse_web(text).u1 == expr


def test_corpus_files_round_trip():
    for entry in load_corpus():
        again = parse_web(format_web(entry.web), name=entry.name)
        assert again == entry.web, entry.name


def _naive(e, env):
    # A second evaluator, written independently of expr._eval_rows, used
    # purely as a differential-testing oracle.
    if isinstance(e, Const):
        return e.value
    if isinstance(e, (Var, ParamRef)):
        return env[e.name]
    if isinstance(e, Neg):
        return -_naive(e.arg, env)
    if isinstance(e, Exp):
        return math.exp(_naive(e.arg, env))
    if isinstance(e, Ln):
        return math.log(_naive(e.arg, env))
    if isinstance(e, Add):
        return _naive(e.left, env) + _naive(e.right, env)
    if isinstance(e, Sub):
        return _naive(e.left, env) - _naive(e.right, env)
    if isinstance(e, Mul):
        return _naive(e.left, env) * _naive(e.right, env)
    if isinstance(e, Div):
        return _naive(e.left, env) / _naive(e.right, env)
    if isinstance(e, Pow):
        return _naive(e.base, env) ** e.exponent
    raise TypeError(e)


@settings(max_examples=200, deadline=None)
@given(_expr_strategy(),
       st.tuples(*[st.floats(-2, 2, allow_nan=False)] * 4))
def test_evaluation_matches_independent_evaluator(expr, point):
    env = dict(zip(("x1", "x2", "y1", "y2"), point))
    try:
        want = _naive(expr, env)
    except (ArithmeticError, ValueError):
        with pytest.raises((EvalError, OverflowError)):
            evaluate(expr, point)
        return
    if not math.isfinite(want):
        return
    got = evaluate(expr, point)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_comments_and_blank_lines_are_ignored():
    web = parse_web("# heading\n\nu1 = x1 + y1  # trailing\n\nu2 = x2 * y2\n")
    assert evaluate(web.u1, (1.0, 0.0, 2.0, 0.0)) == 3.0


def test_domain_kinds():
    web = parse_web("u1 = x1\nu2 = x2\ndomain x1 != 0\ndomain x2 > 0\n")
    kinds = [c.kind for c in web.constraints]
    assert kinds == ["nonzero", "positive"]


@pytest.mark.parametrize("text,line", [
    ("u2 = x2\n", 2),        # missing u1 is reported at end of input
    ("u1 = x1\n", 2),        # likewise missing u2
    ("u1 = x1\nu1 = x2\nu2 = y1\n", 2),            # duplicate
    ("u1 = x1 +\nu2 = x2\n", 1),                   # dangling operator
    ("u1 = x1\nu2 = x2\ndomain x1\n", 3),          # no comparison
    ("u1 = x1\nu2 = x2\ndomain x1 != 1\n", 3),     # nonzero RHS
    ("u1 = bogus\nu2 = x2\n", 1),                  # unknown identifier
    ("param x1 = 2\nu1 = x1\nu2 = x2\n", 1),       # reserved name
    ("param k = 1\nparam k = 2\nu1 = x1\nu2 = x2\n", 2),
    ("param k = x1\nu1 = x1\nu2 = x2\n", 1),       # non-numeric value
    ("u1 = x1^y1\nu2 = x2\n", 1),                  # non-integer exponent
    ("u1 = x1^1.5\nu2 = x2\n", 1),
    ("frob = x1\nu1 = x1\nu2 = x2\n", 1),          # unknown line head
])
def test_parse_errors_carry_position(text, line):
    with pytest.raises(ParseError) as info:
        parse_web(text)
    assert info.value.line == line
    assert info.value.col >= 1


def test_param_defaults_and_overrides():
    web = parse_web("param k = 2\nu1 = k * x1\nu2 = x2\n")
    assert web.bind() == {"k": 2.0}
    assert web.bind({"k": 5}) == {"k": 5.0}
    with pytest.raises(EvalError):
        web.bind({"nope": 1.0})
    assert evaluate(web.u1, (3.0, 0.0, 0.0, 0.0), web.bind({"k": 5})) == 15.0


def test_unbound_parameter_fails_at_evaluation():
    with pytest.raises(EvalError):
        evaluate(ParamRef("k"), (0.0, 0.0, 0.0, 0.0))


def test_evaluate_error_cases():
    point = (1.0, 0.0, 0.0, 0.0)
    with pytest.raises(EvalError):
        evaluate(Div(Const(1.0), Var("x2")), point)
    with pytest.raises(EvalError):
        evaluate(Ln(Neg(Var("x1"))), point)
    with pytest.raises(EvalError):
        evaluate(Pow(Var("x2"), -1), point)


def test_admissibility_margin():
    web = parse_web("u1 = x1\nu2 = x2\ndomain x1 != 0\ndomain x2 > 0\n")
    assert web.admissible((1.0, 1.0, 0.0, 0.0))
    # inside the default 1e-3 margin of the nonzero constraint
    assert not web.admissible((5e-4, 1.0, 0.0, 0.0))
    # positive constraint needs value > margin, not merely > 0
    assert not web.admissible((1.0, 5e-4, 0.0, 0.0))
    assert web.admissible((5e-4, 1.0, 0.0, 0.0), margin=1e-5)
    broken = web.violated_constraint((0.0, 1.0, 0.0, 0.0))
    assert broken is not None and "x1 != 0" in broken
    assert web.violated_constraint((1.0, 1.0, 0.0, 0.0)) is None


def _constraint_strategy():
    return st.tuples(_expr_strategy(), st.sampled_from(["!=", ">"])).map(
        lambda t: "domain %s %s 0\n" % (format_expr(t[0]), t[1]))


@settings(max_examples=100, deadline=None)
@given(st.lists(_constraint_strategy(), min_size=1, max_size=3),
       st.lists(st.tuples(*[st.floats(-2, 2, allow_nan=False)] * 4),
                min_size=1, max_size=8))
def test_mask_and_named_constraint_agree(constraints, rows):
    web = parse_web("u1 = x1\nu2 = x2\n" + "".join(constraints))
    rows = np.array(rows)
    want = [web.violated_constraint(r) is None for r in rows]
    assert web.admissible(rows).tolist() == want
    first_bad = want.index(False) if False in want else None
    named = web.violated_constraint(rows)
    if first_bad is None:
        assert named is None
    else:
        assert named.startswith("row %d " % first_bad)


def test_parsed_webs_compare_structurally():
    text = "u1 = x1 + y1\nu2 = x2 * y2\ndomain x2 != 0\n"
    assert parse_web(text, name="a") == parse_web(text, name="a")
    assert parse_web(text, name="a") != parse_web(text, name="b")

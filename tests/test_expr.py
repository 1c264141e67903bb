import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import evaluate, naive_eval
from threeweb.corpus import load_corpus
from threeweb.jet import jet_lift
from threeweb.expr import (
    Add,
    Const,
    Div,
    EvalError,
    Exp,
    Ln,
    Mul,
    Neg,
    Node,
    ParamRef,
    ParseError,
    Pow,
    Sub,
    Var,
    Web,
    compile_program,
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


@settings(max_examples=200, deadline=None)
@given(_expr_strategy(),
       st.tuples(*[st.floats(-2, 2, allow_nan=False)] * 4))
def test_evaluation_matches_independent_evaluator(expr, point):
    env = dict(zip(("x1", "x2", "y1", "y2"), point))
    try:
        want = naive_eval(expr, env)
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
    ("u1 = x1 + 1e999*y1\nu2 = x2\n", 1),          # literal overflows
    ("param a = -1e999\nu1 = x1\nu2 = x2\n", 1),
    ("u1 = x1\nu2 = x2\ndomain x1 - 2e308 > 0\n", 3),
    ("u1 = x1 + ²\nu2 = x2\n", 1),                 # digits are ASCII only
    ("u1 = x1 + ٣\nu2 = x2\n", 1),
    pytest.param("u1 = x1\nu2 = %sx2%s\n" % ("(" * 1000, ")" * 1000), 2,
                 id="nested-too-deeply"),
])
def test_parse_errors_carry_position(text, line):
    with pytest.raises(ParseError) as info:
        parse_web(text)
    assert info.value.line == line
    assert info.value.col >= 1


@settings(max_examples=300, deadline=None)
@given(st.text(st.one_of(st.sampled_from("x1y2+-*/^()=!>.eE#_ \t09"),
                         st.characters()))
       .filter(lambda t: t.splitlines() in ([], [t])))
@example("²")
@example("(" * 1000)
def test_any_line_parses_or_is_a_parse_error(text):
    try:
        web = parse_web("u1 = x1 + %s\nu2 = x2\n" % text)
    except ParseError:
        return
    assert isinstance(web, Web)


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


def test_each_web_compiles_its_own_programs():
    text = "u1 = x1*y1 + x2\nu2 = y2/(x1 + 1)\ndomain x1 + 1 > 0\n"
    web, again = parse_web(text), parse_web(text)
    assert web == again
    assert web.lift_program is web.lift_program  # compiled once
    assert again.lift_program is not web.lift_program
    assert again.domain_program is not web.domain_program
    point = (0.5, -1.5, 2.0, 0.25)
    moved = dataclasses.replace(web, u1=Var("x1"),
                                constraints=(web.constraints[0],) * 2)
    for w in (web, again, moved):
        assert np.array_equal(jet_lift(w.lift_program, point).c,
                              jet_lift((w.u1, w.u2), point).c)
        assert (w.domain_program.run(np.array(point), {})
                == [evaluate(c.expr, point) for c in w.constraints])
    assert not np.array_equal(jet_lift(moved.lift_program, point).c,
                              jet_lift(web.lift_program, point).c)
    # the programs are not fields: equality, printing and pickling ignore
    # them, and a copy compiles its own
    assert "program" not in repr(web)
    for copied in (pickle.loads(pickle.dumps(web)), copy.copy(web)):
        assert copied == web and "lift_program" not in vars(copied)
        assert copied.lift_program is not web.lift_program
    assert dataclasses.replace(moved, u1=web.u1, constraints=web.constraints) \
        == web


def _dataclass_repr(e):
    """e's repr as a frozen dataclass of its fields writes it."""
    if not isinstance(e, Node):
        return repr(e)
    return "%s(%s)" % (type(e).__qualname__, ", ".join(
        "%s=%s" % (name, _dataclass_repr(getattr(e, name)))
        for name in type(e).__slots__))


@settings(max_examples=200, deadline=None)
@given(_expr_strategy(with_params=True))
def test_nodes_compare_hash_and_print_as_dataclasses(expr):
    again = copy.deepcopy(expr)
    assert again == expr and not again != expr
    assert hash(again) == hash(expr)
    assert repr(expr) == _dataclass_repr(expr)
    assert pickle.loads(pickle.dumps(expr)) == expr
    assert copy.copy(expr) == expr


def test_node_semantics():
    a, b = Var("x1"), Const(2.5)
    assert Add(left=a, right=b) == Add(a, right=b) == Add(a, b)
    assert Pow(base=a, exponent=-3) == Pow(a, -3)
    assert Add(a, b) != Sub(a, b) and Add(a, b) != Add(b, a)
    assert Var("x1") != ParamRef("x1") and Const(1.0) != 1.0
    assert Const(1.0) == Const(1) and hash(Const(1.0)) == hash(Const(1))
    assert hash(Mul(Add(a, b), Neg(a))) == hash(Mul(Add(Var("x1"), b),
                                                   Neg(Var("x1"))))
    assert len({Add(a, b), Add(Var("x1"), Const(2.5)), Sub(a, b)}) == 2
    assert (repr(Div(Exp(ParamRef("k")), Pow(Ln(a), 2)))
            == "Div(left=Exp(arg=ParamRef(name='k')), "
               "right=Pow(base=Ln(arg=Var(name='x1')), exponent=2))")
    node = Add(a, b)
    with pytest.raises(dataclasses.FrozenInstanceError):
        node.left = b
    with pytest.raises(dataclasses.FrozenInstanceError):
        del node.right
    assert node == Add(a, b)
    with pytest.raises(TypeError):
        Add(a)
    with pytest.raises(TypeError):
        Neg(arg=a, left=b)
    match node:
        case Add(left, Const(value)):
            assert (left, value) == (a, 2.5)
        case _:
            pytest.fail("Add(a, b) did not match its fields")
    # a NaN constant equals only itself
    nan = Const(float("nan"))
    assert nan == nan and nan != Const(float("nan"))
    # a non-node in an operand's place compares, hashes and prints by its
    # own value, and does not compile
    odd = Add(1.0, Var("x1"))
    assert odd == Add(1.0, Var("x1")) and odd != Add(Var("x1"), 1.0)
    assert odd != Add(Const(1.0), Var("x1"))
    assert hash(odd) == hash(Add(1, Var("x1")))
    assert repr(odd) == "Add(left=1.0, right=Var(name='x1'))"
    assert pickle.loads(pickle.dumps(odd)) == odd
    with pytest.raises(TypeError, match="not an expression node: 1.0"):
        compile_program((odd,), lambda steps: ())
    # a shared subtree pickles and copies to an equal tree
    shared = Mul(a, Neg(b))
    tree = Add(shared, Sub(shared, shared))
    for again in (pickle.loads(pickle.dumps(tree)), copy.deepcopy(tree)):
        assert again == tree and hash(again) == hash(tree)
        assert repr(again) == repr(tree)


def test_webs_pickle_and_copy():
    for entry in load_corpus():
        web = entry.web
        for again in (pickle.loads(pickle.dumps(web)), copy.copy(web),
                      copy.deepcopy(web)):
            assert again == web and hash(again) == hash(web), entry.name
            assert repr(again) == repr(web)
            assert format_web(again) == format_web(web)


def test_a_long_sum_compares_hashes_and_prints():
    text = "u1 = %s\nu2 = x2*y2\n" % " + ".join(["x1*y1"] * 3000)
    web, again = parse_web(text), parse_web(text)
    assert web == again and web is not again
    assert web != parse_web(text.replace("y2\n", "y1\n"))
    assert hash(web) == hash(again)
    printed = repr(web)
    assert printed.startswith("Web(u1=" + "Add(left=" * 2999 + "Mul(")
    assert printed.count("Mul(left=Var(name='x1'), right=Var(name='y1'))") \
        == 3000
    for copied in (pickle.loads(pickle.dumps(web)), copy.deepcopy(web)):
        assert copied == web and copied.u1 is not web.u1
        assert hash(copied) == hash(web)

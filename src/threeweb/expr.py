"""Expression AST and the small text format that defines a web.

A web file is line oriented:

    # comment
    param a = 1.5
    u1 = x1*y1 + a*x2*y2
    u2 = x1*y2 + x2*y1
    domain x1 - x2 != 0
    domain x1 + x2 > 0

Variables are x1, x2, y1, y2.  Parameters must be declared before they
are used; their declared value is the default binding and can be
overridden at evaluation time.  An expression follows this grammar,
loosest binding first:

    level 0   a + b, a - b      left associative          Add, Sub
    level 1   a*b, a/b          left associative          Mul, Div
    level 2   -a                                          Neg
    level 3   a^k, a^-k         k an integer literal      Pow
    atoms     numbers, variables, parameters, euler (the constant e),
              exp(...) and ln(...) (Exp, Ln), and (...)

A number is written in ASCII digits, with an optional decimal point and
exponent (1, 2.5, .5, 1e-3); an identifier is a letter or _ followed by
letters, digits and _.  Anything else, a non-ASCII digit included, is a
ParseError with its line and column.  The module writes this grammar down
once, as the table under "the grammar" below, which the tokenizer, the
parser, the printer and parse_web's reserved names all read.

AST nodes are immutable records on one slotted base class, `Node`: they
compare, hash and print like frozen dataclasses, by class and fields, and
trees can be shared freely.  One post-order walk, `_postorder`, serves
every structural operation: equality and hashing compare a tree's flat
shape, pickle and copy carry that shape, and `compile_program` reads its
trees through the walk.  The repr and `format_expr`, which write text
parent first, keep a stack of their own, so no depth of nesting exhausts
Python's.  `format_expr` prints with minimal parentheses, and `parse_web`
reads a printed expression back as a tree equal to it.

Nothing walks a tree to evaluate it.  `compile_program` turns a tuple of
expressions into one flat Program, in which structurally equal subtrees
are one step, and a runner writes each step's code once: the value runner
here (the domain constraints, with NaN where a value is undefined, and
the constant steps of the jet runner) and the jet runner in `jet.py`.  A
Web compiles its constraints (`Web.domain_program`) and its two defining
functions (`Web.lift_program`) on first use and keeps the programs beside
its fields, so every snapshot, admissibility test and parameter binding of
that Web reuses them.
"""

from __future__ import annotations

import math
import numbers
import operator
import re
from dataclasses import FrozenInstanceError, dataclass, fields
from functools import cached_property
from typing import NamedTuple

import numpy as np


class ParseError(ValueError):
    """Raised on malformed web text; carries 1-based line and column."""

    def __init__(self, message, line, col):
        super().__init__("line %d, col %d: %s" % (line, col, message))
        self.line = line
        self.col = col


class EvalError(ValueError):
    """Raised when an expression cannot be evaluated at a point."""


VARIABLES = ("x1", "x2", "y1", "y2")

_setattr = object.__setattr__


class Node:
    """The base of the expression nodes: an immutable record of the fields
    its class names in `__slots__`, the first `arity` of them (given in the
    class statement) its operands.

    Nodes compare equal when they are of one class and their fields are
    equal; equal trees hash alike; the repr is that of a dataclass, such as
    `Add(left=Var(name='x1'), right=Const(value=1.0))`; assigning to a
    field raises dataclasses.FrozenInstanceError.  Equality, hashing,
    pickle and copy go through the tree's flat shape, `_shape`.  A class
    declares only its `__slots__` and arity; the one constructor here
    binds its fields, positionally and then by name.  It costs about
    0.8 µs a node against 0.4 µs for a positional `__init__` per class:
    about 0.2 ms on the corpus's 446 nodes, which only parsing builds.
    """

    __slots__ = ()

    def __init_subclass__(cls, arity=0):
        cls.__match_args__ = cls.__slots__
        cls._arity = arity

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs:  # the rest of the fields, by name
            args += tuple(kwargs.pop(n) for n in names[len(args):]
                          if n in kwargs)
        if kwargs or len(args) != len(names):
            raise TypeError("%s() takes the fields %s, each once"
                            % (type(self).__name__, ", ".join(names)))
        for name, value in zip(names, args):
            _setattr(self, name, value)

    def __setattr__(self, name, value):
        raise FrozenInstanceError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise FrozenInstanceError("cannot delete field %r" % name)

    def _shape(self):
        """The tree in post-order as a flat list: each node as its class and
        its fields after the operands, a non-node operand as (None, itself).
        Equal trees, and only they, have equal shapes."""
        return [(type(e), *[getattr(e, f) for f in e.__slots__[e._arity:]])
                if isinstance(e, Node) else (None, e)
                for e, _ in _postorder((self,))]

    def __reduce__(self):
        return _rebuild, (self._shape(),)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._shape() == other._shape()

    def __hash__(self):
        return hash(tuple(self._shape()))

    def __repr__(self):
        out, todo = [], [self]
        while todo:
            item = todo.pop()
            if item.__class__ is str:
                out.append(item)
                continue
            parts = [item.__class__.__qualname__ + "("]
            for i, name in enumerate(item.__slots__):
                value = getattr(item, name)
                parts.append((", %s=" if i else "%s=") % name)
                parts.append(value if isinstance(value, Node) else repr(value))
            parts.append(")")
            todo.extend(reversed(parts))
        return "".join(out)


def _postorder(roots):
    """(node, operands) for each node of the trees `roots`: operands first
    and left to right, then the node.  A node's operands are its first
    `arity` fields; anything in their place that is not a node comes as
    (itself, ()).  The walk keeps its own stack."""
    todo = [(e, None) for e in reversed(roots)]
    while todo:
        e, operands = todo.pop()
        if operands is None:
            operands = (tuple(getattr(e, f) for f in e.__slots__[:e._arity])
                        if isinstance(e, Node) else ())
            if operands:
                todo.append((e, operands))
                todo.extend((x, None) for x in reversed(operands))
                continue
        yield e, operands


def _rebuild(shape):
    """The tree whose flat shape (`Node._shape`) is `shape`."""
    done = []  # the finished subtrees not yet an operand
    for cls, *rest in shape:
        if cls is None:
            done += rest
        else:
            n = len(done) - cls._arity
            done[n:] = [cls(*done[n:], *rest)]
    (tree,) = done
    return tree


class Const(Node):
    __slots__ = ("value",)


class Var(Node):
    __slots__ = ("name",)


class ParamRef(Node):
    __slots__ = ("name",)


class Neg(Node, arity=1):
    __slots__ = ("arg",)


class Exp(Node, arity=1):
    __slots__ = ("arg",)


class Ln(Node, arity=1):
    __slots__ = ("arg",)


class Add(Node, arity=2):
    __slots__ = ("left", "right")


class Sub(Node, arity=2):
    __slots__ = ("left", "right")


class Mul(Node, arity=2):
    __slots__ = ("left", "right")


class Div(Node, arity=2):
    __slots__ = ("left", "right")


class Pow(Node, arity=1):
    __slots__ = ("base", "exponent")


Expr = Const | Var | ParamRef | Neg | Exp | Ln | Add | Sub | Mul | Div | Pow


# ---------------------------------------------------------------------------
# the grammar

# The binary operators by precedence level, loosest first, each level left
# associative: the space printed either side of its symbols, and each
# symbol with its node.
_LEVELS = ((" ", {"+": Add, "-": Sub}), ("", {"*": Mul, "/": Div}))
# The symbols of Neg, which also negates an exponent, and of Pow.
_NEG, _POW = "-", "^"
_FUNCTIONS = {"exp": Exp, "ln": Ln}
_CONSTANTS = {"euler": math.e}
# a domain line's comparisons against 0, with the Constraint kind of each
_COMPARISONS = {"!=": "nonzero", ">": "positive"}
_RESERVED = {*VARIABLES, *_FUNCTIONS, *_CONSTANTS, "u1", "u2", "domain",
             "param"}

# The table as the parser and the printer read it.
_BINARY_OPS = {symbol: (level, node) for level, (_, ops) in enumerate(_LEVELS)
               for symbol, node in ops.items()}
_INFIX = {node: pad + symbol + pad for pad, ops in _LEVELS
          for symbol, node in ops.items()}
# How tightly each node binds: a binary node at its level, then Neg, then
# Pow; anything else is an atom and binds tighter still.
_PRECEDENCE = {node: level for level, node in _BINARY_OPS.values()}
_PRECEDENCE.update({Neg: len(_LEVELS), Pow: len(_LEVELS) + 1})
_ATOM = len(_LEVELS) + 2
_NAMES = {node: name for name, node in _FUNCTIONS.items()}
_CONSTANT_NAMES = {value: name for name, value in _CONSTANTS.items()}
_RELATIONS = {kind: symbol for symbol, kind in _COMPARISONS.items()}

# One token: the spaces and tabs before it, then a symbol (the longest
# first), an identifier, a number (ASCII digits only), or any other
# character, which is an error.
_SYMBOLS = sorted({*_BINARY_OPS, _NEG, _POW, "(", ")", "=", *_COMPARISONS},
                  key=lambda symbol: (-len(symbol), symbol))
_TOKEN = re.compile(r"([ \t]*)(?:(%s)|([^\W\d]\w*)|((?:[0-9]+\.?[0-9]*|"
                    r"\.[0-9]+)(?:[eE][+-]?[0-9]+)?)|([^ \t]))"
                    % "|".join(map(re.escape, _SYMBOLS)))


def _tokenize(text, line_no):
    """The (kind, value, col) tuples of one line; kind is num/ident/sym."""
    tokens = []
    col = 1
    # a comment runs from # to the end of the line
    for space, sym, ident, num, bad in _TOKEN.findall(text.partition("#")[0]):
        col += len(space)
        if sym:
            tokens.append(("sym", sym, col))
            col += len(sym)
            continue
        # \w admits numerals that are not letters, such as ², which may not
        # start an identifier
        if bad or ident and not (ident[0].isalpha() or ident[0] == "_"):
            raise ParseError("unexpected character %r" % (bad or ident)[0],
                             line_no, col)
        if num and math.isinf(float(num)):
            raise ParseError("number %s overflows to inf" % num, line_no, col)
        tokens.append(("ident", ident, col) if ident else ("num", num, col))
        col += len(ident or num)
    return tokens


class _ExprParser:
    """Recursive descent over one line's token list, which ends in a
    (None, None, col) token just past its last."""

    def __init__(self, tokens, line_no, params):
        end = tokens[-1][2] + len(tokens[-1][1]) if tokens else 1
        self.tokens = tokens + [(None, None, end)]
        self.pos = 0
        self.line = line_no
        self.params = params

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        self.pos += 1
        return self.tokens[self.pos - 1]

    def expect_sym(self, sym):
        kind, value, col = self.take()
        if kind != "sym" or value != sym:
            raise ParseError("expected %r" % sym, self.line, col)

    def parse(self):
        try:
            e = self.binary(0)
        except RecursionError:
            raise ParseError("expression nested too deeply", self.line,
                             self.tokens[0][2]) from None
        kind, value, col = self.peek()
        if kind is not None:
            raise ParseError("unexpected %r" % value, self.line, col)
        return e

    def binary(self, min_level):
        """Factors joined by the binary operators of `min_level` and above,
        by precedence climbing.  Only a symbol token's value can be the
        symbol of an operator."""
        e = self.factor()
        while True:
            level, node = _BINARY_OPS.get(self.peek()[1], (-1, None))
            if level < min_level:
                return e
            self.pos += 1
            e = node(e, self.binary(level + 1))

    def factor(self):
        if self.peek()[1] == _NEG:
            self.pos += 1
            return Neg(self.factor())
        base = self.atom()
        if self.peek()[1] != _POW:
            return base
        self.pos += 1
        sign = 1
        if self.peek()[1] == _NEG:
            self.pos += 1
            sign = -1
        kind, value, col = self.take()
        if kind != "num":
            raise ParseError("exponent must be an integer literal", self.line, col)
        if not value.isdigit():
            raise ParseError("exponent must be an integer, got %r" % value,
                             self.line, col)
        return Pow(base, sign * int(value))

    def atom(self):
        kind, value, col = self.peek()
        if value == "(":
            return self.parenthesized()
        self.pos += 1
        if kind == "num":
            return Const(float(value))
        if kind != "ident":
            raise ParseError("expected an expression", self.line, col)
        if value in _FUNCTIONS:
            return _FUNCTIONS[value](self.parenthesized())
        if value in VARIABLES:
            return Var(value)
        if value in _CONSTANTS:
            return Const(_CONSTANTS[value])
        if value in self.params:
            return ParamRef(value)
        raise ParseError("unknown identifier %r" % value, self.line, col)

    def parenthesized(self):
        self.expect_sym("(")
        e = self.binary(0)
        self.expect_sym(")")
        return e


# ---------------------------------------------------------------------------
# printing

def format_expr(e):
    """e as text with the fewest parentheses that parse back to e.  The
    walk keeps its own stack, so no depth of nesting exhausts Python's."""
    out = []
    # text to write, or a subtree and the least precedence it may have
    # without parentheses
    todo = [(e, 0)]
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
            continue
        e, min_prec = item
        kind = type(e)
        if kind in _INFIX:
            level = _PRECEDENCE[kind]
            parts = [(e.left, level), _INFIX[kind], (e.right, level + 1)]
        elif kind is Neg:
            parts = [_NEG, (e.arg, _PRECEDENCE[Neg])]
        elif kind is Pow:
            parts = [(e.base, _ATOM), "%s%d" % (_POW, e.exponent)]
        elif kind in _NAMES:
            parts = [_NAMES[kind] + "(", (e.arg, 0), ")"]
        elif kind is Const:
            parts = [_CONSTANT_NAMES.get(e.value) or repr(e.value)]
        elif kind is Var or kind is ParamRef:
            parts = [e.name]
        else:
            raise TypeError("not an expression node: %r" % (e,))
        if _PRECEDENCE.get(kind, _ATOM) < min_prec:
            parts = ["(", *parts, ")"]
        todo.extend(reversed(parts))
    return "".join(out)


# ---------------------------------------------------------------------------
# compiled programs

class Step(NamedTuple):
    """One step of a Program: `op` applied to the values of earlier steps."""

    op: str        # the kind of node, in lower case, or "reciprocal"
    args: tuple    # the slots of the operands' steps
    value: object  # a Var's or a ParamRef's name, a Const's value, or a
                   # Pow's exponent
    node: object   # the subtree the step computes; Pow(b, -1) for the
                   # reciprocal of b
    scalar: bool   # the step holds no variable


class Program:
    """Expressions compiled once into a flat list of steps.

    `steps` holds each distinct subtree once, in the order a depth-first,
    left-to-right walk first finishes it, so a step's operands come before
    it; `outputs` holds the slot of each compiled expression.  `code`, which
    a runner writes, holds one function per step, fn(vals, cols, params) ->
    the step's value, given the list of the values of the steps before it,
    the variables and the parameter binding.  The runner also says how
    `cols` holds the variables: the value runner here takes cols[v] as the
    values of variable number v, and the jet runner in `jet.py` takes seed
    jets.  A run drops each value once the last step that reads it has run,
    so a batch does not keep every intermediate array to the end.
    """

    __slots__ = ("steps", "outputs", "_plan")

    def __init__(self, steps, outputs, code):
        self.steps, self.outputs = steps, outputs
        last = {a: s for s, step in enumerate(steps) for a in step.args}
        dead = [() for _ in steps]
        for a, s in last.items():
            if a not in outputs:
                dead[s] += (a,)
        self._plan = tuple(zip(code, dead))

    def run(self, cols, params):
        """The value of each compiled expression."""
        vals = []
        for fn, dead in self._plan:
            vals.append(fn(vals, cols, params))
            for a in dead:
                vals[a] = None
        return [vals[slot] for slot in self.outputs]


_OPS = {Const: "const", Var: "var", ParamRef: "param", Neg: "neg",
        Exp: "exp", Ln: "ln", Add: "add", Sub: "sub", Mul: "mul",
        Div: "div", Pow: "pow"}


def compile_program(exprs, lower, reciprocals=False):
    """The expressions `exprs` as one Program, whose code `lower(steps)`
    writes.

    Structurally equal subtrees become one step, so a subexpression that
    u1 and u2, or two constraints, have in common is computed once.  With
    `reciprocals`, as the jet runner wants, a / b is a * (1/b) and a^-k is
    (1/a)^k, where 1/b is a step of its own: every division by b, and every
    negative power of it, shares one reciprocal.
    """
    steps, slots = [], {}

    def emit(op, args, value, node):
        key = (op, args, repr(value) if op == "const" else value)
        if key not in slots:
            slots[key] = len(steps)
            scalar = op != "var" and all(steps[a].scalar for a in args)
            steps.append(Step(op, args, value, node, scalar))
        return slots[key]

    done = {}  # the slot of each finished node, by its id
    for e, operands in _postorder(exprs):
        if type(e) not in _OPS:
            raise TypeError("not an expression node: %r" % (e,))
        args = tuple(done[id(x)] for x in operands)
        op = _OPS[type(e)]
        value = (e.value if op == "const" else e.name if not operands
                 else getattr(e, "exponent", None))
        if reciprocals and op == "div":
            op, args = "mul", (args[0], emit("reciprocal", args[1:], None,
                                             Pow(operands[1], -1)))
        elif (reciprocals and op == "pow" and isinstance(value, int)
              and value < 0):
            args, value = (emit("reciprocal", args, None,
                                Pow(operands[0], -1)),), -value
        done[id(e)] = emit(op, args, value, e)
    return Program(tuple(steps), tuple(done[id(e)] for e in exprs),
                   lower(steps))


def _apply(fn, args):
    """Code that applies fn to the values of the steps at slots `args`."""
    if len(args) == 2:
        a, b = args
        return lambda vals, cols, params: fn(vals[a], vals[b])
    (a,) = args
    return lambda vals, cols, params: fn(vals[a])


def _bound(name, params):
    """The value params binds to a parameter."""
    try:
        return params[name]
    except KeyError:
        raise EvalError("parameter %r is unbound" % name) from None


# ---------------------------------------------------------------------------
# the value runner

def _nan_where(bad, v):
    """v, NaN where bad holds: np.where for arrays, a branch for one
    point's scalars, on which np.where costs microseconds."""
    if isinstance(bad, np.ndarray):
        return np.where(bad, np.nan, v)
    return np.nan if bad else v


def _overflow_to_nan(r, arg):
    """r, NaN where it is infinite although arg is finite.  An array is
    scanned once and rebuilt only if it holds an infinity; for a scalar,
    |r| - |arg| is inf exactly there."""
    if isinstance(r, np.ndarray):
        inf = np.isinf(r)
        return np.where(inf & np.isfinite(arg), np.nan, r) if inf.any() else r
    return np.nan if abs(r) - abs(arg) == np.inf else r


def _power(k):
    """base -> base^k for the value runner."""
    if k == 0:
        # numpy's NaN ** 0 is 1, which would hide an undefined base
        return lambda base: _nan_where(base != base, 1.0)

    def power(base):
        if type(base) is float:  # a constant, whose ** raises on overflow
            base = np.float64(base)
        return _overflow_to_nan(base ** k, base)

    return power


# op -> how the values of its operands combine
_VALUE_OPS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
              "div": lambda a, b: a / _nan_where(b == 0.0, b),
              "reciprocal": lambda b: 1.0 / _nan_where(b == 0.0, b),
              "neg": operator.neg,
              "exp": lambda v: _overflow_to_nan(np.exp(v), v),
              "ln": lambda v: np.log(_nan_where(v <= 0.0, v))}


def _value_code(steps):
    """The value runner's code, which runs under the caller's np.errstate
    with each variable a numpy array of values (or one point's np.float64
    scalars).

    A value is NaN wherever it is undefined: outside the domain of ln or of
    a division, where exp or an integer power overflows from a finite
    argument (Python's math.exp and float ** int raise there, while numpy
    returns inf), and wherever an undefined operand feeds in.  A caller
    rejects a row by testing for finiteness.
    """
    return tuple(_value_step(op, args, value)
                 for op, args, value, _, _ in steps)


def _value_step(op, args, value):
    """The value runner's code of one step; the jet runner runs it for the
    steps that hold no variable."""
    if op == "var":
        v = VARIABLES.index(value)
        return lambda vals, cols, params: cols[v]
    if op == "const":
        return lambda vals, cols, params: value
    if op == "param":
        return lambda vals, cols, params: _bound(value, params)
    return _apply(_power(value) if op == "pow" else _VALUE_OPS[op], args)


# ---------------------------------------------------------------------------
# web definition

def is_integer(value):
    """Whether an argument counts as an integer: a numbers.Integral, such as
    an int or a numpy integer, that is not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_shape(point):
    """Raise ValueError unless the array `point` is one point, (4,), or N
    points, (N, 4): one comparison, as the sampler's admissibility test
    runs it on every round."""
    if point.shape[point.ndim == 2:] != (4,):
        raise ValueError("a point has shape (4,) and N points (N, 4), got "
                         "shape %s" % (point.shape,))


@dataclass(frozen=True)
class Constraint:
    """A domain constraint: expr != 0 or expr > 0."""

    expr: Expr
    kind: str  # "nonzero" or "positive"


@dataclass(frozen=True)
class Web:
    """Two defining functions plus domain constraints and parameter defaults."""

    u1: Expr
    u2: Expr
    constraints: tuple = ()
    params: tuple = ()  # ((name, default), ...) in declaration order
    name: str = ""

    def bind(self, overrides=None):
        """Full parameter binding: declared defaults updated by overrides."""
        bound = dict(self.params)
        for k, v in (overrides or {}).items():
            if k not in bound:
                raise EvalError("unknown parameter %r" % k)
            bound[k] = float(v)
        for k, v in bound.items():
            if not math.isfinite(v):
                raise EvalError("parameter %s = %r is not finite" % (k, v))
        return bound

    def _checks(self, point, params, margin):
        """(constraint, value, holds) for each domain constraint at a point,
        or at each row of an (N, 4) array of points, given as float64; any
        other shape raises ValueError.

        The one domain rule: a constraint holds where its value is finite
        and exceeds margin, in magnitude for `expr != 0` and as it is for
        `expr > 0`.  So points hugging the singular set are rejected, and
        so are points where a constraint is undefined or infinite.
        """
        check_shape(point)
        bound = self.bind(params)
        out = []
        with np.errstate(all="ignore"):
            values = self.domain_program.run(point.T, bound)
            for c, v in zip(self.constraints, values):
                a = abs(v) if c.kind == "nonzero" else v
                out.append((c, v, (a > margin) & (a < np.inf)))
        return out

    # Each program is compiled on first use and kept on this Web, outside
    # its fields: a Web is immutable, so its programs never go stale, and
    # `dataclasses.replace` makes a Web that compiles its own.

    @cached_property
    def domain_program(self):
        """The constraints' expressions, compiled for the value runner."""
        return compile_program([c.expr for c in self.constraints],
                               _value_code)

    @cached_property
    def lift_program(self):
        """(u1, u2), compiled for the jet runner of `jet.jet_lift`."""
        from .jet import compile_lift  # jet.py builds on this module
        return compile_lift((self.u1, self.u2))

    def __getstate__(self):
        # the fields alone: a program's code is closures, which do not
        # pickle, and a copy compiles its own programs on first use
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def admissible(self, point, params=None, margin=1e-3):
        """True if every domain constraint holds with the given margin.
        Given an (N, 4) array of points, returns the (N,) boolean mask."""
        point = np.asarray(point, dtype=float)
        ok = np.ones(len(point), dtype=bool) if point.ndim == 2 else True
        for _, _, holds in self._checks(point, params, margin):
            ok = ok & holds
        return ok if point.ndim == 2 else bool(ok)

    def violated_constraint(self, point, params=None, margin=1e-3):
        """The first failing domain constraint as text, or None if all hold.

        Given an (N, 4) array of points, the text names the first failing
        row, then its first failing constraint.
        """
        point = np.asarray(point, dtype=float)
        if point.ndim == 2:
            bad = np.flatnonzero(~self.admissible(point, params, margin))
            if not len(bad):
                return None
            row = point[bad[0]]
            return "row %d %s: %s" % (
                bad[0], tuple(row.tolist()),
                self.violated_constraint(row, params, margin))
        for c, v, holds in self._checks(point, params, margin):
            if not holds:
                return "%s %s 0 (value %g, margin %g)" % (
                    format_expr(c.expr), _RELATIONS[c.kind], v, margin)
        return None


def parse_web(text, name=""):
    """Parse the web file format described in the module docstring."""
    defined = {}  # u1 and u2
    constraints = []
    params = {}  # name -> declared value, in declaration order
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize(raw, line_no)
        if not tokens:
            continue
        kind, head, col = tokens[0]
        if kind != "ident":
            raise ParseError("expected u1/u2/domain/param", line_no, col)
        if head in ("u1", "u2"):
            if len(tokens) < 2 or tokens[1][:2] != ("sym", "="):
                raise ParseError("expected '=' after %s" % head, line_no,
                                 tokens[1][2] if len(tokens) > 1 else col + len(head))
            e = _ExprParser(tokens[2:], line_no, params).parse()
            if head in defined:
                raise ParseError("%s defined twice" % head, line_no, col)
            defined[head] = e
        elif head == "domain":
            body = tokens[1:]
            # split on the first comparison symbol
            split = next((i for i, (k, v, _) in enumerate(body)
                          if k == "sym" and v in _COMPARISONS), None)
            if split is None:
                raise ParseError("domain needs %s" % " or ".join(
                    "'%s 0'" % op for op in _COMPARISONS), line_no, col)
            e = _ExprParser(body[:split], line_no, params).parse()
            _, op, where = body[split]
            tail = body[split + 1:]
            if len(tail) != 1 or tail[0][0] != "num" or float(tail[0][1]) != 0.0:
                where = tail[0][2] if tail else where + len(op)
                raise ParseError("domain comparisons are against 0", line_no, where)
            constraints.append(Constraint(e, _COMPARISONS[op]))
        elif head == "param":
            if len(tokens) < 4 or tokens[1][0] != "ident":
                raise ParseError("expected 'param NAME = VALUE'", line_no, col)
            pname = tokens[1][1]
            if pname in _RESERVED:
                raise ParseError("reserved name %r" % pname, line_no, tokens[1][2])
            if pname in params:
                raise ParseError("parameter %r declared twice" % pname,
                                 line_no, tokens[1][2])
            if tokens[2][:2] != ("sym", "="):
                raise ParseError("expected '=' in param declaration", line_no,
                                 tokens[2][2])
            value_tokens = tokens[3:]
            sign = 1.0
            if value_tokens and value_tokens[0][1] == _NEG:
                sign = -1.0
                value_tokens = value_tokens[1:]
            if len(value_tokens) != 1 or value_tokens[0][0] != "num":
                where = value_tokens[0][2] if value_tokens else tokens[3][2]
                raise ParseError("param value must be a number", line_no, where)
            params[pname] = sign * float(value_tokens[0][1])
        else:
            raise ParseError("expected u1/u2/domain/param, got %r" % head,
                             line_no, col)
    for head in ("u1", "u2"):
        if head not in defined:
            raise ParseError("missing %s definition" % head,
                             text.count("\n") + 1, 1)
    return Web(u1=defined["u1"], u2=defined["u2"],
               constraints=tuple(constraints), params=tuple(params.items()),
               name=name)


def format_web(web):
    """Inverse of parse_web up to comments and blank lines."""
    lines = []
    for pname, value in web.params:
        lines.append("param %s = %s" % (pname, repr(value)))
    lines.append("u1 = " + format_expr(web.u1))
    lines.append("u2 = " + format_expr(web.u2))
    for c in web.constraints:
        lines.append("domain %s %s 0" % (format_expr(c.expr),
                                         _RELATIONS[c.kind]))
    return "\n".join(lines) + "\n"

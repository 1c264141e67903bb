"""Expression AST and the small text format that defines a web.

A web file is line oriented:

    # comment
    param a = 1.5
    u1 = x1*y1 + a*x2*y2
    u2 = x1*y2 + x2*y1
    domain x1 - x2 != 0
    domain x1 + x2 > 0

Variables are x1, x2, y1, y2.  `euler` is the constant e.  Operators are
+ - * / unary minus, integer powers with ^, and the functions exp(...) and
ln(...).  Parameters must be declared before they are used; their declared
value is the default binding and can be overridden at evaluation time.

AST nodes are frozen dataclasses, so structural equality works and trees
can be shared freely.  `format_expr` prints with minimal parentheses, and
`parse_web` reads a printed expression back as a tree equal to it, so
`parse_web(format_web(web))` equals `web`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class ParamRef:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class Exp:
    arg: "Expr"


@dataclass(frozen=True)
class Ln:
    arg: "Expr"


@dataclass(frozen=True)
class Add:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Sub:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Mul:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Div:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: int


Expr = Const | Var | ParamRef | Neg | Exp | Ln | Add | Sub | Mul | Div | Pow


# ---------------------------------------------------------------------------
# tokenizer / parser

_SYMBOLS = ("+", "-", "*", "/", "^", "(", ")", "=", "!", ">")


def _tokenize(text, line_no):
    """Yield (kind, value, col) tuples; kind is num/ident/sym."""
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c in " \t":
            i += 1
            continue
        if c == "#":
            break
        col = i + 1
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            seen_dot = False
            seen_exp = False
            while j < n:
                d = text[j]
                if d.isdigit():
                    j += 1
                elif d == "." and not seen_dot and not seen_exp:
                    seen_dot = True
                    j += 1
                elif d in "eE" and j + 1 < n and (text[j + 1].isdigit() or
                        (text[j + 1] in "+-" and j + 2 < n and text[j + 2].isdigit())) \
                        and not seen_exp:
                    seen_exp = True
                    j += 2 if text[j + 1] in "+-" else 1
                else:
                    break
            if math.isinf(float(text[i:j])):
                raise ParseError("number %s overflows to inf" % text[i:j],
                                 line_no, col)
            tokens.append(("num", text[i:j], col))
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], col))
            i = j
        elif c in _SYMBOLS:
            if c == "!" and i + 1 < n and text[i + 1] == "=":
                tokens.append(("sym", "!=", col))
                i += 2
            else:
                tokens.append(("sym", c, col))
                i += 1
        else:
            raise ParseError("unexpected character %r" % c, line_no, col)
    return tokens


class _ExprParser:
    """Recursive descent over one line's token list."""

    def __init__(self, tokens, line_no, params):
        self.tokens = tokens
        self.pos = 0
        self.line = line_no
        self.params = params

    def peek(self):
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return (None, None, self._end_col())

    def _end_col(self):
        if self.tokens:
            k, v, c = self.tokens[-1]
            return c + len(v)
        return 1

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect_sym(self, sym):
        kind, value, col = self.take()
        if kind != "sym" or value != sym:
            raise ParseError("expected %r" % sym, self.line, col)

    def parse(self):
        e = self.expr()
        kind, value, col = self.peek()
        if kind is not None:
            raise ParseError("unexpected %r" % value, self.line, col)
        return e

    def expr(self):
        e = self.term()
        while True:
            kind, value, col = self.peek()
            if kind == "sym" and value in ("+", "-"):
                self.take()
                rhs = self.term()
                e = Add(e, rhs) if value == "+" else Sub(e, rhs)
            else:
                return e

    def term(self):
        e = self.factor()
        while True:
            kind, value, col = self.peek()
            if kind == "sym" and value in ("*", "/"):
                self.take()
                rhs = self.factor()
                e = Mul(e, rhs) if value == "*" else Div(e, rhs)
            else:
                return e

    def factor(self):
        kind, value, col = self.peek()
        if kind == "sym" and value == "-":
            self.take()
            return Neg(self.factor())
        return self.power()

    def power(self):
        base = self.atom()
        kind, value, col = self.peek()
        if kind == "sym" and value == "^":
            self.take()
            exponent = self._exponent()
            return Pow(base, exponent)
        return base

    def _exponent(self):
        sign = 1
        kind, value, col = self.peek()
        if kind == "sym" and value == "-":
            self.take()
            sign = -1
        kind, value, col = self.take()
        if kind != "num":
            raise ParseError("exponent must be an integer literal", self.line, col)
        if "." in value or "e" in value or "E" in value:
            raise ParseError("exponent must be an integer, got %r" % value,
                             self.line, col)
        return sign * int(value)

    def atom(self):
        kind, value, col = self.take()
        if kind == "num":
            return Const(float(value))
        if kind == "sym" and value == "(":
            e = self.expr()
            self.expect_sym(")")
            return e
        if kind == "ident":
            if value in ("exp", "ln"):
                self.expect_sym("(")
                arg = self.expr()
                self.expect_sym(")")
                return Exp(arg) if value == "exp" else Ln(arg)
            if value in VARIABLES:
                return Var(value)
            if value == "euler":
                return Const(math.e)
            if value in self.params:
                return ParamRef(value)
            raise ParseError("unknown identifier %r" % value, self.line, col)
        raise ParseError("expected an expression", self.line,
                         col if kind is not None else self._end_col())


# ---------------------------------------------------------------------------
# printing

# precedence levels for minimal-parentheses printing
_PREC_ADD = 1
_PREC_MUL = 2
_PREC_NEG = 3
_PREC_POW = 4
_PREC_ATOM = 5


def _prec(e):
    if isinstance(e, (Add, Sub)):
        return _PREC_ADD
    if isinstance(e, (Mul, Div)):
        return _PREC_MUL
    if isinstance(e, Neg):
        return _PREC_NEG
    if isinstance(e, Pow):
        return _PREC_POW
    return _PREC_ATOM


def format_expr(e):
    if isinstance(e, Const):
        if e.value == math.e:
            return "euler"
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, ParamRef):
        return e.name
    if isinstance(e, Neg):
        # bind looser than * so -(a*b) still reads -a*b is wrong; keep parens
        # whenever the argument is looser than the unary minus itself
        inner = format_expr(e.arg)
        if _prec(e.arg) < _PREC_NEG:
            inner = "(" + inner + ")"
        return "-" + inner
    if isinstance(e, Exp):
        return "exp(" + format_expr(e.arg) + ")"
    if isinstance(e, Ln):
        return "ln(" + format_expr(e.arg) + ")"
    if isinstance(e, Add):
        return "%s + %s" % (_fmt_child(e.left, _PREC_ADD),
                            _fmt_child(e.right, _PREC_ADD + 1))
    if isinstance(e, Sub):
        return "%s - %s" % (_fmt_child(e.left, _PREC_ADD),
                            _fmt_child(e.right, _PREC_ADD + 1))
    if isinstance(e, Mul):
        return "%s*%s" % (_fmt_child(e.left, _PREC_MUL),
                          _fmt_child(e.right, _PREC_MUL + 1))
    if isinstance(e, Div):
        return "%s/%s" % (_fmt_child(e.left, _PREC_MUL),
                          _fmt_child(e.right, _PREC_MUL + 1))
    if isinstance(e, Pow):
        base = format_expr(e.base)
        if _prec(e.base) < _PREC_ATOM:
            base = "(" + base + ")"
        if e.exponent < 0:
            return "%s^-%d" % (base, -e.exponent)
        return "%s^%d" % (base, e.exponent)
    raise TypeError("not an expression node: %r" % (e,))


def _fmt_child(e, min_prec):
    s = format_expr(e)
    if _prec(e) < min_prec:
        return "(" + s + ")"
    return s


# ---------------------------------------------------------------------------
# evaluation

def evaluate(e, point, params=None):
    """Evaluate at point = (x1, x2, y1, y2); params maps names to floats.

    Raises EvalError where `_eval_rows` gives NaN: outside the domain of ln
    or of a division, where exp or a power overflows, or at inf - inf.
    """
    cols = dict(zip(VARIABLES, np.asarray(point, dtype=float)))
    with np.errstate(all="ignore"):
        v = _eval_rows(e, cols, params or {})
    if v != v:
        raise EvalError("%s is undefined at %s" % (format_expr(e),
                                                   tuple(point)))
    return float(v)


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


# node type -> how the values of its operands combine
_BINARY = {Add: operator.add, Sub: operator.sub, Mul: operator.mul,
           Div: lambda a, b: a / _nan_where(b == 0.0, b)}
_UNARY = {Neg: operator.neg,
          Exp: lambda v: _overflow_to_nan(np.exp(v), v),
          Ln: lambda v: np.log(_nan_where(v <= 0.0, v))}


def _eval_rows(e, cols, params):
    """The value of e, given each variable as a numpy array of values (or
    one point's np.float64 scalars), under the caller's np.errstate.

    The value is NaN wherever it is undefined: outside the domain of ln or
    of a division, where exp or an integer power overflows from a finite
    argument (Python's math.exp and float ** int raise there, while numpy
    returns inf), and wherever an undefined operand feeds in.  A caller
    rejects a row by testing for finiteness.
    """
    kind = type(e)
    if kind in _BINARY:
        return _BINARY[kind](_eval_rows(e.left, cols, params),
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
    if kind in _UNARY:
        return _UNARY[kind](_eval_rows(e.arg, cols, params))
    if kind is ParamRef:
        try:
            return params[e.name]
        except KeyError:
            raise EvalError("parameter %r is unbound" % e.name) from None
    raise TypeError("not an expression node: %r" % (e,))


# ---------------------------------------------------------------------------
# web definition

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
        or at each row of an (N, 4) array of points, given as float64.

        The one domain rule: a constraint holds where its value is finite
        and exceeds margin, in magnitude for `expr != 0` and as it is for
        `expr > 0`.  So points hugging the singular set are rejected, and
        so are points where a constraint is undefined or infinite.
        """
        bound = self.bind(params)
        cols = dict(zip(VARIABLES, point.T if point.ndim == 2 else point))
        out = []
        with np.errstate(all="ignore"):
            for c in self.constraints:
                v = _eval_rows(c.expr, cols, bound)
                a = abs(v) if c.kind == "nonzero" else v
                out.append((c, v, (a > margin) & (a < np.inf)))
        return out

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
                    format_expr(c.expr), "!=" if c.kind == "nonzero"
                    else ">", v, margin)
        return None


def parse_web(text, name=""):
    """Parse the web file format described in the module docstring."""
    u1 = None
    u2 = None
    constraints = []
    params = []
    param_names = set()
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
            e = _ExprParser(tokens[2:], line_no, frozenset(param_names)).parse()
            if head == "u1":
                if u1 is not None:
                    raise ParseError("u1 defined twice", line_no, col)
                u1 = e
            else:
                if u2 is not None:
                    raise ParseError("u2 defined twice", line_no, col)
                u2 = e
        elif head == "domain":
            body = tokens[1:]
            # split on the comparison symbol
            split = None
            for i, (k, v, c) in enumerate(body):
                if k == "sym" and v in ("!=", ">"):
                    split = i
                    op = v
                    break
            if split is None:
                raise ParseError("domain needs '!= 0' or '> 0'", line_no, col)
            e = _ExprParser(body[:split], line_no, frozenset(param_names)).parse()
            tail = body[split + 1:]
            if len(tail) != 1 or tail[0][0] != "num" or float(tail[0][1]) != 0.0:
                where = tail[0][2] if tail else body[split][2] + len(op)
                raise ParseError("domain comparisons are against 0", line_no, where)
            constraints.append(Constraint(e, "nonzero" if op == "!=" else "positive"))
        elif head == "param":
            if len(tokens) < 4 or tokens[1][0] != "ident":
                raise ParseError("expected 'param NAME = VALUE'", line_no, col)
            pname = tokens[1][1]
            if pname in VARIABLES or pname in ("euler", "exp", "ln", "u1", "u2",
                                               "domain", "param"):
                raise ParseError("reserved name %r" % pname, line_no, tokens[1][2])
            if pname in param_names:
                raise ParseError("parameter %r declared twice" % pname,
                                 line_no, tokens[1][2])
            if tokens[2][:2] != ("sym", "="):
                raise ParseError("expected '=' in param declaration", line_no,
                                 tokens[2][2])
            value_tokens = tokens[3:]
            sign = 1.0
            if value_tokens and value_tokens[0][:2] == ("sym", "-"):
                sign = -1.0
                value_tokens = value_tokens[1:]
            if len(value_tokens) != 1 or value_tokens[0][0] != "num":
                where = value_tokens[0][2] if value_tokens else tokens[3][2]
                raise ParseError("param value must be a number", line_no, where)
            params.append((pname, sign * float(value_tokens[0][1])))
            param_names.add(pname)
        else:
            raise ParseError("expected u1/u2/domain/param, got %r" % head,
                             line_no, col)
    if u1 is None or u2 is None:
        missing = "u1" if u1 is None else "u2"
        raise ParseError("missing %s definition" % missing,
                         text.count("\n") + 1, 1)
    return Web(u1=u1, u2=u2, constraints=tuple(constraints),
               params=tuple(params), name=name)


def format_web(web):
    """Inverse of parse_web up to comments and blank lines."""
    lines = []
    for pname, value in web.params:
        lines.append("param %s = %s" % (pname, repr(value)))
    lines.append("u1 = " + format_expr(web.u1))
    lines.append("u2 = " + format_expr(web.u2))
    for c in web.constraints:
        op = "!=" if c.kind == "nonzero" else ">"
        lines.append("domain %s %s 0" % (format_expr(c.expr), op))
    return "\n".join(lines) + "\n"

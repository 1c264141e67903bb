"""Compare the web text format of two source trees.

    python3 tools/diff_expr.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are the `src` directories of two checkouts.  The
script loads `threeweb/expr.py` from each and compares, on seeded inputs:

  format_web   each bundled web's file, parsed and printed
  format_expr  20000 random expression trees, printed; then the printed
               text parsed back, compared as the trees' repr
  compiled     each such tree e, compiled by compile_program as (e, e*e)
               with and without `reciprocals`: each step's op, operand
               slots, value and scalar flag, and the outputs
  _tokenize    250000 random lines of up to 24 pieces: the grammar's
               symbols, digits, letters and names, spaces and tabs, `#`,
               `é`, `\\r`, a no-break space, `½`, and one piece in ten a
               random character from U+0020 to U+2FFF; non-ASCII digits
               are dropped
  parse_web    each such line as the end of `u1 = x1 + ...`

A result is a value or a raised error with its message.  The script prints
how many results of each kind are identical and up to 5 that are not.
Exit status 1 when any result differs.
"""

from __future__ import annotations

import importlib.util
import math
import random
import sys
from pathlib import Path

TREES = 20000
LINES = 250000
PIECES = (list("x1y2+-*/^()=>.eE#_ \t0123456789")
          + ["!=", "é", "\r", "\xa0", "½", "x", "ln", "exp", "euler", "1e5",
             "1.5e-3"])
PARAMS = "param a = 1\nparam k = 2\nparam mu = 3\n"


def load(src, name):
    spec = importlib.util.spec_from_file_location(
        name, Path(src) / "threeweb" / "expr.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def outcome(f, *args):
    try:
        return repr(f(*args))
    except Exception as e:
        return "%s: %s" % (type(e).__name__, e)


def random_tree(rng, depth):
    """A tree as nested tuples (node name, children or value ...)."""
    if depth == 0 or rng.random() < 0.25:
        r = rng.random()
        if r < 0.4:
            return ("Var", rng.choice(["x1", "x2", "y1", "y2"]))
        if r < 0.55:
            return ("ParamRef", rng.choice(["a", "k", "mu"]))
        if r < 0.62:
            return ("Const", math.e)
        return ("Const", rng.choice([0.0, 1.0, 2.0, 0.5, -1.5, 1e-300, 1.5e300,
                                      rng.uniform(-10, 10),
                                      rng.lognormvariate(0, 20)]))
    node = rng.choice(["Add", "Sub", "Mul", "Div", "Neg", "Exp", "Ln", "Pow"])
    if node in ("Neg", "Exp", "Ln"):
        return (node, random_tree(rng, depth - 1))
    if node == "Pow":
        return (node, random_tree(rng, depth - 1), rng.randint(-5, 5))
    return (node, random_tree(rng, depth - 1), random_tree(rng, depth - 1))


def build(expr, tree):
    node = getattr(expr, tree[0])
    if tree[0] in ("Var", "ParamRef", "Const"):
        return node(tree[1])
    if tree[0] == "Pow":
        return node(build(expr, tree[1]), tree[2])
    return node(*(build(expr, child) for child in tree[1:]))


def compiled(expr, e, reciprocals):
    """compile_program of e and e*e as (op, args, value, scalar) per step
    and the output slots."""
    program = expr.compile_program((e, expr.Mul(e, e)), lambda steps: (),
                                   reciprocals)
    return ([(s.op, s.args, s.value, s.scalar) for s in program.steps],
            program.outputs)


def random_line(rng):
    line = "".join(rng.choice(PIECES) if rng.random() < 0.9
                   else chr(rng.randrange(0x20, 0x3000))
                   for _ in range(rng.randint(0, 24)))
    return "".join(c for c in line if c.isascii() or not c.isdigit())


def report(name, pairs):
    """Print how many (input, old, new) results agree; True if all do."""
    differ = [(arg, a, b) for arg, a, b in pairs if a != b]
    print("%-12s %d of %d identical" % (name, len(pairs) - len(differ),
                                        len(pairs)))
    for arg, a, b in differ[:5]:
        print("  %r\n    old: %s\n    new: %s" % (arg, a, b))
    return not differ


def main(argv):
    try:
        old_src, new_src = argv
    except ValueError:
        sys.exit(__doc__)
    trees = old, new = load(old_src, "old_expr"), load(new_src, "new_expr")

    webs = sorted((Path(new_src) / "threeweb" / "corpus").glob("*.web"))
    ok = report("format_web", [
        (path.name, *(outcome(lambda t: m.format_web(m.parse_web(t)),
                              path.read_text()) for m in trees))
        for path in webs])

    rng = random.Random(20261018)
    printed, parsed, programs = [], [], []
    for _ in range(TREES):
        tree = random_tree(rng, rng.randint(1, 7))
        texts = [m.format_expr(build(m, tree)) for m in trees]
        printed.append((tree, *texts))
        text = PARAMS + "u1 = %s\nu2 = x2\n" % texts[1]
        parsed.append((text, *(outcome(m.parse_web, text) for m in trees)))
        for reciprocals in (False, True):
            programs.append(((tree, reciprocals), *(
                outcome(compiled, m, build(m, tree), reciprocals)
                for m in trees)))
    ok &= report("format_expr", printed)
    ok &= report("parsed back", parsed)
    ok &= report("compiled", programs)

    rng = random.Random(7)
    lines = [random_line(rng) for _ in range(LINES)]
    ok &= report("_tokenize", [
        (line, outcome(old._tokenize, line, 7), outcome(new._tokenize, line, 7))
        for line in lines])
    ok &= report("parse_web", [
        (line, *(outcome(m.parse_web, "u1 = x1 + %s\nu2 = x2\n" % line)
                 for m in trees))
        for line in lines])
    return int(not ok)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

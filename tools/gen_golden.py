#!/usr/bin/env python3
"""Regenerate the golden sidecar files for the bundled example webs.

Development tool, not shipped with the package.  Needs sympy.

Each bundled web comes with hand-transcribed closed forms for its
invariants (connection, torsion, curvature, spur tensors).  This script
rebuilds the whole tensor pipeline symbolically from the .web files,
evaluates every transcribed form at the stored sample points, and
adjudicates it against the recomputation: forms that agree to 25 digits
at every point are tagged `verified`, the rest are tagged `printed-only`
and keep both numbers.  A claim names its component by the path its
record stores, in the snapshot's notation (`gamma.211`, `a4.2111`, see
`tensor.read_spec`).  The sidecars freeze the results as plain floats
so the test suite never needs sympy.

Run from the repository root:

    python3 tools/gen_golden.py
"""

import json
import math
import operator
import sys
from itertools import permutations
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import sympy as sp

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from threeweb import expr as we  # noqa: E402
from threeweb.tensor import read_spec  # noqa: E402

x1, x2, y1, y2 = sp.symbols("x1 x2 y1 y2")
X, Y = [x1, x2], [y1, y2]
R = sp.Rational

PREC = 40
ZTOL = sp.Float(10) ** -25

CORPUS = SRC / "threeweb" / "corpus"


# op -> how the sympy expressions of its operands combine
SYMPY_OPS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
             "div": operator.truediv, "neg": operator.neg, "exp": sp.exp,
             "ln": sp.log}


def sympy_code(steps):
    """The sympy runner's code for `expr.compile_program`, beside the value
    and jet runners: cols holds the variables' symbols and params the
    parameters' values.  e is sp.E and any other constant is exact."""
    return tuple(sympy_step(op, args, value)
                 for op, args, value, _, _ in steps)


def sympy_step(op, args, value):
    if op == "var":
        v = we.VARIABLES.index(value)
        return lambda vals, cols, params: cols[v]
    if op == "param":
        return lambda vals, cols, params: params[value]
    if op == "const":
        c = sp.E if value == math.e else R(value)
        return lambda vals, cols, params: c
    fn = (lambda base: base ** value) if op == "pow" else SYMPY_OPS[op]
    return we._apply(fn, args)


def to_sympy(web):
    """u1 and u2 of `web` in sympy, by one program, each parameter at its
    default as a rational.  The program is flat, so no depth of nesting
    exhausts Python's stack."""
    params = {name: R(default) for name, default in web.params}
    return we.compile_program((web.u1, web.u2), sympy_code).run(X + Y, params)


def inv2(m):
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    return [[m[1][1] / det, -m[0][1] / det],
            [-m[1][0] / det, m[0][0] / det]]


def pipeline(u1, u2):
    """Full symbolic tensor pipeline, mirroring threeweb.tensor: the fields
    of a TensorSnapshot under its names, as object arrays of one point."""
    f = [u1, u2]
    fbar = [[sp.diff(f[i], X[j]) for j in range(2)] for i in range(2)]
    ftil = [[sp.diff(f[i], Y[j]) for j in range(2)] for i in range(2)]
    gbar = inv2(fbar)
    gtil = inv2(ftil)
    H = [[[sp.diff(f[i], X[l], Y[m]) for m in range(2)] for l in range(2)]
         for i in range(2)]
    G = [[[-sum(H[i][l][m] * gbar[l][j] * gtil[m][k]
                for l in range(2) for m in range(2))
           for k in range(2)] for j in range(2)] for i in range(2)]
    a3 = [[[(G[i][j][k] - G[i][k][j]) / 2 for k in range(2)]
           for j in range(2)] for i in range(2)]
    a = [2 * sum(a3[m][j][m] for m in range(2)) for j in range(2)]

    def d1(F, j):
        return sum(sp.diff(F, X[m]) * gbar[m][j] for m in range(2))

    def d2(F, j):
        return sum(sp.diff(F, Y[m]) * gtil[m][j] for m in range(2))

    b = [[[[R(1, 2) * (d1(G[i][k][l], j) + d1(G[i][j][l], k)
                       - d2(G[i][k][j], l) - d2(G[i][k][l], j)
                       + sum(G[m][j][l] * G[i][k][m] for m in range(2))
                       - sum(G[m][k][j] * G[i][m][l] for m in range(2))
                       + 2 * sum(G[m][k][l] * a3[i][m][j] for m in range(2)))
            for l in range(2)] for k in range(2)] for j in range(2)]
         for i in range(2)]
    p = [[d1(a[i], k) - sum(a[j] * G[j][k][i] for j in range(2))
          for k in range(2)] for i in range(2)]
    q = [[d2(a[i], k) - sum(a[j] * G[j][i][k] for j in range(2))
          for k in range(2)] for i in range(2)]

    def symb(i, j, k, l):
        return sum(b[i][pj][pk][pl]
                   for pj, pk, pl in permutations((j, k, l))) / 6

    Bij = [[sum(symb(m, m, i, j) for m in range(2)) for j in range(2)]
           for i in range(2)]
    h = [[Bij[i][j] / 4 - (p[i][j] + q[i][j]) / 3 for j in range(2)]
         for i in range(2)]
    fij = [[p[i][j] + h[i][j] for j in range(2)] for i in range(2)]
    gij = [[q[i][j] + h[i][j] for j in range(2)] for i in range(2)]
    s = [[fij[i][j] + gij[i][j] + h[i][j] for j in range(2)]
         for i in range(2)]

    def dlt(i, j):
        return 1 if i == j else 0

    a4 = [[[[symb(i, j, k, l)
             - R(1, 3) * (s[j][k] * dlt(i, l) + s[k][l] * dlt(i, j)
                          + s[l][j] * dlt(i, k))
             for l in range(2)] for k in range(2)] for j in range(2)]
          for i in range(2)]
    fields = dict(gamma=G, a_cov=a, b=b, p=p, q=q, f2=fij, g2=gij, h2=h,
                  a4=a4)
    # a leading axis of one point, as `read_spec` reads a snapshot's fields
    return SimpleNamespace(**{name: np.array(v, dtype=object)[None]
                              for name, v in fields.items()})


Z = sp.Integer(0)


def claims_01(P):
    return [
        ("gamma.211", 2 * (x2 + y2) / (x1 - y1)),
        ("gamma.221", 1 / (x1 - y1)),
        ("gamma.212", -1 / (x1 - y1)),
        ("gamma.222", Z), ("gamma.111", Z), ("gamma.112", Z), ("gamma.121", Z),
        ("gamma.122", Z),
        ("a_cov.1", 2 / (y1 - x1)), ("a_cov.2", Z),
        ("p.11", 2 / (x1 - y1) ** 2), ("q.11", -2 / (x1 - y1) ** 2),
        ("p.21", Z), ("p.22", Z), ("q.21", Z), ("q.22", Z),
        ("b.2112", 2 / (x1 - y1) ** 2), ("b.2121", -2 / (x1 - y1) ** 2),
        ("b.2111", -8 / ((x2 + y2) * (x1 - y1) ** 2)),
        ("b.1111", Z), ("b.1222", Z), ("b.2222", Z), ("b.2211", Z),
        ("b.2122", Z), ("b.2212", Z),
        ("h2.11", Z), ("h2.12", Z), ("h2.22", Z),
        ("f2.11", 2 / (x1 - y1) ** 2), ("g2.11", -2 / (x1 - y1) ** 2),
        ("f2.12", Z), ("f2.22", Z), ("g2.12", Z), ("g2.22", Z),
        ("a4.2111", -8 / ((x2 + y2) * (x1 - y1) ** 2)),
        ("a4.1111", Z), ("a4.1112", Z), ("a4.2112", Z),
        ("a4.2122", Z), ("a4.2222", Z),
        # corrected readings of the two rows above
        ("b.2111", -8 * (x2 + y2) / (x1 - y1) ** 2),
        ("a4.2111", -8 * (x2 + y2) / (x1 - y1) ** 2),
    ]


def claims_02(P):
    quar = R(1, 4)
    dif = 1 / x1 ** 2 - 1 / y1 ** 2
    return [
        ("a_cov.1", 1 / y1 - 1 / x1), ("a_cov.2", Z),
        ("gamma.212", -1 / x1), ("gamma.221", -1 / y1),
        ("gamma.211", x2 / x1 - y2 / y1), ("gamma.222", Z),
        ("gamma.111", Z), ("gamma.122", Z),
        ("p.11", 1 / x1 ** 2), ("q.11", -1 / y1 ** 2),
        ("p.21", Z), ("p.22", Z), ("q.21", Z), ("q.22", Z),
        ("b.2111", (1 / y1 - 1 / x1) * (x2 / x1 - y2 / y1)),
        ("b.2121", -1 / y1 ** 2), ("b.2112", 1 / x1 ** 2),
        ("b.1111", Z), ("b.2211", Z), ("b.2122", Z), ("b.2212", Z),
        ("b.2221", Z), ("b.2222", Z),
        ("h2.11", quar * (1 / y1 ** 2 - 1 / x1 ** 2)),
        ("f2.11", quar * (3 / x1 ** 2 + 1 / y1 ** 2)),
        ("g2.11", -quar * (1 / x1 ** 2 + 3 / y1 ** 2)),
        ("f2.12", Z), ("f2.22", Z), ("g2.12", Z), ("g2.22", Z),
        ("h2.12", Z), ("h2.22", Z),
        ("a4.1111", -quar * dif),
        ("a4.2211", quar * dif), ("a4.2121", quar * dif),
        ("a4.2112", quar * dif),
        ("a4.2111", (1 / y1 - 1 / x1) * (x2 / x1 - y2 / y1)),
        ("a4.1122", Z), ("a4.2122", Z), ("a4.2222", Z), ("a4.1222", Z),
        ("s.11", quar * dif),
    ]


def claims_03(P):
    return [
        ("a_cov.1", Z), ("a_cov.2", 1 / (x2 * y2)),
        ("gamma.121", -1 / (x2 * y2)), ("gamma.222", -1 / (x2 * y2)),
        ("gamma.111", Z), ("gamma.112", Z), ("gamma.122", Z), ("gamma.211", Z),
        ("gamma.212", Z), ("gamma.221", Z),
        ("p.22", -1 / (x2 * y2) ** 2),
        ("p.11", Z), ("p.12", Z), ("q.11", Z), ("q.12", Z), ("q.22", Z),
        ("b.1121", -1 / (2 * (x2 * y2) ** 2)),
        ("b.1122", -1 / (2 * (x2 * y2) ** 2)),
        ("b.2221", 1 / (2 * (x2 * y2) ** 2)),
        ("b.1111", Z), ("b.2222", Z), ("b.2212", Z), ("b.2211", Z),
        ("b.1112", Z),
        ("f2.11", Z), ("f2.12", Z), ("g2.11", Z), ("g2.12", Z),
        ("h2.11", Z), ("h2.12", Z),
        ("g2.22", 1 / (3 * (x2 * y2) ** 2)),
        ("h2.22", 1 / (3 * (x2 * y2) ** 2)),
        ("f2.22", -2 / (3 * (x2 * y2) ** 2)),
        ("a4.2122", 1 / (6 * (x2 * y2) ** 2)),
        ("a4.1112", -1 / (6 * (x2 * y2) ** 2)),
        ("a4.1122", -1 / (6 * (x2 * y2) ** 2)),
        ("a4.1111", Z), ("a4.2222", Z), ("a4.2211", Z),
        ("s.22", Z),
    ]


def claims_04(P):
    sig = (x1 + y1) / y2
    tau = (x1 + y1) / x2
    return [
        ("gamma.111", -sig), ("gamma.212", -sig), ("gamma.112", -tau),
        ("gamma.222", -tau),
        ("gamma.121", Z), ("gamma.122", Z), ("gamma.211", Z), ("gamma.221", Z),
        ("a_cov.1", -sig), ("a_cov.2", tau),
        ("p.11", Z), ("p.12", Z), ("p.22", Z),
        ("q.11", Z), ("q.12", Z), ("q.22", Z),
        ("b.1111", Z), ("b.2222", Z), ("b.2111", Z), ("b.1222", Z),
        ("b.1121", Z), ("b.2212", Z),
        ("f2.11", Z), ("g2.11", Z), ("h2.11", Z),
        ("f2.22", Z), ("g2.22", Z), ("h2.22", Z),
        ("a4.1111", Z), ("a4.2222", Z),
    ]


def claims_05(P):
    sig = (x1 + x2) / (x2 - y1)
    tau = (y1 + y2) / (x2 - y1)
    return [
        ("gamma.111", sig), ("gamma.221", -sig), ("gamma.121", tau),
        ("gamma.222", -tau),
        ("gamma.112", Z), ("gamma.122", Z), ("gamma.211", Z),
        ("a_cov.1", sig), ("a_cov.2", tau),
        ("p.11", Z), ("p.22", Z), ("q.11", Z), ("q.22", Z),
        ("b.1111", Z), ("b.2222", Z), ("b.2111", Z), ("b.1222", Z),
        ("f2.11", Z), ("g2.22", Z), ("h2.11", Z),
        ("a4.1111", Z), ("a4.2222", Z),
    ]


def claims_06(P):
    sig = (x1 + x2) / (y1 + y2)
    return [
        ("gamma.111", -sig), ("gamma.121", -sig), ("gamma.212", -sig),
        ("gamma.222", -sig),
        ("gamma.112", Z), ("gamma.122", Z), ("gamma.211", Z), ("gamma.221", Z),
        ("a_cov.1", -sig), ("a_cov.2", -sig),
        ("p.11", Z), ("p.12", Z), ("p.22", Z),
        ("q.11", Z), ("q.12", Z), ("q.22", Z),
        ("b.1111", 2 * sig ** 2), ("b.2222", 2 * sig ** 2),
        ("b.1121", 2 * sig ** 2), ("b.2212", 2 * sig ** 2),
        ("b.2122", sig ** 2), ("b.1112", sig ** 2), ("b.1122", sig ** 2),
        ("b.1211", sig ** 2), ("b.1221", sig ** 2), ("b.2211", sig ** 2),
        ("b.2112", sig ** 2), ("b.2221", sig ** 2),
        ("b.1222", Z), ("b.2111", Z), ("b.1212", Z), ("b.2121", Z),
        ("f2.11", R(2, 3) * sig ** 2), ("g2.11", R(2, 3) * sig ** 2),
        ("h2.11", R(2, 3) * sig ** 2), ("f2.22", R(2, 3) * sig ** 2),
        ("g2.22", R(2, 3) * sig ** 2), ("h2.22", R(2, 3) * sig ** 2),
        ("f2.12", R(2, 3) * sig ** 2), ("g2.12", R(2, 3) * sig ** 2),
        ("h2.12", R(2, 3) * sig ** 2),
        ("a4.1111", R(4, 3) * sig ** 2), ("a4.2222", R(4, 3) * sig ** 2),
        ("a4.1112", R(2, 3) * sig ** 2), ("a4.2122", R(2, 3) * sig ** 2),
        ("a4.1122", Z), ("a4.2112", Z), ("a4.1222", Z), ("a4.2111", Z),
    ]


def claims_07(P):
    sig = (x2 - y2) ** 2 / (2 * (x1 * y2 - x2 * y1))
    tau = (x2 + y2) ** 2 / (2 * (x1 * y2 - x2 * y1))
    rho = (x2 ** 2 - y2 ** 2) / (x1 * y2 - x2 * y1)
    return [
        ("gamma.111", -rho), ("gamma.222", rho),
        ("gamma.112", -sig), ("gamma.121", sig),
        ("gamma.212", -tau), ("gamma.221", tau),
        ("gamma.122", Z), ("gamma.211", Z),
        ("a_cov.1", -2 * tau), ("a_cov.2", 2 * sig),
        ("p.11", -2 * tau ** 2), ("q.11", 2 * tau ** 2),
        ("p.22", -2 * sig ** 2), ("q.22", 2 * sig ** 2),
        ("p.12", -rho ** 2 / 2), ("p.21", -rho ** 2 / 2),
        ("q.12", rho ** 2 / 2), ("q.21", rho ** 2 / 2),
        ("b.1221", -2 * sig ** 2), ("b.1212", 2 * sig ** 2),
        ("b.1121", -rho ** 2 / 2), ("b.1112", rho ** 2 / 2),
        ("b.2212", -rho ** 2 / 2), ("b.2221", rho ** 2 / 2),
        ("b.2112", -2 * tau ** 2), ("b.2121", 2 * tau ** 2),
        ("b.1111", Z), ("b.2222", Z), ("b.1222", Z), ("b.2111", Z),
        ("b.1211", Z), ("b.2211", Z), ("b.1122", Z), ("b.2122", Z),
        ("f2.11", -2 * tau ** 2), ("g2.11", 2 * tau ** 2),
        ("f2.22", -2 * sig ** 2), ("g2.22", 2 * sig ** 2),
        ("f2.12", -rho ** 2 / 2), ("g2.12", rho ** 2 / 2),
        ("h2.11", Z), ("h2.12", Z), ("h2.22", Z),
        ("a4.1111", Z), ("a4.2222", Z), ("a4.1112", Z), ("a4.2122", Z),
    ]


def claims_08(P):
    return [
        ("a_cov.1", Z), ("a_cov.2", Z),
        ("p.11", Z), ("p.12", Z), ("p.21", Z), ("p.22", Z),
        ("q.11", Z), ("q.12", Z), ("q.21", Z), ("q.22", Z),
        ("f2.11", Z), ("f2.12", Z), ("f2.22", Z),
        ("g2.11", Z), ("g2.12", Z), ("g2.22", Z),
        ("h2.11", Z), ("h2.12", Z), ("h2.22", Z),
    ]


def claims_09(P):
    D9 = (x1 ** 2 - x2 ** 2) * (y1 ** 2 - y2 ** 2)
    m9 = -(x1 * y1 + x2 * y2) / D9
    p9 = (x1 * y2 + x2 * y1) / D9
    return [
        ("gamma.111", m9), ("gamma.122", m9), ("gamma.212", m9),
        ("gamma.221", m9),
        ("gamma.112", p9), ("gamma.121", p9), ("gamma.211", p9),
        ("gamma.222", p9),
        ("a_cov.1", Z), ("a_cov.2", Z),
        ("p.11", Z), ("p.12", Z), ("p.21", Z), ("p.22", Z),
        ("q.11", Z), ("q.12", Z), ("q.21", Z), ("q.22", Z),
        ("b.1111", Z), ("b.1112", Z), ("b.1221", Z), ("b.1222", Z),
        ("b.2111", Z), ("b.2222", Z),
        ("a4.1111", Z), ("a4.2222", Z),
        ("f2.11", Z), ("f2.12", Z), ("f2.22", Z),
        ("g2.11", Z), ("g2.22", Z), ("h2.11", Z), ("h2.22", Z),
    ]


def claims_10(P):
    big = sp.exp(y1) + (x1 / x2) * sp.exp(-y2)
    return [
        ("gamma.211", Z), ("gamma.212", Z), ("gamma.221", Z), ("gamma.222", Z),
        ("gamma.111", Z), ("gamma.112", sp.Integer(1)),
        ("gamma.121", -1 / x2), ("gamma.122", -big),
        ("a_cov.1", Z), ("a_cov.2", -(1 + 1 / x2)),
        ("p.11", Z), ("p.12", Z), ("p.21", Z), ("p.22", 1 / x2 ** 2),
        ("q.11", Z), ("q.12", Z), ("q.21", Z), ("q.22", Z),
        ("b.1222", big / x2), ("b.1221", 1 / x2 ** 2),
        ("b.1111", Z), ("b.1112", Z), ("b.1121", Z), ("b.1122", Z),
        ("b.1211", Z), ("b.1212", Z), ("b.2111", Z), ("b.2222", Z),
        ("a4.1122", 5 / (24 * x2 ** 2)), ("a4.2222", -3 / (8 * x2 ** 2)),
        ("a4.1111", Z), ("a4.1112", Z), ("a4.2111", Z),
        ("a4.1222", big / x2),
        ("f2.11", Z), ("f2.12", Z), ("f2.22", 19 / (24 * x2 ** 2)),
        ("g2.11", Z), ("g2.12", Z), ("g2.22", -5 / (24 * x2 ** 2)),
        ("h2.11", Z), ("h2.12", Z), ("h2.22", -5 / (24 * x2 ** 2)),
    ]


def claims_11(P):
    E_ = sp.E
    e12 = sp.exp(1 - 2 * y2)
    return [
        ("gamma.211", Z), ("gamma.212", Z), ("gamma.221", Z), ("gamma.222", Z),
        ("gamma.111", Z), ("gamma.112", sp.Integer(2)),
        ("gamma.121", (y2 - R(1, 2)) * e12),
        ("gamma.122", (-y2 + sp.exp(-2 * y2) * (y2 - R(1, 2))
                  * (2 * x1 + E_ * x2 * y2 - R(1, 2) * E_ * y2)) * e12),
        ("a_cov.1", Z), ("a_cov.2", (y2 - R(1, 2)) * e12 - 2),
        ("p.11", Z), ("p.12", Z), ("p.21", Z), ("p.22", Z),
        ("q.11", Z), ("q.12", Z), ("q.21", Z),
        ("q.22", 2 * (1 - y2) * e12),
        ("b.2111", Z), ("b.2222", Z),
        ("b.1111", Z), ("b.1112", Z), ("b.1121", Z), ("b.1211", Z),
        ("b.1222", (2 * y2 - 1) * (-(1 + R(1, 2) * E_ * y2) * e12
                                  + (y2 - R(1, 2)) * sp.exp(2 - 3 * y2)
                                  + (4 * x1 + 2 * E_ * x2 * y2
                                     - R(1, 2) * E_ * x2)
                                  * sp.exp(1 - 4 * y2))),
        ("b.1221", R(1, 2) * e12),
        ("b.1122", (y2 - R(1, 2)) * E_ + (y2 - 1) * e12),
        ("b.1212", (y2 - R(1, 2)) * (E_ - e12)),
        ("f2.11", Z), ("f2.12", Z), ("g2.11", Z), ("g2.12", Z),
        ("h2.11", Z), ("h2.12", Z),
        ("f2.22", (3 * E_ / 16) * (2 * y2 - 1)
         + (R(2, 3) * y2 - R(19, 24)) * e12),
        ("h2.22", (3 * E_ / 16) * (2 * y2 - 1)
         + (R(2, 3) * y2 - R(19, 24)) * e12),
        ("g2.22", (3 * E_ / 16) * (2 * y2 - 1)
         + (R(29, 24) - R(4, 3) * y2) * e12),
        ("a4.2222", Z), ("a4.2111", Z), ("a4.1111", Z), ("a4.1112", Z),
        ("a4.1122", R(1, 8) * (2 * y2 - 1) * (2 * E_ - 1)
         + R(1, 6) * (R(4, 9) * y2 - R(41, 36)) * e12),
    ]


def claims_12(P):
    A1_ = x1 ** 2 + 2 * x1 * y1 - y1 ** 2
    B1_ = y1 ** 2 + 2 * x1 * y1 - x1 ** 2
    B2_ = y2 ** 2 + 2 * x2 * y2 - x2 ** 2
    A2_ = x2 ** 2 + 2 * x2 * y2 - y2 ** 2
    b0000_print = -4 * (x1 + y1) ** 2 * (x1 ** 4 - 2 * x1 ** 3 * y1
                                         + 6 * x1 ** 2 * y1 ** 2
                                         + 2 * x1 * y1 ** 3 + y1 ** 4) \
        / (A1_ ** 4 * A2_)
    b1111_print = 4 * (x2 + y2) ** 2 * (x2 ** 4 + 2 * x2 ** 3 * y2
                                        + 6 * x2 ** 2 * y2 ** 2
                                        - 2 * x2 * y2 ** 3 + y2 ** 4) \
        / (B1_ ** 4 * B2_)
    pb0 = P.b[0, 0, 0, 0, 0]
    pb1 = P.b[0, 1, 1, 1, 1]
    return [
        ("gamma.111", 4 * x1 * y1 * (x1 + y1) / A1_ ** 2),
        ("gamma.222", 4 * x2 * y2 * (x2 + y2) / B2_ ** 2),
        ("gamma.112", Z), ("gamma.121", Z), ("gamma.122", Z), ("gamma.211", Z),
        ("gamma.212", Z), ("gamma.221", Z),
        ("a_cov.1", Z), ("a_cov.2", Z),
        ("p.11", Z), ("p.12", Z), ("p.21", Z), ("p.22", Z),
        ("q.11", Z), ("q.12", Z), ("q.21", Z), ("q.22", Z),
        ("b.1111", b0000_print), ("b.2222", b1111_print),
        ("b.1112", Z), ("b.1121", Z), ("b.1122", Z), ("b.1211", Z),
        ("b.1212", Z), ("b.1221", Z), ("b.1222", Z), ("b.2111", Z),
        ("b.2221", Z),
        ("a4.1222", Z), ("a4.2111", Z), ("a4.1112", Z), ("a4.2221", Z),
        ("a4.1111", 3 * pb0 / 4), ("a4.2222", 3 * pb1 / 4),
        ("a4.1122", -pb1 / 12), ("a4.2112", -pb0 / 12),
        ("f2.11", pb0 / 4), ("g2.11", pb0 / 4), ("h2.11", pb0 / 4),
        ("f2.12", Z), ("g2.12", Z), ("h2.12", Z),
        ("f2.22", pb1 / 4), ("g2.22", pb1 / 4), ("h2.22", pb1 / 4),
    ]


def claims_13(P):
    A1t = 1 + x1 * y1
    A2t = 1 + x2 * y2
    B1t = 1 + x1 ** 2 / 2
    B2t = 1 + x2 ** 2 / 2
    b0000_13 = (x1 ** 4 * A1t / 2 - x1 ** 2 - 1) / (A1t ** 3 * B1t)
    pb0 = P.b[0, 0, 0, 0, 0]
    return [
        ("gamma.112", Z), ("gamma.122", Z), ("gamma.211", Z), ("gamma.212", Z),
        ("gamma.121", Z), ("gamma.221", Z),
        ("gamma.111", -x1 / (A1t * B1t ** 2)),
        ("gamma.222", -x2 / (A2t * B2t ** 2)),
        ("a_cov.1", Z), ("a_cov.2", Z),
        ("p.11", Z), ("p.12", Z), ("p.21", Z), ("p.22", Z),
        ("q.11", Z), ("q.12", Z), ("q.21", Z), ("q.22", Z),
        ("b.1111", b0000_13),
        ("b.1112", Z), ("b.1121", Z), ("b.1122", Z), ("b.1211", Z),
        ("b.1212", Z), ("b.1221", Z), ("b.1222", Z), ("b.2111", Z),
        ("b.2222", Z),
        ("a4.1112", Z), ("a4.1222", Z), ("a4.2111", Z), ("a4.2222", Z),
        ("f2.12", Z), ("g2.12", Z), ("h2.12", Z),
        ("f2.22", Z), ("g2.22", Z), ("h2.22", Z),
        ("a4.1111", pb0 / 4),
        ("f2.11", pb0 / 4), ("g2.11", pb0 / 4), ("h2.11", pb0 / 4),
    ]


def claims_14(P):
    q22 = 1 / ((1 + y2) ** 2 * x2 ** 2 * y2)
    pb = P.b[0, 0, 1, 0, 1]
    return [
        ("gamma.112", -1 / (x2 * (1 + y2))),
        ("gamma.111", Z), ("gamma.121", Z), ("gamma.122", Z),
        ("gamma.222", -1 / (x2 * y2)),
        ("gamma.211", Z), ("gamma.212", Z), ("gamma.221", Z),
        ("a_cov.1", Z), ("a_cov.2", 1 / ((1 + y2) * x2)),
        ("p.11", Z), ("p.12", Z), ("p.21", Z), ("p.22", Z),
        ("q.11", Z), ("q.12", Z), ("q.21", Z), ("q.22", q22),
        ("b.1212", q22),
        ("b.1111", Z), ("b.1112", Z), ("b.1121", Z), ("b.1122", Z),
        ("b.1211", Z), ("b.1221", Z), ("b.1222", Z), ("b.2111", Z),
        ("b.2222", Z), ("b.2221", Z),
        ("a4.1111", Z), ("a4.1112", Z), ("a4.1122", Z), ("a4.1222", Z),
        ("a4.2111", Z), ("a4.2112", Z), ("a4.2122", Z),
        ("f2.11", Z), ("f2.12", Z), ("g2.11", Z), ("g2.12", Z),
        ("h2.11", Z), ("h2.12", Z),
        ("a4.2222", -pb / 4), ("f2.22", -pb / 4), ("h2.22", -pb / 4),
        ("g2.22", 3 * pb / 4),
    ]


def claims_15(P):
    sig = 1 / (x2 * (1 + y2))
    tau = 1 / (y2 * (1 + x2))
    u1_15 = x1 + y1 + x1 * y2 + x2 * y1
    return [
        ("gamma.111", Z), ("gamma.211", Z), ("gamma.212", Z), ("gamma.221", Z),
        ("gamma.112", -sig), ("gamma.121", -tau),
        ("gamma.122", sig * tau * u1_15),
        ("gamma.222", -1 / (x2 * y2)),
        ("a_cov.1", Z), ("a_cov.2", sig * tau * (y2 - x2)),
        ("p.11", Z), ("p.12", Z), ("p.21", Z), ("p.22", -tau ** 2 / x2),
        ("q.11", Z), ("q.12", Z), ("q.21", Z), ("q.22", sig ** 2 / y2),
        ("b.2111", Z), ("b.2222", Z), ("b.2221", Z),
        ("b.1111", Z), ("b.1112", Z), ("b.1121", Z), ("b.1211", Z),
        ("b.1122", Z),
        ("b.1212", sig ** 2 / y2),
        ("b.1221", -tau ** 2 / x2),
        ("b.1222", sig * tau * u1_15 * sig * tau * (y2 - x2)),
        ("a4.1222", sig * tau * u1_15 * sig * tau * (y2 - x2)),
        ("f2.11", Z), ("f2.12", Z), ("g2.11", Z), ("g2.12", Z),
        ("h2.11", Z), ("h2.12", Z),
        ("h2.22", R(1, 4) * sig ** 2 * tau ** 2 * (y2 - x2) * (1 - x2 * y2)),
        ("f2.22", -R(1, 4) * sig ** 2 * tau ** 2
         * (3 * x2 * (1 + y2) ** 2 + x2 * (1 + x2) ** 2)),
        ("g2.22", R(1, 4) * sig ** 2 * tau ** 2
         * (3 * y2 * (1 + x2) ** 2 + y2 * (1 + y2) ** 2)),
    ]


EXAMPLES = {
    1: dict(
        claims=claims_01,
        points=[(1, 1, 0, 1), (2, 1, -1, 3), (R(1, 2), 1, R(3, 2), 2)],
        labels=["A121", "C11", "E71"],
        fg="F2",
        notes=["the transcribed b.2111 and a4.2111 rows put the factor "
               "(x2 + y2) in the denominator; -8*(x2+y2)/(x1-y1)^2 "
               "matches the recomputation and is included as a verified "
               "record"],
    ),
    2: dict(
        claims=claims_02,
        points=[(1, 1, 2, 1), (2, -1, 1, 3), (R(1, 2), 2, R(5, 2), -2)],
        labels=["A121", "C2", "E7"],
        fg="F2",
        notes=["s.11 and p.11 + q.11 are nonzero at every sampled point, "
               "so the row classifies as C2 and E7"],
    ),
    3: dict(
        claims=claims_03,
        points=[(1, 1, 2, 1), (2, -1, 1, 3), (R(1, 2), 2, R(5, 2), -2)],
        labels=["A131", "D231", "E1"],
        fg="G",
        notes=["a_cov.2 carries the opposite sign in the transcription, "
               "and its nonzero curvature rows do not reproduce: the "
               "recomputation gives b = 0, a4 = 0 and p = q = 0, a group "
               "web (D231, E1)"],
    ),
    4: dict(
        claims=claims_04,
        points=[(1, 1, 2, 1), (2, -1, 1, 3), (R(1, 2), 2, R(5, 2), -2)],
        labels=["A1", "D231", "E1"],
        fg="F1",
        notes=[],
    ),
    5: dict(
        claims=claims_05,
        points=[(1, 1, 2, 1), (2, -1, 1, 3), (R(1, 2), 2, R(5, 2), -2)],
        labels=["A1", "D231", "E1"],
        fg="F1",
        notes=[],
    ),
    6: dict(
        claims=claims_06,
        points=[(1, 1, 2, 1), (2, -1, 1, 3), (R(1, 2), 2, R(5, 2), -2)],
        labels=["A1121", "D231", "E1"],
        fg="G",
        notes=["the transcribed curvature block is internally "
               "inconsistent; recomputation gives f2 = g2 = h2 = 0 and "
               "a4 = 0, a group web (D231, E1)"],
    ),
    7: dict(
        claims=claims_07,
        points=[(1, 1, 2, 3), (2, -1, 1, 3), (R(1, 2), 2, R(5, 2), -3)],
        labels=["A2", "D21", "E8"],
        fg="F1",
        notes=["the transcribed connection and torsion rows carry one "
               "overall sign flip; every quadratic consequence of them "
               "matches the recomputation"],
    ),
    8: dict(
        claims=claims_08,
        points=[(1, 2, 1, 3), (2, -1, 3, 1), (R(1, 2), 1, 2, -R(1, 2))],
        labels=["B", "D232", "E1"],
        fg=None,
        notes=["records are frozen at the default coefficients, which "
               "reproduce example09; the vanishing rows hold for every "
               "nondegenerate coefficient choice, so the family is a "
               "group web throughout and its transcribed nonzero "
               "curvature claim does not reproduce for any binding"],
    ),
    9: dict(
        claims=claims_09,
        points=[(2, 0, 2, 0), (1, 2, 3, 1), (R(1, 2), 2, -1, 3)],
        labels=["B", "D232", "E1"],
        fg="F1",
        notes=[],
    ),
    10: dict(
        claims=claims_10,
        points=[(1, 1, 0, 0), (R(1, 2), 2, 1, -1), (2, -1, 1, 2)],
        labels=["A131", "C2", "E2"],
        fg="G",
        notes=["the last spur row (f2.22, g2.22, h2.22, a4.1122, "
               "a4.2222) does not reproduce; recomputed values kept"],
    ),
    11: dict(
        claims=claims_11,
        points=[(1, 1, 0, 0), (R(1, 2), 2, 1, -1), (2, -1, -1, R(1, 2))],
        labels=["A131", "C12", "E1"],
        fg=None,
        notes=["the defining function uses the corrected exponent "
               "reading exp(2*y1); the raw transcription has a singular "
               "Jacobian everywhere",
               "recomputation gives q = 0 and f2 = g2 = h2 = 0 where "
               "the transcribed rows are nonzero, so the row classifies "
               "as C12 and E1"],
    ),
    12: dict(
        claims=claims_12,
        points=[(1, 1, 2, 2), (2, 1, 1, 3), (R(1, 2), 1, 1, R(1, 2))],
        labels=["B", "C2", "E1"],
        fg=None,
        notes=["the transcribed nonzero connection and curvature entries "
               "disagree in detail (denominator powers and one factor); "
               "the diagonal a4 relation is b/4, not 3b/4"],
    ),
    13: dict(
        claims=claims_13,
        points=[(1, 1, 1, 1), (2, 1, R(1, 2), 3), (1, 2, 3, R(1, 2))],
        labels=["B", "C2", "E1"],
        fg=None,
        notes=["the nonzero transcribed entries (gamma.111, gamma.222, "
               "b.1111) disagree in detail, and recomputation gives "
               "nonzero b.2222, f2.22, g2.22, h2.22 by the symmetry of "
               "the two components"],
    ),
    14: dict(
        claims=claims_14,
        points=[(1, 1, 1, 1), (2, -1, 1, 2), (R(1, 2), 2, -1, R(1, 2))],
        labels=["A131", "C2", "E3"],
        fg=None,
        notes=["a4.1122 is transcribed as zero but does not reproduce"],
    ),
    15: dict(
        claims=claims_15,
        points=[(1, 1, 1, 1), (2, -2, 1, R(1, 2)), (R(1, 2), 3, 2, -3)],
        labels=["A131", "C2", "E4"],
        fg=None,
        notes=["the spur rows f2.22, g2.22, h2.22 disagree with the "
               "recomputation; the compact b.1222 product form verifies"],
    ),
}


def evalf(expr, subs):
    v = expr.subs(subs)
    if v.free_symbols:
        raise ValueError("unresolved symbols %s" % v.free_symbols)
    return v.evalf(PREC)


def build(index, spec):
    """The golden sidecar document of example `index`."""
    name = "example%02d" % index
    web = we.parse_web((CORPUS / (name + ".web")).read_text(), name=name)
    P = pipeline(*to_sympy(web))

    points = spec["points"]
    for pnt in points:
        fl = tuple(float(c) for c in pnt)
        if not web.admissible(fl):
            raise SystemExit("%s: stored point %s is inadmissible"
                             % (name, fl))
    subs_list = [dict(zip(X + Y, p)) for p in points]

    records = []
    for path, printed in spec["claims"](P):
        # "s" is f2 + g2 + h2, as `TensorSnapshot.lookup` reads it
        mine = read_spec("f2.{0} + g2.{0} + h2.{0}".format(path[2:])
                         if path.startswith("s.") else path, P)[0, 0]
        ok = all(abs(evalf(mine - printed, s)) < ZTOL for s in subs_list)
        for ip, s in enumerate(subs_list):
            rec = {"point": ip,
                   "path": path,
                   "value": float(evalf(printed, s)),
                   "reliability": "verified" if ok else "printed-only"}
            if not ok:
                rec["recomputed"] = float(evalf(mine, s))
            records.append(rec)

    return {
        "schema": 1,
        "web": name,
        "index": index,
        "expected_labels": spec["labels"],
        "fg": spec["fg"],
        "notes": spec["notes"],
        "points": [[float(c) for c in p] for p in points],
        "records": records,
    }


def main():
    for index in sorted(EXAMPLES):
        doc = build(index, EXAMPLES[index])
        with (CORPUS / (doc["web"] + ".golden.json")).open("w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        records = doc["records"]
        n_ver = sum(1 for r in records if r["reliability"] == "verified")
        printed_only = [r["path"] for r in records if r["point"] == 0
                        and r["reliability"] == "printed-only"]
        print("%s: %d records (%d verified), printed-only forms: %s"
              % (doc["web"], len(records), n_ver,
                 " ".join(printed_only) or "none"))


if __name__ == "__main__":
    main()

"""The symbolic reference `tools/gen_golden.py`, which writes the golden
sidecars: it reproduces them from the package's own programs and specs.
It needs sympy, which the package does not, so without sympy the module is
skipped."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

sp = pytest.importorskip("sympy")

from threeweb.classify import LINEAR_TESTS  # noqa: E402
from threeweb.corpus import load_example  # noqa: E402
from threeweb.expr import parse_web  # noqa: E402
from threeweb.tensor import read_spec, snapshot  # noqa: E402

_SPEC = importlib.util.spec_from_file_location(
    "gen_golden",
    Path(__file__).resolve().parents[1] / "tools" / "gen_golden.py")
gen_golden = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(gen_golden)


@pytest.mark.parametrize("index", [1, 8])
def test_build_reproduces_the_frozen_sidecar(index):
    # the other webs take up to 10 s each; CI regenerates them all
    frozen = gen_golden.CORPUS / ("example%02d.golden.json" % index)
    doc = gen_golden.build(index, gen_golden.EXAMPLES[index])
    assert doc == json.loads(frozen.read_text())


def test_a_deep_web_converts():
    # a sum of 3000 terms is a tree 3000 levels deep, past Python's stack
    # for a recursive walk
    web = parse_web("u1 = %s\nu2 = x2*y2\n" % " + ".join(["x1*y1"] * 3000))
    x1, x2, y1, y2 = gen_golden.X + gen_golden.Y
    assert gen_golden.to_sympy(web) == [3000 * x1 * y1, x2 * y2]


def test_a_parameter_takes_its_default_exactly():
    web = parse_web("param a = 0.1\nu1 = x1 + a*euler*y1^-2\n"
                    "u2 = ln(x2*y2)\n")
    x1, x2, y1, y2 = gen_golden.X + gen_golden.Y
    # 0.1 is the double nearest it, and euler is e
    a = sp.Rational(0.1)
    assert a != sp.Rational(1, 10)
    assert gen_golden.to_sympy(web) == [x1 + a * sp.E / y1 ** 2,
                                        sp.log(x2 * y2)]


def test_pipeline_fields_read_as_a_snapshot_does():
    # every linear test's spec reads off the symbolic fields, and at a
    # point it agrees with the float snapshot there
    entry = load_example(1)
    fields = gen_golden.pipeline(*gen_golden.to_sympy(entry.web))
    point = entry.points[1]
    at = dict(zip(gen_golden.X + gen_golden.Y, point))
    snap = snapshot(entry.web, point)
    nonzero = 0
    for name, spec in LINEAR_TESTS.items():
        got = np.array([float(sp.sympify(c).subs(at))
                        for c in read_spec(spec, fields)[0]])
        want = read_spec(spec, snap)
        assert np.allclose(got, want, rtol=1e-9, atol=1e-12), name
        nonzero += np.any(want != 0.0)
    assert nonzero > len(LINEAR_TESTS) // 2

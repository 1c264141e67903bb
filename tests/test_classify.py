import itertools
import json
import math
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import (APQ_FORMULAS, LINEAR_FORMULAS, MAP_FORMULAS,
                     formulas_at_powers, hexagonality_polynomials,
                     plant_group_without_bol, read_formulas)
from threeweb import classify, tensor
from threeweb.classify import (
    IdentityVerdict,
    RunConfig,
    SamplerExhausted,
    classify_generic,
    classify_web,
    collect_snapshots,
    first_match,
    _Tester,
)
from threeweb.corpus import load_corpus, load_example
from threeweb.expr import EvalError, Web, format_web, parse_web
from threeweb.jet import jet_lift
from threeweb.tensor import (UNIT_FIELDS, read_off, read_spec, snapshot,
                             sym3_lower)

EX9_MUTATED_BILINEAR = (
    "u1 = x1*y1 + x2*y2 + 0.1*x1*y1\n"
    "u2 = x1*y2 + x2*y1\n"
    "domain x1 - x2 != 0\ndomain x1 + x2 != 0\n"
    "domain y1 - y2 != 0\ndomain y1 + y2 != 0\n")

EX9_MUTATED_NONBILINEAR = (
    "u1 = x1*y1 + x2*y2\n"
    "u2 = x1*y2 + x2*y1 + 0.1*x1^2*y1\n"
    "domain x1 - x2 != 0\ndomain x1 + x2 != 0\n"
    "domain y1 - y2 != 0\ndomain y1 + y2 != 0\n")


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(points=4)
    with pytest.raises(ValueError):
        RunConfig(tol=0.0)
    with pytest.raises(ValueError):
        RunConfig(tol=1e-2)
    with pytest.raises(ValueError):
        RunConfig(box=(2.0, -2.0))
    with pytest.raises(ValueError, match="box must be a pair lo, hi, got"):
        RunConfig(box=(0.0, 1.0, 2.0))
    with pytest.raises(ValueError, match="box must be a pair lo, hi, got"):
        RunConfig(box=1.0)
    with pytest.raises(ValueError):
        RunConfig(margin=0.0)
    with pytest.raises(ValueError, match="points must be an integer"):
        RunConfig(points=64.5)
    with pytest.raises(ValueError, match="seed must be a non-negative"):
        RunConfig(seed=1.5)
    with pytest.raises(ValueError, match="seed must be a non-negative"):
        RunConfig(seed=-1)
    with pytest.raises(ValueError, match="seed must be a non-negative"):
        RunConfig(seed=True)
    numpy_ints = RunConfig(points=np.int64(16), seed=np.int64(3))
    assert json.dumps(numpy_ints.to_dict()).startswith(
        '{"points": 16, "tol": 1e-07, "seed": 3,')
    cfg = RunConfig()
    assert cfg.points == 64 and cfg.tol == 1e-7 and cfg.seed == 42


@pytest.mark.parametrize("box", [(0.0, np.inf), (-1e308, 1e308),
                                 (np.nan, 1.0)])
def test_run_config_rejects_a_box_of_infinite_width(box):
    with pytest.raises(ValueError, match="finite width"):
        RunConfig(box=box)


def test_run_config_rejects_a_nan_margin():
    with pytest.raises(ValueError, match="margin"):
        RunConfig(margin=float("nan"))


def test_overflowing_row_norms_reject_their_rows_quietly():
    # the Jacobian rows of example01 overflow near 1e308: no warning, and
    # no such row is kept
    with pytest.raises(SamplerExhausted):
        classify_web(load_example(1).web, RunConfig(box=(0.0, 1e308)))


def test_sampler_respects_domain():
    web = load_example(1).web          # needs x1 - y1 != 0
    cfg = RunConfig(points=32, seed=5)
    rows = collect_snapshots(web, cfg).points
    assert len(rows) == cfg.points
    assert np.all(np.abs(rows[:, 0] - rows[:, 2]) > cfg.margin)
    assert np.all((cfg.box[0] <= rows) & (rows <= cfg.box[1]))


def test_sampler_exhaustion():
    web = parse_web("u1 = x1 + y1\nu2 = x2 + y2\n"
                    "domain x1 > 0\ndomain -x1 > 0\n", name="empty-domain")
    with pytest.raises(SamplerExhausted):
        classify_web(web, RunConfig(points=8))


@pytest.mark.parametrize("scale", ["1e-30", "1e-12", "1e12", "1e30"])
def test_rescaling_a_defining_function_keeps_the_web(scale):
    # a constant times u2 defines the same web; a singular test against the
    # block's largest entry squared made these rows degenerate, and the
    # sampler ran out
    text = ("u1 = x1*y1 + x2*y2\nu2 = %s*(x1*y2 + x2*y1)\n"
            "domain x1 - x2 != 0\ndomain x1 + x2 != 0\n")
    web, plain = parse_web(text % scale), parse_web(text % "1")
    assert classify_web(web).labels == ("B", "D232", "E1")
    point = (0.5, -1.2, 0.7, 0.3)
    snapshot(web, point)  # no DegenerateWeb
    ndet = [tensor.jacobian_blocks(jet_lift(w.lift_program, point))[2]
            for w in (web, plain)]
    np.testing.assert_allclose(*ndet, rtol=1e-15)


def test_a_sampler_round_draws_a_bounded_number_of_points():
    # an empty domain at 2000 points: without a cap on a round, the second
    # round would draw nearly the whole budget of a million points at once
    web = parse_web("u1 = x1 + y1\nu2 = x2 + y2\ndomain -(x1^2) - 1 > 0\n")
    tracemalloc.start()
    try:
        with pytest.raises(SamplerExhausted):
            collect_snapshots(web, RunConfig(points=2000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6, "peak %.1f MB" % (peak / 1e6)


@pytest.mark.parametrize("index, points", [(1, 64), (7, 40), (12, 200)])
def test_the_round_cap_leaves_the_sample_unchanged(index, points,
                                                   monkeypatch):
    """The draws are one seeded stream however they are split into
    rounds, so a smaller cap gives the same sample."""
    web = load_example(index).web
    config = RunConfig(points=points, seed=index)
    want = collect_snapshots(web, config).points
    monkeypatch.setattr(classify, "ROUND_DRAWS", 23)
    assert np.array_equal(collect_snapshots(web, config).points, want)


def test_predicate_implication_chain():
    for entry in load_corpus():
        p = classify_web(entry.web).predicates
        if p["parallelizable"].holds:
            assert p["group"].holds and p["isoclinicly_geodesic"].holds
        if p["group"].holds:
            assert p["Bol"].holds
        if p["Bol"].holds:
            assert p["hexagonal"].holds
        for ladder in ("hexagonal", "Bol", "group"):
            if p[ladder].holds:
                assert p["transversally_geodesic"].holds
        if p["hexagonal"].holds:
            assert p["almost_algebraizable"].holds
        if p["Bol"].holds:
            assert p["almost_Bol"].holds
        if p["group"].holds:
            assert p["almost_parallelizable"].holds
        # every bundled web is isoclinic
        assert p["isoclinic"].holds, entry.name


def test_class_columns_are_exclusive():
    for entry in load_corpus():
        r = classify_web(entry.web)
        assert not (r.classes["B"] and r.classes["A"])  # B means a == 0
        assert not (r.classes["C"] and r.classes["D"])  # split on a4
        assert r.classes["E"]  # corpus always lands an E
        assert r.labels == entry.expected_labels


def test_hexagonality_polynomial_identity():
    rng = np.random.default_rng(99)
    ts = rng.uniform(-4.0, 4.0, 20)
    for entry in load_corpus():
        for pt in entry.points:
            from threeweb.tensor import snapshot
            s = snapshot(entry.web, tuple(pt))
            for t in ts:
                quartic, cubic1, cubic2 = hexagonality_polynomials(s, t)
                scale = max(1.0, abs(quartic), abs(cubic1), abs(t * cubic2))
                assert abs(quartic + t * cubic2 + cubic1) / scale < 1e-9


def test_hexagonality_polynomials_detect_curvature():
    # group web: the symmetrized curvature vanishes, so all three vanish
    s9 = collect_snapshots(load_example(9).web, RunConfig(points=8))[0]
    q, c1, c2 = hexagonality_polynomials(s9, 1.7)
    assert max(abs(q), abs(c1), abs(c2)) < 1e-9
    # non-hexagonal web: they do not vanish
    from threeweb.tensor import snapshot
    s1 = snapshot(load_example(1).web, (1.0, 1.0, 0.0, 1.0))
    assert abs(hexagonality_polynomials(s1, 1.0)[2]) > 1e-3


def test_labels_invariant_across_seeds():
    for index in (1, 7, 9, 12):
        entry = load_example(index)
        for seed in range(10):
            r = classify_web(entry.web, RunConfig(seed=seed))
            assert r.labels == entry.expected_labels, (index, seed)


def test_report_json_is_reproducible():
    r1 = classify_web(load_example(7).web)
    r2 = classify_web(load_example(7).web)
    assert (json.dumps(r1.to_dict(), sort_keys=True)
            == json.dumps(r2.to_dict(), sort_keys=True))


def test_report_to_dict_shape():
    doc = classify_web(load_example(9).web).to_dict()
    assert doc["web"] == "example09"
    assert doc["classes"] == {"A": "", "B": "B", "C": "", "D": "D232",
                              "E": "E1"}
    # the stored F/G cell is the CLI's to show (tests/test_cli.py)
    assert "asserted_metadata" not in doc
    assert doc["predicates"]["parallelizable"]["holds"] is True
    assert json.loads(json.dumps(doc)) == doc


def test_bilinear_perturbation_is_inert():
    # adding 0.1*x1*y1 keeps the defining functions bilinear, and every
    # bilinear web multiplies out to a group web, so nothing changes
    r = classify_web(parse_web(EX9_MUTATED_BILINEAR, name="mut"))
    assert r.labels == ("B", "D232", "E1")
    assert r.predicates["parallelizable"].holds


def test_nonbilinear_perturbation_breaks_parallelizability():
    r = classify_web(parse_web(EX9_MUTATED_NONBILINEAR, name="mut2"))
    assert not r.predicates["parallelizable"].holds
    assert "D232" not in r.labels
    assert r.classes["A"] == "A2"
    assert r.classes["C"] == "C2"
    assert not r.inconclusive


def test_generic_classification_of_parameterized_web():
    entry = load_example(8)
    r = classify_generic(entry.web, bindings=5)
    assert r.generic is True
    assert r.labels == ("B", "D232", "E1")
    assert len(r.per_binding) == 5
    seen = {tuple(sorted(pb["params"].items())) for pb in r.per_binding}
    assert len(seen) == 5
    for pb in r.per_binding:
        assert pb["labels"] == ["B", "D232", "E1"]


@pytest.mark.parametrize("bindings", [0, -1, 2.0, True])
def test_generic_classification_needs_a_whole_number_of_bindings(bindings):
    # no binding at all used to end in an IndexError
    with pytest.raises(ValueError, match="bindings must be an integer >= 1"):
        classify_generic(load_example(8).web, bindings=bindings)


def test_generic_classification_skips_bindings_with_undefined_constants():
    # of the bindings drawn from [-2, 2], ln(a) is undefined at a <= 0 and
    # exp(700*a) overflows at a > 1.014
    web = parse_web("param a = 1\nu1 = x1 + ln(a)*y1*x2 + 1e-300*exp(700*a)*y2"
                    "\nu2 = x2 + y2\n")
    r = classify_generic(web, RunConfig(points=8), bindings=3)
    assert len(r.per_binding) == 3
    assert all(0 < pb["params"]["a"] < 1.02 for pb in r.per_binding)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_reused_web_classifies_as_freshly_parsed_ones(seed, monkeypatch):
    # the web keeps its compiled programs across calls and bindings; each
    # binding's report must equal the one a fresh parse of the web gives
    reused = load_example(8).web
    classify_generic(reused, RunConfig(seed=seed + 1))  # compiles and runs
    reports = []

    def recording(*args, **kwargs):
        report = classify_web(*args, **kwargs)
        reports.append(json.dumps(report.to_dict()))
        return report

    monkeypatch.setattr(classify, "classify_web", recording)
    runs = []
    for web in (reused, load_example(8).web):
        reports.clear()
        final = classify_generic(web, RunConfig(seed=seed))
        runs.append((list(reports), json.dumps(final.to_dict())))
    assert runs[0] == runs[1]
    assert len(runs[0][0]) >= 5


def test_generic_classification_needs_parameters():
    with pytest.raises(ValueError):
        classify_generic(load_example(1).web)


def test_parameter_overrides_reach_classification():
    entry = load_example(8)
    r = classify_web(entry.web, params={"a": 2.0, "c": 0.0})
    assert r.params["a"] == 2.0
    assert r.params["c"] == 0.0
    assert r.params["A"] == 1.0      # untouched default
    assert r.labels == ("B", "D232", "E1")


def test_non_finite_parameter_is_an_error():
    with pytest.raises(EvalError, match="parameter a"):
        classify_web(load_example(8).web, params={"a": math.inf})


def test_ambiguity_band_is_reported():
    # pick a tolerance equal to a predicate's tiny-but-nonzero residual so
    # the verdict lands inside the [tol, 10*tol) band
    web = load_example(9).web
    first = classify_web(web)
    r = first.predicates["transversally_geodesic"].max_residual
    assert 0.0 < r < 1e-9
    again = classify_web(web, RunConfig(tol=r))
    assert "transversally_geodesic" in again.inconclusive
    assert not again.predicates["transversally_geodesic"].holds
    # the predicates that join transversally_geodesic land in the band too
    joined = ("hexagonal", "Bol", "group", "parallelizable")
    assert set(joined) <= set(again.inconclusive)
    assert not any(again.predicates[name].holds for name in joined)


def test_an_e_test_in_the_ambiguity_band_is_listed():
    # example04's p and q vanish, so its E tests hold with roundoff-sized
    # residuals; the first such residual as tol puts that test in the band
    web = load_example(4).web
    first = classify_web(web).verdicts
    name = next(n for n in classify.E_TESTS
                if 0.0 < first[n].max_residual < 1e-9)
    tol = first[name].max_residual
    again = classify_web(web, RunConfig(tol=tol))
    assert name in again.inconclusive
    assert not again.verdicts[name].holds
    assert again.inconclusive == tuple(
        n for n, v in again.verdicts.items()
        if tol <= v.max_residual < 10 * tol)


def test_the_verdict_table_holds_every_verdict():
    names = set()
    for entry in load_corpus():
        r = classify_web(entry.web)
        names.update(r.verdicts)
        assert list(r.verdicts) == [n for n in classify._ORDER
                                    if n in r.verdicts]
        for name, v in {**r.predicates, **r.branch_a}.items():
            if isinstance(v, IdentityVerdict):
                assert v is r.verdicts[name], (entry.name, name)
            elif v is None:
                assert name not in r.verdicts, (entry.name, name)
        assert "verdicts" not in r.to_dict()
    assert names == set(classify._ORDER)


def test_group_without_almost_bol_is_an_error(monkeypatch):
    plant_group_without_bol(monkeypatch)
    with pytest.raises(ValueError, match="group holds but almost_Bol fails "
                                         r"\(max_residual 2e-07\) at tol "
                                         "1e-07"):
        classify_web(load_example(9).web)


# --- t_constant: the zero test a2 - t0 a1 ------------------------------

@pytest.mark.parametrize("index", [4, 5, 7])
def test_t_constant_fails_with_a_witness(index):
    t = classify_web(load_example(index).web).branch_a["t_constant"]
    assert not t.holds and t.max_residual >= 0.1
    assert t.witness is not None and t.points_tested == 64


@pytest.mark.parametrize("index", [1, 2, 6])
def test_t_constant_holds(index):
    branch = classify_web(load_example(index).web).branch_a
    t = branch["t_constant"]
    assert t.holds and t.max_residual < 1e-12 and t.witness is None
    assert t.points_tested == 64 and branch["t_value"] is not None


def test_t_constant_can_be_inconclusive():
    web = load_example(6).web
    r = classify_web(web).branch_a["t_constant"].max_residual
    assert 0.0 < r < 1e-9
    again = classify_web(web, RunConfig(tol=r))
    assert "t_constant" in again.inconclusive
    branch = again.branch_a
    assert not branch["t_constant"].holds
    assert branch["t_value"] is None and branch["hex_at_t"] is None


def both(va, vb):
    """The conjunction of two verdicts, reported as one: the reference the
    joined predicates are checked against."""
    return SimpleNamespace(holds=va.holds and vb.holds,
                           max_residual=max(va.max_residual, vb.max_residual))


@pytest.mark.parametrize("seed", [*range(10), 42])
def test_joined_predicates_match_the_conjunctions(seed):
    for entry in load_corpus():
        p = classify_web(entry.web, RunConfig(seed=seed)).predicates
        geodesic = p["transversally_geodesic"]
        group = both(geodesic, p["almost_parallelizable"])
        want = {"hexagonal": both(geodesic, p["almost_algebraizable"]),
                "Bol": both(geodesic, p["almost_Bol"]),
                "group": group,
                "parallelizable": both(p["isoclinicly_geodesic"], group)}
        for name, v in want.items():
            got = p[name]
            assert (got.holds, got.max_residual) == (v.holds,
                                                     v.max_residual), name
            assert (got.witness is None) == got.holds, name


# --- the linear zero tests as one residual matrix ----------------------

def assert_matrix_matches_formulas(x, fields, tests=None):
    """x times the matrix of `tests` (_RESIDUALS against the formulas its
    specs replaced when None), split per test, against the tests' formulas
    evaluated on `fields`, to within roundoff relative to the largest x of
    each row."""
    if tests is None:
        tests = LINEAR_FORMULAS
        matrix, starts = classify._RESIDUALS, classify._TEST_STARTS
    else:
        matrix, starts = read_formulas(tests, UNIT_FIELDS)
    got = np.split(x @ matrix, starts[1:], 1)
    assert len(got) == len(tests)
    bound = 1e-13 * np.abs(x).max(1, keepdims=True)
    for block, (name, components) in zip(got, tests.items()):
        want = np.concatenate([np.reshape(c, (len(x), -1))
                               for c in components(fields)], 1)
        assert block.shape == want.shape, name
        assert np.all(np.abs(block - want) <= bound), name


def fields_of(x):
    # the fields are linear in x
    return SimpleNamespace(**{name: np.tensordot(x, unit, 1)
                              for name, unit in vars(UNIT_FIELDS).items()})


def test_specs_read_off_as_the_formulas_they_replaced():
    # every matrix read off specs equals the one the lambda tables gave,
    # read off the same fields and made exact the same way; the map also
    # byte for byte
    assert list(classify.LINEAR_TESTS) == list(LINEAR_FORMULAS)
    matrix, starts = read_formulas(LINEAR_FORMULAS)
    assert np.array_equal(classify._RESIDUALS, matrix)
    assert np.array_equal(classify._TEST_STARTS, starts)
    assert len(classify._AT_T) == 4
    for k, got in enumerate(classify._AT_T):
        want = read_formulas({"at_t": lambda s: formulas_at_powers(s)[k]},
                             UNIT_FIELDS)[0]
        assert np.array_equal(got, want), k
    assert np.array_equal(classify._APQ_ABS,
                          np.abs(read_formulas(APQ_FORMULAS)[0]))
    matrix, starts = read_formulas(MAP_FORMULAS)
    assert tensor._MAP.tobytes() == matrix.tobytes()
    assert np.array_equal(tensor._STARTS, starts)


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_compiled_tests_match_their_formulas(scale):
    x = np.random.default_rng(12).normal(size=(50, 104)) * scale
    assert_matrix_matches_formulas(x, fields_of(x))


def formulas_at(t):
    """The tests at a constant t written out in t: the frame-alignment
    identity and the two cubic hexagonality polynomials, an independent
    transcription of the coefficients `classify` reads off."""
    def frame_alignment(s):
        return [w[:, 0, 1] - t * t * w[:, 1, 0] - t * (w[:, 0, 0] - w[:, 1, 1])
                for w in (s.gamma.swapaxes(2, 3), s.gamma)]

    def hex_at_t(s):
        sym, b = (np.moveaxis(x, range(-4, 0), range(4))
                  for x in (sym3_lower(s.b), s.b))
        return [-b[i, 0, 0, 0] * t ** 3 + 3.0 * sym[i, 0, 0, 1] * t ** 2
                - 3.0 * sym[i, 0, 1, 1] * t + b[i, 1, 1, 1] for i in (0, 1)]

    return {"frame_alignment_residual": frame_alignment, "hex_at_t": hex_at_t}


@pytest.mark.parametrize("t", [-2.5, -0.3, 0.7, 1.0, 4.0])
def test_tests_at_t_match_their_formulas(t):
    x = np.random.default_rng(13).normal(size=(50, 104))
    assert_matrix_matches_formulas(x, fields_of(x), formulas_at(t))


@pytest.mark.parametrize("t", [-37.5, -2.5, -0.3, 0.0, 0.7, 1.0, 4.0, 250.0])
def test_tests_at_t_assemble_their_read_off(t):
    # the matrix at t assembled from the per-power matrices by Horner's
    # rule, against the formulas read off at t
    matrix, starts = classify._tests_at(t)
    want, want_starts = read_formulas(formulas_at(t), UNIT_FIELDS)
    assert list(starts) == list(want_starts)
    assert np.all(np.abs(matrix - want) <= 1e-15 * max(1.0, abs(t)) ** 3)


def columns_up_to_sign(matrix):
    """The set of a matrix's columns, each as bytes with the sign that makes
    its first nonzero entry positive."""
    out = set()
    for column in matrix.T:
        nonzero = column[np.flatnonzero(column)]
        sign = -1.0 if nonzero.size and nonzero[0] < 0 else 1.0
        out.add((sign * column + 0.0).tobytes())  # + 0.0 turns -0.0 to 0.0
    return out


def test_a_refinements_are_three_polynomials_at_three_directions():
    # each A refinement spec is a polynomial in t = a2/a1 read at a
    # direction the A branch fixes: its t^0 coefficients at a2 = 0, its
    # leading ones at a1 = 0 and its coefficient sums at a1 = a2
    tests = dict(zip(classify.LINEAR_TESTS, np.split(
        classify._RESIDUALS, classify._TEST_STARTS[1:], 1)))
    # the integrability form w . m over a1^2, t^2 p11 - t (p12 + p21) + p22
    # (and of q), as the coefficients of t^0, t^1 and t^2
    m = read_spec("p, q", UNIT_FIELDS).reshape(104, 2, 4)
    integrability = [m @ np.array(w, float) for w in
                     ([0, 0, 0, 1], [0, -1, -1, 0], [1, 0, 0, 0])]
    at_1 = classify._tests_at(1.0)[0]
    polynomials = {  # t^0, leading coefficients, sums
        "integrability": (integrability[0], integrability[2],
                          integrability[2] + integrability[1]
                          + integrability[0]),
        # frame alignment is of degree 2
        "frame": (classify._AT_T[0][:, :4], classify._AT_T[2][:, :4],
                  at_1[:, :4]),
        "hexagonality": (classify._AT_T[0][:, 4:], classify._AT_T[3][:, 4:],
                         at_1[:, 4:]),
    }
    assert not classify._AT_T[3][:, :4].any()
    directions = {  # t = 0, t = inf, t = 1
        "integrability": ("p22_q22_zero", "p11_q11_zero", "pq_quadsum_zero"),
        "frame": ("omega21_zero", "omega12_zero", "omega_balance"),
        "hexagonality": ("b_222_zero", "b_111_zero", "hex_at_1"),
    }
    for name, coefficients in polynomials.items():
        for matrix, test in zip(coefficients, directions[name]):
            assert (columns_up_to_sign(matrix)
                    == columns_up_to_sign(tests[test])), (name, test)


@pytest.mark.parametrize("index", [1, 6, 9])
def test_residual_matrix_and_bound_on_real_batches(index):
    snaps = collect_snapshots(load_example(index).web, RunConfig(points=16))
    assert_matrix_matches_formulas(snaps.x, snaps)
    assert np.all(snaps.x_abs() >= np.abs(snaps.x))


@pytest.mark.parametrize("index,seed", [(4, 60), (4, 100), (4, 140),
                                        (4, 1020), (4, 1041), (3, 1190)])
def test_labels_where_roundoff_was_under_scaled(index, seed):
    # example04's p and q vanish identically, and example03's b does; at
    # these seeds their roundoff, measured against scales that left gamma
    # out, once failed integrability (A2) and almost_parallelizable (D22)
    entry = load_example(index)
    r = classify_web(entry.web, RunConfig(seed=seed))
    assert r.labels == entry.expected_labels


@pytest.mark.parametrize("seed", [1172, 1233])
def test_bound_covers_the_cancellation_in_d_gamma(seed):
    # a bound on |x| alone, without the products D gamma is summed from,
    # labels example07 A2 C11 E8 at these seeds
    r = classify_web(load_example(7).web, RunConfig(seed=seed))
    assert r.labels == ("A2", "D21", "E8")
    assert r.inconclusive == ()


def if_chain_e_label(z):
    """The E label as the hand-written if-chain that E_PATTERNS replaced."""
    if z["p"] and z["q"]:
        return "E1"
    if z["p11"] and z["p12"] and z["q"] and not z["p22"]:
        return "E2"
    if z["p"] and z["q11"] and z["q12"] and not z["q22"]:
        return "E3"
    if z["p11"] and z["p12"] and z["q11"] and z["q12"] and not z["p22"] \
            and not z["q22"]:
        return "E41" if z["p22_q22"] else "E4"
    if z["p22"] and z["p12"] and z["q"] and not z["p11"]:
        return "E5"
    if z["p"] and z["q22"] and z["q12"] and not z["q11"]:
        return "E6"
    if z["p22"] and z["p12"] and z["q22"] and z["q12"] and not z["p11"] \
            and not z["q11"]:
        return "E71" if z["p11_q11"] else "E7"
    if z["pq_sum"]:
        return "E8"
    return ""


def assert_table_matches(table, walk, names, maybe=()):
    """first_match(table) equals `walk` at every combination of verdicts of
    `names`: holds or not, or not computed (None) for those in `maybe`;
    and every row of the table is the first match of some combination."""
    first_rows = set()
    for values in itertools.product(*[(None, False, True) if name in maybe
                                      else (False, True) for name in names]):
        z = dict(zip(names, values))
        held = {name for name, holds in z.items() if holds}
        assert first_match(table, held) == walk(z), z
        first_rows.add(next((i for i, (_, hold, fail) in enumerate(table)
                             if held.issuperset(hold.split())
                             and held.isdisjoint(fail.split())), None))
    assert first_rows - {None} == set(range(len(table)))


def test_e_patterns_match_the_if_chain():
    keys = {"p": "e_p_zero", "q": "e_q_zero", "pq_sum": "e_pq_sum",
            "p22_q22": "e_p22_plus_q22", "p11_q11": "e_p11_plus_q11"}
    for short in ("p11", "p12", "p22", "q11", "q12", "q22"):
        keys[short] = "e_" + short
    assert sorted(keys.values()) == sorted(classify.E_TESTS)
    assert_table_matches(
        classify.E_PATTERNS,
        lambda z: if_chain_e_label({k: z[name] for k, name in keys.items()}),
        list(keys.values()))


def if_walk_a_label(z):
    """The A label as the nested if-walk that A_PATTERNS replaced."""
    if z["isoclinicly_geodesic"]:
        return ""
    if not z["integrability"]:
        return "A2"
    label = "A1"
    if z["a2_zero"] and not z["a1_zero"]:
        if z["p22_q22_zero"]:
            label = "A12"
            if z["omega21_zero"] and z["b_222_zero"]:
                label = "A121"
    elif z["a1_zero"] and not z["a2_zero"]:
        if z["p11_q11_zero"]:
            label = "A13"
            if z["omega12_zero"] and z["b_111_zero"]:
                label = "A131"
    elif z["a1_eq_a2"]:
        if z["pq_quadsum_zero"]:
            label = "A112"
            if z["omega_balance"] and z["hex_at_1"]:
                label = "A1121"
    elif z["t_constant"] is not None and z["t_constant"]:
        label = "A11"
        if z["hex_at_t"] is not None and z["hex_at_t"]:
            label = "A111"
    return label


def test_a_patterns_match_the_if_walk():
    # t_constant and hex_at_t are None where no constant t was measured
    names = ["isoclinicly_geodesic", "integrability", *classify.BRANCH,
             "t_constant", "hex_at_t"]
    assert_table_matches(classify.A_PATTERNS, if_walk_a_label, names,
                         maybe=("t_constant", "hex_at_t"))


def if_walk_cd_label(z):
    """The C or D label as the if-walk that CD_PATTERNS replaced."""
    fgh = z["almost_parallelizable"]
    fg_h = z["almost_Bol"]
    s_zero = z["almost_algebraizable"]
    if not z["transversally_geodesic"]:
        if fgh:
            return "C12"
        if fg_h:
            return "C11"
        if s_zero:
            return "C1"
        return "C2"
    if fgh:
        return "D232" if z["isoclinicly_geodesic"] else "D231"
    if fg_h:
        return "D21"
    if s_zero:
        return "D22"
    return "D1"


def test_cd_patterns_match_the_if_walk():
    names = ["transversally_geodesic", "almost_parallelizable", "almost_Bol",
             "almost_algebraizable", "isoclinicly_geodesic"]
    assert_table_matches(classify.CD_PATTERNS, if_walk_cd_label, names)


def test_classes_of_sets_one_letter_of_each_pair():
    # every held set of the names CD_PATTERNS reads, isoclinicly_geodesic
    # among them: B or A by it, D or C by transversally_geodesic
    names = sorted({name for _, hold, fail in classify.CD_PATTERNS
                    for name in (hold + " " + fail).split()})
    assert "isoclinicly_geodesic" in names
    for values in itertools.product((False, True), repeat=len(names)):
        held = {name for name, holds in zip(names, values) if holds}
        classes = classify.classes_of(held)
        assert list(classes) == list("ABCDE")
        assert bool(classes["A"]) != bool(classes["B"])
        assert bool(classes["B"]) == ("isoclinicly_geodesic" in held)
        assert bool(classes["C"]) != bool(classes["D"])
        assert bool(classes["D"]) == ("transversally_geodesic" in held)
        report = classify.ClassificationReport(
            "web", classes, {}, {}, (), RunConfig(), {}, {})
        assert report.labels == tuple(classes[c] for c in "ABCDE"
                                      if classes[c]), held


# --- rejected sample rows -----------------------------------------------

def test_structural_check_skips_ill_conditioned_points():
    # seed 4 with a thin margin draws a near-degenerate point whose a4 trace
    # residual (3e-08) is roundoff; it is rejected like any ill-conditioned
    # point instead of aborting the classification
    r = classify_web(load_example(7).web, RunConfig(seed=4, margin=1e-6))
    assert r.labels == ("A2", "D21", "E8")


def test_overflowing_points_count_as_outside_the_domain():
    web = parse_web("u1 = exp(exp(x1*y1)) + y2\nu2 = x2 + y1\n", name="ee")
    r = classify_web(web)
    assert r.labels and not r.inconclusive
    assert all(np.isfinite(v.max_residual) for v in r.predicates.values())


def test_undefined_points_count_as_outside_the_domain():
    # no domain line: about half the draws have x1 < 0, where ln fails
    web = parse_web("u1 = ln(x1) + y1\nu2 = x2 + y2\n", name="ln")
    assert classify_web(web).labels == ("B", "D232", "E1")


def zero_test(snaps, name, spec):
    T = _Tester(snaps, 1e-7)
    matrix, starts = read_off({name: spec})
    return T.verdicts([name], T.worst(matrix, starts))[name]


def test_zero_test_never_skips_a_nan_row():
    web = load_example(9).web
    snaps = collect_snapshots(web, RunConfig(points=8))
    assert zero_test(snaps, "a4", "a4").holds
    snaps.x[3] = np.nan
    verdict = zero_test(snaps, "a4", "a4")
    assert not verdict.holds
    assert verdict.max_residual == np.inf
    assert verdict.witness == tuple(snaps.points[3])


def test_zero_test_witness_is_the_last_worst_row():
    snaps = collect_snapshots(load_example(9).web, RunConfig(points=8))
    values = np.zeros(len(snaps))
    values[[2, 5]] = 1.0
    verdict = _Tester(snaps, 1e-7).verdicts(["planted"],
                                            values[:, None])["planted"]
    assert verdict.max_residual == 1.0
    assert verdict.witness == tuple(snaps.points[5])


def test_zero_test_witness_survives_last_bit_changes():
    # rows 2 and 5 tie; moving either by one ulp must not move the witness
    snaps = collect_snapshots(load_example(9).web, RunConfig(points=8))
    for row in (2, 5):
        for toward in (0.0, 2.0):
            values = np.zeros(len(snaps))
            values[[2, 5]] = 1.0
            values[row] = np.nextafter(1.0, toward)
            verdict = _Tester(snaps, 1e-7).verdicts(["planted"],
                                                    values[:, None])["planted"]
            assert verdict.witness == tuple(snaps.points[5]), (row, toward)


# about 1 draw in 81 is admissible: each coordinate lies in one of two
# width-1 windows, one in each half of the (-3, 3) box
NARROW_WINDOWS = {"x1": (-2.6, 0.3), "x2": (-1.2, 1.9),
                  "y1": (-2.9, 1.1), "y2": (-0.7, 0.4)}


def narrow_window_web():
    lines = [format_web(load_example(1).web)]
    for var, (a, b) in NARROW_WINDOWS.items():
        lines.append("domain -(%s - (%r)) * (%s - (%r)) * (%s - (%r))"
                     " * (%s - (%r)) > 0\n"
                     % (var, a, var, a + 1, var, b, var, b + 1))
    return parse_web("".join(lines), name="narrow")


def expected_sample(web, config):
    """The sample built the plain way: one draw of the whole budget, then
    every admissible row snapshotted on its own, in draw order."""
    budget = max(20000, 500 * config.points)
    draws = np.random.default_rng(config.seed).uniform(
        *config.box, size=(budget, 4))
    kept = []
    for row in draws[web.admissible(draws, {}, config.margin)]:
        s = snapshot(web, row[None, :], coeffs=jet_lift(
            web.lift_program, row[None, :], web.bind()))
        conditioned = all(
            abs(det[0]) >= classify.NDET_FLOOR * np.prod(
                np.linalg.norm(m[0], axis=1))
            for m, det in ((s.fbar, s.det_bar), (s.ftilde, s.det_til)))
        if s.finite[0] and not s.degenerate[0] and conditioned:
            kept.append(row)
            if len(kept) == config.points:
                return np.array(kept)
    raise AssertionError("oracle found too few points")


def rows_through(monkeypatch, owner, name, at=1):
    """The number of rows in each call of owner.name, whose argument `at`
    is an array of points, as a list that fills while the test runs."""
    rows = []
    real = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *a, **k:
                        rows.append(len(a[at])) or real(*a, **k))
    return rows


def assert_same_batch(got, want):
    assert got.points.tobytes() == want.points.tobytes()
    assert got.params == want.params
    assert set(got.fields) == set(want.fields)
    for name, value in want.fields.items():
        assert got.fields[name].dtype == value.dtype, name
        assert got.fields[name].tobytes() == value.tobytes(), name


@pytest.mark.parametrize("seed", [3, 17])
@pytest.mark.parametrize("make_web", [
    narrow_window_web, lambda: load_example(7).web,
    *(pytest.param(lambda i=i: load_example(i).web, id="example%02d" % i)
      for i in range(1, 16) if i != 7)])
def test_sample_matches_one_big_draw(seed, make_web, monkeypatch):
    web = make_web()
    config = RunConfig(points=32, seed=seed)
    expected = expected_sample(web, config)
    want = snapshot(web, expected, coeffs=jet_lift(
        web.lift_program, expected, web.bind()))
    lifts = rows_through(monkeypatch, classify, "jet_lift")
    tails = rows_through(monkeypatch, tensor, "_invariants", at=0)
    got = classify.collect_snapshots(web, config)
    # every field, bit for bit, as one batch snapshot at the oracle's points
    assert_same_batch(got, want)
    assert tails == [config.points]
    if web.name == "narrow":
        # rounds are sized by the accept rate so far, so a domain that
        # admits about 1 draw in 81 needs only a few of them
        assert len(lifts) <= 3


def test_rows_the_tail_rejects_are_replaced_in_draw_order(monkeypatch):
    # the tail alone finds the planted rows not finite: the sample is the
    # oracle's without them, the later rows moving up in draw order
    web = load_example(7).web
    config = RunConfig(points=32, seed=3)
    candidates = expected_sample(web, replace(config, points=40))
    # three runs of the tail reject rows: 0, 7 and 31 of the first 32, then
    # two and one of the rows that replace them
    planted = candidates[[0, 7, 31, 32, 33, 35]]
    kept = np.array([row for row in candidates
                     if not (row == planted).all(axis=1).any()])[:32]
    want = snapshot(web, kept, coeffs=jet_lift(web.lift_program, kept,
                                               web.bind()))
    real = tensor._invariants
    tails = []

    def tail(points, bound, coeffs):
        tails.append(len(points))
        batch = real(points, bound, coeffs)
        batch.finite &= ~(points[:, None] == planted).all(axis=2).any(axis=1)
        return batch

    monkeypatch.setattr(tensor, "_invariants", tail)
    got = collect_snapshots(web, config)
    assert_same_batch(got, want)
    assert tails == [config.points] * 4


def test_the_tail_sees_exactly_the_sample(monkeypatch):
    tails = rows_through(monkeypatch, tensor, "_invariants", at=0)
    config = RunConfig(seed=42)
    for entry in load_corpus():
        tails.clear()
        collect_snapshots(entry.web, config)
        assert tails == [config.points], entry.name


def test_draw_budget_is_spent_exactly(monkeypatch):
    web = parse_web("u1 = x1 + y1\nu2 = x2 + y2\n"
                    "domain -(x1^2) - 1 > 0\n", name="empty-domain")
    rows = []
    real = Web.admissible
    monkeypatch.setattr(Web, "admissible",
                        lambda self, pts, *a: rows.append(len(pts))
                        or real(self, pts, *a))
    for points in (8, 64):
        rows.clear()
        with pytest.raises(SamplerExhausted):
            collect_snapshots(web, RunConfig(points=points))
        assert sum(rows) == max(20000, 500 * points)


def test_snapshot_rows_stay_near_the_rows_kept(monkeypatch):
    # rounds are sized by the acceptance seen so far, with 1/8 slack, so
    # few rows are lifted beyond the sample
    rows = rows_through(monkeypatch, classify, "jet_lift")
    config = RunConfig(seed=42)
    corpus = list(load_corpus())
    for entry in corpus:
        collect_snapshots(entry.web, config)
    assert sum(rows) <= 1.3 * len(corpus) * config.points


def test_draws_stay_near_the_rows_kept(monkeypatch):
    # every corpus web admits nearly every draw, so few points are drawn
    # beyond the sample
    rows = rows_through(monkeypatch, Web, "admissible")
    config = RunConfig(seed=42)
    corpus = list(load_corpus())
    for entry in corpus:
        collect_snapshots(entry.web, config)
    assert sum(rows) <= 1.3 * len(corpus) * config.points


def test_admissible_rows_tried_are_capped(monkeypatch):
    # every point is degenerate: the Jacobian blocks have equal rows
    web = parse_web("u1 = x1 + x2 + y1\nu2 = x1 + x2 + y2\n",
                    name="degenerate")
    rows = rows_through(monkeypatch, classify, "jet_lift")
    tails = rows_through(monkeypatch, tensor, "_invariants", at=0)
    with pytest.raises(SamplerExhausted):
        collect_snapshots(web, RunConfig(points=8))
    assert sum(rows) == 60 * 8 and not tails

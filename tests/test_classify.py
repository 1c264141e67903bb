import itertools
import json
from types import SimpleNamespace

import numpy as np
import pytest

from threeweb import classify
from threeweb.classify import (
    RunConfig,
    SamplerExhausted,
    classify_generic,
    classify_web,
    collect_snapshots,
    e_label,
    _Tester,
    hexagonality_polynomials,
    mag_of,
    _admissible_stream,
)
from threeweb.corpus import load_corpus, load_example
from threeweb.expr import Web, format_web, parse_web
from threeweb.tensor import TensorSnapshot, snapshot

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
    with pytest.raises(ValueError):
        RunConfig(margin=0.0)
    cfg = RunConfig()
    assert cfg.points == 64 and cfg.tol == 1e-7 and cfg.seed == 42


def test_sampler_respects_domain():
    web = load_example(1).web          # needs x1 - y1 != 0
    cfg = RunConfig(points=32, seed=5)
    rows = np.concatenate(list(_admissible_stream(web, cfg, web.bind())))
    assert len(rows) >= cfg.points
    assert np.all(np.abs(rows[:, 0] - rows[:, 2]) > cfg.margin)
    assert np.all((cfg.box[0] <= rows) & (rows <= cfg.box[1]))


def test_sampler_exhaustion():
    web = parse_web("u1 = x1 + y1\nu2 = x2 + y2\n"
                    "domain x1 > 0\ndomain -x1 > 0\n", name="empty-domain")
    with pytest.raises(SamplerExhausted):
        classify_web(web, RunConfig(points=8))


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
        assert not (r.class_b and r.class_a)      # B means a == 0
        assert not (r.class_c and r.class_d)      # split on a4
        assert r.class_e                           # corpus always lands an E
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
    entry = load_example(9)
    r = classify_web(entry.web, metadata=(entry.fg,))
    doc = r.to_dict()
    assert doc["web"] == "example09"
    assert doc["classes"] == {"A": "", "B": "B", "C": "", "D": "D232",
                              "E": "E1"}
    assert doc["asserted_metadata"] == ["F1"]
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
    assert r.class_a == "A2"
    assert r.class_c == "C2"
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


# --- the linear zero tests as one residual matrix ----------------------

@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_compiled_tests_match_their_formulas(scale):
    rng = np.random.default_rng(12)
    n = 50
    fields = {name: rng.normal(size=(n,) + (2,) * TensorSnapshot._FIELDS[name])
              * scale for name in classify._INPUTS}
    x = np.concatenate([v.reshape(n, -1) for v in fields.values()], 1)
    got = np.split(x @ classify._RESIDUALS, classify._TEST_STARTS[1:], 1)
    assert len(got) == len(classify.LINEAR_TESTS)
    # relative to the largest input of each row
    bound = 1e-13 * np.abs(x).max(1, keepdims=True)
    for block, (name, (components, _)) in zip(
            got, classify.LINEAR_TESTS.items()):
        want = np.concatenate([np.reshape(c, (n, -1))
                               for c in components(SimpleNamespace(**fields))],
                              1)
        assert block.shape == want.shape, name
        assert np.all(np.abs(block - want) <= bound), name


@pytest.mark.parametrize("index", [1, 6, 9])
def test_linear_verdicts_match_one_test_at_a_time(index):
    snaps = collect_snapshots(load_example(index).web, RunConfig(points=16))
    got = _Tester(snaps, 1e-7).linear()
    for name, (components, fields) in classify.LINEAR_TESTS.items():
        want = _Tester(snaps, 1e-7).zero(name, components,
                                         mag_of(*fields.split()))
        assert got[name].holds == want.holds, name
        assert got[name].witness == want.witness, name
        assert got[name].max_residual == pytest.approx(
            want.max_residual, rel=1e-12, abs=1e-15), name


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


def test_e_patterns_match_the_if_chain():
    keys = {"p": "e_p_zero", "q": "e_q_zero", "pq_sum": "e_pq_sum",
            "p22_q22": "e_p22_plus_q22", "p11_q11": "e_p11_plus_q11"}
    for short in ("p11", "p12", "p22", "q11", "q12", "q22"):
        keys[short] = "e_" + short
    assert sorted(keys.values()) == sorted(classify.E_TESTS)
    labels = set()
    for pattern in itertools.product((False, True), repeat=len(keys)):
        z = dict(zip(keys, pattern))
        vanishing = {keys[k] for k, holds in z.items() if holds}
        assert e_label(vanishing) == if_chain_e_label(z), vanishing
        labels.add(e_label(vanishing))
    assert len(labels) == len(classify.E_PATTERNS) + 1    # and ""


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


def test_zero_test_never_skips_a_nan_row():
    web = load_example(9).web
    snaps = collect_snapshots(web, RunConfig(points=8))
    vanishing = (lambda s: [s.b - s.b], mag_of("b"))
    assert _Tester(snaps, 1e-7).zero("b", *vanishing).holds
    snaps.b[3, 1, 0, 0, 0] = np.nan
    verdict = _Tester(snaps, 1e-7).zero("b", *vanishing)
    assert not verdict.holds
    assert verdict.max_residual == np.inf
    assert verdict.witness == tuple(snaps.points[3])


def test_zero_test_witness_is_the_last_worst_row():
    snaps = collect_snapshots(load_example(9).web, RunConfig(points=8))
    values = np.zeros(len(snaps))
    values[[2, 5]] = 1.0
    verdict = _Tester(snaps, 1e-7).zero("planted", lambda s: [values],
                                         lambda s: 1.0)
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
            verdict = _Tester(snaps, 1e-7).zero(
                "planted", lambda s: [values], lambda s: 1.0)
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
        s = snapshot(web, row[None, :], check_domain=False)
        conditioned = all(
            abs(det[0]) >= classify.NDET_FLOOR * np.prod(
                np.linalg.norm(m[0], axis=1))
            for m, det in ((s.fbar, s.det_bar), (s.ftilde, s.det_til)))
        if s.finite[0] and not s.degenerate[0] and conditioned:
            kept.append(row)
            if len(kept) == config.points:
                return np.array(kept)
    raise AssertionError("oracle found too few points")


@pytest.mark.parametrize("seed", [3, 17])
@pytest.mark.parametrize("make_web", [narrow_window_web,
                                      lambda: load_example(7).web])
def test_sample_matches_one_big_draw(seed, make_web, monkeypatch):
    web = make_web()
    config = RunConfig(points=32, seed=seed)
    expected = expected_sample(web, config)
    calls = []
    real = classify.snapshot
    monkeypatch.setattr(classify, "snapshot",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    got = classify.collect_snapshots(web, config).points
    assert got.tobytes() == expected.tobytes()
    if web.name == "narrow":
        # admissible rows are pooled across draw blocks, not sent per block
        assert len(calls) <= 3


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
    # batches are sized by the acceptance seen so far, with 1/8 slack
    rows = []
    real = classify.snapshot
    monkeypatch.setattr(classify, "snapshot",
                        lambda w, pts, *a, **k: rows.append(len(pts))
                        or real(w, pts, *a, **k))
    config = RunConfig(seed=42)
    corpus = list(load_corpus())
    for entry in corpus:
        collect_snapshots(entry.web, config)
    assert sum(rows) <= 1.3 * len(corpus) * config.points


def test_admissible_rows_tried_are_capped(monkeypatch):
    # every point is degenerate: the Jacobian blocks have equal rows
    web = parse_web("u1 = x1 + x2 + y1\nu2 = x1 + x2 + y2\n",
                    name="degenerate")
    rows = []
    real = classify.snapshot
    monkeypatch.setattr(classify, "snapshot",
                        lambda w, pts, *a, **k: rows.append(len(pts))
                        or real(w, pts, *a, **k))
    with pytest.raises(SamplerExhausted):
        collect_snapshots(web, RunConfig(points=8))
    assert sum(rows) == 60 * 8

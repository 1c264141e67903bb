"""End-to-end acceptance gates for the package.

Every test here pins a headline guarantee: the frozen reference values
reproduce, the 15-row classification table comes out with zero diffs, the
structural identities of the connection/curvature machinery hold at random
points, jets agree with an independent finite-difference oracle, and the
pipeline is deterministic.  Tolerances are pinned on purpose; loosening one
is a behavior change, not a test fix.
"""

import itertools
import json
import time

import numpy as np
import pytest

from oracles import (evaluate, hexagonality_polynomials, partial, partial_fd,
                     rel_err)
from threeweb.classify import (
    RunConfig,
    classify_web,
    collect_snapshots,
)
from threeweb.cli import main as cli_main
from threeweb.corpus import golden_check, load_corpus, load_example
from threeweb.expr import parse_web
from threeweb.jet import MULTI, jet_lift
from threeweb.tensor import snapshot

EXPECTED_TABLE = {
    1: ("A121", "C11", "E71"),
    2: ("A121", "C2", "E7"),
    3: ("A131", "D231", "E1"),
    4: ("A1", "D231", "E1"),
    5: ("A1", "D231", "E1"),
    6: ("A1121", "D231", "E1"),
    7: ("A2", "D21", "E8"),
    8: ("B", "D232", "E1"),
    9: ("B", "D232", "E1"),
    10: ("A131", "C2", "E2"),
    11: ("A131", "C12", "E1"),
    12: ("B", "C2", "E1"),
    13: ("B", "C2", "E1"),
    14: ("A131", "C2", "E3"),
    15: ("A131", "C2", "E4"),
}


# 1 -----------------------------------------------------------------------

def test_golden_values_reproduce_quickly():
    started = time.perf_counter()
    for entry in load_corpus():
        verified_points = {r.point for r in entry.golden
                           if r.reliability == "verified"}
        assert len(verified_points) >= 2, entry.name
        failures = [r for r in golden_check(entry)
                    if r.status == "fail"]
        assert not failures, (entry.name, failures[:5])
    elapsed = time.perf_counter() - started
    assert elapsed < 2.0, "golden sweep took %.2f s" % elapsed


# 2 -----------------------------------------------------------------------

def test_classification_table_has_zero_diffs(capsys):
    code = cli_main(["table", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["diffs"] == []
    assert len(doc["rows"]) == 15
    for row in doc["rows"]:
        assert tuple(row["labels"]) == EXPECTED_TABLE[row["index"]]
        # F/G are carried as metadata only, never computed labels
        assert not set(row["labels"]) & {"F1", "F2", "G"}


# 3 -----------------------------------------------------------------------

def test_structural_identities_at_random_points():
    config = RunConfig(points=16, seed=314)
    eye = np.eye(2)
    for entry in load_corpus():
        for s in collect_snapshots(entry.web, config):
            # Jacobian blocks really are mutual inverses
            jac_scale = max(1.0, np.max(np.abs(s.fbar)),
                            np.max(np.abs(s.ftilde)))
            assert np.max(np.abs(s.fbar @ s.gbar - eye)) / jac_scale < 1e-10
            assert np.max(np.abs(s.ftilde @ s.gtilde - eye)) / jac_scale \
                < 1e-10

            # torsion carries the forced rank-1 shape in the covector
            recon = np.zeros((2, 2, 2))
            for i, j, k in itertools.product(range(2), repeat=3):
                recon[i, j, k] = 0.5 * (s.a_cov[j] * (i == k)
                                        - s.a_cov[k] * (i == j))
            tor_scale = max(1.0, np.max(np.abs(s.torsion)))
            assert np.max(np.abs(s.torsion - recon)) / tor_scale < 1e-9

            # curvature alternations reduce to the Pfaffian derivatives
            alt_scale = max(1.0, np.max(np.abs(s.b)), np.max(np.abs(s.p)),
                            np.max(np.abs(s.q)))
            for i, j, k, l in itertools.product(range(2), repeat=4):
                lhs_p = 0.5 * (s.b[i, j, l, k] - s.b[i, k, l, j])
                rhs_p = 0.5 * ((i == k) * s.p[j, l] - (i == j) * s.p[k, l])
                lhs_q = 0.5 * (s.b[i, j, k, l] - s.b[i, k, j, l])
                rhs_q = 0.5 * ((i == k) * s.q[j, l] - (i == j) * s.q[k, l])
                assert abs(lhs_p - rhs_p) / alt_scale < 1e-7
                assert abs(lhs_q - rhs_q) / alt_scale < 1e-7

            # the traceless gauge of a4 (all corpus webs are isoclinic)
            a4_scale = max(1.0, np.max(np.abs(s.a4)))
            trace = s.a4[0, 0] + s.a4[1, 1]
            assert np.max(np.abs(trace)) / a4_scale < 1e-8

            # f - p = g - q = h by construction of the split
            split_scale = max(1.0, np.max(np.abs(s.p)), np.max(np.abs(s.q)),
                              np.max(np.abs(s.h2)))
            assert np.max(np.abs(s.f2 - s.p - s.h2)) / split_scale < 1e-9
            assert np.max(np.abs(s.g2 - s.q - s.h2)) / split_scale < 1e-9


# 4 -----------------------------------------------------------------------

def test_jets_match_finite_difference_oracle():
    # wide margin keeps every finite-difference stencil point admissible
    config = RunConfig(points=8, seed=271, box=(-2.5, 2.5), margin=1.0)
    draws = np.random.default_rng(config.seed).uniform(
        *config.box, size=(max(20000, 500 * config.points), 4))
    for entry in load_corpus():
        bound = entry.web.bind()
        rows = draws[entry.web.admissible(draws, bound, config.margin)]
        points = list(map(tuple, rows[:config.points].tolist()))
        for expr in (entry.web.u1, entry.web.u2):

            def f(pt, _e=expr, _b=bound):
                return evaluate(_e, pt, _b)

            for pt in points:
                jet = jet_lift(expr, pt, bound)
                for alpha in MULTI:
                    if sum(alpha) == 0:
                        continue
                    want = partial_fd(f, pt, alpha)
                    got = partial(jet, alpha)
                    assert rel_err(got, want) < 1e-5, \
                        (entry.name, pt, alpha, got, want)


# 5 -----------------------------------------------------------------------

def test_hexagonality_polynomials_are_linearly_dependent():
    rng = np.random.default_rng(161718)
    ts = rng.uniform(-5.0, 5.0, 20)
    for entry in load_corpus():
        for pt in entry.points:
            s = snapshot(entry.web, tuple(pt))
            for t in ts:
                quartic, cubic1, cubic2 = hexagonality_polynomials(s, t)
                scale = max(1.0, abs(quartic), abs(cubic1), abs(t * cubic2))
                assert abs(quartic + t * cubic2 + cubic1) / scale < 1e-9, \
                    (entry.name, pt, t)


# 6 -----------------------------------------------------------------------

def test_spot_check_parallelizable_web():
    r = classify_web(load_example(9).web)
    assert r.labels == ("B", "D232", "E1")
    p = r.predicates
    assert p["parallelizable"].holds
    assert p["isoclinicly_geodesic"].holds          # a == 0
    assert p["group"].holds                          # b == 0 in effect
    # the curvature itself vanishes, not just its symmetric part
    s = snapshot(load_example(9).web, tuple(load_example(9).points[0]))
    assert np.max(np.abs(s.b)) < 1e-9


def test_spot_check_bol_but_not_group_web():
    r = classify_web(load_example(7).web)
    assert r.labels == ("A2", "D21", "E8")
    p = r.predicates
    assert p["Bol"].holds
    assert not p["group"].holds
    assert r.class_a == "A2"      # the transversal distribution closes up
    # Bol here means symmetrized curvature zero while b itself is not
    s = snapshot(load_example(7).web, tuple(load_example(7).points[0]))
    from threeweb.tensor import sym3_lower
    assert np.max(np.abs(sym3_lower(s.b))) < 1e-9 * max(1, np.max(np.abs(s.b)))
    assert np.max(np.abs(s.b)) > 1e-3


def test_spot_check_almost_bol_web():
    r = classify_web(load_example(1).web)
    p = r.predicates
    assert p["almost_Bol"].holds                     # f + g == 0 and h == 0
    assert not p["transversally_geodesic"].holds
    s = snapshot(load_example(1).web, (1.0, 1.0, 0.0, 1.0))
    assert s.lookup("a4.2111") == pytest.approx(-16.0)
    assert abs(s.lookup("a4.2111")) > 1.0


# 7 -----------------------------------------------------------------------

def test_labels_are_seed_independent():
    for entry in load_corpus():
        want = entry.expected_labels
        for seed in range(10):
            got = classify_web(entry.web, RunConfig(seed=seed)).labels
            assert got == want, (entry.name, seed)


def test_json_outputs_are_bit_identical(capsys):
    def grab(argv):
        code = cli_main(argv)
        assert code == 0
        return capsys.readouterr().out

    for argv in (["classify", "example05", "--format", "json"],
                 ["classify", "example08", "--format", "json"],
                 ["table", "--format", "json"],
                 ["snapshot", "example03", "--point", "1", "1", "2", "1",
                  "--format", "json"]):
        assert grab(list(argv)) == grab(list(argv))


# 8 -----------------------------------------------------------------------

def test_negative_control_perturbed_group_web():
    # A bilinear perturbation such as 0.1*x1*y1 cannot work as a negative
    # control: the product of any two bilinear forms closes into an abelian
    # group structure, so the web stays parallelizable no matter the
    # coefficients.  Pin that fact first so nobody "fixes" it later.
    inert = parse_web(
        "u1 = x1*y1 + x2*y2 + 0.1*x1*y1\n"
        "u2 = x1*y2 + x2*y1\n"
        "domain x1 - x2 != 0\ndomain x1 + x2 != 0\n"
        "domain y1 - y2 != 0\ndomain y1 + y2 != 0\n", name="inert")
    assert classify_web(inert).labels == ("B", "D232", "E1")

    # The genuine control needs a non-bilinear term; this one demotes the
    # web out of every torsion-free class.
    control = parse_web(
        "u1 = x1*y1 + x2*y2\n"
        "u2 = x1*y2 + x2*y1 + 0.1*x1^2*y1\n"
        "domain x1 - x2 != 0\ndomain x1 + x2 != 0\n"
        "domain y1 - y2 != 0\ndomain y1 + y2 != 0\n", name="control")
    r = classify_web(control)
    assert not r.predicates["parallelizable"].holds
    assert "D232" not in r.labels
    assert r.class_a == "A2"
    assert r.class_c == "C2"
    assert not r.inconclusive

import pytest

from threeweb import corpus
from threeweb.classify import classify_web
from threeweb.corpus import (
    N_EXAMPLES,
    golden_check,
    load_corpus,
    load_example,
)
from threeweb.tensor import snapshot

# The classification table the whole package is built to reproduce, frozen
# here independently of the corpus sidecar files.
EXPECTED = {
    1: (("A121", "C11", "E71"), "F2"),
    2: (("A121", "C2", "E7"), "F2"),
    3: (("A131", "D231", "E1"), "G"),
    4: (("A1", "D231", "E1"), "F1"),
    5: (("A1", "D231", "E1"), "F1"),
    6: (("A1121", "D231", "E1"), "G"),
    7: (("A2", "D21", "E8"), "F1"),
    8: (("B", "D232", "E1"), None),
    9: (("B", "D232", "E1"), "F1"),
    10: (("A131", "C2", "E2"), "G"),
    11: (("A131", "C12", "E1"), None),
    12: (("B", "C2", "E1"), None),
    13: (("B", "C2", "E1"), None),
    14: (("A131", "C2", "E3"), None),
    15: (("A131", "C2", "E4"), None),
}


def test_corpus_shape():
    entries = load_corpus()
    assert len(entries) == N_EXAMPLES == 15
    for i, entry in enumerate(entries, start=1):
        assert entry.index == i
        assert entry.name == "example%02d" % i
        assert len(entry.points) >= 2
        assert entry.fg in (None, "F1", "F2", "G")
        assert all(isinstance(n, str) for n in entry.notes)
        assert entry.golden, entry.name


def test_load_example_validates_index():
    assert load_example(3).index == 3
    for bad in (0, 16, -1, "3", 1.0):
        with pytest.raises(ValueError):
            load_example(bad)


def test_load_corpus_is_cached():
    assert load_corpus() is load_corpus()
    assert load_example(5) is load_corpus()[4]


def test_stored_points_are_admissible():
    for entry in load_corpus():
        for pt in entry.points:
            assert entry.web.admissible(tuple(pt)), (entry.name, pt)


def test_reliability_vocabulary():
    seen = set()
    for entry in load_corpus():
        for rec in entry.golden:
            seen.add(rec.reliability)
            if rec.reliability == "verified":
                assert rec.recomputed is None
            else:
                assert rec.recomputed is not None
    assert seen == {"verified", "printed-only"}


def test_expected_labels_match_frozen_table():
    for entry in load_corpus():
        labels, fg = EXPECTED[entry.index]
        assert entry.expected_labels == labels, entry.name
        assert entry.fg == fg, entry.name


def test_classification_reproduces_the_table():
    for entry in load_corpus():
        report = classify_web(entry.web)
        assert report.labels == EXPECTED[entry.index][0], entry.name
        assert not report.inconclusive, entry.name


def test_every_verified_value_reproduces():
    total = 0
    for entry in load_corpus():
        results = golden_check(entry)
        assert len(results) == len(entry.golden)
        failures = [r for r in results if r.status == "fail"]
        assert not failures, (entry.name, failures[:5])
        total += sum(1 for r in results if r.status == "pass")
    assert total > 1000      # the corpus carries well over a thousand values


def test_printed_only_records_match_their_recomputation():
    # regression guard on the adjudication itself: the recomputed value
    # stored next to each transcribed-only form must match the live pipeline
    for entry in load_corpus():
        cache = {}
        for rec in entry.golden:
            if rec.reliability != "printed-only":
                continue
            pt = tuple(rec.point)
            if pt not in cache:
                cache[pt] = snapshot(entry.web, pt)
            actual = cache[pt].lookup(rec.path)
            scale = max(1.0, abs(rec.recomputed))
            assert abs(actual - rec.recomputed) / scale < 1e-7, \
                (entry.name, rec.path)


def test_printed_only_records_disagree_with_pipeline():
    # they are printed-only precisely because the transcribed value does not
    # reproduce; make sure none of them silently matches after all
    for entry in load_corpus():
        for res in golden_check(entry):
            assert res.status in ("pass", "logged-discrepancy")
    statuses = [r.status for r in golden_check(load_example(1))]
    assert "logged-discrepancy" in statuses


def test_golden_check_snapshots_each_point_once(monkeypatch):
    entry = load_example(2)
    calls = []
    monkeypatch.setattr(corpus, "snapshot", lambda web, point:
                        calls.append(point) or snapshot(web, point))
    results = golden_check(entry)
    assert all(r.status == "pass" for r in results
               if r.status != "logged-discrepancy")
    # one snapshot per distinct point, not per record
    assert len(calls) == len({tuple(p) for p in entry.points})


def test_corpus_webs_are_isoclinic_everywhere_sampled():
    for entry in load_corpus():
        for pt in entry.points:
            assert not snapshot(entry.web, tuple(pt)).non_isoclinic

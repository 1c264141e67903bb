"""The verdicts of `tools/bench_pairs.py` against a metric's bound, on
synthetic run values; no benchmark runs."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs",
    Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

# ten base runs with median 10.0 and interquartile range 1.0
BASE = [9.0, 9.5, 9.5, 9.5, 10.0, 10.0, 10.5, 10.5, 10.5, 11.0]


@pytest.mark.parametrize("work, bound, want", [
    ([10.0] * 10, 0.25, "within bound"),
    ([12.4] * 10, 0.25, "within bound"),       # 24% slower
    ([12.6] * 10, 0.25, "worse beyond bound"),  # 26% slower
    ([8.0] * 10, 0.25, "within bound"),        # faster
    ([10.0] * 10, 0.09, "unresolved"),         # IQR 10% of the median
    ([11.0] * 10, 0.09, "worse beyond bound"),  # and 10% slower
])
def test_verdict_against_the_bound(work, bound, want):
    base = bench_pairs.summary(BASE)
    assert (base["median"], base["q3"] - base["q1"]) == (10.0, 1.0)
    assert bench_pairs.verdict(base, bench_pairs.summary(work), bound) == want


"""Smoke test of the benchmark itself, at tiny sizes."""

import json
from pathlib import Path

import pytest

import harness
import run
from spans import Tracer

TINY = harness.Sizes(points=8, family_calls=1, probe_per_web=2,
                     setup_repeats=1)
SPEC = json.loads((Path(__file__).resolve().parent.parent
                   / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(harness.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    tracer = Tracer() if trace else None
    result = harness.measure(harness.make(workload, 3, TINY, tracer), 0.0,
                             trace, tracer)
    line = run.result_line(result)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["attempted"] > 0 and line["failed"] == 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert ({name: m["unit"] for name, m in line["metrics"].items()}
            == {m["name"]: m["unit"] for m in spec})
    unmeasured = {name for name, m in line["metrics"].items()
                  if m["value"] is None}
    # load_corpus parses the corpus once per process, so only a fresh
    # process is sure to see the parse calls
    assert unmeasured <= {"expr.parse_s"}


def test_planted_wrong_label_counts_as_failed():
    workload = harness.make("table", 3, TINY)
    workload.expected["example05"] = ("planted",)
    line = run.result_line(harness.measure(workload, 0.0, False))
    # one table call per pass: the warm-up and one timed pass
    assert line["attempted"] == 30 and line["failed"] == 2
    assert not line["correct"]

"""Workloads, timed passes and metrics of the threeweb benchmark.

Untraced passes reach the package only through the surface the ROADMAP
keeps stable: `cli.main`, `classify_generic`, `classify_web`, `snapshot`,
`golden_check`, `parse_web` and `load_corpus`.  Every call looks its
function up on the module when it runs, so the trace hooks in `spans` see
the benchmark's own calls too.

A pass is a list of calls.  Each call is timed on its own, and a pass's time
is the sum of its calls' times; each result is checked right after its
call, outside that time.  A call that raises or returns a wrong result
counts its operations as failed and never stops the run.  An operation is a
classified web or parameter binding, a snapshot call, or a verified golden
record.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import threeweb as tw
from threeweb import cli

import reference
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
BOX = (-3.0, 3.0)
# Width of each of the two windows a sieve web confines a coordinate to, one
# in each half of the box: 2 of 6 per coordinate, so about 1 draw in 81 is
# admissible (about 85k draws a pass).
SIEVE_WINDOW = 1.0


@dataclass(frozen=True)
class Sizes:
    points: int = 64         # sample points per verdict, as `threeweb` uses
    family_calls: int = 3    # classify_generic calls per family pass
    probe_per_web: int = 70  # snapshot calls per corpus web per probe pass
    setup_repeats: int = 11  # fresh interpreters timed for setup_s


@dataclass
class Call:
    fn: Callable            # no arguments; looks the package function up
    check: Callable         # result or exception -> (attempted, failed, note)
    latency: bool = False   # a latency sample of its own, as on probe


def _failed_all(n, err):
    return n, n, "%s: %s" % (type(err).__name__, err)


class Workload:
    """Inputs made from the seed, and `calls`, the list every pass runs."""

    # spans this workload must exercise; see spans.NEEDS
    layers = ("expr.parse", "expr.admissible", "jet.lift", "tensor.snapshot",
              "classify.web", "classify.collect")
    texts = ()  # (name, web text) pairs parsed at set-up, beside the corpus

    def __init__(self, seed, sizes, corpus):
        self.sizes = sizes
        self.rng = np.random.default_rng(seed)
        self.expected = {e.name: e.expected_labels for e in corpus}

    def _check_labels(self, name):
        def check(report):
            if isinstance(report, Exception):
                return _failed_all(1, report)
            if report.labels != self.expected[name]:
                return 1, 1, "%s: labels %s, expected %s" % (
                    name, report.labels, self.expected[name])
            return 1, 0, None
        return check


class Table(Workload):
    """`threeweb table --format json` through cli.main: 15 webs, the
    headline user run, with every layer in its real proportion.

    The sampler seed is one of those the package's own seed-independence
    test and default cover.  At about 3% of other seeds `threeweb table`
    labels example04 A2 instead of A1 (see README.md, Findings), and a
    benchmark run must be one on which no operation fails."""

    layers = Workload.layers + ("cli.main",)
    SEEDS = tuple(range(10)) + (42,)

    def __init__(self, seed, sizes, corpus):
        super().__init__(seed, sizes, corpus)
        self.argv = ["table", "--format", "json",
                     "--seed", str(self.SEEDS[seed % len(self.SEEDS)]),
                     "--points", str(sizes.points)]
        self.calls = [Call(self._run, self._check)]

    def _run(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(self.argv)
        return code, out.getvalue()

    def _check(self, result):
        n = len(self.expected)
        if isinstance(result, Exception):
            return _failed_all(n, result)
        code, text = result
        try:
            doc = json.loads(text)
        except ValueError:
            return n, n, "table exited %d without JSON output" % code
        got = {row["web"]: tuple(row["labels"]) for row in doc["rows"]}
        bad = {d["web"] for d in doc["diffs"]}
        bad.update(name for name, want in self.expected.items()
                   if got.get(name) != want)
        note = "table: wrong labels on %s" % sorted(bad) if bad else None
        return n, len(bad), note


class Family(Workload):
    """classify_generic(example08) under seeded parameter bindings: the one
    workload that reclassifies a single web under new bindings."""

    BINDINGS = 5

    def __init__(self, seed, sizes, corpus):
        super().__init__(seed, sizes, corpus)
        web = next(e.web for e in corpus if e.name == "example08")
        configs = [tw.RunConfig(seed=int(s), points=sizes.points)
                   for s in self.rng.integers(0, 2 ** 31, sizes.family_calls)]
        self.calls = [
            Call(lambda c=c: tw.classify_generic(web, c,
                                                 bindings=self.BINDINGS),
                 self._check)
            for c in configs]

    def _check(self, report):
        if isinstance(report, Exception):
            return _failed_all(self.BINDINGS, report)
        want = list(self.expected["example08"])
        failed = sum(pb["labels"] != want for pb in report.per_binding)
        if report.generic is not True or list(report.labels) != want:
            failed = max(failed, 1)
        note = None
        if failed:
            note = "example08 bindings: %s, expected %s" % (
                [pb["labels"] for pb in report.per_binding], want)
        return self.BINDINGS, failed, note


class Probe(Workload):
    """Independent snapshot calls at seeded admissible points, an equal
    number per corpus web in shuffled order, then golden_check on every
    entry: how `threeweb snapshot`, `threeweb corpus` and library users
    work, with no sampling, no predicates and a batch size of one."""

    layers = ("expr.parse", "jet.lift", "tensor.snapshot", "corpus.golden")

    def __init__(self, seed, sizes, corpus):
        super().__init__(seed, sizes, corpus)
        points = []
        for entry in corpus:
            found = 0
            while found < sizes.probe_per_web:
                pt = tuple(float(v) for v in self.rng.uniform(*BOX, size=4))
                if entry.web.admissible(pt):
                    points.append((entry.web, pt))
                    found += 1
        self.rng.shuffle(points)
        self.calls = (
            [Call(lambda w=w, p=p: tw.snapshot(w, p), self._check_snapshot,
                  latency=True)
             for w, p in points]
            + [Call(lambda e=e: tw.golden_check(e), self._check_golden(e))
               for e in corpus])

    @staticmethod
    def _check_snapshot(snap):
        if isinstance(snap, Exception):
            return _failed_all(1, snap)
        fields = [np.ravel(np.asarray(v, dtype=float))
                  for k, v in snap.to_dict().items()
                  if k not in ("params", "non_isoclinic") and v is not None]
        if not np.all(np.isfinite(np.concatenate(fields))):
            return 1, 1, "non-finite snapshot field at %s" % (snap.point,)
        return 1, 0, None

    def _check_golden(self, entry):
        verified = sum(r.reliability == "verified" for r in entry.golden)

        def check(results):
            if isinstance(results, Exception):
                return _failed_all(verified, results)
            passed = sum(r.status == "pass" for r in results)
            note = None
            if passed != verified:
                note = "%s: %d of %d verified golden records pass" % (
                    entry.name, passed, verified)
            return verified, verified - passed, note
        return check


class Sieve(Workload):
    """The corpus webs with one added domain line per coordinate that
    confines it to two seeded windows, so almost every draw is rejected and
    admissibility testing takes the largest share.  The labels are
    identities of real-analytic fields, so they are those of the whole web.

    Two windows per coordinate make 16 small boxes per web, spread over the
    box, so a web is not sampled only where it happens to be nearly
    degenerate: with one window of width 2 per coordinate, the work of a
    pass spread by 17% of its median over ten seeds, and 1 classification
    in about 150 failed (see README.md)."""

    def __init__(self, seed, sizes, corpus):
        super().__init__(seed, sizes, corpus)
        lo, hi = BOX
        mid = (lo + hi) / 2.0
        texts = []
        for entry in corpus:
            lines = [tw.format_web(entry.web)]
            for var in tw.expr.VARIABLES:
                a = float(self.rng.uniform(lo, mid - SIEVE_WINDOW))
                b = float(self.rng.uniform(mid, hi - SIEVE_WINDOW))
                # positive exactly on (a, a + w) and (b, b + w)
                lines.append("domain -(%s) * (%s) * (%s) * (%s) > 0\n" % tuple(
                    "%s - (%r)" % (var, end)
                    for end in (a, a + SIEVE_WINDOW, b, b + SIEVE_WINDOW)))
            texts.append((entry.name, "".join(lines)))
        self.texts = tuple(texts)
        config = tw.RunConfig(seed=seed, points=sizes.points)
        webs = [tw.parse_web(text, name=name) for name, text in texts]
        self.calls = [Call(lambda w=w: tw.classify_web(w, config),
                           self._check_labels(w.name))
                      for w in webs]


WORKLOADS = {"table": Table, "family": Family, "probe": Probe,
             "sieve": Sieve}


def make(name, seed, sizes=Sizes(), tracer=None):
    """Load the corpus and build the workload's inputs from the seed."""
    with tracer.installed() if tracer else contextlib.nullcontext():
        corpus = tw.load_corpus()
        return WORKLOADS[name](seed, sizes, corpus)


def setup_seconds(workload):
    """One set-up in a fresh interpreter: (seconds, reference factor)."""
    done = subprocess.run([sys.executable, str(HERE / "setup_child.py")],
                          input=json.dumps(list(workload.texts)),
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          check=True)
    child = json.loads(done.stdout)
    return child["seconds"], child["factor"]


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def add(self, attempted, failed, note):
        self.attempted += attempted
        self.failed += failed
        if note and len(self.notes) < 10:
            self.notes.append(note)


def run_pass(calls, tally, gauge=None):
    """Run every call once; return the seconds each call took.

    Each result is checked and dropped as soon as its call returns, outside
    the call's time, so the benchmark holds no results that would make the
    package's garbage collections slower.  Given a reference.Gauge, run it
    through the pass and take the chunks it ran out of each call's time.
    """
    clock = time.perf_counter
    took = []
    with gauge.running() if gauge else contextlib.nullcontext():
        for call in calls:
            spent = gauge.spent if gauge else 0.0
            start = clock()
            try:
                result = call.fn()
            except Exception as err:  # counted as failed; the run goes on
                result = err
            end = clock()
            took.append(end - start - (gauge.spent - spent if gauge else 0.0))
            tally.add(*call.check(result))
    return took


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


@dataclass
class Result:
    tally: Tally
    metrics: dict           # name -> value, None when unmeasured
    info: dict              # printed beside the metrics, not compared
    spans: list


def measure(workload, seconds, trace, setup_tracer=None):
    """Time passes until they add up to `seconds`, after one warm-up pass.

    Untraced, return the end-to-end metrics.  A reference.Gauge runs
    through each pass, and the pass's call times are stated at the
    reference speed by its chunks (see reference.py); the metrics are
    medians over the passes.  The set-ups in fresh interpreters are spread
    over the run, between passes, each stated at the reference speed by
    chunks run in its own process.
    Traced, follow each untraced pass by a traced pass over the same calls,
    and return the per-layer metrics of the fastest traced pass, in
    unscaled seconds, with the tracing overhead as a median over the pairs.
    """
    tally = Tally()
    calls = workload.calls
    run_pass(calls, tally, reference.Gauge())  # warm-up, not timed
    tracer = Tracer()
    walls, scaled, setups, setup_raw, overheads = [], [], [], [], []
    latency = [i for i, call in enumerate(calls) if call.latency]
    per_call = [[] for _ in latency]  # scaled seconds of each, every pass
    fastest = None  # (seconds, layer metrics, spans) of the best traced pass
    repeats = workload.sizes.setup_repeats
    spent = 0.0
    while not walls or spent < seconds:
        gauge = reference.Gauge()
        took = run_pass(calls, tally, None if trace else gauge)
        walls.append(sum(took))
        spent += walls[-1]
        if trace:
            with tracer.installed():
                traced = sum(run_pass(calls, tally))
            spent += traced
            overheads.append(traced / walls[-1] - 1.0)
            if fastest is None or traced < fastest[0]:
                fastest = (traced, tracer.layer_metrics(workload.layers),
                           tracer.spans)
            tracer.reset()
            continue
        factor = gauge.factor()
        scaled.append(walls[-1] * factor)
        for times, i in zip(per_call, latency):
            times.append(took[i] * factor)
        while len(setups) < min(repeats, math.ceil(
                repeats * spent / max(seconds, 1e-9))):
            raw, setup_factor = setup_seconds(workload)
            setup_raw.append(raw)
            setups.append(raw * setup_factor)
    info = {"passes": len(walls) * (2 if trace else 1),
            "calls_per_pass": len(calls),
            "pass_s": " ".join("%.3f" % w for w in walls)}
    if trace:
        metrics = fastest[1]
        setup = setup_tracer.layer_metrics(workload.layers)
        metrics["expr.parse_calls"] = setup["expr.parse_calls"]
        metrics["expr.parse_s"] = setup["expr.parse_s"]
        metrics["trace.overhead_frac"] = statistics.median(overheads)
        info["untraced_run_s"] = statistics.median(walls)
        info["traced_run_s"] = fastest[0]
        return Result(tally, metrics, info, fastest[2])
    run = statistics.median(scaled)
    # a call's latency is its median over the passes; where a pass has too
    # few calls for a p90 with ten beyond it, they are not latency samples
    # and the whole pass is the one sample
    latencies = [statistics.median(times) for times in per_call] or [run]
    metrics = {
        "setup_s": statistics.median(setups),
        "run_s": run,
        "latency_p50_us": 1e6 * statistics.median(latencies),
        "latency_p90_us": 1e6 * nearest_rank(latencies, 0.9),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info["scaled_pass_s"] = " ".join("%.3f" % w for w in scaled)
    info["unscaled_run_s"] = statistics.median(walls)
    info["unscaled_setup_s"] = statistics.median(setup_raw)
    info["setup_runs"] = len(setups)
    info["latency_samples"] = len(latencies)
    return Result(tally, metrics, info, [])


def environment(seed):
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": " ".join("%.2f" % v for v in os.getloadavg()),
        "seed": seed,
    }

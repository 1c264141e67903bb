"""Trace hooks: spans and call counts around threeweb's public functions.

A hook replaces a function at every place it is looked up at call time (the
package namespace and each module that imported it by name), so calls made
inside the package are seen as well as the benchmark's own.  `installed()`
puts the hooks in and always takes them out again.

A span is ``[name, start, end, parent]``, where parent is the index of the
span that was open when this one started (-1 at the top).  Self time is a
span's duration minus that of its direct children.  `Jet.__mul__` runs about
100k times per table pass and is only counted: a span per multiply would
cost more than the multiply.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter

import threeweb
from threeweb import classify, cli, corpus, expr, jet, tensor

MODULES = (threeweb, expr, jet, tensor, classify, corpus, cli)

# span name -> (owner, attribute) of the function the span wraps
FUNCTIONS = {
    "expr.parse": (expr, "parse_web"),
    "jet.lift": (jet, "jet_lift"),
    "tensor.snapshot": (tensor, "snapshot"),
    "classify.generic": (classify, "classify_generic"),
    "classify.web": (classify, "classify_web"),
    "classify.collect": (classify, "collect_snapshots"),
    "corpus.load": (corpus, "load_corpus"),
    "corpus.golden": (corpus, "golden_check"),
    "cli.main": (cli, "main"),
}
METHODS = {"expr.admissible": (expr.Web, "admissible")}
COUNTED = {"jet.mul": (jet.Jet, "__mul__")}

# per-layer metric -> the span whose calls it needs; a timing whose span
# recorded no call on a workload that must make it is reported unmeasured
NEEDS = {
    "expr.parse_s": "expr.parse",
    "expr.admissible_s": "expr.admissible",
    "jet.lift_s": "jet.lift",
    "tensor.snapshot_s": "tensor.snapshot",
    "tensor.self_s": "tensor.snapshot",
    "classify.collect_s": "classify.collect",
    "classify.verdict_s": "classify.web",
    "classify.used_ratio": "tensor.snapshot",
    "corpus.golden_s": "corpus.golden",
    "cli.self_s": "cli.main",
}


class Tracer:
    """Spans, counts and the points that reached a verdict, kept in memory.

    Spans are stored as four columns of strings, ints and floats, none of
    which the garbage collector tracks, so tracing adds no collection work.
    """

    def __init__(self):
        self._stack = []
        self.reset()

    def reset(self):
        self.names, self.starts, self.ends, self.parents = [], [], [], []
        self.calls = Counter()
        self.used_points = 0

    @property
    def spans(self):
        return [list(row) for row in zip(self.names, self.starts, self.ends,
                                         self.parents)]

    def _span(self, name, fn):
        stack, clock = self._stack, time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            index = len(tracer.names)
            tracer.names.append(name)
            tracer.parents.append(stack[-1] if stack else -1)
            tracer.ends.append(0.0)
            stack.append(index)
            tracer.starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.ends[index] = clock()
                stack.pop()
            if name == "classify.web":
                tracer.used_points += result.config.points
            return result

        return traced

    def _count(self, name, fn):
        tracer = self

        def counted(*args):
            tracer.calls[name] += 1
            return fn(*args)

        return counted

    @contextlib.contextmanager
    def installed(self):
        undo = []
        try:
            for name, (owner, attr) in FUNCTIONS.items():
                original = getattr(owner, attr)
                hook = self._span(name, original)
                for module in MODULES:
                    if getattr(module, attr, None) is original:
                        undo.append((module, attr, original))
                        setattr(module, attr, hook)
            for table, wrap in ((METHODS, self._span), (COUNTED, self._count)):
                for name, (owner, attr) in table.items():
                    original = getattr(owner, attr)
                    undo.append((owner, attr, original))
                    setattr(owner, attr, wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def layer_metrics(self, required=()):
        """Per-layer totals over the spans recorded since the last reset.

        A timing that needs one of the `required` spans is None when that
        span recorded no call: the work went elsewhere, so it is unmeasured.
        """
        names, parents = self.names, self.parents
        took = [end - start for start, end in zip(self.starts, self.ends)]
        child = [0.0] * len(names)
        for parent, seconds in zip(parents, took):
            if parent >= 0:
                child[parent] += seconds
        calls, busy, own = Counter(), Counter(), Counter()
        sampled = 0  # snapshots taken while sampling for a verdict
        for name, parent, seconds, inner in zip(names, parents, took, child):
            calls[name] += 1
            busy[name] += seconds
            own[name] += seconds - inner
            if (name == "tensor.snapshot" and parent >= 0
                    and names[parent] == "classify.collect"):
                sampled += 1
        snaps = calls["tensor.snapshot"]
        wasted = sampled - self.used_points
        metrics = {
            "expr.parse_calls": calls["expr.parse"],
            "expr.parse_s": busy["expr.parse"],
            "expr.admissible_calls": calls["expr.admissible"],
            "expr.admissible_s": busy["expr.admissible"],
            "jet.lift_calls": calls["jet.lift"],
            "jet.lift_s": busy["jet.lift"],
            "jet.mul_calls": self.calls["jet.mul"],
            "tensor.snapshot_calls": snaps,
            "tensor.snapshot_s": busy["tensor.snapshot"],
            "tensor.self_s": own["tensor.snapshot"],
            "classify.web_calls": calls["classify.web"],
            "classify.collect_s": busy["classify.collect"],
            "classify.verdict_s": own["classify.web"],
            "classify.used_ratio": (snaps - wasted) / snaps if snaps else None,
            "corpus.golden_calls": calls["corpus.golden"],
            "corpus.golden_s": busy["corpus.golden"],
            "cli.self_s": own["cli.main"],
        }
        for metric, span in NEEDS.items():
            if span in required and not calls[span]:
                metrics[metric] = None
        return metrics

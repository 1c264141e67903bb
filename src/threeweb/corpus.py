"""Bundled example webs with frozen reference values.

Fifteen webs ship with the package, each as a ``.web`` file plus a golden
JSON sidecar under ``corpus/``.  A sidecar freezes, per stored sample
point, the value of every hand-transcribed closed form for the web's
invariants, tagged with a reliability:

``verified``
    the transcribed form agreed with an independent symbolic recomputation
    at every stored point; tests treat these as hard expectations.
``printed-only``
    the transcribed form disagreed with the recomputation (the source
    tables contain typesetting slips); the record keeps both numbers and
    never fails a check, it is reported as a logged discrepancy.

The sidecars are regenerated by ``tools/gen_golden.py``; nothing in this
module needs sympy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from importlib import resources

from .expr import Web, is_integer, parse_web
from .tensor import snapshot

N_EXAMPLES = 15
GOLDEN_REL_TOL = 1e-7
_CORPUS = resources.files(__package__) / "corpus"


@dataclass(frozen=True)
class GoldenRecord:
    """One frozen reference value: an invariant component at a point."""

    point: tuple  # (x1, x2, y1, y2)
    path: str  # snapshot lookup path, e.g. "b.2111"
    value: float  # the transcribed closed form evaluated at the point
    reliability: str  # "verified" or "printed-only"
    recomputed: float | None = None  # pipeline value, printed-only rows


@dataclass(frozen=True)
class GoldenResult:
    """One GoldenRecord checked against the live pipeline."""

    path: str
    point: tuple
    expected: float
    actual: float
    status: str  # "pass" | "fail" | "logged-discrepancy"


@dataclass(frozen=True)
class CorpusEntry:
    """One bundled web with its expected labels and reference values."""

    index: int  # 1-based position in the published table
    name: str  # "example01" .. "example15"
    web: Web
    expected_labels: tuple  # class labels the web must classify to
    fg: str | None  # asserted F/G metadata; never computed
    points: tuple  # stored admissible sample points
    notes: tuple  # human annotations about known discrepancies

    @cached_property
    def golden(self):
        """The GoldenRecord rows, read from the sidecar again on first use:
        classifying an entry needs none of them, and the entry keeps no
        copy of the parsed records meanwhile."""
        return tuple(
            GoldenRecord(
                point=self.points[rec["point"]],
                path=rec["path"],
                value=rec["value"],
                reliability=rec["reliability"],
                recomputed=rec.get("recomputed"),
            )
            for rec in _sidecar(self.name)["records"]
        )


def _sidecar(name):
    """The parsed golden sidecar of the corpus web `name`."""
    return json.loads((_CORPUS / (name + ".golden.json")).read_text())


def _load_entry(index):
    name = "example%02d" % index
    web = parse_web((_CORPUS / (name + ".web")).read_text(), name=name)
    doc = _sidecar(name)
    if doc["schema"] != 1 or doc["index"] != index:
        raise ValueError("golden sidecar for %s is inconsistent" % name)
    return CorpusEntry(
        index=index,
        name=name,
        web=web,
        expected_labels=tuple(doc["expected_labels"]),
        fg=doc["fg"],
        points=tuple(tuple(c) for c in doc["points"]),
        notes=tuple(doc["notes"]),
    )


_cache = None


def load_corpus():
    """All bundled webs, in table order, parsed and ready to classify."""
    global _cache
    if _cache is None:
        _cache = tuple(_load_entry(i) for i in range(1, N_EXAMPLES + 1))
    return _cache


def load_example(index):
    """One bundled web by its 1-based table position."""
    if not (is_integer(index) and 1 <= index <= N_EXAMPLES):
        raise ValueError("example index must be 1..%d, got %r"
                         % (N_EXAMPLES, index))
    return load_corpus()[index - 1]


def golden_check(entry):
    """Compare every frozen reference record against the pipeline.

    Returns one GoldenResult per record.  ``verified`` records pass when
    the pipeline matches the frozen value to GOLDEN_REL_TOL (relative, with
    an absolute floor of 1); ``printed-only`` records always come back as
    "logged-discrepancy" carrying both numbers, they cannot fail.
    """
    snaps = {}
    results = []
    for rec in entry.golden:
        if rec.point not in snaps:
            snaps[rec.point] = snapshot(entry.web, rec.point)
        actual = snaps[rec.point].lookup(rec.path)
        if rec.reliability == "verified":
            status = ("pass" if abs(actual - rec.value)
                      <= GOLDEN_REL_TOL * max(1.0, abs(rec.value)) else "fail")
        else:
            status = "logged-discrepancy"
        results.append(GoldenResult(path=rec.path, point=rec.point,
                                    expected=rec.value, actual=actual,
                                    status=status))
    return results

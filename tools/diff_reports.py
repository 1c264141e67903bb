"""Compare threeweb's JSON reports between two source trees.

    python3 tools/diff_reports.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are the `src` directories of two checkouts.  Each tree
runs in an interpreter of its own, with that tree first on PYTHONPATH:
`threeweb table --format json` and `threeweb classify --format json` on
all bundled webs, at the sampler seeds 0-9 and 42.  The report says whether
each table output is byte-identical, and sorts the differences between the
classify reports into buckets:

  labels     labels, classes, `holds` flags, `inconclusive` lists,
             parameter-binding agreement
  witness    witness points of failing verdicts
  residual   `max_residual` values: the largest relative change at or
             above 1e-3, and the largest absolute change below it
  other      anything else (`t_value`, `frame_alignment_residual`, ...)

Exit status 1 when a table differs or the labels bucket is not empty.
Wall time is not measured; this compares outputs only.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import defaultdict

SEEDS = tuple(range(10)) + (42,)
LABEL_KEYS = {"labels", "classes", "holds", "inconclusive", "generic",
              "per_binding"}
WHOLE_KEYS = LABEL_KEYS | {"witness"}
EXAMPLES = 5

# runs in the child: every output of one tree, as JSON on stdout
CHILD = """
import contextlib, io, json, sys
from threeweb import cli
from threeweb.corpus import load_corpus

def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(argv)
    return out.getvalue()

webs = [entry.name for entry in load_corpus()]
doc = {}
for seed in sys.argv[1:]:
    doc[seed] = {
        "table": run(["table", "--format", "json", "--seed", seed]),
        "classify": run(["classify", *webs, "--format", "json",
                         "--seed", seed]),
    }
json.dump(doc, sys.stdout)
"""


def outputs(src):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run([sys.executable, "-c", CHILD, *map(str, SEEDS)],
                          env=env, capture_output=True, text=True)
    if done.returncode:
        sys.exit("%s failed:\n%s" % (src, done.stderr))
    return json.loads(done.stdout)


def compare(old, new, where, buckets):
    """Put each differing leaf of two JSON values in its bucket."""
    key = next((k for k in reversed(where) if isinstance(k, str)), "")
    if (key not in WHOLE_KEYS and type(old) is type(new)
            and isinstance(old, (dict, list)) and len(old) == len(new)
            and (isinstance(old, list) or old.keys() == new.keys())):
        items = (old.items() if isinstance(old, dict) else enumerate(old))
        for k, v in items:
            compare(v, new[k], where + (k,), buckets)
        return
    if old == new:
        return
    bucket = "labels" if key in LABEL_KEYS else {
        "witness": "witness", "max_residual": "residual"}.get(key, "other")
    buckets[bucket].append((where, old, new))


def show_largest(diffs, kind, size):
    where, a, b = max(diffs, key=lambda d: size(d[1], d[2]))
    print("    %d %s, largest change %.3g: %s, %r -> %r"
          % (len(diffs), kind, size(a, b), " / ".join(map(str, where)), a, b))


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    old, new = (outputs(src) for src in argv)
    buckets = defaultdict(list)
    same_tables = 0
    reports = changed = 0
    for seed in map(str, SEEDS):
        same_tables += old[seed]["table"] == new[seed]["table"]
        for a, b in zip(json.loads(old[seed]["classify"]),
                        json.loads(new[seed]["classify"])):
            before = sum(map(len, buckets.values()))
            compare(a, b, ("seed %s" % seed, a["web"]), buckets)
            reports += 1
            changed += sum(map(len, buckets.values())) > before

    print("table --format json: byte-identical at %d of %d seeds"
          % (same_tables, len(SEEDS)))
    print("classify --format json: %d of %d reports differ"
          % (changed, reports))
    for name in ("labels", "witness", "residual", "other"):
        diffs = buckets[name]
        print("  %-9s %d differences" % (name, len(diffs)))
        if name == "residual":
            # roundoff moves residuals near zero by a large relative amount,
            # so those are measured in absolute terms
            large = [d for d in diffs if max(abs(d[1]), abs(d[2])) >= 1e-3]
            small = [d for d in diffs if d not in large]
            if large:
                show_largest(large, "at or above 1e-3, relative",
                             lambda a, b: abs(b - a) / max(abs(a), abs(b)))
            if small:
                show_largest(small, "below 1e-3, absolute",
                             lambda a, b: abs(b - a))
        else:
            for where, a, b in diffs[:EXAMPLES]:
                print("    %s: %r -> %r" % (" / ".join(map(str, where)), a, b))
    return int(same_tables < len(SEEDS) or bool(buckets["labels"]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

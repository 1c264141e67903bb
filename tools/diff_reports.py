"""Compare threeweb's reports, text output and exit statuses between two
source trees.

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

The corpus webs admit nearly every draw, so the same classify comparison
also runs on each bundled web confined to NARROW_WINDOWS, where about 1
draw in 81 is admissible and the sampler's rounds show; a difference in
such a run's exit status counts in the labels bucket.  The same runs
classify SPLIT_WEB, a parameterized web whose random bindings disagree,
so each of its runs exits 2.

It also runs `threeweb snapshot --format json` in both trees, at each
bundled web's stored points and at 20 seeded admissible points per web
(drawn once, by the first tree, and given to both).  For each field it
prints the largest change relative to the larger of 1 and that field's
largest component in the same snapshot (a field that vanishes identically
holds only roundoff), and where that change is, after one summary line:
at how many points the two outputs are byte-identical.  Snapshot changes
are reported only; they do not set the exit status.

The text format is compared too: `threeweb table` at every seed, and
`threeweb corpus` and `threeweb classify` on all bundled webs at the
default seed; `threeweb snapshot` at each bundled web's stored points.
So is the exit status of every run above, and of four runs that fail with
exit status 1: `threeweb classify` on a missing file and on each web of
CONSTANT_WEBS, and `threeweb snapshot` at an inadmissible point.  The
table and corpus text are compared byte for byte.  The classify text is
compared with the number after each `max residual` masked, since residual
digits may move with the arithmetic, and its unmasked diff is printed.  A
difference in the snapshot text is printed only.

Exit status 1 when a table differs, as JSON or as text, when the corpus
text or the masked classify text differs, when any exit status differs,
or when the labels bucket is not empty.
Wall time is not measured; this compares outputs only.
"""

from __future__ import annotations

import difflib
import json
import os
import re
import subprocess
import sys
from collections import Counter, defaultdict

import numpy as np

SEEDS = tuple(range(10)) + (42,)
# the residual digits of the classify text, masked before it is compared
RESIDUAL = re.compile(r"max residual \S+")
DIFF_LINES = 40
LABEL_KEYS = {"labels", "classes", "holds", "inconclusive", "generic",
              "per_binding"}
WHOLE_KEYS = LABEL_KEYS | {"witness"}
EXAMPLES = 5

# the windows of the test suite's narrow-window web: each coordinate lies in
# one of two width-1 windows, one in each half of the (-3, 3) box
NARROW_WINDOWS = {"x1": (-2.6, 0.3), "x2": (-1.2, 1.9),
                  "y1": (-2.9, 1.1), "y2": (-0.7, 0.4)}

# example09 with a term whose coefficient, c + |c|, is 0 for c < 0 and 2c
# for c > 0: labelled B D232 E1 under a negative c, A2 C2 under a positive
# one, so five random bindings disagree at every seed of SEEDS
SPLIT_WEB = """\
param c = 1
u1 = x1*y1 + x2*y2
u2 = x1*y2 + x2*y1 + (c + exp(0.5*ln(c^2)))*x1^2*y1
domain x1 - x2 != 0
domain x1 + x2 != 0
domain y1 - y2 != 0
domain y1 + y2 != 0
"""

# webs with a constant that is not finite, on each of which `threeweb
# classify` exits 1
CONSTANT_WEBS = {
    "classify an undefined constant": "u1 = x1 + ln(0 - 1)*y1\nu2 = x2 + y2\n",
    "classify an overflowing reciprocal":
        "u1 = x1 / 1e-320 + y1\nu2 = x2 + y2\n",
}

# the start of each child: `run` gives a CLI run's stdout and exit status
RUN = """
import contextlib, io, json, os, sys, tempfile
import numpy as np
from threeweb import cli
from threeweb.corpus import load_corpus
from threeweb.expr import format_web

def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \\
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return out.getvalue(), code
"""

# runs in the child: every output of one tree, as JSON on stdout; the
# narrow windows, the split web and the constant webs come on stdin
CHILD = RUN + """
given = json.load(sys.stdin)
windows = given["windows"]
webs = [entry.name for entry in load_corpus()]
doc = {"seeds": {}, "corpus text": run(["corpus"]),
       "classify text": run(["classify", *webs]),
       "snapshot at an inadmissible point": run(
           ["snapshot", "example09", "--point", "1", "1", "0.5", "0.3"])}
with tempfile.TemporaryDirectory() as tmp:
    doc["classify a missing file"] = run(
        ["classify", os.path.join(tmp, "missing.web")])
    for name, text in given["constants"].items():
        with open(os.path.join(tmp, "constant.web"), "w") as f:
            f.write(text)
        doc[name] = run(["classify", os.path.join(tmp, "constant.web")])
    narrow = []
    for entry in load_corpus():
        lines = [format_web(entry.web)]
        for var, (a, b) in windows.items():
            lines.append("domain -(%s - (%r)) * (%s - (%r)) * (%s - (%r))"
                         " * (%s - (%r)) > 0\\n"
                         % (var, a, var, a + 1, var, b, var, b + 1))
        name = entry.name + "-narrow"
        narrow.append((name, os.path.join(tmp, name + ".web")))
        with open(narrow[-1][1], "w") as f:
            f.write("".join(lines))
    narrow.append(("split", os.path.join(tmp, "split.web")))
    with open(narrow[-1][1], "w") as f:
        f.write(given["split"])
    for seed in sys.argv[1:]:
        doc["seeds"][seed] = {
            "table": run(["table", "--format", "json", "--seed", seed]),
            "table text": run(["table", "--seed", seed]),
            "classify": run(["classify", *webs, "--format", "json",
                             "--seed", seed]),
            "narrow": {name: run(["classify", path, "--format", "json",
                                  "--seed", seed])
                       for name, path in narrow},
        }
json.dump(doc, sys.stdout)
"""

SNAPSHOT_POINTS = 20
# runs in the child: the snapshot JSON text of every bundled web at the points
# given on stdin (web name -> list of points), or, given null, at its
# stored points and SNAPSHOT_POINTS seeded admissible ones; null where
# `threeweb snapshot` fails; and the exit status of each run, and the text
# output and exit status at the stored points, which come first
SNAPSHOT_CHILD = RUN + """
given = json.load(sys.stdin)
doc = {}
for index, entry in enumerate(load_corpus()):
    if given is None:
        rng = np.random.default_rng(index)
        points = [list(map(float, p)) for p in entry.points]
        wanted = len(points) + int(sys.argv[1])
        while len(points) < wanted:
            p = rng.uniform(-3.0, 3.0, 4)
            if entry.web.admissible(p):
                points.append(p.tolist())
    else:
        points = given[entry.name]
    runs = [run(["snapshot", entry.name, "--format", "json",
                 "--point", *map(repr, p)]) for p in points]
    doc[entry.name] = {
        "points": points,
        "snapshots": [out if code == 0 else None for out, code in runs],
        "codes": [code for _, code in runs],
        "texts": [run(["snapshot", entry.name, "--point", *map(repr, p)])
                  for p in points[:len(entry.points)]]}
json.dump(doc, sys.stdout)
"""
# snapshot keys that are not invariants
SNAPSHOT_SKIP = {"schema", "web", "point", "params"}


def run_child(src, script, args, stdin=None):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run([sys.executable, "-c", script, *map(str, args)],
                          env=env, input=stdin, capture_output=True,
                          text=True)
    if done.returncode:
        sys.exit("%s failed:\n%s" % (src, done.stderr))
    return json.loads(done.stdout)


def snapshot_changes(old, new):
    """Per snapshot field, the largest change relative to max(1, the
    field's largest component), with where it happened; the points at
    which one tree's snapshot failed and the other's did not; and how many
    snapshot outputs are byte-identical."""
    worst, failed, same = {}, [], 0
    for web, runs in old.items():
        pairs = zip(runs["points"], runs["snapshots"],
                    new[web]["snapshots"])
        for point, a, b in pairs:
            same += a is not None and a == b
            if a is None or b is None:
                if (a is None) != (b is None):
                    failed.append((web, point))
                continue
            a, b = json.loads(a), json.loads(b)
            for key in a.keys() - SNAPSHOT_SKIP:
                if (isinstance(a[key], bool) or a[key] is None
                        or b[key] is None):
                    change = float(a[key] != b[key])
                else:
                    moved = np.abs(np.subtract(b[key], a[key]))
                    change = np.max(moved) / max(1.0, np.max(np.abs(a[key])))
                if change > worst.get(key, (-1.0,))[0]:
                    worst[key] = (change, web, point)
    return worst, failed, same


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
    stdin = json.dumps({"windows": NARROW_WINDOWS, "split": SPLIT_WEB,
                        "constants": CONSTANT_WEBS})
    old, new = (run_child(src, CHILD, SEEDS, stdin) for src in argv)
    old_snaps = run_child(argv[0], SNAPSHOT_CHILD, [SNAPSHOT_POINTS], "null")
    given = {web: runs["points"] for web, runs in old_snaps.items()}
    new_snaps = run_child(argv[1], SNAPSHOT_CHILD, [SNAPSHOT_POINTS],
                          json.dumps(given))
    buckets = defaultdict(list)
    # (where, exit status in the first tree, in the second) of every run
    codes = [(name, old[name][1], new[name][1])
             for name in ("corpus text", "classify text",
                          "classify a missing file", *CONSTANT_WEBS,
                          "snapshot at an inadmissible point")]
    same_tables = same_table_texts = 0
    reports = changed = 0
    narrow_reports = narrow_changed = narrow_failed = 0
    for seed in map(str, SEEDS):
        old_runs, new_runs = old["seeds"][seed], new["seeds"][seed]
        codes += [("seed %s / %s" % (seed, name), old_runs[name][1],
                   new_runs[name][1])
                  for name in ("table", "table text", "classify")]
        same_tables += old_runs["table"][0] == new_runs["table"][0]
        same_table_texts += (old_runs["table text"][0]
                             == new_runs["table text"][0])
        for a, b in zip(json.loads(old_runs["classify"][0]),
                        json.loads(new_runs["classify"][0])):
            before = sum(map(len, buckets.values()))
            compare(a, b, ("seed %s" % seed, a["web"]), buckets)
            reports += 1
            changed += sum(map(len, buckets.values())) > before
        for web, (a, code_a) in old_runs["narrow"].items():
            b, code_b = new_runs["narrow"][web]
            codes.append(("seed %s / %s" % (seed, web), code_a, code_b))
            before = sum(map(len, buckets.values()))
            where = ("seed %s" % seed, web)
            if code_a != code_b:
                buckets["labels"].append((where + ("exit status",),
                                          code_a, code_b))
            if a and b:
                compare(json.loads(a), json.loads(b), where, buckets)
            narrow_reports += 1
            narrow_failed += not a
            narrow_changed += sum(map(len, buckets.values())) > before

    print("table --format json: byte-identical at %d of %d seeds"
          % (same_tables, len(SEEDS)))
    print("classify --format json: %d of %d reports differ"
          % (changed, reports))
    print("classify --format json, narrow windows and split web: %d of %d "
          "reports differ, %d without a report in the first tree"
          % (narrow_changed, narrow_reports, narrow_failed))
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

    worst, failed, same = snapshot_changes(old_snaps, new_snaps)
    points = sum(len(points) for points in given.values())
    print("snapshot --format json: byte-identical at %d of %d points"
          % (same, points))
    print("snapshot --format json: %d points, largest change per field "
          "relative to max(1, its largest component):" % points)
    for key in sorted(worst):
        change, web, point = worst[key]
        print("  %-13s %.3g%s" % (key, change, "  (%s at %s)" % (web, point)
                                  if change else ""))
    print("  failing in one tree only: %d%s" % (
        len(failed), "".join("\n    %s at %s" % f for f in failed[:EXAMPLES])))

    same_snapshot_texts = stored = 0
    for web, runs in old_snaps.items():
        new_runs = new_snaps[web]
        codes += [("snapshot %s at %s" % (web, point), a, b) for point, a, b
                  in zip(runs["points"], runs["codes"], new_runs["codes"])]
        codes += [("snapshot %s at %s, text" % (web, point), a[1], b[1])
                  for point, a, b
                  in zip(runs["points"], runs["texts"], new_runs["texts"])]
        same_snapshot_texts += sum(a[0] == b[0] for a, b
                                   in zip(runs["texts"], new_runs["texts"]))
        stored += len(runs["texts"])
    same_corpus = old["corpus text"][0] == new["corpus text"][0]
    print("table text: byte-identical at %d of %d seeds"
          % (same_table_texts, len(SEEDS)))
    print("corpus text: %s" % ("byte-identical" if same_corpus
                               else "DIFFERS"))
    texts = old["classify text"][0], new["classify text"][0]
    same_classify = (RESIDUAL.sub("max residual #", texts[0])
                     == RESIDUAL.sub("max residual #", texts[1]))
    print("classify text, bundled webs: %s" % (
        "byte-identical" if texts[0] == texts[1]
        else "identical but for residual digits" if same_classify
        else "DIFFERS"))
    diff = list(difflib.unified_diff(*(t.splitlines() for t in texts),
                                     lineterm="", n=0))
    for line in diff[2:2 + DIFF_LINES]:
        print("    " + line)
    if len(diff) > 2 + DIFF_LINES:
        print("    ... %d more lines" % (len(diff) - 2 - DIFF_LINES))
    print("snapshot text: byte-identical at %d of %d stored points "
          "(printed only)" % (same_snapshot_texts, stored))
    code_diffs = [c for c in codes if c[1] != c[2]]
    print("exit status: %d of %d runs differ; in the first tree %s"
          % (len(code_diffs), len(codes), ", ".join(
              "%d exit %d" % (n, code)
              for code, n in sorted(Counter(c[1] for c in codes).items()))))
    for where, a, b in code_diffs[:EXAMPLES]:
        print("    %s: %r -> %r" % (where, a, b))
    return int(same_tables < len(SEEDS) or same_table_texts < len(SEEDS)
               or not same_corpus or not same_classify or bool(code_diffs)
               or bool(buckets["labels"]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

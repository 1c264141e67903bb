"""Time a base source tree against this one, in alternating pairs of runs.

    python3 tools/bench_pairs.py BASE_SRC_DIR [--first-seed 5000]
        [--out BENCH.json]

BASE_SRC_DIR is the `src` directory of another checkout, for example one
made with `git archive`.  For every workload of `BENCHMARK.json`, each of
10 pairs runs `perfbench/run.py --trace 0` for the benchmark's
`run_seconds` once in that checkout and once in this one, at the same
seed, and switches which side runs first from one pair to the next.
Pair p uses seed FIRST_SEED + p, so pick seeds that were not used while
the change was written.  Each run's last output line is its JSON result.
Each side runs in a fresh copy of its tree's `src` and `perfbench`
without bytecode, with PYTHONDONTWRITEBYTECODE=1, as in a fresh checkout:
every interpreter compiles threeweb's sources, so `setup_s` includes
that compilation, while numpy and the standard library keep their
installed bytecode.

For each workload and end-to-end metric the tool prints each side's median
and quartiles over the pairs, how many pairs the working tree won and
lost (ties count for neither side), and whether the gain is resolved: the
working tree wins at least nine tenths of the pairs and the medians differ
by more than the base's interquartile range.  Every metric of
`BENCHMARK.json` is lower-is-better.  It also prints a verdict against the
metric's `bound` in `BENCHMARK.json` (`verdict`): "worse beyond bound",
"unresolved" or "within bound".  It writes all of it, every run's value
included, to the JSON file `--out`.  A run that fails, or reports failed
operations, is printed and recorded, and makes the exit status 1; so does
a verdict "worse beyond bound".
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
METRICS = [m["name"] for m in BENCHMARK["end_to_end"]]
BOUNDS = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
SECONDS = BENCHMARK["run_seconds"]
PAIRS = 10


def run_once(root, workload, seed):
    """The JSON result of one untraced run of the benchmark in `root`."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=root, capture_output=True, text=True,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        return {"correct": False, "error": proc.stderr.strip()[-2000:]}
    return json.loads(lines[-1])


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def verdict(base, work, bound):
    """A metric's verdict from each side's summary: "worse beyond bound"
    when the working tree's median exceeds the base median times 1 + bound,
    else "unresolved" when the base's interquartile range over its median
    exceeds bound, too wide to tell, else "within bound"."""
    if work["median"] > base["median"] * (1.0 + bound):
        return "worse beyond bound"
    if (base["q3"] - base["q1"]) / base["median"] > bound:
        return "unresolved"
    return "within bound"


def compare(base_runs, work_runs):
    """Per metric: each side's summary, the working tree's wins and
    losses, whether its gain is resolved, and its verdict against the
    metric's bound."""
    out = {}
    for metric in METRICS:
        base = [r["metrics"][metric]["value"] for r in base_runs]
        work = [r["metrics"][metric]["value"] for r in work_runs]
        b, w = summary(base), summary(work)
        wins = sum(x < y for x, y in zip(work, base))
        losses = sum(x > y for x, y in zip(work, base))
        out[metric] = {
            "base": b, "work": w, "wins": wins, "losses": losses,
            "change": w["median"] / b["median"] - 1.0,
            "gain_resolved": (wins >= 0.9 * len(base) and
                              b["median"] - w["median"] > b["q3"] - b["q1"]),
            "verdict": verdict(b, w, BOUNDS[metric]),
        }
    return out


def fresh_copy(root, tmp, side):
    """A copy of the tree's `src` and `perfbench` under `tmp`, without
    bytecode or benchmark output."""
    copy = Path(tmp, side)
    for part in ("src", "perfbench"):
        shutil.copytree(root / part, copy / part,
                        ignore=shutil.ignore_patterns("__pycache__", "out"))
    return copy


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_src", type=Path)
    parser.add_argument("--first-seed", type=int, default=5000)
    parser.add_argument("--out", type=Path, default=Path("BENCH.json"))
    args = parser.parse_args(argv)
    base_root = args.base_src.resolve().parent
    if not (base_root / "perfbench" / "run.py").is_file():
        parser.error("no perfbench/run.py beside %s" % args.base_src)

    doc = {"pairs": PAIRS, "seconds": SECONDS,
           "first_seed": args.first_seed,
           "host": {"python": platform.python_version(),
                    "machine": platform.machine()},
           "workloads": {}}
    # removed with its contents when the tool exits
    tmp = tempfile.TemporaryDirectory()
    base_root, work_root = (fresh_copy(root, tmp.name, side) for root, side
                            in ((base_root, "base"), (ROOT, "work")))
    print("bytecode: none in fresh copies of both trees, "
          "PYTHONDONTWRITEBYTECODE=1; setup_s includes compiling threeweb",
          flush=True)
    ok = True
    for workload in WORKLOADS:
        runs = {"base": [], "work": []}
        for pair in range(PAIRS):
            seed = args.first_seed + pair
            order = (("base", base_root), ("work", work_root))
            for side, root in order if pair % 2 == 0 else order[::-1]:
                result = run_once(root, workload, seed)
                result["seed"] = seed
                runs[side].append(result)
                if not result["correct"]:
                    ok = False
                    print("%s %s seed %d: failed: %s" % (
                        workload, side, seed,
                        result.get("error") or "%d of %d operations" % (
                            result["failed"], result["attempted"])))
        entry = {"runs": runs}
        if all(r.get("metrics") for side in runs.values() for r in side):
            entry["metrics"] = compare(runs["base"], runs["work"])
            for metric, m in entry["metrics"].items():
                print("%-7s %-15s base %.6g [%.6g, %.6g]  work %.6g "
                      "[%.6g, %.6g]  %+.1f%%  wins %d losses %d of %d  %s%s"
                      % (workload, metric, m["base"]["median"],
                         m["base"]["q1"], m["base"]["q3"],
                         m["work"]["median"], m["work"]["q1"],
                         m["work"]["q3"], 100.0 * m["change"], m["wins"],
                         m["losses"], PAIRS, m["verdict"],
                         "  resolved gain" if m["gain_resolved"] else ""))
                ok = ok and m["verdict"] != "worse beyond bound"
        doc["workloads"][workload] = entry
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

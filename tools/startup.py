"""Time threeweb's start-up in two source trees, in fresh interpreters.

    python3 tools/startup.py BASE_SRC NEW_SRC

BASE_SRC and NEW_SRC are the `src` directories of two checkouts.  Each of
20 rounds starts, for each tree in turn (the first tree first in even
rounds, the second in odd ones), one interpreter that times `import
numpy`, `import threeweb` and `threeweb.load_corpus()` with a wall clock,
and one that runs the same under `python -X importtime`, from which each
threeweb module's own import time is read (its self time: the module's
code, without the modules it imports).  Before the first round both
trees are compiled to bytecode, so neither side pays for a stale cache.
BLAS and OpenMP are pinned to one thread, as in the benchmark.

The tool prints each side's median and quartiles of the three timings
and the median self time of each module, in milliseconds.  It reports
only: the exit status is 1 when an interpreter fails, and never depends
on a timing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROUNDS = 20
STAGES = ("import numpy", "import threeweb", "load_corpus()")
TIMED = """\
import json, time
clock = time.perf_counter
start = clock()
import numpy
numpy_done = clock()
import threeweb
threeweb_done = clock()
threeweb.load_corpus()
corpus_done = clock()
print(json.dumps([numpy_done - start, threeweb_done - numpy_done,
                  corpus_done - threeweb_done]))
"""
TRACED = "import numpy, threeweb; threeweb.load_corpus()"


def run(src, *args):
    """The finished interpreter run with `src` first on the path."""
    env = dict(os.environ, PYTHONPATH=str(src))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def self_times(stderr):
    """Each threeweb module's self time in seconds, from `-X importtime`
    lines such as `import time:  1207 |  71523 |   threeweb.expr`."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        name = name.strip()
        if name.split(".")[0] == "threeweb" and self_us.strip().isdigit():
            out[name] = int(self_us) * 1e-6
    return out


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_src")
    parser.add_argument("new_src")
    args = parser.parse_args(argv)
    trees = [Path(a).resolve() for a in (args.base_src, args.new_src)]
    for src in trees:
        if not (src / "threeweb" / "__init__.py").is_file():
            parser.error("no threeweb package in %s" % src)
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(src)],
                       check=True)
    timings = [{stage: [] for stage in STAGES} for _ in trees]
    modules = [{} for _ in trees]
    for r in range(ROUNDS):
        for side in (0, 1) if r % 2 == 0 else (1, 0):
            timed = run(trees[side], "-c", TIMED)
            traced = run(trees[side], "-X", "importtime", "-c", TRACED)
            for proc in (timed, traced):
                if proc.returncode:
                    print("error: %s: %s" % (trees[side],
                                             proc.stderr.strip()[-2000:]))
                    return 1
            for stage, took in zip(STAGES, json.loads(timed.stdout)):
                timings[side][stage].append(took)
            for name, took in self_times(traced.stderr).items():
                modules[side].setdefault(name, []).append(took)

    print("start-up over %d rounds of fresh interpreters, ms" % ROUNDS)
    print("base: %s\nnew:  %s" % (args.base_src, args.new_src))
    print("%-18s %-25s %-25s %s" % ("", "base median [q1, q3]",
                                    "new median [q1, q3]", "change"))
    for stage in STAGES:
        (b, b1, b3), (n, n1, n3) = (quartiles(t[stage]) for t in timings)
        print("%-18s %7.2f [%6.2f, %6.2f]  %7.2f [%6.2f, %6.2f]  %+6.1f%%"
              % (stage, 1e3 * b, 1e3 * b1, 1e3 * b3, 1e3 * n, 1e3 * n1,
                 1e3 * n3, 100.0 * (n / b - 1.0)))
    print("module self time (-X importtime), median ms:")
    print("  %-18s %7s %7s" % ("", "base", "new"))
    for name in sorted(set(modules[0]) | set(modules[1])):
        print("  %-18s %s" % (name, " ".join(
            "%7.2f" % (1e3 * statistics.median(m[name])) if name in m
            else "%7s" % "-" for m in modules)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

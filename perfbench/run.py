"""Benchmark of threeweb: four seeded workloads, checked and timed.

    python3 perfbench/run.py --workload table --seed 42 --seconds 18 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` tree.  `--trace 0` times untraced passes and reports the end-to-end
metrics; `--trace 1` alternates untraced and traced passes and reports the
per-layer metrics, with the tracing overhead, and writes the spans of the
fastest traced pass to `perfbench/out/`.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  See
perfbench/README.md for the workloads and what each metric should move.
"""

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
UNITS = {
    "setup_s": "s", "run_s": "s", "peak_rss_mb": "MB",
    "latency_p50_us": "us", "latency_p90_us": "us",
    "trace.overhead_frac": "ratio", "classify.used_ratio": "ratio",
}


def unit_of(name):
    if name in UNITS:
        return UNITS[name]
    return "count" if name.endswith("_calls") else "s"


def result_line(result):
    """The JSON object printed as the last line of standard output."""
    tally = result.tally
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in result.metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("table", "family", "probe", "sieve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "threeweb" / "__init__.py").is_file():
        print("error: no threeweb source tree at %s" % SRC, file=sys.stderr)
        return 2
    # one thread for BLAS and OpenMP, here and in the set-up interpreters
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import harness
    from spans import Tracer

    setup_tracer = Tracer() if args.trace else None
    workload = harness.make(args.workload, args.seed, tracer=setup_tracer)
    result = harness.measure(workload, args.seconds, bool(args.trace),
                             setup_tracer)

    info = dict(harness.environment(args.seed), workload=args.workload,
                trace=args.trace, seconds=args.seconds, **result.info)
    for key, value in info.items():
        print("# %s: %s" % (key, value))
    tally = result.tally
    print("# fail_frac: %.6g (%d of %d operations)"
          % (tally.failed / max(1, tally.attempted), tally.failed,
             tally.attempted))
    for note in tally.notes:
        print("# failure: %s" % note)
    for name, value in result.metrics.items():
        shown = "unmeasured" if value is None else "%.6g" % value
        print("%-24s %14s %s" % (name, shown, unit_of(name)))
    if result.spans:
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        path = out / ("spans-%s-%d.json" % (args.workload, args.seed))
        path.write_text(json.dumps(result.spans))
        print("# spans: %s" % path.relative_to(HERE.parent))

    print(json.dumps(result_line(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

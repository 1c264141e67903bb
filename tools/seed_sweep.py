"""Classify every bundled web at a range of sampler seeds.

    python3 tools/seed_sweep.py LO HI

runs `classify_web` on each corpus web at every seed LO <= seed < HI with
the default settings otherwise, prints each label set that differs from the
corpus's expected labels, then the number of wrong label sets and of
reports with an `inconclusive` entry, and the margins: the largest
`max_residual` of any verdict that holds and the smallest of any verdict
that fails, each with its seed, web and test, over every verdict of each
report (`verdicts`).  Exit status 1 on any wrong label set or any report
with an `inconclusive` entry.
The package comes from PYTHONPATH when that names one, else from the `src`
directory of this checkout.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parent.parent / "src"))

from threeweb.classify import RunConfig, classify_web  # noqa: E402
from threeweb.corpus import load_corpus  # noqa: E402


def main(argv):
    try:
        lo, hi = map(int, argv)
    except ValueError:
        sys.exit(__doc__)
    corpus = list(load_corpus())
    wrong = inconclusive = 0
    # (max_residual, seed, web, test) of the worst verdict that holds and
    # of the closest one that fails
    held, failed = (-1.0, None, None, None), (math.inf, None, None, None)
    for seed in range(lo, hi):
        config = RunConfig(seed=seed)
        for entry in corpus:
            report = classify_web(entry.web, config)
            for test, v in report.verdicts.items():
                margin = (v.max_residual, seed, entry.name, test)
                if v.holds and margin[0] > held[0]:
                    held = margin
                elif not v.holds and margin[0] < failed[0]:
                    failed = margin
            if report.labels != entry.expected_labels:
                wrong += 1
                print("seed %d %s: %s, expected %s"
                      % (seed, entry.name, " ".join(report.labels),
                         " ".join(entry.expected_labels)))
            inconclusive += bool(report.inconclusive)
    print("%d classifications at seeds %d-%d: %d wrong labels, %d reports "
          "with an inconclusive entry"
          % (len(corpus) * (hi - lo), lo, hi - 1, wrong, inconclusive))
    print("largest max_residual that holds: %.3g (seed %s %s %s)" % held)
    print("smallest max_residual that fails: %.3g (seed %s %s %s)" % failed)
    return int(wrong > 0 or inconclusive > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Classify every bundled web at a range of sampler seeds.

    python3 tools/seed_sweep.py LO HI

runs `classify_web` on each corpus web at every seed LO <= seed < HI with
the default settings otherwise, prints each label set that differs from the
corpus's expected labels, then the number of wrong label sets and of
reports with an `inconclusive` entry.  Exit status 1 on any wrong label set
or any report with an `inconclusive` entry.
The package comes from PYTHONPATH when that names one, else from the `src`
directory of this checkout.
"""

from __future__ import annotations

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
    for seed in range(lo, hi):
        config = RunConfig(seed=seed)
        for entry in corpus:
            report = classify_web(entry.web, config)
            if report.labels != entry.expected_labels:
                wrong += 1
                print("seed %d %s: %s, expected %s"
                      % (seed, entry.name, " ".join(report.labels),
                         " ".join(entry.expected_labels)))
            inconclusive += bool(report.inconclusive)
    print("%d classifications at seeds %d-%d: %d wrong labels, %d reports "
          "with an inconclusive entry"
          % (len(corpus) * (hi - lo), lo, hi - 1, wrong, inconclusive))
    return int(wrong > 0 or inconclusive > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Classify every bundled web at a range of sampler seeds.

    python3 tools/seed_sweep.py [--sheared] LO HI

runs `classify_web` on each corpus web at every seed LO <= seed < HI with
the default settings otherwise, prints each label set that differs from the
corpus's expected labels, then the number of wrong label sets, of
classifications that end in `SamplerExhausted` and of reports with an
`inconclusive` entry, and the margins: the largest `max_residual` of any
verdict that holds and the smallest of any verdict that fails, each with
its seed, web and test, over every verdict of each report (`verdicts`).
Exit status 1 on any wrong label set, exhausted sampler or report with an
`inconclusive` entry.

With --sheared, each web is first written in new x coordinates: in its
`format_web` text, x1 becomes (x1 + x2) and x2 becomes (x1 + 1.02*x2), in
u1, u2 and every domain line.  That is the same web, so it must get the
corpus labels too.
The package comes from PYTHONPATH when that names one, else from the `src`
directory of this checkout.
"""

from __future__ import annotations

import math
import re
import sys
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parent.parent / "src"))

from threeweb.classify import (  # noqa: E402
    RunConfig, SamplerExhausted, classify_web)
from threeweb.corpus import load_corpus  # noqa: E402
from threeweb.expr import format_web, parse_web  # noqa: E402

# a linear change of the x coordinates whose two blocks are nearly parallel
SHEAR = {"x1": "(x1 + x2)", "x2": "(x1 + 1.02*x2)"}


def sheared(web):
    """`web` with SHEAR substituted for x1 and x2."""
    text = re.sub(r"\bx[12]\b", lambda m: SHEAR[m[0]], format_web(web))
    return parse_web(text, name=web.name)


def main(argv):
    shear = argv[:1] == ["--sheared"]
    try:
        lo, hi = map(int, argv[1:] if shear else argv)
    except ValueError:
        sys.exit(__doc__)
    corpus = [(entry, sheared(entry.web) if shear else entry.web)
              for entry in load_corpus()]
    wrong = exhausted = inconclusive = 0
    # (max_residual, seed, web, test) of the worst verdict that holds and
    # of the closest one that fails
    held, failed = (-1.0, None, None, None), (math.inf, None, None, None)
    for seed in range(lo, hi):
        config = RunConfig(seed=seed)
        for entry, web in corpus:
            try:
                report = classify_web(web, config)
            except SamplerExhausted:
                exhausted += 1
                continue
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
    print("%d %sclassifications at seeds %d-%d: %d wrong labels, %d "
          "SamplerExhausted, %d reports with an inconclusive entry"
          % (len(corpus) * (hi - lo), "sheared " if shear else "", lo, hi - 1,
             wrong, exhausted, inconclusive))
    print("largest max_residual that holds: %.3g (seed %s %s %s)" % held)
    print("smallest max_residual that fails: %.3g (seed %s %s %s)" % failed)
    return int(wrong > 0 or exhausted > 0 or inconclusive > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

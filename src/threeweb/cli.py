"""Command-line front end.

    threeweb classify FILE [FILE...]   classify web definition files
    threeweb corpus [--index N]        check bundled webs against frozen values
    threeweb table                     recompute the bundled classification table
    threeweb snapshot FILE --point X1 X2 Y1 Y2
                                       dump every invariant at one point

FILE is a path to a .web definition; the bundled webs can also be named
directly ("example07" or just "7").  Exit codes: 0 clean, 2 when any
verdict landed in the ambiguity band (or parameter bindings disagreed),
1 on errors or mismatches.
"""

from __future__ import annotations

import argparse
import itertools
import json
import re
import sys
from collections import Counter
from pathlib import Path

from .classify import (
    RunConfig,
    SamplerExhausted,
    classify_generic,
    classify_web,
)
from .corpus import golden_check, load_corpus, load_example
from .expr import EvalError, ParseError, parse_web
from .tensor import (
    DegenerateWeb,
    InadmissiblePoint,
    snapshot,
)

# argparse reads an argument that starts with "-" as an option unless it
# matches this; its own pattern leaves out exponents, "-inf" and "-nan"
NEGATIVE_NUMBER = re.compile(
    r"^-((\d+\.?\d*|\.\d+)([eE][-+]?\d+)?|(?i:inf|infinity|nan))$")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INCONCLUSIVE = 2

_D_SUMMARY = {
    "D1": "transversally geodesic",
    "D21": "Bol",
    "D22": "hexagonal",
    "D231": "group",
    "D232": "parallelizable",
}


def _config_from_args(args):
    return RunConfig(points=args.points, tol=args.tol, seed=args.seed,
                     box=(args.box[0], args.box[1]), margin=args.margin)


def _parse_params(pairs):
    out = {}
    for item in pairs:
        name, sep, value = item.partition("=")
        if not sep or not name:
            raise ValueError("--param needs NAME=VALUE, got %r" % item)
        try:
            out[name] = float(value)
        except ValueError:
            raise ValueError("--param %s: %r is not a number" % (name, value))
    return out


def _corpus_entry_for(name, web):
    for entry in load_corpus():
        if entry.name == name and entry.web == web:
            return entry
    return None


def _load_web(spec):
    """Resolve a CLI web argument to (web, corpus entry or None)."""
    path = Path(spec)
    if path.exists():
        name = path.name[:-4] if path.name.endswith(".web") else path.name
        web = parse_web(path.read_text(), name=name)
        return web, _corpus_entry_for(name, web)
    m = re.fullmatch(r"example(\d{1,2})", spec)
    if m or spec.isdigit():
        index = int(m.group(1)) if m else int(spec)
        try:
            entry = load_example(index)
        except ValueError:
            raise OSError("file not found: %s" % spec)
        return entry.web, entry
    raise OSError("file not found: %s" % spec)


def _emit(doc):
    print(json.dumps(doc, indent=1, sort_keys=True))


def _fmt(v):
    if v is None:
        return "-"
    if isinstance(v, float):
        return "%.10g" % (v + 0.0 if v == 0 else v)
    return str(v)


def _print_report(report):
    print("web: %s" % report.web_name)
    if report.params:
        joined = ", ".join("%s=%s" % (k, _fmt(v))
                           for k, v in sorted(report.params.items()))
        print("params: %s" % joined)
    print("labels: %s" % (" ".join(report.labels) if report.labels else "-"))
    print("classes: A=%s  B=%s  C=%s  D=%s  E=%s"
          % tuple(c or "-" for c in (report.class_a, report.class_b,
                                     report.class_c, report.class_d,
                                     report.class_e)))
    if report.fg_metadata:
        print("asserted metadata: %s (from the stored table, not computed)"
              % " ".join(report.fg_metadata))
    if report.class_d:
        print("summary: %s (%s)"
              % (_D_SUMMARY[report.class_d], report.class_d))
    print("predicates (%d points, tol %g):"
          % (report.config.points, report.config.tol))
    for name, verdict in report.predicates.items():
        print("  %-24s %-3s  max residual %.3g"
              % (name.replace("_", " "), "yes" if verdict.holds else "no",
                 verdict.max_residual))
    if report.inconclusive:
        print("inconclusive: %s" % ", ".join(report.inconclusive))
    if report.generic is not None:
        print("parameter bindings agree: %s"
              % ("yes" if report.generic else "NO"))
        for pb in report.per_binding:
            joined = ", ".join("%s=%.3g" % (k, v)
                               for k, v in sorted(pb["params"].items()))
            print("  [%s] -> %s" % (joined, " ".join(pb["labels"])))


def _report_exit(report):
    if report.inconclusive or report.generic is False:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def cmd_classify(args):
    config = _config_from_args(args)
    overrides = _parse_params(args.param)
    reports = []
    code = EXIT_OK
    for spec in args.web:
        web, entry = _load_web(spec)
        metadata = (entry.fg,) if entry is not None and entry.fg else ()
        if web.params and not overrides:
            report = classify_generic(web, config, metadata=metadata)
        else:
            report = classify_web(web, config, params=overrides or None,
                                  metadata=metadata)
        reports.append(report)
        code = max(code, _report_exit(report))
    if args.format == "json":
        docs = [{"schema": 1, **r.to_dict()} for r in reports]
        _emit(docs[0] if len(docs) == 1 else docs)
    else:
        for i, report in enumerate(reports):
            if i:
                print()
            _print_report(report)
    return code


def _classify_entries(entries, config):
    """Each corpus entry with its report, and the exit code the reports
    call for when nothing else failed."""
    rows = [(entry, classify_web(entry.web, config,
                                 metadata=(entry.fg,) if entry.fg else ()))
            for entry in entries]
    return rows, max(_report_exit(report) for _, report in rows)


def cmd_corpus(args):
    config = _config_from_args(args)
    entries = ([load_example(args.index)] if args.index is not None
               else list(load_corpus()))
    reports, code = _classify_entries(entries, config)
    rows = []
    for entry, report in reports:
        results = golden_check(entry)
        counts = Counter(r.status for r in results)
        failures = [r for r in results if r.status == "fail"]
        rows.append((entry, report, counts, failures,
                     report.labels == entry.expected_labels))

    if args.format == "json":
        doc = {
            "schema": 1,
            "config": config.to_dict(),
            "entries": [
                {
                    "web": entry.name,
                    "labels": list(report.labels),
                    "expected_labels": list(entry.expected_labels),
                    "match": match,
                    "inconclusive": list(report.inconclusive),
                    "golden": {
                        "pass": counts.get("pass", 0),
                        "fail": counts.get("fail", 0),
                        "logged_discrepancy":
                            counts.get("logged-discrepancy", 0),
                    },
                    "failures": [
                        {"path": r.path, "point": list(r.point),
                         "expected": r.expected, "actual": r.actual}
                        for r in failures
                    ],
                }
                for entry, report, counts, failures, match in rows
            ],
        }
        _emit(doc)
    else:
        for entry, report, counts, failures, match in rows:
            print("%-10s %-18s expected %-18s %-8s golden: %d pass, "
                  "%d fail, %d noted"
                  % (entry.name, " ".join(report.labels),
                     " ".join(entry.expected_labels),
                     "ok" if match else "MISMATCH",
                     counts.get("pass", 0), counts.get("fail", 0),
                     counts.get("logged-discrepancy", 0)))
            for r in failures[:8]:
                print("    FAIL %s at %s: expected %.10g, got %.10g"
                      % (r.path, r.point, r.expected, r.actual))
        total_fail = sum(c.get("fail", 0) for _, _, c, _, _ in rows)
        mismatches = sum(1 for _, _, _, _, m in rows if not m)
        print("%d webs checked: %d label mismatches, %d golden failures"
              % (len(rows), mismatches, total_fail))
    if any(failures or not match for _, _, _, failures, match in rows):
        return EXIT_ERROR
    return code


def cmd_table(args):
    config = _config_from_args(args)
    rows, code = _classify_entries(load_corpus(), config)
    diffs = [(entry.name, entry.expected_labels, report.labels)
             for entry, report in rows
             if report.labels != entry.expected_labels]

    if args.format == "json":
        doc = {
            "schema": 1,
            "config": config.to_dict(),
            "fg_source": "stored table metadata (asserted, not computed)",
            "rows": [
                {
                    "index": entry.index,
                    "web": entry.name,
                    "A": report.class_a or None,
                    "B": report.class_b or None,
                    "C": report.class_c or None,
                    "D": report.class_d or None,
                    "E": report.class_e or None,
                    "F": entry.fg if entry.fg in ("F1", "F2") else None,
                    "G": entry.fg if entry.fg == "G" else None,
                    "labels": list(report.labels),
                    "expected_labels": list(entry.expected_labels),
                    "match": report.labels == entry.expected_labels,
                    "inconclusive": list(report.inconclusive),
                }
                for entry, report in rows
            ],
            "diffs": [
                {"web": name, "expected": list(exp), "computed": list(got)}
                for name, exp, got in diffs
            ],
        }
        _emit(doc)
    else:
        print(" #  web        A      B  C    D     E    F    G")
        for entry, report in rows:
            f_cell = entry.fg + "*" if entry.fg in ("F1", "F2") else "-"
            g_cell = "G*" if entry.fg == "G" else "-"
            print("%2d  %-9s  %-5s  %-1s  %-3s  %-4s  %-3s  %-3s  %-3s"
                  % (entry.index, entry.name,
                     report.class_a or "-", report.class_b or "-",
                     report.class_c or "-", report.class_d or "-",
                     report.class_e or "-", f_cell, g_cell))
        print("* F/G cells are stored table metadata "
              "(asserted, not computed)")
        if diffs:
            for name, exp, got in diffs:
                print("DIFF %s: expected %s, computed %s"
                      % (name, " ".join(exp), " ".join(got)))
        else:
            print("diffs: none")
    return EXIT_ERROR if diffs else code


def _dump_components(name, arr):
    rank = arr.ndim
    cells = []
    for idx in itertools.product(*(range(2),) * rank):
        label = "%s.%s" % (name, "".join(str(i + 1) for i in idx))
        value = float(arr[idx])
        if value == 0:
            value = 0.0
        cells.append("%-10s = %-14.10g" % (label, value))
    width = 2 if rank >= 3 else rank
    for i in range(0, len(cells), width):
        print("  " + "  ".join(cells[i:i + width]))


def cmd_snapshot(args):
    overrides = _parse_params(args.param)
    web, _entry = _load_web(args.web)
    snap = snapshot(web, tuple(args.point), params=overrides or None,
                    margin=args.margin)
    if args.format == "json":
        _emit({"schema": 1, "web": web.name, **snap.to_dict()})
        return EXIT_OK
    print("web: %s" % web.name)
    print("point: x1=%s x2=%s y1=%s y2=%s" % tuple(_fmt(c) for c in
                                                   snap.point))
    if snap.params:
        joined = ", ".join("%s=%s" % (k, _fmt(v))
                           for k, v in sorted(snap.params.items()))
        print("params: %s" % joined)
    print("det fbar = %.10g    det ftilde = %.10g"
          % (snap.det_bar, snap.det_til))
    print("t ratio (a_cov.2 / a_cov.1) = %s" % _fmt(snap.t_ratio))
    print("isoclinic at this point: %s"
          % ("no" if snap.non_isoclinic else "yes"))
    for name in ("fbar", "ftilde", "gbar", "gtilde", "gamma", "torsion",
                 "a_cov", "b", "p", "q", "f2", "g2", "h2", "a4"):
        print("%s:" % name)
        _dump_components(name, getattr(snap, name))
    print("omega_coeffs (connection form coefficients; [frame][i][j][k]):")
    _dump_components("omega_coeffs", snap.omega_coeffs)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="threeweb",
        description="Differential invariants and classification of "
                    "four-dimensional three-webs.")
    common = argparse.ArgumentParser(add_help=False)
    defaults = RunConfig()
    common.add_argument("--points", type=int, default=defaults.points,
                        help="admissible sample points per verdict "
                             "(default %(default)d)")
    common.add_argument("--tol", type=float, default=defaults.tol,
                        help="relative tolerance for zero tests "
                             "(default %(default)g)")
    common.add_argument("--seed", type=int, default=defaults.seed,
                        help="sampler seed (default %(default)d)")
    common.add_argument("--box", type=float, nargs=2, default=defaults.box,
                        metavar=("LO", "HI"),
                        help="coordinate box to sample (default %g %g)"
                             % defaults.box)
    common.add_argument("--margin", type=float, default=defaults.margin,
                        help="distance kept from the singular set "
                             "(default %(default)g)")
    common.add_argument("--format", choices=("text", "json"),
                        default="text", help="output format")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", parents=[common],
                       help="classify web definition files")
    p.add_argument("web", nargs="+",
                   help=".web file path, or a bundled name like example07")
    p.add_argument("--param", action="append", default=[],
                   metavar="NAME=VALUE",
                   help="bind one web parameter (repeatable); without it, "
                        "parameterized webs are classified under several "
                        "random bindings")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("corpus", parents=[common],
                       help="check the bundled webs against frozen values")
    p.add_argument("--index", type=int, default=None,
                   help="check a single bundled web (1..15)")
    p.set_defaults(func=cmd_corpus)

    p = sub.add_parser("table", parents=[common],
                       help="recompute the bundled classification table")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("snapshot", parents=[common],
                       help="dump every invariant of a web at one point")
    p.add_argument("web",
                   help=".web file path, or a bundled name like example01")
    p.add_argument("--point", type=float, nargs=4, required=True,
                   metavar=("X1", "X2", "Y1", "Y2"),
                   help="evaluation point")
    p.add_argument("--param", action="append", default=[],
                   metavar="NAME=VALUE", help="bind one web parameter")
    p.set_defaults(func=cmd_snapshot)
    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = NEGATIVE_NUMBER
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, EvalError, DegenerateWeb, InadmissiblePoint,
            SamplerExhausted, OSError, ValueError) as err:
        print("error: %s" % err, file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())

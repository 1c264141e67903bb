"""Command-line front end.

    threeweb classify FILE [FILE...]   classify web definition files
    threeweb corpus [--index N]        check bundled webs against frozen values
    threeweb table                     recompute the bundled classification table
    threeweb snapshot FILE --point X1 X2 Y1 Y2
                                       dump every invariant at one point

FILE is a path to a .web definition; the bundled webs can also be named
directly ("example07" or just "7").

Each command builds one document, the schema-1 JSON value that
`--format json` prints; the text format is rendered from that document
alone.  One rule of the document sets the exit status: 1 when a row's
labels differ from the expected ones or its golden values fail, else 2
when a verdict landed in the ambiguity band or parameter bindings
disagreed, else 0.  Errors, usage errors included, exit 1.

The F and G cells of the bundled table are stored metadata, which
classification neither computes nor reads: `table` prints them marked as
such, and `classify` copies a bundled web's cell into its document as
`asserted_metadata`.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from .classify import (
    RunConfig,
    SamplerExhausted,
    classify_generic,
    classify_web,
)
from .corpus import N_EXAMPLES, golden_check, load_corpus, load_example
from .expr import parse_web
from .tensor import TensorSnapshot, snapshot

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
    """The bundled entry a web file holds, by its name and its web, or None.
    Only example01..example15 can name one, so no other file loads the
    corpus."""
    m = re.fullmatch(r"example([0-9]{2})", name)
    if m is None or not 1 <= int(m.group(1)) <= N_EXAMPLES:
        return None
    entry = load_example(int(m.group(1)))
    return entry if entry.web == web else None


def _load_web(spec):
    """Resolve a CLI web argument to (web, corpus entry or None)."""
    path = Path(spec)
    if path.exists():
        name = path.name[:-4] if path.name.endswith(".web") else path.name
        web = parse_web(path.read_text(), name=name)
        return web, _corpus_entry_for(name, web)
    # a bundled name has ASCII digits only; index 0 names no web
    m = re.fullmatch(r"example([0-9]{1,2})|([0-9]+)", spec)
    try:
        entry = load_example(int(m.group(1) or m.group(2)) if m else 0)
    except ValueError:
        raise OSError("file not found: %s" % spec)
    return entry.web, entry


def _fmt(v):
    if v is None:
        return "-"
    if isinstance(v, float):
        return "%.10g" % (v + 0.0 if v == 0 else v)
    return str(v)


def _joined(params):
    return ", ".join("%s=%s" % (k, _fmt(v)) for k, v in params.items())


def cmd_classify(args):
    config = _config_from_args(args)
    overrides = _parse_params(args.param)
    docs = []
    for web, entry in [_load_web(spec) for spec in args.web]:
        if web.params and not overrides:
            report = classify_generic(web, config)
        else:
            report = classify_web(web, config, params=overrides or None)
        docs.append({"schema": 1, **report.to_dict()})
        if entry is not None and entry.fg:
            docs[-1]["asserted_metadata"] = [entry.fg]
    return docs[0] if len(docs) == 1 else docs


def render_classify(doc):
    for i, report in enumerate(doc if isinstance(doc, list) else [doc]):
        if i:
            print()
        print("web: %s" % report["web"])
        if report["params"]:
            print("params: %s" % _joined(report["params"]))
        print("labels: %s" % (" ".join(report["labels"]) or "-"))
        print("classes: A=%s  B=%s  C=%s  D=%s  E=%s"
              % tuple(report["classes"][c] or "-" for c in "ABCDE"))
        if report.get("asserted_metadata"):
            print("asserted metadata: %s (from the stored table, not "
                  "computed)" % " ".join(report["asserted_metadata"]))
        class_d = report["classes"]["D"]
        if class_d:
            print("summary: %s (%s)" % (_D_SUMMARY[class_d], class_d))
        print("predicates (%d points, tol %g):"
              % (report["config"]["points"], report["config"]["tol"]))
        for name, verdict in report["predicates"].items():
            print("  %-24s %-3s  max residual %.3g"
                  % (name.replace("_", " "),
                     "yes" if verdict["holds"] else "no",
                     verdict["max_residual"]))
        if report["inconclusive"]:
            print("inconclusive: %s" % ", ".join(report["inconclusive"]))
        if "generic" in report:
            print("parameter bindings agree: %s"
                  % ("yes" if report["generic"] else "NO"))
            for pb in report["per_binding"]:
                print("  [%s] -> %s"
                      % (", ".join("%s=%.3g" % kv
                                   for kv in pb["params"].items()),
                         " ".join(pb["labels"])))


def _entry_rows(entries, config):
    """Each corpus entry with its report and the row fields that `table`
    and `corpus` share."""
    for entry in entries:
        report = classify_web(entry.web, config)
        yield entry, report, {
            "web": entry.name,
            "labels": list(report.labels),
            "expected_labels": list(entry.expected_labels),
            "match": report.labels == entry.expected_labels,
            "inconclusive": list(report.inconclusive),
        }


def cmd_corpus(args):
    config = _config_from_args(args)
    entries = ([load_example(args.index)] if args.index is not None
               else load_corpus())
    rows = []
    for entry, _report, row in _entry_rows(entries, config):
        results = golden_check(entry)
        counts = Counter(r.status for r in results)
        row["golden"] = {"pass": counts["pass"], "fail": counts["fail"],
                         "logged_discrepancy": counts["logged-discrepancy"]}
        row["failures"] = [
            {"path": r.path, "point": list(r.point),
             "expected": r.expected, "actual": r.actual}
            for r in results if r.status == "fail"]
        rows.append(row)
    return {"schema": 1, "config": config.to_dict(), "entries": rows}


def render_corpus(doc):
    rows = doc["entries"]
    for row in rows:
        golden = row["golden"]
        print("%-10s %-18s expected %-18s %-8s golden: %d pass, "
              "%d fail, %d noted"
              % (row["web"], " ".join(row["labels"]),
                 " ".join(row["expected_labels"]),
                 "ok" if row["match"] else "MISMATCH",
                 golden["pass"], golden["fail"],
                 golden["logged_discrepancy"]))
        for failure in row["failures"][:8]:
            print("    FAIL %s at %s: expected %.10g, got %.10g"
                  % (failure["path"], tuple(failure["point"]),
                     failure["expected"], failure["actual"]))
    print("%d webs checked: %d label mismatches, %d golden failures"
          % (len(rows), sum(not row["match"] for row in rows),
             sum(row["golden"]["fail"] for row in rows)))


def cmd_table(args):
    config = _config_from_args(args)
    rows = [
        {"index": entry.index, **row,
         **{c: label or None for c, label in report.classes.items()},
         "F": entry.fg if entry.fg in ("F1", "F2") else None,
         "G": entry.fg if entry.fg == "G" else None}
        for entry, report, row in _entry_rows(load_corpus(), config)]
    return {
        "schema": 1,
        "config": config.to_dict(),
        "fg_source": "stored table metadata (asserted, not computed)",
        "rows": rows,
        "diffs": [{"web": row["web"], "expected": row["expected_labels"],
                   "computed": row["labels"]}
                  for row in rows if not row["match"]],
    }


def render_table(doc):
    print(" #  web        A      B  C    D     E    F    G")
    for row in doc["rows"]:
        print("%2d  %-9s  %-5s  %-1s  %-3s  %-4s  %-3s  %-3s  %-3s"
              % (row["index"], row["web"],
                 *(row[c] or "-" for c in "ABCDE"),
                 *(row[c] + "*" if row[c] else "-" for c in "FG")))
    print("* F/G cells are stored table metadata (asserted, not computed)")
    for diff in doc["diffs"]:
        print("DIFF %s: expected %s, computed %s"
              % (diff["web"], " ".join(diff["expected"]),
                 " ".join(diff["computed"])))
    if not doc["diffs"]:
        print("diffs: none")


def cmd_snapshot(args):
    overrides = _parse_params(args.param)
    web, _entry = _load_web(args.web)
    snap = snapshot(web, tuple(args.point), params=overrides or None,
                    margin=args.margin)
    return {"schema": 1, "web": web.name, **snap.to_dict()}


def _dump_components(name, values):
    arr = np.asarray(values) + 0.0  # -0.0 prints as 0
    cells = ["%-10s = %-14.10g"
             % ("%s.%s" % (name, "".join(str(i + 1) for i in idx)), arr[idx])
             for idx in np.ndindex(arr.shape)]
    width = min(arr.ndim, 2)
    for i in range(0, len(cells), width):
        print("  " + "  ".join(cells[i:i + width]))


def render_snapshot(doc):
    print("web: %s" % doc["web"])
    print("point: x1=%s x2=%s y1=%s y2=%s" % tuple(map(_fmt, doc["point"])))
    if doc["params"]:
        print("params: %s" % _joined(doc["params"]))
    print("det fbar = %.10g    det ftilde = %.10g"
          % (doc["det_bar"], doc["det_til"]))
    print("t ratio (a_cov.2 / a_cov.1) = %s" % _fmt(doc["t_ratio"]))
    print("isoclinic at this point: %s"
          % ("no" if doc["non_isoclinic"] else "yes"))
    for name in TensorSnapshot._FIELDS:
        print("%s:" % name)
        _dump_components(name, doc[name])
    print("omega_coeffs (connection form coefficients; [frame][i][j][k]):")
    _dump_components("omega_coeffs", doc["omega_coeffs"])


def exit_status(doc):
    """The exit status a command's document calls for: 1 when a row's
    labels differ from the expected ones or its golden values fail, else
    2 when a row has an inconclusive verdict or its parameter bindings
    disagree, else 0."""
    rows = (doc if isinstance(doc, list)
            else doc.get("rows", doc.get("entries", [doc])))
    if any(row.get("match") is False or row.get("failures") for row in rows):
        return EXIT_ERROR
    if any(row.get("inconclusive") or row.get("generic") is False
           for row in rows):
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="threeweb",
        description="Differential invariants and classification of "
                    "four-dimensional three-webs.")
    defaults = RunConfig()
    sampling = argparse.ArgumentParser(add_help=False)
    sampling.add_argument("--points", type=int, default=defaults.points,
                          help="admissible sample points per verdict "
                               "(default %(default)d)")
    sampling.add_argument("--tol", type=float, default=defaults.tol,
                          help="relative tolerance for zero tests "
                               "(default %(default)g)")
    sampling.add_argument("--seed", type=int, default=defaults.seed,
                          help="sampler seed (default %(default)d)")
    sampling.add_argument("--box", type=float, nargs=2, default=defaults.box,
                          metavar=("LO", "HI"),
                          help="coordinate box to sample (default %g %g)"
                               % defaults.box)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--margin", type=float, default=defaults.margin,
                        help="distance kept from the singular set "
                             "(default %(default)g)")
    common.add_argument("--format", choices=("text", "json"),
                        default="text", help="output format")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", parents=[sampling, common],
                       help="classify web definition files")
    p.add_argument("web", nargs="+",
                   help=".web file path, or a bundled name like example07")
    p.add_argument("--param", action="append", default=[],
                   metavar="NAME=VALUE",
                   help="bind one web parameter (repeatable); without it, "
                        "parameterized webs are classified under several "
                        "random bindings")
    p.set_defaults(func=cmd_classify, render=render_classify)

    p = sub.add_parser("corpus", parents=[sampling, common],
                       help="check the bundled webs against frozen values")
    p.add_argument("--index", type=int, default=None,
                   help="check a single bundled web (1..15)")
    p.set_defaults(func=cmd_corpus, render=render_corpus)

    p = sub.add_parser("table", parents=[sampling, common],
                       help="recompute the bundled classification table")
    p.set_defaults(func=cmd_table, render=render_table)

    p = sub.add_parser("snapshot", parents=[common],
                       help="dump every invariant of a web at one point")
    p.add_argument("web",
                   help=".web file path, or a bundled name like example01")
    p.add_argument("--point", type=float, nargs=4, required=True,
                   metavar=("X1", "X2", "Y1", "Y2"),
                   help="evaluation point")
    p.add_argument("--param", action="append", default=[],
                   metavar="NAME=VALUE", help="bind one web parameter")
    p.set_defaults(func=cmd_snapshot, render=render_snapshot)
    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = NEGATIVE_NUMBER
    return parser


def main(argv=None):
    """Run one command: print its document as JSON or rendered as text,
    and return the exit status the document calls for."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as stop:
        # argparse exits 0 after --help and 2 on a usage error, the status
        # of an inconclusive verdict
        return EXIT_ERROR if stop.code else EXIT_OK
    try:  # ParseError, EvalError and the point errors are ValueErrors
        doc = args.func(args)
    except (SamplerExhausted, OSError, ValueError) as err:
        print("error: %s" % err, file=sys.stderr)
        return EXIT_ERROR
    if args.format == "json":
        print(json.dumps(doc, indent=1, sort_keys=True))
    else:
        args.render(doc)
    return exit_status(doc)


if __name__ == "__main__":
    sys.exit(main())

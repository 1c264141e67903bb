import json
import math
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import threeweb
from oracles import plant_group_without_bol
from threeweb import classify, cli
from threeweb.classify import RunConfig, classify_web
from threeweb.cli import exit_status, main
from threeweb.corpus import load_example

CORPUS_DIR = resources.files(threeweb) / "corpus"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_text_report(capsys):
    code, out, err = run(capsys, "classify", "example09")
    assert code == 0 and not err
    assert "labels: B D232 E1" in out
    assert "\nsummary: parallelizable (D232)\n" in out
    assert "asserted metadata: F1" in out


@pytest.mark.parametrize("web, summary", [
    ("example03", "group (D231)"), ("example07", "Bol (D21)")])
def test_classify_text_summarizes_the_d_label(capsys, web, summary):
    code, out, _ = run(capsys, "classify", web)
    assert code == 0
    assert "\nsummary: %s\n" % summary in out


def test_each_d_label_has_one_summary():
    d_labels = [label for label, _, _ in classify.CD_PATTERNS
                if label.startswith("D")]
    assert sorted(cli._D_SUMMARY) == sorted(d_labels)
    assert cli._D_SUMMARY == {
        "D1": "transversally geodesic", "D21": "Bol", "D22": "hexagonal",
        "D231": "group", "D232": "parallelizable"}


def test_classify_resolves_every_web_before_classifying(
        capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    calls = []
    monkeypatch.setattr(cli, "classify_web",
                        lambda *args, **kwargs: calls.append(args))
    code, out, err = run(capsys, "classify", "example01", "missing.web")
    assert (code, out, err) == (1, "", "error: file not found: missing.web\n")
    assert calls == []


def test_classify_json_round_trips(capsys):
    code, out, _ = run(capsys, "classify", "example07", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["labels"] == ["A2", "D21", "E8"]
    assert doc["classes"]["D"] == "D21"
    assert doc["predicates"]["Bol"]["holds"] is True
    assert doc["predicates"]["group"]["holds"] is False


def test_classify_json_carries_a_bundled_webs_stored_cell(capsys, tmp_path):
    # the F/G cell is the corpus's, not classification's: a file with
    # example09's text under another name is not the bundled web
    code, out, _ = run(capsys, "classify", "example09", "--format", "json")
    assert code == 0 and json.loads(out)["asserted_metadata"] == ["F1"]
    copy = tmp_path / "copy.web"
    copy.write_text(CORPUS_DIR.joinpath("example09.web").read_text())
    code, out, _ = run(capsys, "classify", str(copy), "--format", "json")
    doc = json.loads(out)
    assert code == 0 and doc["labels"] == ["B", "D232", "E1"]
    assert "asserted_metadata" not in doc


def test_classify_of_a_file_not_named_as_a_bundled_web_skips_the_corpus(
        capsys, monkeypatch, tmp_path):
    # only example01..example15 can be a bundled web, so another name need
    # not parse the 15 webs and decode their sidecars
    def refuse():
        raise AssertionError("the corpus was loaded")

    monkeypatch.setattr(cli, "load_corpus", refuse)
    web = tmp_path / "my.web"
    web.write_text(CORPUS_DIR.joinpath("example09.web").read_text())
    code, out, _ = run(capsys, "classify", str(web), "--format", "json")
    assert code == 0 and "asserted_metadata" not in json.loads(out)


def test_classify_json_is_bit_identical(capsys):
    _, out1, _ = run(capsys, "classify", "example12", "--format", "json")
    _, out2, _ = run(capsys, "classify", "example12", "--format", "json")
    assert out1 == out2


def test_classify_many_files_yields_array(capsys):
    code, out, _ = run(capsys, "classify", "example12", "example13",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert isinstance(doc, list) and len(doc) == 2
    assert [d["web"] for d in doc] == ["example12", "example13"]


def test_classify_accepts_bare_index(capsys):
    code, out, _ = run(capsys, "classify", "9")
    assert code == 0
    assert "web: example09" in out


def test_classify_reads_files(tmp_path, capsys):
    target = tmp_path / "mine.web"
    target.write_text("u1 = x1 + y1\nu2 = x2 + y2 + x1*y1\n")
    code, out, _ = run(capsys, "classify", str(target))
    assert code in (0, 2)
    assert "web: mine" in out


def test_missing_file_is_an_error(capsys):
    code, out, err = run(capsys, "classify", "missing.web")
    assert code == 1
    assert "file not found: missing.web" in err


def test_parse_errors_carry_position(tmp_path, capsys):
    bad = tmp_path / "bad.web"
    bad.write_text("u1 = x1 +\nu2 = x2\n")
    code, _, err = run(capsys, "classify", str(bad))
    assert code == 1
    assert "line 1" in err


@pytest.mark.parametrize("text,where", [
    ("u1 = x1 + 1e999*y1*x2\nu2 = x2 + y2\n", "line 1, col 11"),
    ("param a = 1e999\nu1 = x1 + a*y1\nu2 = x2 + y2\n", "line 1, col 11"),
])
def test_overflowing_literal_is_a_parse_error(tmp_path, capsys, text, where):
    bad = tmp_path / "bad.web"
    bad.write_text(text)
    code, out, err = run(capsys, "classify", str(bad), "--points", "8")
    assert code == 1 and not out
    assert err.startswith("error: ") and where in err
    assert "1e999 overflows" in err


def test_constant_that_folds_to_inf_is_named(tmp_path, capsys):
    bad = tmp_path / "fold.web"
    bad.write_text("u1 = x1 + 1e200*1e200*y1*x2\nu2 = x2 + y2\n")
    code, out, err = run(capsys, "classify", str(bad), "--points", "8")
    assert code == 1 and not out
    assert err == "error: the constant 1e+200*1e+200 is inf\n"


@pytest.mark.parametrize("text,message", [
    # at the parent the unchecked reciprocal made every row an inf jet:
    # "only 0 of 8 well-conditioned admissible points found"
    ("u1 = x1 / 1e-320 + y1\nu2 = x2 + y2\n", "1e-320^-1 is inf"),
    ("u1 = x1 + ln(0 - 1)*y1\nu2 = x2 + y2\n", "ln(0.0 - 1.0) is nan"),
])
def test_undefined_constant_is_named(tmp_path, capsys, text, message):
    bad = tmp_path / "fold.web"
    bad.write_text(text)
    code, out, err = run(capsys, "classify", str(bad), "--points", "8")
    assert code == 1 and not out
    assert err == "error: the constant %s\n" % message


def test_parameter_that_folds_to_inf_is_named(tmp_path, capsys):
    bad = tmp_path / "fold.web"
    bad.write_text("param a = 1e200\nu1 = x1 + a*a*y1*x2\nu2 = x2 + y2\n")
    code, out, err = run(capsys, "snapshot", str(bad),
                         "--point", "1", "1", "1", "1")
    assert code == 1 and not out
    assert err == "error: the constant a*a is inf\n"


def test_rejected_tolerance_is_an_error(capsys):
    code, _, err = run(capsys, "classify", "example01", "--tol", "1e-2")
    assert code == 1
    assert "tol" in err


def test_too_many_points_is_an_error(capsys):
    code, out, err = run(capsys, "classify", "example01", "--points",
                         str(classify.MAX_POINTS + 1))
    assert code == 1 and not out
    assert err == "error: points must be at most 65536, got 65537\n"


def test_unknown_parameter_is_an_error(capsys):
    code, _, err = run(capsys, "classify", "example01", "--param", "z=1")
    assert code == 1
    assert "unknown parameter" in err


@pytest.mark.parametrize("argv", [
    ("classify", "example08", "--param", "a=nan"),
    ("snapshot", "example08", "--point", "1", "1", "1", "1", "--param",
     "a=inf")])
def test_non_finite_parameter_is_an_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and not out
    assert err.startswith("error: parameter a ")


def test_malformed_parameter_is_an_error(capsys):
    code, _, err = run(capsys, "classify", "example08", "--param", "A")
    assert code == 1
    assert "NAME=VALUE" in err


def test_parameterized_web_with_binding(capsys):
    code, out, _ = run(capsys, "classify", "example08",
                       "--param", "a=2", "--param", "c=0")
    assert code == 0
    assert "labels: B D232 E1" in out
    assert "params:" in out


def test_parameterized_web_without_binding_runs_generic(capsys):
    code, out, _ = run(capsys, "classify", "example08")
    assert code == 0
    assert "parameter bindings agree: yes" in out


@pytest.fixture(scope="module")
def tiny_tol():
    """example09's tiny transversally-geodesic residual as a tolerance: it
    drives that verdict into the ambiguity band."""
    r = classify_web(load_example(9).web).predicates[
        "transversally_geodesic"].max_residual
    assert r > 0
    return repr(r)


def test_inconclusive_exit_code(capsys, tiny_tol):
    code, out, _ = run(capsys, "classify", "example09", "--tol", tiny_tol)
    assert code == 2
    assert "inconclusive" in out


def test_lattice_contradiction_is_an_error_not_a_traceback(
        capsys, monkeypatch):
    plant_group_without_bol(monkeypatch)
    code, out, err = run(capsys, "classify", "example09")
    assert (code, out) == (1, "")
    assert err.startswith("error: group holds but almost_Bol fails")
    assert "Traceback" not in err


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv,expected", [
    (("classify", "example09", "--tol", None), 2),
    (("table", "--tol", None), 1),
    (("corpus", "--index", "9", "--tol", None), 1),
    (("snapshot", "example09", "--point", "1", "2", "0.5", "1.5"), 0),
])
def test_exit_status_is_the_same_in_both_formats(capsys, tiny_tol, fmt,
                                                 argv, expected):
    argv = [tiny_tol if a is None else a for a in argv]
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert (code, err) == (expected, "")
    assert out.endswith("\n")


@pytest.mark.parametrize("row,expected", [
    ({"match": True, "failures": [], "inconclusive": []}, 0),
    ({"match": False, "inconclusive": ["group"]}, 1),
    ({"match": True, "failures": [{"path": "b.2111"}]}, 1),
    ({"inconclusive": ["Bol"]}, 2),
    ({"inconclusive": [], "generic": False}, 2),
    ({"inconclusive": [], "generic": True}, 0),
])
def test_one_rule_sets_the_exit_status(row, expected):
    assert exit_status(row) == expected
    assert exit_status([{"inconclusive": []}, row]) == expected
    assert exit_status({"schema": 1, "rows": [row]}) == expected
    assert exit_status({"schema": 1, "entries": [row]}) == expected


def test_corpus_command(capsys):
    code, out, _ = run(capsys, "corpus")
    assert code == 0
    assert "0 label mismatches, 0 golden failures" in out
    assert out.count("\n") == 16      # 15 webs + summary


def test_corpus_single_index(capsys):
    code, out, _ = run(capsys, "corpus", "--index", "7")
    assert code == 0
    assert out.startswith("example07")


def test_corpus_json(capsys):
    code, out, _ = run(capsys, "corpus", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert len(doc["entries"]) == 15
    assert all(e["match"] for e in doc["entries"])
    assert all(e["golden"]["fail"] == 0 for e in doc["entries"])


TABLE_TEXT = "".join(line + "\n" for line in (
    " #  web        A      B  C    D     E    F    G",
    " 1  example01  A121   -  C11  -     E71  F2*  -  ",
    " 2  example02  A121   -  C2   -     E7   F2*  -  ",
    " 3  example03  A131   -  -    D231  E1   -    G* ",
    " 4  example04  A1     -  -    D231  E1   F1*  -  ",
    " 5  example05  A1     -  -    D231  E1   F1*  -  ",
    " 6  example06  A1121  -  -    D231  E1   -    G* ",
    " 7  example07  A2     -  -    D21   E8   F1*  -  ",
    " 8  example08  -      B  -    D232  E1   -    -  ",
    " 9  example09  -      B  -    D232  E1   F1*  -  ",
    "10  example10  A131   -  C2   -     E2   -    G* ",
    "11  example11  A131   -  C12  -     E1   -    -  ",
    "12  example12  -      B  C2   -     E1   -    -  ",
    "13  example13  -      B  C2   -     E1   -    -  ",
    "14  example14  A131   -  C2   -     E3   -    -  ",
    "15  example15  A131   -  C2   -     E4   -    -  ",
    "* F/G cells are stored table metadata (asserted, not computed)",
    "diffs: none",
))


def test_table_has_zero_diffs(capsys):
    # labels only, no residuals: the whole text is the same on every host
    assert run(capsys, "table") == (0, TABLE_TEXT, "")


def test_table_json(capsys):
    code, out, _ = run(capsys, "table", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert len(doc["rows"]) == 15
    assert doc["diffs"] == []
    row9 = doc["rows"][8]
    assert row9 == {
        "index": 9, "web": "example09", "A": None, "B": "B", "C": None,
        "D": "D232", "E": "E1", "F": "F1", "G": None,
        "labels": ["B", "D232", "E1"],
        "expected_labels": ["B", "D232", "E1"],
        "match": True, "inconclusive": [],
    }


def test_snapshot_text(capsys):
    code, out, _ = run(capsys, "snapshot", "example01",
                       "--point", "1", "1", "0", "1")
    assert code == 0
    assert "b.2111" in out and "-16" in out
    assert "det fbar = -1" in out
    assert "isoclinic at this point: yes" in out


def test_snapshot_json(capsys):
    code, out, _ = run(capsys, "snapshot", "example01",
                       "--point", "1", "1", "0", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1 and doc["web"] == "example01"
    assert doc["b"][1][0][0][0] == pytest.approx(-16.0)
    assert doc["non_isoclinic"] is False


@pytest.mark.parametrize("flags", [("--points", "3"), ("--tol", "7"),
                                   ("--seed", "-5"), ("--box", "inf", "-inf")])
def test_snapshot_rejects_the_sampling_flags(capsys, flags):
    code, out, err = run(capsys, "snapshot", "example01",
                         "--point", "1", "2", "0.5", "1.5", *flags)
    assert (code, out) == (1, "")
    assert "unrecognized arguments: %s" % " ".join(flags) in err


@pytest.mark.parametrize("argv", [("table", "--points", "abc"),
                                  ("classify",), ("snapshot", "example01"),
                                  ("frobnicate",), ()])
def test_usage_errors_exit_1(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("usage: threeweb") and "error: " in err


@pytest.mark.parametrize("argv", [("--help",), ("table", "--help"),
                                  ("snapshot", "-h")])
def test_help_exits_0(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.startswith("usage: threeweb")


@pytest.mark.parametrize("name", ["\uff17", "example\uff10\uff19", "\u00b2",
                                  "example\u0669", "0", "16", "example123"])
def test_bundled_names_take_ascii_digits_only(capsys, name):
    code, out, err = run(capsys, "classify", name)
    assert (code, out) == (1, "")
    assert err == "error: file not found: %s\n" % name


def test_snapshot_rejects_inadmissible_point(capsys):
    code, _, err = run(capsys, "snapshot", "example01",
                       "--point", "1", "1", "1", "1")
    assert code == 1
    assert "x1 - y1 != 0" in err


def test_snapshot_overflowing_constraint_is_an_error(capsys, tmp_path):
    path = tmp_path / "overflow.web"
    path.write_text("u1 = x1 + y1\nu2 = x2 * y2\ndomain exp(exp(x1)) > 0\n")
    code, _, err = run(capsys, "snapshot", str(path),
                       "--point", "7", "1", "2", "3")
    assert code == 1
    assert err.startswith("error: ") and "exp(exp(x1)) > 0" in err


def test_snapshot_names_a_deeply_nested_constraint(capsys, tmp_path):
    # the domain line is a sum of 3000 terms, a tree 3000 levels deep
    path = tmp_path / "deep.web"
    path.write_text("u1 = x1 + y1\nu2 = x2 + y2\ndomain %s > 0\n"
                    % " + ".join(["x1*y1"] * 3000))
    code, out, err = run(capsys, "snapshot", str(path),
                         "--point", "1", "1", "-1", "1")
    assert code == 1 and not out
    assert err.startswith("error: inadmissible point (1.0, 1.0, -1.0, 1.0): "
                          "x1*y1 + x1*y1 + ")
    assert "x1*y1 > 0 (value -3000, margin 0.001)" in err


def test_snapshot_with_params(capsys):
    code, out, _ = run(capsys, "snapshot", "example08",
                       "--point", "1", "2", "1", "3", "--param", "a=0.5")
    assert code == 0
    assert "params: A=1, B=0, C=0, E=1, a=0.5, b=1, c=1, e=0" in out


def test_config_flags_are_wired_through(capsys):
    code, out, _ = run(capsys, "classify", "example01", "--points", "16",
                       "--seed", "7", "--box", "-2", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["config"] == RunConfig(points=16, seed=7,
                                      box=(-2.0, 2.0)).to_dict()


@pytest.mark.parametrize("value", ["-1e-1", "-1E-1", "-1.e-1", "-.1e0",
                                   "-0.1", "-inf", "-nan", "-Infinity"])
def test_negative_numbers_in_scientific_notation(capsys, value):
    # each is read as a number, not an option; the non-finite ones are then
    # outside the domain, as "inf" is
    code, out, err = run(capsys, "snapshot", "example01", "--point",
                         "1", "1", value, "1", "--format", "json")
    if not math.isfinite(float(value)):
        assert code == 1 and not out
        assert err.startswith("error: inadmissible point")
        return
    assert code == 0, err
    assert json.loads(out)["point"] == [1.0, 1.0, -0.1, 1.0]


def test_negative_box_bound_in_scientific_notation(capsys):
    code, out, err = run(capsys, "classify", "example01", "--points", "8",
                         "--box", "-1e1", "3", "--format", "json")
    assert code == 0, err
    assert json.loads(out)["config"]["box"] == [-10.0, 3.0]


@pytest.mark.parametrize("flags", [("--box", "0", "inf"),
                                   ("--box", "-1e308", "1e308"),
                                   ("--margin", "nan")])
def test_non_finite_box_or_margin_is_an_error(capsys, flags):
    code, _, err = run(capsys, "classify", "example01", *flags)
    assert code == 1
    assert err.startswith("error: ") and flags[0][2:] in err


def test_snapshot_rejects_a_margin_that_is_not_positive(capsys):
    code, out, err = run(capsys, "snapshot", "example01",
                         "--point", "1", "2", "0.5", "1.5", "--margin", "-1")
    assert (code, out) == (1, "")
    assert err == "error: margin must be positive, got -1.0\n"


def test_python_dash_m_runs_the_cli(capsys):
    src = str(Path(threeweb.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-m", "threeweb", "classify", "example09",
         "--format", "json"], capture_output=True, text=True, env=env,
        timeout=120)
    _, out, _ = run(capsys, "classify", "example09", "--format", "json")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == out

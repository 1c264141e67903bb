import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import threeweb
from threeweb.classify import RunConfig, classify_web
from threeweb.cli import main
from threeweb.corpus import load_example


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_text_report(capsys):
    code, out, err = run(capsys, "classify", "example09")
    assert code == 0 and not err
    assert "labels: B D232 E1" in out
    assert "parallelizable (D232)" in out
    assert "asserted metadata: F1" in out


def test_classify_json_round_trips(capsys):
    code, out, _ = run(capsys, "classify", "example07", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["labels"] == ["A2", "D21", "E8"]
    assert doc["classes"]["D"] == "D21"
    assert doc["predicates"]["Bol"]["holds"] is True
    assert doc["predicates"]["group"]["holds"] is False


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


def test_rejected_tolerance_is_an_error(capsys):
    code, _, err = run(capsys, "classify", "example01", "--tol", "1e-2")
    assert code == 1
    assert "tol" in err


def test_unknown_parameter_is_an_error(capsys):
    code, _, err = run(capsys, "classify", "example01", "--param", "z=1")
    assert code == 1
    assert "unknown parameter" in err


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


def test_inconclusive_exit_code(capsys):
    # drive one verdict into the ambiguity band by matching the tolerance
    # to its known tiny residual
    r = classify_web(load_example(9).web).predicates[
        "transversally_geodesic"].max_residual
    assert r > 0
    code, out, _ = run(capsys, "classify", "example09", "--tol", repr(r))
    assert code == 2
    assert "inconclusive" in out


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


def test_table_has_zero_diffs(capsys):
    code, out, _ = run(capsys, "table")
    assert code == 0
    assert "diffs: none" in out
    assert "stored table metadata" in out
    for fragment in ("example01  A121", "example07  A2",
                     "example09  -", "example15  A131"):
        assert fragment in out


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

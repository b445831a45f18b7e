"""The rule catalogue, one rule id at a time, on the golden corpus.

Each kept rule reproduces its own golden findings when it runs alone,
is silenced by a trailing or a file-wide pragma that names it, and by no
pragma that names another rule; silencing it leaves every other finding
byte-identical.  The rule ids deleted from the catalogue are unknown to
the registry, to ``--select`` / ``--ignore`` and to ``--list-rules``.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.analysis import registered_rules
from repro.analysis.cli import main

CORPUS = Path(__file__).resolve().parent / "data" / "analysis_corpus"
FINDINGS = json.loads((CORPUS / "golden_report.json").read_text())["findings"]
KEPT = sorted({f["rule"] for f in FINDINGS})

#: The rules that never caught anything in this repository's history:
#: the static comm-check, CP001/CP002 (dtype promotion), four sys-check
#: rules and five lint rules.
DELETED = [
    "CC001", "CC002", "CC003", "CC004", "CP001", "CP002", "RS002",
    "RS004", "RS005", "RS007", "CL002", "CL003", "CL004", "CL008",
    "CL010",
]


def of(rule_id):
    return [f for f in FINDINGS if f["rule"] == rule_id]


def run_all(tree, tmp_path, monkeypatch, capsys, *args):
    """``--all`` over ``tree`` from inside it; returns the findings."""
    report = tmp_path / "report.json"
    monkeypatch.chdir(tree)
    code = main(["--all", ".", "--quiet", "--report-out", str(report),
                 "--manifest-out", str(tmp_path / "manifest.json"), *args])
    capsys.readouterr()
    findings = json.loads(report.read_text())["findings"]
    assert code == (1 if findings else 0)
    return findings


def corpus_copy(tmp_path):
    tree = tmp_path / "corpus"
    shutil.copytree(CORPUS, tree, ignore=shutil.ignore_patterns("*.json",
                                                                "*.md"))
    return tree


def test_corpus_holds_each_kept_rule_and_no_deleted_one():
    assert KEPT == sorted(cls.rule_id for cls in registered_rules())
    assert not set(DELETED) & set(KEPT)


@pytest.mark.parametrize("rule_id", KEPT)
def test_rule_alone_reproduces_its_golden_findings(rule_id, tmp_path,
                                                   monkeypatch, capsys):
    found = run_all(CORPUS, tmp_path, monkeypatch, capsys,
                    "--select", rule_id)
    assert found == of(rule_id)


@pytest.mark.parametrize("rule_id", KEPT)
def test_trailing_pragma_silences_only_its_rule(rule_id, tmp_path,
                                                monkeypatch, capsys):
    tree = corpus_copy(tmp_path)
    for f in of(rule_id):
        path = tree / f["path"]
        lines = path.read_text().split("\n")
        lines[f["line"] - 1] += f"  # lint: disable={rule_id}"
        path.write_text("\n".join(lines))
    found = run_all(tree, tmp_path, monkeypatch, capsys)
    assert found == [f for f in FINDINGS if f["rule"] != rule_id]


@pytest.mark.parametrize("rule_id", KEPT)
def test_file_pragma_silences_only_its_rule(rule_id, tmp_path, monkeypatch,
                                            capsys):
    tree = corpus_copy(tmp_path)
    for path in {tree / f["path"] for f in of(rule_id)}:
        with path.open("a") as fh:
            fh.write(f"# lint: disable={rule_id}\n")
    found = run_all(tree, tmp_path, monkeypatch, capsys)
    assert found == [f for f in FINDINGS if f["rule"] != rule_id]


@pytest.mark.parametrize("rule_id", KEPT)
def test_pragma_naming_another_rule_leaves_it_standing(rule_id, tmp_path,
                                                       monkeypatch, capsys):
    others = ",".join(r for r in KEPT + DELETED if r != rule_id)
    tree = corpus_copy(tmp_path)
    for f in of(rule_id):
        path = tree / f["path"]
        lines = path.read_text().split("\n")
        lines[f["line"] - 1] += f"  # lint: disable={others}"
        path.write_text("\n".join(lines))
    found = run_all(tree, tmp_path, monkeypatch, capsys)
    assert [f for f in found if f["rule"] == rule_id] == of(rule_id)


@pytest.mark.parametrize("rule_id", DELETED)
def test_deleted_rule_id_is_unknown(rule_id, tmp_path, capsys):
    assert rule_id not in {cls.rule_id for cls in registered_rules()}
    for flag in ("--select", "--ignore"):
        code = main(["--all", str(CORPUS), flag, rule_id,
                     "--manifest-out", str(tmp_path / "manifest.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert f"unknown rule id(s): {rule_id}" in err
    assert main(["--list-rules"]) == 0
    assert rule_id not in capsys.readouterr().out

"""The golden corpus of ``cubism-lint``.

``tests/data/analysis_corpus`` holds one violating snippet and one clean
twin per rule id; its report is committed as ``golden_report.json``.
The lint must reproduce it byte for byte: the same findings, messages
and order.
"""

import json
from pathlib import Path

from repro.analysis import registered_rules
from repro.analysis.cli import main

CORPUS = Path(__file__).resolve().parent / "data" / "analysis_corpus"
GOLDEN = CORPUS / "golden_report.json"


def test_lint_reproduces_the_golden_report(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(CORPUS)
    report = tmp_path / "report.json"
    code = main([".", "--report-out", str(report)])
    capsys.readouterr()
    assert code == 1
    assert report.read_bytes() == GOLDEN.read_bytes()


def test_corpus_covers_every_registered_rule():
    found = {f["rule"] for f in json.loads(GOLDEN.read_text())["findings"]}
    assert found == {cls.rule_id for cls in registered_rules()}

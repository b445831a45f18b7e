"""What the analysis CLI does with files it cannot analyse, how often a
run reads a file, and the modes it no longer has."""

import ast
from collections import Counter
from pathlib import Path

import pytest

from repro.analysis.cli import main

REPO = Path(__file__).resolve().parents[1]
CORPUS = REPO / "tests" / "data" / "analysis_corpus"


def test_unparsable_file_is_cl000_once(tmp_path, capsys):
    tree = tmp_path / "tree"
    tree.mkdir()
    (tree / "broken.py").write_text("def f(:\n")
    code = main([str(tree)])
    out = capsys.readouterr().out
    assert code == 1
    assert out.count(" CL000 ") == 1, out
    assert f"{tree / 'broken.py'}:1:" in out


def test_file_that_is_not_utf8_is_a_usage_error(tmp_path, capsys):
    tree = tmp_path / "tree"
    tree.mkdir()
    bad = tree / "latin.py"
    bad.write_bytes(b'x = "\xff\xfe"\n')
    code = main([str(tree)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"cubism-lint: {bad}: "), err


def test_a_run_parses_each_file_once(monkeypatch, capsys):
    parsed = Counter()
    parse = ast.parse

    def counting_parse(source, filename="<unknown>", *args, **kwargs):
        parsed[filename] += 1
        return parse(source, filename, *args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    monkeypatch.chdir(CORPUS)
    main(["."])
    capsys.readouterr()
    files = {str(p.relative_to(CORPUS)) for p in CORPUS.rglob("*.py")}
    assert set(parsed) == files
    assert set(parsed.values()) == {1}


def test_the_tree_is_clean(capsys, cli_src_program):
    code = main([str(REPO / "src" / "repro")])
    assert code == 0, capsys.readouterr().out
    assert capsys.readouterr().err == "cubism-lint: clean\n"


def test_concurrency_mode_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--concurrency", str(CORPUS)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --concurrency" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--all", "--perf", "--sys",
                                  "--manifest-out=m.json"])
def test_family_and_manifest_flags_are_gone(flag, tmp_path, monkeypatch,
                                            capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([flag, str(CORPUS)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []

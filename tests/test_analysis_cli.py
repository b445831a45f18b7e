"""What every mode of the analysis CLI does with files it cannot analyse,
and how often a run reads a file."""

import ast
from collections import Counter
from pathlib import Path

import pytest

from repro.analysis.cli import main

REPO = Path(__file__).resolve().parents[1]
CORPUS = REPO / "tests" / "data" / "analysis_corpus"
MODES = ([], ["--perf"], ["--sys"], ["--all"])
MODE_IDS = ["lint", "perf", "sys", "all"]


@pytest.mark.parametrize("mode", MODES, ids=MODE_IDS)
def test_unparsable_file_is_cl000_once_in_every_mode(mode, tmp_path, capsys):
    tree = tmp_path / "tree"
    tree.mkdir()
    (tree / "broken.py").write_text("def f(:\n")
    code = main([*mode, str(tree),
                 "--manifest-out", str(tmp_path / "manifest.json")])
    out = capsys.readouterr().out
    assert code == 1
    assert out.count(" CL000 ") == 1, out
    assert f"{tree / 'broken.py'}:1:" in out


@pytest.mark.parametrize("mode", MODES, ids=MODE_IDS)
def test_file_that_is_not_utf8_is_a_usage_error(mode, tmp_path, capsys):
    tree = tmp_path / "tree"
    tree.mkdir()
    bad = tree / "latin.py"
    bad.write_bytes(b'x = "\xff\xfe"\n')
    code = main([*mode, str(tree),
                 "--manifest-out", str(tmp_path / "manifest.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"cubism-lint: {bad}: "), err


def test_all_parses_each_file_once(tmp_path, monkeypatch, capsys):
    parsed = Counter()
    parse = ast.parse

    def counting_parse(source, filename="<unknown>", *args, **kwargs):
        parsed[filename] += 1
        return parse(source, filename, *args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    monkeypatch.chdir(CORPUS)
    main(["--all", ".", "--manifest-out", str(tmp_path / "manifest.json")])
    capsys.readouterr()
    files = {str(p.relative_to(CORPUS)) for p in CORPUS.rglob("*.py")}
    assert set(parsed) == files
    assert set(parsed.values()) == {1}


def test_all_on_the_tree_is_clean_and_regenerates_the_manifest(tmp_path,
                                                                capsys):
    manifest = tmp_path / "kernel_manifest.json"
    code = main(["--all", str(REPO / "src" / "repro"),
                 "--manifest-out", str(manifest)])
    assert code == 0, capsys.readouterr().out
    assert "all families clean" in capsys.readouterr().err
    assert manifest.read_bytes() == (REPO / "kernel_manifest.json").read_bytes()


@pytest.mark.parametrize("mode", (["--perf"], ["--all"]), ids=["perf", "all"])
def test_no_manifest_without_manifest_out(mode, tmp_path, monkeypatch,
                                          capsys):
    tree = tmp_path / "tree" / "core"
    tree.mkdir(parents=True)
    (tree / "kernels.py").write_text(
        'def update_stage(a):\n    """Returns a."""\n    return a * 2.0\n')
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    assert main([*mode, str(tmp_path / "tree")]) == 0, capsys.readouterr()
    assert list(cwd.iterdir()) == []
    assert sorted(p.name for p in tree.iterdir()) == ["kernels.py"]


def test_concurrency_mode_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--concurrency", str(CORPUS)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --concurrency" in capsys.readouterr().err

"""Documentation-completeness checks.

Production-quality bar: every public module, class and function carries a
docstring, and the repository's top-level documents exist and reference
each other coherently.
"""

import importlib
import inspect
import itertools
import os
import pkgutil
import textwrap

import pytest

import repro

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def walk_modules():
    out = []
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        out.append(info.name)
    return out


class TestDocstrings:
    @pytest.mark.parametrize("modname", walk_modules())
    def test_module_docstring(self, modname):
        mod = importlib.import_module(modname)
        assert mod.__doc__ and len(mod.__doc__.strip()) > 20, (
            f"{modname} lacks a meaningful module docstring"
        )

    @pytest.mark.parametrize("modname", walk_modules())
    def test_public_callables_documented(self, modname):
        mod = importlib.import_module(modname)
        undocumented = []
        for name, obj in vars(mod).items():
            if name.startswith("_"):
                continue
            if not (inspect.isfunction(obj) or inspect.isclass(obj)):
                continue
            if getattr(obj, "__module__", None) != modname:
                continue  # re-export
            if not (obj.__doc__ and obj.__doc__.strip()):
                undocumented.append(name)
        assert not undocumented, (
            f"{modname}: undocumented public objects {undocumented}"
        )


class TestQuickStart:
    def test_root_docstring_snippet_runs(self, capsys):
        """The quick start of ``repro.__doc__`` runs, at a tiny size."""
        after = repro.__doc__.split("Quick start::\n\n", 1)[1].splitlines()
        block = itertools.takewhile(
            lambda line: not line or line.startswith("    "), after)
        code = textwrap.dedent("\n".join(block))
        size = "cells=32, block_size=16, max_steps=20"
        assert size in code
        exec(code.replace(size, "cells=16, block_size=8, max_steps=2"), {})
        assert len(capsys.readouterr().out.splitlines()) == 2


class TestTopLevelDocs:
    @pytest.mark.parametrize(
        "fname",
        ["README.md", "DESIGN.md", "EXPERIMENTS.md",
         "docs/ARCHITECTURE.md", "docs/PAPER_MAP.md"],
    )
    def test_exists_and_substantial(self, fname):
        path = os.path.join(REPO_ROOT, fname)
        assert os.path.exists(path), f"{fname} missing"
        assert os.path.getsize(path) > 1000

    def test_design_confirms_paper(self):
        with open(os.path.join(REPO_ROOT, "DESIGN.md")) as f:
            text = f.read()
        assert "11 PFLOP/s" in text
        assert "matches the target paper" in text

    def test_experiments_covers_every_table(self):
        with open(os.path.join(REPO_ROOT, "EXPERIMENTS.md")) as f:
            text = f.read()
        for table in range(1, 11):
            assert f"Table {table}" in text, f"Table {table} not recorded"
        for fig in (1, 5, 7, 9):
            assert f"Fig. {fig}" in text, f"Fig. {fig} not recorded"

    def test_every_bench_has_a_results_reference_possible(self):
        """Every bench module under benchmarks/ writes a results file
        (write_result call present)."""
        bench_dir = os.path.join(REPO_ROOT, "benchmarks")
        for fname in os.listdir(bench_dir):
            if not fname.startswith("bench_"):
                continue
            with open(os.path.join(bench_dir, fname)) as f:
                text = f.read()
            assert "write_result(" in text, f"{fname} writes no artifact"

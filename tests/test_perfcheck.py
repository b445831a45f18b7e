"""Tests of CP003, the lint's hot-path allocation rule."""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.analysis import LintConfig, Program, analyze, lint_source
from repro.analysis.cli import main as cli_main
from repro.analysis.program import path_matches
from repro.analysis.rules import HOT_KERNELS

#: A declared kernel's module: ``weno5`` there is in CP003's scope.
WENO = "src/repro/physics/weno.py"
ONLY_CP003 = LintConfig(select=frozenset({"CP003"}))


def perf(text, path=WENO):
    """CP003 over one fixture module (``weno5`` in it is a kernel)."""
    return [v.rule for v in lint_source(textwrap.dedent(text), path,
                                        ONLY_CP003)]


def test_list_rules_holds_cp003_only(capsys):
    assert cli_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "CP003" in out
    for retired in ("CP001", "CP002", "CP004", "CP005", "CP006"):
        assert retired not in out


# -- CP003 hidden temporaries --------------------------------------------

_CP003_HOT = """
    import numpy as np

    def weno5(a, b):
        t = (a + b) * (a - b) + (a * b) / (a + 1.0)
        u = (t + a) * (t - b) + (t * t) / (b + 1.0)
        v = (u + t) * (u - a) + (u * b) / (t + 1.0)
        return v
"""


def test_cp003_flags_undisciplined_allocation_chain():
    assert perf(_CP003_HOT) == ["CP003"]


def test_cp003_reads_declared_kernels_only():
    assert perf(_CP003_HOT.replace("def weno5(", "def other(")) == []
    assert perf(_CP003_HOT, path="src/repro/physics/riemann.py") == []


def test_cp003_follows_bare_calls_to_the_first_def_in_load_order():
    kernel = 'def weno5(a, w):\n    w.check(a)\n    return _helper(a)\n'
    chain = textwrap.dedent(_CP003_HOT).replace("def weno5(", "def _helper(")
    method = chain.replace("def _helper(a, b)", "def check(self, a, b)")
    program = Program({
        "src/repro/physics/first.py": chain,
        WENO: kernel + "\n\n" + chain.replace("(a + 1.0)", "(a + 2.0)"),
        "src/repro/misc/methods.py": method,
    })
    (found,) = analyze(program, ONLY_CP003).violations
    assert (found.path, found.rule) == ("src/repro/physics/first.py",
                                        "CP003")
    assert found.message.startswith("_helper() allocates ~21")


def test_cp003_clean_with_out_discipline():
    assert perf(
        """
        import numpy as np

        def weno5(a, b, ws):
            t0, t1 = ws
            np.add(a, b, out=t0)
            np.subtract(a, b, out=t1)
            np.multiply(t0, t1, out=t0)
            np.multiply(a, b, out=t1)
            np.add(t0, t1, out=t0)
            np.divide(t0, b, out=t0)
            np.add(t0, a, out=t0)
            np.multiply(t0, t0, out=t1)
            np.add(t1, a, out=t0)
            np.multiply(t0, b, out=t1)
            np.add(t0, t1, out=t0)
            np.subtract(t0, a, out=t0)
            return t0
        """
    ) == []


#: One row per declared kernel, named by the kernel (the names are unique).
EACH_KERNEL = pytest.mark.parametrize(
    "module, name", HOT_KERNELS, ids=[name for _, name in HOT_KERNELS])


@EACH_KERNEL
def test_every_declared_kernel_is_defined_in_the_tree(src_program, module,
                                                      name):
    assert any(fn.name == name
               for path, source in src_program.sources.items()
               if path_matches(path, module)
               for fn in source.functions)


@EACH_KERNEL
def test_each_declared_kernel_roots_cp003(module, name):
    """The undisciplined chain under the kernel's name fires in the
    kernel's module, and nowhere else: each row of ``HOT_KERNELS`` is
    read, by module and by name."""
    chain = _CP003_HOT.replace("def weno5(", f"def {name}(")
    assert perf(chain, path=f"src/repro/{module}") == ["CP003"]
    assert perf(chain, path="src/repro/misc/elsewhere.py") == []


def test_perfcheck_src_repro_is_clean(src_program):
    assert analyze(src_program, ONLY_CP003).violations == []


# -- pragmas -------------------------------------------------------------


def test_trailing_pragma_disables_rule_for_the_statement():
    text = _CP003_HOT.replace(
        "def weno5(a, b):", "def weno5(a, b):  # lint: disable=CP003"
    )
    assert perf(text) == []


def test_standalone_pragma_disables_rule_file_wide():
    assert perf("# lint: disable=CP003\n" + textwrap.dedent(_CP003_HOT)) == []


def test_pragma_spans_multiline_statements():
    header = "def weno5(a, b):"
    split = "def weno5(\n        a,\n        b,\n    ):"
    dirty = _CP003_HOT.replace(header, split)
    assert perf(dirty) == ["CP003"]
    # A pragma on the last line of the header covers the def line the
    # finding is anchored on ...
    assert perf(dirty.replace("    ):", "    ):  # lint: disable=CP003")) == []
    # ... and one on the body's first statement does not.
    body = dirty.replace(
        "(a + 1.0)\n", "(a + 1.0)  # lint: disable=CP003\n", 1
    )
    assert perf(body) == ["CP003"]


# -- CLI -----------------------------------------------------------------

#: A ``weno5`` that trips CP003 (and CL006: it documents no return).
_HOT_WENO = '"""Fixture weno module."""\n\n' + textwrap.dedent(_CP003_HOT)


def test_cli_cp003_findings_exit_one(tmp_path, capsys):
    phys = tmp_path / "physics"
    phys.mkdir()
    (phys / "weno.py").write_text(_HOT_WENO)
    report = tmp_path / "r.json"
    code = cli_main([str(tmp_path), "--report-out", str(report)])
    assert code == 1
    assert "CP003" in capsys.readouterr().out
    rules = [f["rule"] for f in json.loads(report.read_text())["findings"]]
    assert sorted(rules) == ["CL006", "CP003"]


def test_cli_select_filters_rules(tmp_path, capsys):
    phys = tmp_path / "physics"
    phys.mkdir()
    (phys / "weno.py").write_text(_HOT_WENO)
    assert cli_main([str(tmp_path), "--select", "CL001"]) == 0
    capsys.readouterr()


def test_cli_unknown_cp_rule_exit_two(tmp_path, capsys):
    for rule in ("CP999", "CP006"):
        assert cli_main(["--select", rule, str(tmp_path)]) == 2
        assert "unknown rule" in capsys.readouterr().err

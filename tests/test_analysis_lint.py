"""Tests of the ``cubism-lint`` static checker (repro.analysis)."""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.analysis import (
    LintConfig,
    analyze,
    format_violations,
    lint_source,
    registered_rules,
)
from repro.analysis.cli import main as lint_main
from repro.analysis.lint import path_matches
from repro.analysis.report import Report, Violation

SRC = str(Path(__file__).resolve().parents[1] / "src" / "repro")


def lint(text: str, path: str = "src/repro/core/fixture.py", **kw):
    return lint_source(textwrap.dedent(text), path, **kw)


def rules_of(violations):
    return [v.rule for v in violations]


# -- registry & framework ------------------------------------------------


#: The rules that have caught something in this repository.
LINT_IDS = ["CL001", "CL005", "CL006", "CL007", "CL009", "CL011", "CL012",
            "CP003"]


def test_registry_has_the_eight_rules():
    ids = [cls.rule_id for cls in registered_rules()]
    assert ids == LINT_IDS
    for cls in registered_rules():
        assert cls.name and cls.description


def test_syntax_error_reported_as_cl000():
    out = lint("def broken(:\n    pass\n")
    assert rules_of(out) == ["CL000"]


def test_violation_format_is_file_line_col_rule():
    out = lint("import numpy as np\nx = np.float32\n")
    assert len(out) == 1
    formatted = format_violations(out)
    assert formatted.startswith("src/repro/core/fixture.py:2:")
    assert " CL001 " in formatted


def test_empty_report_payload_has_no_findings():
    assert len(Report()) == 0
    assert Report().to_dict() == {"findings": []}


def test_report_payload_lists_findings_in_report_order():
    """``to_dict`` sorts by path, line, column, rule and keeps every
    field; the report's length is its number of findings."""
    late = Violation("b.py", 1, 0, "CL001", "m1")
    early = Violation("a.py", 9, 4, "CL012", "m2")
    same_line = Violation("a.py", 9, 4, "CL005", "m3")
    report = Report([late, early, same_line])
    assert len(report) == 3
    assert report.to_dict() == {"findings": [
        {"path": "a.py", "line": 9, "col": 4, "rule": "CL005",
         "message": "m3"},
        {"path": "a.py", "line": 9, "col": 4, "rule": "CL012",
         "message": "m2"},
        {"path": "b.py", "line": 1, "col": 0, "rule": "CL001",
         "message": "m1"},
    ]}


# -- CL001: raw float dtypes ---------------------------------------------


def test_cl001_flags_raw_dtype_in_core():
    out = lint("import numpy as np\na = np.zeros(3, dtype=np.float32)\n")
    assert "CL001" in rules_of(out)


def test_cl001_flags_np_float64_too():
    out = lint("import numpy as np\na = np.asarray([1.0], dtype=np.float64)\n")
    assert "CL001" in rules_of(out)


def test_cl001_clean_when_using_named_dtypes():
    out = lint(
        """
        import numpy as np
        from repro.physics.state import STORAGE_DTYPE
        a = np.zeros(3, dtype=STORAGE_DTYPE)
        """
    )
    assert "CL001" not in rules_of(out)


def test_cl001_exempts_compression_and_sim():
    text = "import numpy as np\na = np.zeros(3, dtype=np.float32)\n"
    for path in ("src/repro/compression/encoder.py", "src/repro/sim/ic.py"):
        assert lint_source(text, path) == []


def test_cl001_scopes_cli_pattern_to_top_level_cli_only():
    text = "import numpy as np\na = np.float32(1.0)\n"
    assert "CL001" in rules_of(lint_source(text, "src/repro/cli.py"))
    # The analysis package's own CLI is not "repro/cli.py".
    assert lint_source(text, "src/repro/analysis/cli.py") == []


# -- CL005: silent broad excepts -----------------------------------------


def test_cl005_flags_silent_bare_except():
    out = lint(
        """
        def f():
            try:
                work()
            except Exception:
                pass
        """
    )
    assert "CL005" in rules_of(out)


def test_cl005_allows_reraise_or_logging():
    clean_raise = """
        def f():
            try:
                work()
            except Exception:
                raise RuntimeError("wrapped")
        """
    clean_log = """
        import logging
        def f():
            try:
                work()
            except Exception as exc:
                logging.warning("failed: %s", exc)
        """
    assert "CL005" not in rules_of(lint(clean_raise))
    assert "CL005" not in rules_of(lint(clean_log))


def test_cl005_allows_narrow_except():
    out = lint(
        """
        def f():
            try:
                work()
            except KeyError:
                pass
        """
    )
    assert "CL005" not in rules_of(out)


# -- CL006: return contract documentation --------------------------------


def test_cl006_flags_undocumented_public_return():
    out = lint_source(
        'def f(a):\n    """Do things."""\n    return a * 2\n',
        "src/repro/physics/fixture.py",
    )
    assert "CL006" in rules_of(out)


def test_cl006_clean_with_return_doc_private_or_no_return():
    documented = (
        'def f(a):\n    """Returns twice ``a`` (same shape/dtype)."""\n'
        "    return a * 2\n"
    )
    private = 'def _f(a):\n    """Do things."""\n    return a * 2\n'
    procedure = 'def f(a):\n    """Do things in place."""\n    a[0] = 1\n'
    for text in (documented, private, procedure):
        out = lint_source(text, "src/repro/physics/fixture.py")
        assert "CL006" not in rules_of(out), text


# -- CL007: np.empty read-before-assignment ------------------------------


def test_cl007_flags_read_of_unwritten_empty():
    out = lint(
        """
        import numpy as np
        def f(n):
            buf = np.empty(n)
            return buf + 1.0
        """
    )
    assert "CL007" in rules_of(out)


def test_cl007_clean_when_written_or_used_as_out_param():
    filled = """
        import numpy as np
        def f(n):
            buf = np.empty(n)
            buf[:] = 0.0
            return buf + 1.0
        """
    out_param = """
        import numpy as np
        def f(n, src):
            buf = np.empty(n)
            np.add(src, 1.0, out=buf)
            return buf
        """
    assert "CL007" not in rules_of(lint(filled))
    assert "CL007" not in rules_of(lint(out_param))


# -- CL009: raw timing calls ---------------------------------------------


def test_cl009_flags_raw_perf_counter_in_cluster():
    out = lint(
        """
        import time
        t0 = time.perf_counter()
        """,
        path="src/repro/cluster/fixture.py",
    )
    assert "CL009" in rules_of(out)


def test_cl009_flags_aliased_and_from_imports():
    out = lint(
        """
        import time as _t
        from time import time as wall
        a = _t.perf_counter_ns()
        b = wall()
        """,
        path="src/repro/compression/fixture.py",
    )
    assert rules_of(out).count("CL009") == 2


def test_cl009_allows_monotonic_deadlines():
    # time.monotonic is timeout bookkeeping, not phase timing (mpi_sim).
    out = lint(
        """
        import time
        deadline = time.monotonic() + 5.0
        """,
        path="src/repro/cluster/fixture.py",
    )
    assert "CL009" not in rules_of(out)


def test_cl009_clean_with_telemetry_clock():
    out = lint(
        """
        from repro.telemetry.clock import now
        t0 = now()
        """,
        path="src/repro/node/fixture.py",
    )
    assert "CL009" not in rules_of(out)


def test_cl009_out_of_scope_in_telemetry_and_perf():
    text = """
        import time
        t0 = time.perf_counter()
        """
    assert "CL009" not in rules_of(
        lint(text, path="src/repro/telemetry/clock.py")
    )
    assert "CL009" not in rules_of(
        lint(text, path="src/repro/perf/fixture.py")
    )


def test_cl009_pragma_disables_site():
    out = lint(
        """
        import time
        t0 = time.time()  # lint: disable=CL009
        """,
        path="src/repro/cluster/fixture.py",
    )
    assert "CL009" not in rules_of(out)


# -- CL011: unsynchronized shared mutation -------------------------------


def test_cl011_flags_module_level_mutation_from_function():
    out = lint(
        """
        CACHE = {}
        def remember(rank, value):
            CACHE[rank] = value
        """,
        path="src/repro/cluster/fixture.py",
    )
    assert "CL011" in rules_of(out)


def test_cl011_flags_closure_mutation_from_nested_function():
    out = lint(
        """
        def run(size):
            failures = {}
            def runner(rank):
                failures[rank] = "boom"
            return failures
        """,
        path="src/repro/cluster/fixture.py",
    )
    assert "CL011" in rules_of(out)


def test_cl011_flags_mutating_method_calls():
    out = lint(
        """
        EVENTS = []
        def record(ev):
            EVENTS.append(ev)
        """,
        path="src/repro/cluster/fixture.py",
    )
    assert "CL011" in rules_of(out)


def test_cl011_clean_under_lock():
    out = lint(
        """
        import threading
        CACHE = {}
        _LOCK = threading.Lock()
        def remember(rank, value):
            with _LOCK:
                CACHE[rank] = value
        """,
        path="src/repro/cluster/fixture.py",
    )
    assert "CL011" not in rules_of(out)


def test_cl011_clean_for_function_local_state():
    out = lint(
        """
        def collect(items):
            out = {}
            for i, item in enumerate(items):
                out[i] = item
            return out
        """,
        path="src/repro/cluster/fixture.py",
    )
    assert "CL011" not in rules_of(out)


def test_cl011_clean_at_module_scope_and_out_of_scope_paths():
    module_scope = """
        TABLE = {}
        TABLE["init"] = 1
        """
    assert "CL011" not in rules_of(
        lint(module_scope, path="src/repro/cluster/fixture.py")
    )
    shared = """
        CACHE = {}
        def remember(k, v):
            CACHE[k] = v
        """
    assert "CL011" not in rules_of(
        lint(shared, path="src/repro/perf/fixture.py")
    )


def test_cl011_pragma_opt_out():
    out = lint(
        """
        def run(size):
            results = [None] * size
            def runner(rank):
                results[rank] = rank  # lint: disable=CL011
        """,
        path="src/repro/cluster/fixture.py",
    )
    assert "CL011" not in rules_of(out)


# -- CL012: bare print in library code -----------------------------------


def test_cl012_flags_bare_print_in_library_code():
    out = lint(
        """
        def run(step):
            print(f"step {step} done")
        """,
        path="src/repro/cluster/fixture.py",
    )
    assert "CL012" in rules_of(out)


def test_cl012_exempts_cli_and_main_modules():
    text = 'print("user-facing output")\n'
    for path in ("src/repro/cli.py", "src/repro/validation/cli.py",
                 "src/repro/telemetry/__main__.py"):
        assert "CL012" not in rules_of(lint_source(text, path))


def test_cl012_clean_when_routed_through_the_structured_logger():
    out = lint(
        """
        from repro.telemetry.log import get_logger
        def run(step):
            get_logger("cluster.driver").info("progress", step=step)
        """,
        path="src/repro/cluster/fixture.py",
    )
    assert "CL012" not in rules_of(out)


def test_cl012_pragma_opt_out():
    out = lint(
        """
        def render(stream):
            print("table", file=stream)  # lint: disable=CL012
        """,
        path="src/repro/perf/fixture.py",
    )
    assert "CL012" not in rules_of(out)


def test_cl012_does_not_flag_attribute_or_local_print_lookalikes():
    out = lint(
        """
        def run(doc, printer):
            printer.print(doc)
        """,
        path="src/repro/perf/fixture.py",
    )
    assert "CL012" not in rules_of(out)


# -- pragmas -------------------------------------------------------------


def test_trailing_pragma_disables_line_only():
    out = lint(
        """
        import numpy as np
        a = np.float32  # lint: disable=CL001
        b = np.float64
        """
    )
    assert rules_of(out) == ["CL001"]
    assert out[0].line == 4


def test_standalone_pragma_disables_file_wide():
    out = lint(
        """
        # lint: disable=CL001
        import numpy as np
        a = np.float32
        b = np.float64
        """
    )
    assert "CL001" not in rules_of(out)


def test_pragma_disables_multiple_rules():
    out = lint(
        """
        # lint: disable=CL001, CL012
        import numpy as np
        def f(x):
            'Returns x as float32.'
            print(x)
            return np.float32(x)
        """
    )
    assert out == []


def test_trailing_pragma_covers_multiline_statement():
    # The violation anchors on the np.float32 line, while the pragma
    # sits on the closing line of the same (parenthesised) statement.
    out = lint(
        """
        import numpy as np
        a = (
            np.float32
        )  # lint: disable=CL001
        """
    )
    assert "CL001" not in rules_of(out)


def test_trailing_pragma_on_first_line_of_multiline_statement():
    out = lint(
        """
        import numpy as np
        a = (  # lint: disable=CL001
            np.float32
        )
        """
    )
    assert "CL001" not in rules_of(out)


def test_pragma_on_compound_header_does_not_silence_body():
    # A trailing pragma on an `if` header covers only the header lines;
    # violations inside the body still fire.
    out = lint(
        """
        import numpy as np
        if True:  # lint: disable=CL001
            a = np.float32
        """
    )
    assert "CL001" in rules_of(out)


def test_pragma_on_multiline_def_header_covers_signature_only():
    out = lint(
        """
        def f(
            x,
            y,
        ):  # lint: disable=CL006
            'Adds the two.'
            return x + y


        def g(x, y):
            'Adds the two.'
            return x + y
        """
    )
    # The pragma on f's multi-line signature suppresses its CL006; g's
    # separate violation survives.
    assert rules_of(out) == ["CL006"]
    assert out[0].line == 10


# -- config: select / ignore / rule_paths --------------------------------


def test_config_select_and_ignore():
    text = "import numpy as np\na = np.float32\nprint(a)\n"
    only_cl012 = lint(text, config=LintConfig(select=frozenset({"CL012"})))
    assert rules_of(only_cl012) == ["CL012"]
    no_cl001 = lint(text, config=LintConfig(ignore=frozenset({"CL001"})))
    assert "CL001" not in rules_of(no_cl001)


def test_config_rule_paths_override():
    text = "import numpy as np\na = np.float32\n"
    cfg = LintConfig(rule_paths={"CL001": ("sim/",)})
    assert lint(text, config=cfg) == []
    assert "CL001" in rules_of(
        lint_source(text, "src/repro/sim/fixture.py", config=cfg)
    )


def test_config_rule_paths_override_to_none_widens_scope():
    # CL011 defaults to cluster/ only; overriding its scope to None
    # makes it apply everywhere.
    text = "CACHE = {}\ndef put(k, v):\n    CACHE[k] = v\n"
    assert "CL011" not in rules_of(
        lint_source(text, "src/repro/perf/fixture.py")
    )
    cfg = LintConfig(rule_paths={"CL011": None})
    assert "CL011" in rules_of(
        lint_source(text, "src/repro/perf/fixture.py", config=cfg)
    )


def test_config_rule_paths_override_narrows_scoped_rule():
    # CL011 normally fires in cluster/; scoping it to resilience/ only
    # exempts cluster files.
    text = "CACHE = {}\ndef put(k, v):\n    CACHE[k] = v\n"
    cfg = LintConfig(rule_paths={"CL011": ("resilience/",)})
    assert "CL011" not in rules_of(
        lint_source(text, "src/repro/cluster/fixture.py", config=cfg)
    )
    assert "CL011" in rules_of(
        lint_source(text, "src/repro/resilience/fixture.py", config=cfg)
    )


def test_path_matches_semantics():
    assert path_matches("src/repro/core/kernels.py", "core/")
    assert path_matches("src/repro/cli.py", "repro/cli.py")
    assert not path_matches("src/repro/analysis/cli.py", "repro/cli.py")
    assert not path_matches("src/repro/score.py", "core/")


# -- the tree itself is clean (the PR's acceptance criterion) -------------


def test_self_lint_src_repro_is_clean(src_program):
    violations = src_program.errors + analyze(src_program).violations
    assert violations == [], "\n" + format_violations(violations)


def test_cli_exit_codes(tmp_path, capsys, cli_src_program):
    assert lint_main([SRC]) == 0
    bad = tmp_path / "core" / "bad.py"
    bad.parent.mkdir()
    bad.write_text("import numpy as np\na = np.float32\n")
    assert lint_main([str(bad)]) == 1
    out = capsys.readouterr().out
    assert "CL001" in out and "bad.py" in out


def test_cli_exit_code_2_on_unknown_rule_id(capsys):
    assert lint_main(["--select", "CL999", SRC]) == 2
    err = capsys.readouterr().err
    assert "unknown rule id" in err and "CL999" in err
    assert lint_main(["--ignore", "CX123", SRC]) == 2


def test_cli_exit_code_2_on_missing_path(capsys):
    assert lint_main(["no/such/dir"]) == 2
    err = capsys.readouterr().err
    assert "no such path" in err and "no/such/dir" in err


def test_cli_report_out_writes_json_artifact(tmp_path, cli_src_program):
    import json

    report = tmp_path / "clean.json"
    assert lint_main([SRC, "--report-out", str(report)]) == 0
    assert json.loads(report.read_text()) == {"findings": []}

    lint_report = tmp_path / "lint.json"
    bad = tmp_path / "core" / "bad.py"
    bad.parent.mkdir()
    bad.write_text("import numpy as np\na = np.float32\n")
    assert lint_main([str(bad), "--report-out", str(lint_report)]) == 1
    payload = json.loads(lint_report.read_text())
    assert payload["findings"][0]["rule"] == "CL001"


def test_cli_report_out_unwritable_is_exit_2(tmp_path, capsys,
                                            cli_src_program):
    target = tmp_path / "missing-dir" / "report.json"
    assert lint_main([SRC, "--report-out", str(target)]) == 2
    assert "cubism-lint" in capsys.readouterr().err


def test_cli_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in LINT_IDS:
        assert rule_id in out
    assert "[hot-path kernels]" in out
    for gone in ("CC00", "--concurrency", "--perf", "--sys", "RS00",
                 "CP006"):
        assert gone not in out

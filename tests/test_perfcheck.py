"""Tests of ``kernel-check`` (repro.analysis.perfcheck, CP-series rules)."""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

from repro.analysis import analyze, registered_rules
from repro.analysis.cli import main as cli_main
from repro.analysis.perfcheck import (
    HOT_KERNELS,
    KernelSpec,
    build_kernel_manifest,
    build_program,
    check_program,
    check_sources,
    write_kernel_manifest,
)

REPO = Path(__file__).resolve().parents[1]
SRC = str(REPO / "src" / "repro")

FIXTURE_PATH = "src/repro/physics/fixture.py"


def spec(name, module="physics/fixture.py", model_key=None):
    """A one-kernel spec tuple for fixture programs."""
    return (KernelSpec(name, module, "test contract", model_key),)


def perf(text, name, **kw):
    """perfcheck a fixture source declaring ``name`` as the only kernel."""
    return check_sources({FIXTURE_PATH: textwrap.dedent(text)},
                         specs=spec(name, **kw))


def rules_of(report):
    return [v.rule for v in report.violations]


# -- registry ------------------------------------------------------------


#: CP004 / CP005 certified kernels for a ``numba`` backend that was
#: decided against; retired with it.  CP001 / CP002 (dtype promotion,
#: strong scalars) never caught anything; the kernels' dtype tests hold
#: that contract.  Their ids stay unused.
RULE_IDS = ["CP003", "CP006"]


def test_registry_has_the_two_cp_rules():
    ids = [cls.rule_id for cls in registered_rules("perf")]
    assert ids == RULE_IDS
    for cls in registered_rules("perf"):
        assert cls.name and cls.description


def test_list_rules_includes_perf_catalogue(capsys):
    assert cli_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in RULE_IDS:
        assert rule_id in out
    for retired in ("CP001", "CP002", "CP004", "CP005"):
        assert retired not in out


# -- CP003 hidden temporaries --------------------------------------------

_CP003_HOT = """
    import numpy as np

    def ktemp(a, b):
        t = (a + b) * (a - b) + (a * b) / (a + 1.0)
        u = (t + a) * (t - b) + (t * t) / (b + 1.0)
        v = (u + t) * (u - a) + (u * b) / (t + 1.0)
        return v
"""


def test_cp003_flags_undisciplined_allocation_chain():
    report = perf(_CP003_HOT, "ktemp")
    assert "CP003" in rules_of(report)


def test_cp003_clean_with_out_discipline():
    report = perf(
        """
        import numpy as np

        def ktemp(a, b, ws):
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
        """,
        "ktemp",
    )
    assert "CP003" not in rules_of(report)


# -- CP006 intensity divergence ------------------------------------------


def test_cp006_flags_counted_vs_modeled_divergence():
    # Counted: 5 FLOP / 2 operands = 0.3125 FLOP/B vs the "up" table
    # entry at 0.125 -- a 2.5x divergence.
    report = perf(
        """
        def kup(a, b):
            return a[0] * a[0] * a[0] * a[0] * a[0] * a[0]
        """,
        "kup",
        model_key="up",
    )
    assert "CP006" in rules_of(report)


def test_cp006_clean_within_tolerance():
    # Counted: 2 FLOP / 3 operands = 0.083 FLOP/B vs 0.125 -- 1.5x.
    report = perf(
        """
        def kup(a, b):
            return a[0] * b[0] + 1.0
        """,
        "kup",
        model_key="up",
    )
    assert "CP006" not in rules_of(report)


def test_cp006_skipped_without_model_key():
    report = perf(
        """
        def kup(a, b):
            return a[0] * a[0] * a[0] * a[0] * a[0] * a[0]
        """,
        "kup",
    )
    assert "CP006" not in rules_of(report)


# -- pragmas -------------------------------------------------------------


def test_trailing_pragma_disables_rule_for_the_statement():
    text = _CP003_HOT.replace(
        "def ktemp(a, b):", "def ktemp(a, b):  # lint: disable=CP003"
    )
    assert "CP003" not in rules_of(perf(text, "ktemp"))


def test_standalone_pragma_disables_rule_file_wide():
    text = "# lint: disable=CP003\n" + textwrap.dedent(_CP003_HOT)
    report = check_sources({FIXTURE_PATH: text}, specs=spec("ktemp"))
    assert "CP003" not in rules_of(report)


def test_pragma_spans_multiline_statements():
    header = "def ktemp(a, b):"
    split = "def ktemp(\n        a,\n        b,\n    ):"
    dirty = _CP003_HOT.replace(header, split)
    assert "CP003" in rules_of(perf(dirty, "ktemp"))
    # A pragma on the last line of the header covers the def line the
    # finding is anchored on ...
    clean = dirty.replace("    ):", "    ):  # lint: disable=CP003")
    assert "CP003" not in rules_of(perf(clean, "ktemp"))
    # ... and one on the body's first statement does not.
    body = dirty.replace(
        "(a + 1.0)\n", "(a + 1.0)  # lint: disable=CP003\n", 1
    )
    assert "CP003" in rules_of(perf(body, "ktemp"))


# -- manifest ------------------------------------------------------------

_MANIFEST_SRC = """
    import numpy as np

    def helper(a, b):
        return np.sqrt(a * a + b * b)

    def kfix(x, y, lib=None, out=None):
        if lib is not None:
            return lib.repro_fix(x, y)
        return helper(x, y)
"""


def _manifest_fixture():
    program = build_program(
        {FIXTURE_PATH: textwrap.dedent(_MANIFEST_SRC)}, spec("kfix")
    )
    return program, check_program(program)


def test_manifest_golden():
    program, report = _manifest_fixture()
    payload = build_kernel_manifest(program, report)
    assert payload == {
        "schema": "repro.kernel_manifest/v2",
        "checks_run": 5,  # 2 closure functions x 2 rules + 1 kernel
        "findings_total": 0,
        "kernels": [
            {
                "name": "kfix",
                "module": "physics/fixture.py",
                "signature": "kfix(x, y, lib=None, out=None)",
                "dtype_contract": "test contract",
                "native_entry_points": ["repro_fix"],
                "closure": ["helper", "kfix"],
                "arithmetic": {
                    "counted_flops_per_point": 4.0,
                    "counted_bytes_per_point": 40.0,
                    "counted_intensity": 0.1,
                    "modeled_intensity": None,
                    "model_key": None,
                },
                "findings": 0,
            }
        ],
    }


def test_write_kernel_manifest_roundtrip(tmp_path):
    program, report = _manifest_fixture()
    out = tmp_path / "kernel_manifest.json"
    payload = write_kernel_manifest(program, report, out)
    assert json.loads(out.read_text()) == payload


# -- CLI exit codes ------------------------------------------------------


def test_cli_perf_clean_exit_zero(tmp_path, capsys):
    (tmp_path / "other.py").write_text('"""Not a hot module."""\n')
    manifest = tmp_path / "m.json"
    code = cli_main(
        ["--perf", str(tmp_path), "--manifest-out", str(manifest)]
    )
    assert code == 0
    assert "kernel-check" in capsys.readouterr().err
    assert json.loads(manifest.read_text())["kernels"] == []


#: A ``weno5`` that trips CP003 (and nothing else).
_HOT_WENO = '"""Fixture weno module."""\n\n' + textwrap.dedent(_CP003_HOT).replace(
    "def ktemp(", "def weno5(")


def test_cli_perf_findings_exit_one(tmp_path, capsys):
    phys = tmp_path / "physics"
    phys.mkdir()
    (phys / "weno.py").write_text(_HOT_WENO)
    manifest = tmp_path / "m.json"
    report = tmp_path / "r.json"
    code = cli_main([
        "--perf", str(tmp_path),
        "--manifest-out", str(manifest),
        "--report-out", str(report),
    ])
    assert code == 1
    assert "CP003" in capsys.readouterr().out
    payload = json.loads(report.read_text())
    assert payload["by_rule"].get("CP003")
    (kernel,) = json.loads(manifest.read_text())["kernels"]
    assert kernel["findings"] == 1


def test_cli_perf_select_filters_rules(tmp_path, capsys):
    phys = tmp_path / "physics"
    phys.mkdir()
    (phys / "weno.py").write_text(_HOT_WENO)
    manifest = tmp_path / "m.json"
    code = cli_main([
        "--perf", str(tmp_path), "--select", "CP006",
        "--manifest-out", str(manifest),
    ])
    capsys.readouterr()
    assert code == 0


def test_cli_unknown_cp_rule_exit_two(capsys):
    assert cli_main(["--perf", "--select", "CP999", SRC]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_cli_missing_path_exit_two(tmp_path, capsys):
    code = cli_main(["--perf", str(tmp_path / "nope")])
    assert code == 2
    assert "no such path" in capsys.readouterr().err


# -- the real tree -------------------------------------------------------


def test_perfcheck_src_repro_is_clean(src_program):
    report = analyze(src_program, "perf")[1]
    assert report.violations == []
    assert report.checks_run > 0


def test_committed_manifest_matches_regenerated(src_program):
    committed = json.loads((REPO / "kernel_manifest.json").read_text())
    program, report = analyze(src_program, "perf")
    assert build_kernel_manifest(program, report) == committed


def test_manifest_names_the_kernels_with_a_native_door(src_program):
    """Read off the source, not restated: the seven kernels whose closure
    calls into the compiled library, and entry points that exist."""
    from repro import native

    program, report = analyze(src_program, "perf")
    payload = build_kernel_manifest(program, report)
    assert len(payload["kernels"]) == len(HOT_KERNELS)
    doors = {k["name"]: k["native_entry_points"]
             for k in payload["kernels"] if k["native_entry_points"]}
    # (plus whatever reaches one of the seven through its closure)
    assert {name: doors[name] for name in (
        "compute_rhs", "gather_conv", "scatter_aos", "rhs_kernel",
        "sos_kernel", "update_stage", "cell_pressure")} == {
        "compute_rhs": ["repro_rhs_sweeps"],
        "gather_conv": ["repro_gather_conv"],
        "scatter_aos": ["repro_scatter_aos"],
        "rhs_kernel": ["repro_gather_conv", "repro_rhs_sweeps",
                       "repro_scatter_aos"],
        "sos_kernel": ["repro_max_sos"],
        "update_stage": ["repro_update_stage"],
        "cell_pressure": ["repro_cell_pressure"],
    }
    source = native.SOURCE.read_text()
    for entry in set().union(*doors.values()):
        assert entry in native._SIGNATURES and f" {entry}(" in source

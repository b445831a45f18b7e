"""sys-check: RS-rule fixtures, pragma spans, CLI contract, ledger.

Each RS rule gets a positive (fires) and a negative (clean) AST
fixture fed through ``check_sources`` under a synthetic path inside
the analyzer's scope.  The dynamic half exercises the
:class:`ResourceLedger` in both explicit and snapshot modes, and the
acceptance bar -- the real tree is RS-clean -- is asserted directly.
"""

from __future__ import annotations

import json
import textwrap
import threading
import time

import pytest

from repro.analysis import analyze, registered_rules
from repro.analysis.cli import main as cli_main
from repro.analysis.syscheck import (
    LeakError,
    ResourceLedger,
    check_sources,
)

#: Synthetic in-scope paths (path_matches semantics: directory pattern
#: ``cluster/`` matches anywhere in the path).
CLUSTER = "src/repro/cluster/fixture.py"
SERVICE = "src/repro/service/fixture.py"
#: In RS006 scope (durable writer module).
CACHE = "src/repro/service/cache.py"


def run(code, path=CLUSTER, extra=None):
    """Analyze one dedented fixture module; returns the SysReport."""
    sources = {path: textwrap.dedent(code)}
    if extra:
        sources.update({p: textwrap.dedent(c) for p, c in extra.items()})
    return check_sources(sources)


def rules_fired(report):
    return {v.rule for v in report.violations}


# ---------------------------------------------------------------------------
# registry


class TestRegistry:
    def test_catalogue_is_exactly_rs001_rs003_rs006(self):
        assert {cls.rule_id for cls in registered_rules("sys")} == {
            "RS001", "RS003", "RS006"}

    def test_registered_rules_sorted_and_described(self):
        rules = registered_rules("sys")
        assert [r.rule_id for r in rules] == sorted(
            cls.rule_id for cls in registered_rules("sys"))
        for r in rules:
            assert r.name and r.description


# ---------------------------------------------------------------------------
# RS001 release-on-all-paths


class TestRS001:
    def test_never_released_segment_fires(self):
        report = run("""
            from multiprocessing import shared_memory

            def leak(token):
                seg = shared_memory.SharedMemory(
                    name=token, create=True, size=64)
                seg.buf[0] = 1
        """)
        assert "RS001" in rules_fired(report)

    def test_try_finally_release_is_clean(self):
        report = run("""
            from multiprocessing import shared_memory

            def ok(token):
                seg = shared_memory.SharedMemory(
                    name=token, create=True, size=64)
                try:
                    seg.buf[0] = 1
                finally:
                    seg.close()
                    seg.unlink()
        """)
        assert "RS001" not in rules_fired(report)

    def test_conditional_release_fires(self):
        report = run("""
            from multiprocessing import shared_memory

            def cond(token, flag):
                seg = shared_memory.SharedMemory(
                    name=token, create=True, size=64)
                if flag:
                    seg.close()
                    seg.unlink()
        """)
        fired = [v for v in report.violations if v.rule == "RS001"]
        assert fired and "some paths" in fired[0].message

    def test_risky_call_before_tryfinally_fires(self):
        report = run("""
            from multiprocessing import shared_memory

            def risky(token):
                seg = shared_memory.SharedMemory(
                    name=token, create=True, size=64)
                validate(token)
                try:
                    seg.buf[0] = 1
                finally:
                    seg.close()
                    seg.unlink()

            def validate(token):
                if not token:
                    raise ValueError(token)
        """)
        assert "RS001" in rules_fired(report)

    def test_discarded_helper_result_fires(self):
        report = run("""
            from multiprocessing import shared_memory

            def make_seg(token):
                seg = shared_memory.SharedMemory(
                    name=token, create=True, size=64)
                return seg

            def use(token):
                make_seg(token)
        """)
        fired = [v for v in report.violations if v.rule == "RS001"]
        assert fired and any("discarded" in v.message for v in fired)

    def test_started_thread_from_helper_must_be_joined(self):
        report = run("""
            import threading

            def _body():
                return None

            def start():
                t = threading.Thread(target=_body)
                t.start()
                return t

            def dropped():
                start()

            def unjoined():
                t = start()

            def joined():
                t = start()
                t.join()
        """)
        fired = sorted(v.line for v in report.violations if v.rule == "RS001")
        assert fired == [13, 16]

    def test_with_open_is_clean(self):
        report = run("""
            def ok(path):
                with open(path) as fh:
                    return fh.read()
        """)
        assert "RS001" not in rules_fired(report)

    def test_escaped_handle_is_callers_problem(self):
        report = run("""
            from multiprocessing import shared_memory

            def make_seg(token):
                seg = shared_memory.SharedMemory(
                    name=token, create=True, size=64)
                return seg
        """)
        # Ownership transfers through the return: not RS001 here.
        assert "RS001" not in rules_fired(report)


# ---------------------------------------------------------------------------
# RS003 lock-across-blocking


class TestRS003:
    def test_queue_get_under_lock_fires(self):
        report = run("""
            import threading

            class Engine:
                def __init__(self):
                    self._lock = threading.Lock()

                def bad(self, task_q):
                    with self._lock:
                        return task_q.get(timeout=1.0)
        """, path=SERVICE)
        assert "RS003" in rules_fired(report)

    def test_sleep_under_lock_fires(self):
        report = run("""
            import threading
            import time

            class Engine:
                def __init__(self):
                    self._lock = threading.Lock()

                def bad(self):
                    with self._lock:
                        time.sleep(0.5)
        """, path=SERVICE)
        assert "RS003" in rules_fired(report)

    def test_condition_wait_on_held_lock_is_exempt(self):
        report = run("""
            import threading

            class Engine:
                def __init__(self):
                    self._cv = threading.Condition()

                def ok(self):
                    with self._cv:
                        self._cv.wait(timeout=1.0)
        """, path=SERVICE)
        assert "RS003" not in rules_fired(report)

    def test_blocking_helper_propagates_one_level(self):
        report = run("""
            import threading
            import time

            class Engine:
                def __init__(self):
                    self._lock = threading.Lock()

                def settle(self):
                    time.sleep(0.5)

                def bad(self):
                    with self._lock:
                        self.settle()
        """, path=SERVICE)
        fired = [v for v in report.violations if v.rule == "RS003"]
        assert fired and "settle" in fired[0].message

    def test_get_outside_lock_is_clean(self):
        report = run("""
            import threading

            class Engine:
                def __init__(self):
                    self._lock = threading.Lock()

                def ok(self, task_q):
                    msg = task_q.get(timeout=1.0)
                    with self._lock:
                        return msg
        """, path=SERVICE)
        assert "RS003" not in rules_fired(report)


# ---------------------------------------------------------------------------
# RS006 atomic-durable-write


class TestRS006:
    def test_plain_write_fires(self):
        report = run("""
            def save(path, data):
                with open(path, "w") as fh:
                    fh.write(data)
        """, path=CACHE)
        assert "RS006" in rules_fired(report)

    def test_path_write_text_fires(self):
        report = run("""
            from pathlib import Path

            def save(path, data):
                Path(path).write_text(data)
        """, path=CACHE)
        assert "RS006" in rules_fired(report)

    def test_tmp_fsync_replace_is_clean(self):
        report = run("""
            import os

            def save(path, data):
                tmp = path + ".tmp"
                with open(tmp, "w") as fh:
                    fh.write(data)
                    fh.flush()
                    os.fsync(fh.fileno())
                os.replace(tmp, path)
        """, path=CACHE)
        assert "RS006" not in rules_fired(report)

    def test_replace_without_fsync_fires(self):
        report = run("""
            import os

            def save(path, data):
                tmp = path + ".tmp"
                with open(tmp, "w") as fh:
                    fh.write(data)
                os.replace(tmp, path)
        """, path=CACHE)
        fired = [v for v in report.violations if v.rule == "RS006"]
        assert fired and "fsync" in fired[0].message

    def test_out_of_scope_module_is_exempt(self):
        # Same code under a non-durable-writer path: no RS006.
        report = run("""
            def save(path, data):
                with open(path, "w") as fh:
                    fh.write(data)
        """, path=CLUSTER)
        assert "RS006" not in rules_fired(report)


# ---------------------------------------------------------------------------
# pragmas, report shape, acceptance


class TestPragmasAndReport:
    def test_statement_span_pragma_suppresses(self):
        report = run("""
            from multiprocessing import shared_memory

            def leak(token):
                seg = shared_memory.SharedMemory(  # lint: disable=RS001
                    name=token, create=True, size=64)
                seg.buf[0] = 1
        """)
        assert not report.violations
        assert report.checks_run > 0

    def test_file_wide_pragma_suppresses(self):
        report = run("""
            # lint: disable=RS001
            from multiprocessing import shared_memory

            def leak(token):
                seg = shared_memory.SharedMemory(
                    name=token, create=True, size=64)
                seg.buf[0] = 1
                seg.unlink()
        """)
        assert "RS001" not in rules_fired(report)

    def test_out_of_scope_file_never_fires(self):
        report = run("""
            from multiprocessing import shared_memory

            def leak(token):
                seg = shared_memory.SharedMemory(
                    name=token, create=True, size=64)
        """, path="src/repro/core/block.py")
        assert not report.violations

    def test_report_dict_shape(self):
        report = run("""
            from multiprocessing import shared_memory

            def leak(token):
                seg = shared_memory.SharedMemory(
                    name=token, create=True, size=64)
        """)
        d = report.to_dict()
        assert set(d) == {"checks_run", "findings", "by_rule"}
        assert d["findings"] and set(d["findings"][0]) == {
            "path", "line", "col", "rule", "message"
        }

    def test_real_tree_is_clean(self, src_program):
        # The acceptance bar: --sys exits 0 on src/repro.
        report = analyze(src_program, "sys")[1]
        assert not report.violations, report.summary()
        assert report.checks_run > 0


# ---------------------------------------------------------------------------
# CLI


BAD_FIXTURE = textwrap.dedent("""
    import threading
    import time
    from multiprocessing import shared_memory

    _LOCK = threading.Lock()

    def leak(token):
        seg = shared_memory.SharedMemory(name=token, create=True, size=64)
        seg.buf[0] = 1

    def stall():
        with _LOCK:
            time.sleep(0.1)
""")


class TestCLI:
    def _tree(self, tmp_path, code):
        pkg = tmp_path / "cluster"
        pkg.mkdir()
        (pkg / "fixture.py").write_text(code)
        return tmp_path

    def test_sys_exit_1_on_findings(self, tmp_path, capsys):
        tree = self._tree(tmp_path, BAD_FIXTURE)
        assert cli_main(["--sys", str(tree)]) == 1
        out = capsys.readouterr().out
        assert "RS001" in out and "RS003" in out

    def test_sys_exit_0_on_clean(self, tmp_path, capsys):
        tree = self._tree(
            tmp_path,
            "def ok(path):\n"
            "    with open(path) as fh:\n"
            "        return fh.read()\n",
        )
        assert cli_main(["--sys", str(tree)]) == 0

    def test_sys_exit_2_on_unknown_rule(self, tmp_path):
        tree = self._tree(tmp_path, BAD_FIXTURE)
        assert cli_main(["--sys", "--select", "RS999", str(tree)]) == 2

    def test_select_narrows_findings(self, tmp_path, capsys):
        tree = self._tree(tmp_path, BAD_FIXTURE)
        assert cli_main(
            ["--sys", "--select", "RS003", str(tree)]
        ) == 1
        out = capsys.readouterr().out
        assert "RS003" in out and "RS001" not in out

    def test_all_merged_report_and_worst_of_exit(self, tmp_path, capsys):
        tree = self._tree(tmp_path, BAD_FIXTURE)
        report_out = tmp_path / "report.json"
        manifest_out = tmp_path / "kernel_manifest.json"
        code = cli_main([
            "--all", str(tree),
            "--report-out", str(report_out),
            "--manifest-out", str(manifest_out),
        ])
        assert code == 1
        payload = json.loads(report_out.read_text())
        assert payload["schema"] == "repro.analysis_report/v1"
        assert set(payload["families"]) == {"lint", "perf", "sys"}
        assert payload["totals"]["by_family"]["sys"] >= 2
        assert payload["totals"]["findings"] == len(payload["findings"])
        assert all(f["family"] for f in payload["findings"])
        assert manifest_out.exists()  # --all still certifies kernels

    def test_all_exit_0_on_clean_tree(self, tmp_path):
        tree = self._tree(
            tmp_path,
            "def ok(n):\n"
            "    return n + 1\n",
        )
        assert cli_main([
            "--all", str(tree),
            "--manifest-out", str(tmp_path / "km.json"),
        ]) == 0

    def test_list_rules_includes_rs_catalogue(self, capsys):
        assert cli_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rid in ("RS001", "RS003", "RS006"):
            assert rid in out


# ---------------------------------------------------------------------------
# ResourceLedger (dynamic half)


class TestLedgerExplicit:
    def test_register_close_accounting(self):
        ledger = ResourceLedger()
        h1, h2 = object(), object()
        ledger.register("segment", h1, "seg-a")
        ledger.register("thread", h2, "worker")
        assert ledger.leaked() == ["segment: seg-a", "thread: worker"]
        ledger.close("segment", h1)
        assert ledger.leaked() == ["thread: worker"]
        ledger.close("thread", h2)
        ledger.close("thread", h2)  # idempotent
        assert ledger.leaked() == []

    def test_unknown_kind_rejected(self):
        ledger = ResourceLedger()
        with pytest.raises(ValueError):
            ledger.register("socket", object())

    def test_open_registration_fails_check(self):
        ledger = ResourceLedger()
        ledger.begin(kinds=())
        ledger.register("segment", object(), "orphan")
        with pytest.raises(LeakError, match="orphan"):
            ledger.assert_clean(grace=0.0)


class TestLedgerSnapshot:
    def test_leaked_thread_detected_then_cleared(self):
        ledger = ResourceLedger()
        ledger.begin(kinds=("thread",))
        release = threading.Event()
        t = threading.Thread(
            target=release.wait, name="syscheck-leaker", daemon=True
        )
        t.start()
        leaks = ledger.check(grace=0.2, kinds=("thread",))
        assert any("syscheck-leaker" in entry for entry in leaks)
        release.set()
        t.join(timeout=5.0)
        ledger.assert_clean(grace=5.0, kinds=("thread",))

    def test_leaked_segment_detected_then_cleared(self):
        shared_memory = pytest.importorskip(
            "multiprocessing.shared_memory"
        )
        ledger = ResourceLedger()
        ledger.begin(kinds=("segment",))
        seg = shared_memory.SharedMemory(create=True, size=64)
        try:
            leaks = ledger.check(grace=0.2, kinds=("segment",))
            assert any("segment" in entry for entry in leaks)
        finally:
            seg.close()
            seg.unlink()
        ledger.assert_clean(grace=5.0, kinds=("segment",))

    def test_check_before_begin_raises(self):
        with pytest.raises(RuntimeError):
            ResourceLedger().check()

    def test_context_manager_asserts_on_success_only(self):
        with pytest.raises(ValueError):
            # The ledger must not mask the test's own failure with a
            # secondary leak report.
            with ResourceLedger():
                t = threading.Thread(target=time.sleep, args=(0.2,))
                t.start()
                try:
                    raise ValueError("primary failure")
                finally:
                    t.join()

    def test_clean_region_passes(self):
        with ResourceLedger():
            t = threading.Thread(target=lambda: None)
            t.start()
            t.join()

"""The runtime leak sanitizer: :class:`ResourceLedger` in its explicit
(register / close) and snapshot (begin / assert_clean) modes."""

from __future__ import annotations

import threading
import time

import pytest

from repro.analysis.ledger import LeakError, ResourceLedger


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

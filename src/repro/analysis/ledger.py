"""Runtime leak sanitizer of the multi-process layers.

A :class:`ResourceLedger` watches the four OS resource kinds the
multi-process layers can leak -- shared-memory segments, child
processes, threads and file descriptors -- and asserts that a test
left none behind.  Two modes compose:

* **Explicit ledger**: ``register(kind, handle)`` / ``close(kind,
  handle)`` pairs, for library code or tests that want per-handle
  accounting (``leaked()`` lists the open entries).
* **Snapshot sanitizer**: ``begin()`` records the ambient thread /
  child-process / ``/dev/shm`` / fd population; ``assert_clean()``
  re-snapshots (with a polling grace window for wind-down: daemon
  threads parking, children being reaped) and raises
  :class:`LeakError` listing anything new that survived.

The pytest fixture in ``tests/conftest.py`` wraps the snapshot mode
around every cluster/service/chaos test, which is how the acceptance
bar "zero leaked segments/processes/threads" is enforced at runtime.
"""

from __future__ import annotations

import gc
import os
import threading
import time

#: default kinds asserted by the pytest fixture; fds are opt-in (the
#: test harness itself churns fds, so they need explicit baselining).
DEFAULT_KINDS = ("segment", "process", "thread")

_SHM_DIR = "/dev/shm"


class LeakError(AssertionError):
    """A watched resource survived the test that created it."""


def _live_threads() -> dict[int, str]:
    return {
        t.ident: f"thread {t.name!r} (daemon={t.daemon})"
        for t in threading.enumerate()
        if t.ident is not None and t.is_alive()
    }


def _live_children() -> dict[int, str]:
    import multiprocessing

    # active_children() also reaps finished children.
    return {
        p.pid: f"process {p.name!r} (pid {p.pid})"
        for p in multiprocessing.active_children()
        if p.pid is not None
    }


def _live_segments() -> dict[str, str]:
    try:
        names = os.listdir(_SHM_DIR)
    except OSError:
        return {}
    return {n: f"shm segment {n!r}" for n in names}


def _live_fds() -> dict[int, str]:
    try:
        fds = os.listdir("/proc/self/fd")
    except OSError:
        return {}
    out = {}
    for fd in fds:
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:
            continue
        out[int(fd)] = f"fd {fd} -> {target}"
    return out


_SNAPSHOTTERS = {
    "thread": _live_threads,
    "process": _live_children,
    "segment": _live_segments,
    "fd": _live_fds,
}


class ResourceLedger:
    """Register/close accounting plus a snapshot leak sanitizer."""

    KINDS = ("segment", "process", "thread", "fd")

    def __init__(self, include_fds: bool = False):
        self.include_fds = include_fds
        self._open: dict[str, dict[int, str]] = {k: {} for k in self.KINDS}
        self._closed_counts: dict[str, int] = {k: 0 for k in self.KINDS}
        self._baseline: dict[str, dict] | None = None

    # -- explicit ledger ------------------------------------------------

    def register(self, kind: str, handle, label: str | None = None):
        """Track a live handle; returns it for chaining."""
        if kind not in self.KINDS:
            raise ValueError(f"unknown resource kind {kind!r}")
        self._open[kind][id(handle)] = label or repr(handle)
        return handle

    def close(self, kind: str, handle) -> None:
        """Mark a tracked handle released (idempotent)."""
        if kind not in self.KINDS:
            raise ValueError(f"unknown resource kind {kind!r}")
        if self._open[kind].pop(id(handle), None) is not None:
            self._closed_counts[kind] += 1

    def live(self, kind: str | None = None) -> dict[str, list]:
        """Labels of still-open explicit registrations, by kind."""
        kinds = (kind,) if kind else self.KINDS
        return {k: sorted(self._open[k].values()) for k in kinds}

    def leaked(self) -> list[str]:
        """Flat list of still-open explicit registrations."""
        return [
            f"{kind}: {label}"
            for kind in self.KINDS
            for label in sorted(self._open[kind].values())
        ]

    # -- snapshot sanitizer ----------------------------------------------

    def _kinds(self, kinds) -> tuple:
        if kinds is not None:
            return tuple(kinds)
        if self.include_fds:
            return DEFAULT_KINDS + ("fd",)
        return DEFAULT_KINDS

    def begin(self, kinds=None) -> None:
        """Record the ambient resource population as the baseline."""
        self._baseline = {
            k: _SNAPSHOTTERS[k]() for k in self._kinds(kinds)
        }

    def check(self, grace: float = 5.0, kinds=None) -> list[str]:
        """New-since-baseline resources still live after ``grace``.

        Polls (gc + child reaping between probes) so ordinary wind-down
        -- a daemon thread parking, a reaped child -- never reports;
        only resources that *stay* alive for the whole window do.
        """
        if self._baseline is None:
            raise RuntimeError("call begin() before check()")
        kinds = [k for k in self._kinds(kinds) if k in self._baseline]
        deadline = time.monotonic() + grace
        while True:
            leaks = []
            for kind in kinds:
                now = _SNAPSHOTTERS[kind]()
                for key, label in now.items():
                    if key not in self._baseline[kind]:
                        leaks.append(f"{kind}: {label}")
            leaks.extend(self.leaked())
            if not leaks or time.monotonic() >= deadline:
                return sorted(leaks)
            gc.collect()
            time.sleep(0.05)

    def assert_clean(self, grace: float = 5.0, kinds=None) -> None:
        """Raise :class:`LeakError` if anything new is still live."""
        leaks = self.check(grace=grace, kinds=kinds)
        if leaks:
            raise LeakError(
                "leaked resources survived the watched region:\n  "
                + "\n  ".join(leaks)
            )

    # -- context manager sugar --------------------------------------------

    def __enter__(self) -> "ResourceLedger":
        self.begin()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Only assert on the success path: a failing test should report
        # its own error, not a secondary leak report.
        if exc_type is None:
            self.assert_clean()

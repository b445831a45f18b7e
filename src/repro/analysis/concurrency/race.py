"""Dynamic happens-before race detector for the thread-based cluster runtime.

:mod:`repro.cluster.mpi_sim` runs every rank of the SPMD program on a
thread of one process, so the runtime itself has shared state --
mailboxes, the abort event, the failure table -- and a bug there is an
*actual* data race, not a simulated one.  :class:`RaceTracker` checks the accesses the runtime
reports against a **vector-clock happens-before order**:

* each rank thread carries a vector clock, ticked on every tracked
  access;
* every frame piggybacks the sender's clock
  (:meth:`RaceTracker.on_send`) and the receiver joins it on delivery
  (:meth:`RaceTracker.on_deliver`).  Collectives need no edge of their
  own: they run as rounds of such frames (a dissemination exchange), so
  after the last round whatever any rank did before the collective
  happens before what every rank does after it -- barriers keep their
  full synchronizing strength.

Two accesses to the same location, at least one a write, from different
ranks, neither ordered before the other by those edges, are a race --
unless the **lockset fallback** saves them: accesses annotated with a
common lock token are considered protected even when the clocks say
"concurrent" (the runtime's mailboxes synchronize with condition
variables, not messages).

Findings are :class:`~repro.analysis.report.Violation`
records under the dynamic CC-series ids (``CC101`` shared-state race,
``CC102`` deadlock) in the shared
:class:`~repro.analysis.report.Report`.
The policy knob mirrors the numerics sanitizer: ``off`` builds no
tracker at all (:func:`make_tracker` returns ``None``; the runtime's
hook sites guard with one ``is None`` test), ``warn`` records findings
and emits :class:`ConcurrencyWarning`, ``raise`` aborts the offending
rank with :class:`ConcurrencyViolationError` on the first race.
"""

from __future__ import annotations

import threading
import warnings
from dataclasses import dataclass, field

from ..report import Report, Violation

#: Valid concurrency-check policies (mirrors the sanitizer's knob).
POLICIES = ("off", "warn", "raise")

#: Rule id of a dynamic shared-state race finding.
RACE_RULE = "CC101"
#: Rule id of a dynamic deadlock finding (watchdog timeout).
DEADLOCK_RULE = "CC102"


class ConcurrencyWarning(RuntimeWarning):
    """Warning category used by the ``warn`` policy."""


class ConcurrencyViolationError(RuntimeError):
    """Raised by the ``raise`` policy; carries the findings."""

    def __init__(self, violations: list[Violation]):
        self.violations = list(violations)
        super().__init__(
            "concurrency check: "
            + "; ".join(v.message for v in self.violations)
        )


def merge_clocks(into: dict[int, int], other: dict[int, int]) -> None:
    """Join ``other`` into ``into`` componentwise (in place)."""
    for r, c in other.items():
        if c > into.get(r, 0):
            into[r] = c


@dataclass
class _Access:
    """One recorded access to a tracked location."""

    rank: int
    epoch: int  #: accessing rank's own clock component at access time
    locks: frozenset
    site: str

    def happened_before(self, clock: dict[int, int]) -> bool:
        """Is this access ordered before a thread at ``clock``? (bool)"""
        return self.epoch <= clock.get(self.rank, 0)


@dataclass
class _Location:
    """Per-location detector state: last write + reads since."""

    last_write: _Access | None = None
    reads: dict[int, _Access] = field(default_factory=dict)


class RaceTracker:
    """Vector-clock happens-before tracker with a lockset fallback.

    Thread-safe: rank threads report accesses and synchronization edges
    concurrently; one internal lock orders the detector's own state (the
    detector must not race about races).
    """

    def __init__(self, policy: str = "warn"):
        if policy not in POLICIES:
            raise ValueError(
                f"unknown concurrency policy {policy!r}; choose from {POLICIES}"
            )
        self.policy = policy
        self.report = Report("comm")
        self._lock = threading.Lock()
        self._clocks: dict[int, dict[int, int]] = {}
        self._locations: dict[str, _Location] = {}

    # -- clock maintenance ----------------------------------------------

    def _clock(self, rank: int) -> dict[int, int]:
        return self._clocks.setdefault(rank, {})

    def _tick(self, rank: int) -> int:
        clock = self._clock(rank)
        clock[rank] = clock.get(rank, 0) + 1
        return clock[rank]

    # -- synchronization edges ------------------------------------------

    def on_send(self, rank: int) -> dict[int, int]:
        """Record a message send; returns the clock to piggyback on it."""
        with self._lock:
            self._tick(rank)
            return dict(self._clock(rank))

    def on_deliver(self, rank: int, clock: dict[int, int] | None) -> None:
        """Join a delivered message's piggybacked clock into ``rank``."""
        if clock is None:
            return
        with self._lock:
            merge_clocks(self._clock(rank), clock)
            self._tick(rank)

    # -- tracked accesses -----------------------------------------------

    def read(self, label: str, rank: int, locks=(), site: str = "") -> None:
        """Record a read of shared location ``label`` by ``rank``."""
        self._record(label, rank, False, locks, site)

    def write(self, label: str, rank: int, locks=(), site: str = "") -> None:
        """Record a write of shared location ``label`` by ``rank``."""
        self._record(label, rank, True, locks, site)

    def _record(self, label: str, rank: int, is_write: bool, locks,
                site: str) -> None:
        found: list[Violation] = []
        with self._lock:
            self.report.checks_run += 1
            clock = self._clock(rank)
            epoch = self._tick(rank)
            acc = _Access(rank=rank, epoch=epoch,
                          locks=frozenset(locks), site=site)
            loc = self._locations.setdefault(label, _Location())
            prior = []
            if loc.last_write is not None:
                prior.append(("write", loc.last_write))
            if is_write:
                prior.extend(("read", a) for a in loc.reads.values())
            for prior_kind, p in prior:
                if p.rank == rank:
                    continue
                if p.happened_before(clock):
                    continue
                if p.locks & acc.locks:
                    continue  # lockset fallback: commonly locked
                kind = "write" if is_write else "read"
                found.append(Violation(
                    path=site or f"runtime:{label}", line=0, col=0,
                    rule=RACE_RULE,
                    message=(
                        f"data race on {label}: {kind} by rank {rank} is "
                        f"concurrent with {prior_kind} by rank {p.rank} "
                        f"(no happens-before edge, no common lock"
                        + (f"; prior site {p.site}" if p.site else "")
                        + ")"
                    ),
                ))
            if is_write:
                loc.last_write = acc
                loc.reads = {}
            else:
                loc.reads[rank] = acc
            self.report.violations.extend(found)
        self._handle(found)

    def on_deadlock(self, description: str, site: str = "") -> Violation:
        """Record a watchdog-diagnosed deadlock (CC102); returns it.

        Always records (never raises): the communicator raises its own
        :class:`~repro.cluster.mpi_sim.DeadlockError` carrying the full
        pending-op dump, and the finding here surfaces the event on the
        report/scorecard.
        """
        v = Violation(
            path=site or "runtime:world", line=0, col=0,
            rule=DEADLOCK_RULE, message=description,
        )
        with self._lock:
            self.report.checks_run += 1
            self.report.violations.append(v)
        return v

    # -- policy ----------------------------------------------------------

    def _handle(self, found: list[Violation]) -> None:
        if not found:
            return
        if self.policy == "raise":
            raise ConcurrencyViolationError(found)
        for v in found:
            warnings.warn(v.message, ConcurrencyWarning, stacklevel=4)


def make_tracker(policy: str) -> RaceTracker | None:
    """Returns a tracker for ``policy``, or ``None`` for ``"off"``.

    Returning ``None`` (rather than a no-op object) keeps the ``off``
    policy free of per-message overhead: the runtime's hook sites guard
    with a single ``if tracker is not None``.
    """
    if policy not in POLICIES:
        raise ValueError(
            f"unknown concurrency policy {policy!r}; choose from {POLICIES}"
        )
    if policy == "off":
        return None
    return RaceTracker(policy=policy)

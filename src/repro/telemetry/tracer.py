"""Structured run tracing: nested spans, counters and metrics snapshots.

The paper's evaluation is built on *measurement*: the per-kernel time
distributions of Fig. 7 (RHS / DT / UP / IO), the achieved Gcells/s
against the modeled peak (Section 7) and the claim that wavelet I/O costs
less than 1 % of run time (Section 6).  This module provides the runtime
instrumentation those tables are computed from:

:class:`PhaseTimers`
    The telemetry-*off* baseline: accumulating per-phase wall-clock
    seconds with a context-manager span interface.  It subclasses
    ``dict`` (phase name -> seconds) so the driver's legacy
    ``StepRecord.timers`` payload keeps its exact shape, and it caches
    one span object per phase name so the production step loop allocates
    nothing in steady state.

:class:`Tracer`
    The telemetry-*on* extension (modes ``"metrics"`` and ``"trace"``):
    adds named counters (cells updated, bytes compressed, allreduce
    calls, ...), per-span call counts, and -- in ``"trace"`` mode -- a
    bounded per-rank buffer of :class:`SpanEvent` records that the
    Chrome trace-event exporter turns into a Perfetto-loadable timeline.

:func:`make_tracer`
    Policy factory mirroring :func:`repro.analysis.sanitizer.make_sanitizer`:
    returns ``None`` for ``"off"`` so hot loops guard instrumentation
    with a single ``is None`` test and carry zero telemetry objects.

:class:`MetricsSnapshot`
    The JSON-serializable summary attached to ``RankResult`` /
    ``RunResult``: phase seconds and call counts, counters, event-buffer
    accounting and the analytic FLOP total modeled from the counters via
    :mod:`repro.perf.kernels`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import native
from .clock import now

#: Valid telemetry modes (the ``SimulationConfig.telemetry`` policy).
MODES = ("off", "metrics", "trace")

#: Default bound of the per-rank span-event buffer (trace mode).  At the
#: driver's ~13 spans per step this covers runs of several thousand
#: steps; beyond it events are dropped (and counted), never reallocated.
DEFAULT_MAX_EVENTS = 65536


@dataclass(frozen=True)
class SpanEvent:
    """One completed span occurrence (trace mode only)."""

    name: str
    start: float  #: seconds since the tracer epoch
    duration: float  #: seconds
    depth: int  #: nesting depth at completion (0 = top level)


class _PhaseSpan:
    """Reusable context manager timing one named phase.

    Cached per phase name by :class:`PhaseTimers` so repeated ``with``
    blocks allocate nothing; a start-time stack makes re-entrant use
    (a phase nested inside itself) safe as well.
    """

    __slots__ = ("_owner", "_name", "_starts")

    def __init__(self, owner: "PhaseTimers", name: str):
        self._owner = owner
        self._name = name
        self._starts: list[float] = []

    def __enter__(self) -> "_PhaseSpan":
        self._starts.append(self._owner._enter(self._name))
        return self

    def __exit__(self, *exc) -> None:
        self._owner._exit(self._name, self._starts.pop())


class PhaseTimers(dict):
    """Accumulating per-phase wall-clock timers (phase name -> seconds).

    The dict payload is exactly the legacy driver-timers shape, so
    ``dict(timers)`` snapshots remain backward compatible.  ``calls``
    holds per-phase completion counts.
    """

    def __init__(self):
        super().__init__()
        self.calls: dict[str, int] = {}
        self._spans: dict[str, _PhaseSpan] = {}

    def span(self, name: str) -> _PhaseSpan:
        """Returns the (cached) context manager timing phase ``name``."""
        span = self._spans.get(name)
        if span is None:
            span = self._spans[name] = _PhaseSpan(self, name)
        return span

    # -- span hooks (overridden by Tracer) ------------------------------

    def _enter(self, name: str) -> float:
        return now()

    def _exit(self, name: str, t0: float) -> None:
        self[name] = self.get(name, 0.0) + (now() - t0)
        self.calls[name] = self.calls.get(name, 0) + 1


class Tracer(PhaseTimers):
    """Span/counter tracer for one rank (modes ``metrics`` / ``trace``).

    Parameters
    ----------
    mode:
        ``"metrics"`` accumulates phase seconds, call counts and
        counters; ``"trace"`` additionally records every completed span
        in a bounded event buffer for timeline export.  ``"off"`` is
        expressed by *not* constructing a tracer (:func:`make_tracer`).
    rank:
        The owning rank, stamped onto snapshots and trace timelines.
    max_events:
        Hard bound of the event buffer; completions past it increment
        ``events_dropped`` instead of growing memory.
    """

    def __init__(self, mode: str = "metrics", rank: int = 0,
                 max_events: int = DEFAULT_MAX_EVENTS):
        if mode not in MODES:
            raise ValueError(f"unknown telemetry mode {mode!r}; "
                             f"choose from {MODES}")
        if mode == "off":
            raise ValueError("mode 'off' means no tracer; use make_tracer()")
        super().__init__()
        self.mode = mode
        self.rank = int(rank)
        self.max_events = int(max_events)
        self.counters: dict[str, float] = {}
        self.events: list[SpanEvent] = []
        self.events_dropped = 0
        self.epoch = now()
        self._depth = 0

    # -- counters -------------------------------------------------------

    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to the named counter (created at 0)."""
        self.counters[name] = self.counters.get(name, 0) + value

    # -- span hooks -----------------------------------------------------

    def _enter(self, name: str) -> float:
        self._depth += 1
        return now()

    def _exit(self, name: str, t0: float) -> None:
        t1 = now()
        self._depth -= 1
        self[name] = self.get(name, 0.0) + (t1 - t0)
        self.calls[name] = self.calls.get(name, 0) + 1
        if self.mode == "trace":
            if len(self.events) < self.max_events:
                self.events.append(
                    SpanEvent(name=name, start=t0 - self.epoch,
                              duration=t1 - t0, depth=self._depth)
                )
            else:
                self.events_dropped += 1

    # -- export ---------------------------------------------------------

    def snapshot(self, wall_seconds: float = 0.0) -> "MetricsSnapshot":
        """Returns this rank's :class:`MetricsSnapshot` (deep-copied dicts)."""
        return MetricsSnapshot(
            kernels=native.status(),
            mode=self.mode,
            rank=self.rank,
            ranks=1,
            wall_seconds=float(wall_seconds),
            phase_seconds=dict(self),
            phase_calls=dict(self.calls),
            counters=dict(self.counters),
            events_recorded=len(self.events),
            events_dropped=self.events_dropped,
        )


@dataclass
class MetricsSnapshot:
    """JSON-serializable metrics summary of one rank (or a whole run).

    ``rank`` is ``None`` for a merged snapshot; merged phase seconds are
    the per-rank *mean* (the same reduction as ``RunResult.timers``)
    while counters and call counts are summed across ranks, so counter
    totals are global quantities (total cell updates, total bytes).
    """

    mode: str
    rank: int | None
    ranks: int
    wall_seconds: float
    phase_seconds: dict[str, float] = field(default_factory=dict)
    phase_calls: dict[str, int] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)
    events_recorded: int = 0
    events_dropped: int = 0
    #: Which kernels produced the numbers (:func:`repro.native.status`
    #: when the snapshot was taken); of a merged snapshot, rank 0's.
    kernels: dict | None = None

    def to_dict(self) -> dict:
        """Returns a ``json.dumps``-ready dict of every field."""
        return {
            "mode": self.mode,
            "rank": self.rank,
            "ranks": self.ranks,
            "wall_seconds": self.wall_seconds,
            "phase_seconds": dict(self.phase_seconds),
            "phase_calls": dict(self.phase_calls),
            "counters": dict(self.counters),
            "events_recorded": self.events_recorded,
            "events_dropped": self.events_dropped,
            "kernels": dict(self.kernels) if self.kernels else None,
        }

    def modeled_flops(self) -> float:
        """Total FLOPs implied by the cell-update counters.

        Returns the analytic-model total (a float, FLOPs): counted cell
        updates priced with the per-cell FLOP costs of
        :mod:`repro.perf.kernels` (RHS 4400, DT 36, UP 28, FWT 27 per
        quantity) -- the same accounting basis as the paper's 11 PFLOP/s
        headline.
        """
        from ..perf.kernels import DT, FWT, RHS, UP

        c = self.counters
        return float(
            c.get("rhs_cell_updates", 0) * RHS.flops_per_cell
            + c.get("dt_cell_evals", 0) * DT.flops_per_cell
            + c.get("up_cell_updates", 0) * UP.flops_per_cell
            + c.get("fwt_cells", 0) * FWT.flops_per_cell
        )

    def modeled_flop_rate(self) -> float:
        """Modeled FLOP/s over the run wall time (0.0 if wall unknown)."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.modeled_flops() / self.wall_seconds

    @classmethod
    def merged(cls, snapshots: list["MetricsSnapshot"]) -> "MetricsSnapshot":
        """Returns the cross-rank reduction of per-rank snapshots.

        Phase seconds are averaged over the contributing ranks (matching
        the driver's ``RunResult.timers`` convention); calls, counters
        and event totals are summed; wall time is the rank maximum.
        """
        if not snapshots:
            raise ValueError("no snapshots to merge")
        phase_names: set[str] = set()
        for s in snapshots:
            phase_names.update(s.phase_seconds)
        n = len(snapshots)
        phase_seconds = {
            k: sum(s.phase_seconds.get(k, 0.0) for s in snapshots) / n
            for k in phase_names
        }
        phase_calls: dict[str, int] = {}
        counters: dict[str, float] = {}
        for s in snapshots:
            for k, v in s.phase_calls.items():
                phase_calls[k] = phase_calls.get(k, 0) + v
            for k, v in s.counters.items():
                counters[k] = counters.get(k, 0) + v
        return cls(
            mode=snapshots[0].mode,
            rank=None,
            ranks=sum(s.ranks for s in snapshots),
            wall_seconds=max(s.wall_seconds for s in snapshots),
            phase_seconds=phase_seconds,
            phase_calls=phase_calls,
            counters=counters,
            events_recorded=sum(s.events_recorded for s in snapshots),
            events_dropped=sum(s.events_dropped for s in snapshots),
            kernels=snapshots[0].kernels,
        )


def make_tracer(mode: str, rank: int = 0,
                max_events: int = DEFAULT_MAX_EVENTS) -> Tracer | None:
    """Returns a :class:`Tracer` for ``mode``, or ``None`` for ``"off"``.

    Returning ``None`` (rather than a no-op object) keeps the ``off``
    policy free of any per-step overhead: hook sites guard counter calls
    with a single ``if tracer is not None`` -- the same pattern as
    :func:`repro.analysis.sanitizer.make_sanitizer`.
    """
    if mode not in MODES:
        raise ValueError(f"unknown telemetry mode {mode!r}; "
                         f"choose from {MODES}")
    if mode == "off":
        return None
    return Tracer(mode=mode, rank=rank, max_events=max_events)

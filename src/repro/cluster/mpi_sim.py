"""The SPMD communicator protocol and its in-process (thread) transport.

The paper parallelizes across ranks with MPI (non-blocking point-to-point
halo exchange, global reductions for DT, an exclusive prefix sum for
parallel I/O offsets).  This module writes that API once, as the
*protocol* :class:`Communicator`, and provides its first *transport*:
:class:`SimWorld` runs each rank of the SPMD program as a thread of one
process and :class:`SimComm` moves frames through selective-receive
mailboxes.  NumPy releases the GIL inside kernels, so rank threads
genuinely overlap, and the control flow (Isend/Irecv + overlap of
interior computation with communication) is exercised exactly as on a
real cluster.  :mod:`repro.cluster.procs` is the second transport (rank
processes, shared-memory rings) under the same protocol.

The protocol owns the API, the traffic counters, the fault hook, the
deadlock watchdog and the collectives.  Every collective is one
dissemination exchange -- ``ceil(log2 P)`` rounds of *collective* frames,
which an application receive never matches -- then a rank-ordered left
fold over the complete contribution set: the same code, hence the same
bits, on both transports.

The API follows mpi4py conventions: lowercase methods communicate Python
objects, capitalized methods communicate NumPy arrays.

Deadlock safety: every blocking wait carries a timeout
(:data:`DEFAULT_TIMEOUT` seconds) and, instead of hanging the test
suite, raises :class:`DeadlockError` -- a :class:`CommTimeoutError`
carrying the deadlock watchdog's localized dump: every rank's pending
operation plus the transport's view of the unmatched messages.

Concurrency checking: a :class:`repro.analysis.concurrency.RaceTracker`
attached to the world (``SimWorld(..., tracker=...)``) receives
happens-before edges from the runtime -- every frame, collective rounds
included, piggybacks the sender's vector clock on :class:`_Message` --
and annotated accesses to the runtime's shared structures (mailboxes,
abort event, failure table).  With no tracker attached (the default),
every hook is one ``is None`` test.

Fault tolerance: when any rank thread dies, the world is *aborted* --
``MPI_Abort`` semantics -- so peers blocked in receives or collectives
wake immediately with :class:`WorldAbortError` instead of running out
their timeouts.  :class:`WorldError.primary_failures` separates the
original cause from the teardown aborts.  An optional fault injector
(:class:`repro.resilience.inject.FaultInjector`) hooks the
point-to-point send path for chaos testing (drops, delays, in-transit
corruption, transient failures).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from functools import reduce
from typing import Any, Callable

import numpy as np

#: Seconds a blocking receive/collective waits before declaring deadlock.
DEFAULT_TIMEOUT = 120.0

#: Wildcard for Recv source/tag matching.
ANY_SOURCE = -1
ANY_TAG = -1


class CommTimeoutError(RuntimeError):
    """A blocking communication did not complete within the timeout."""


class DeadlockError(CommTimeoutError):
    """A blocking wait timed out; carries the watchdog's localized dump.

    ``report`` holds each rank's pending operation and the transport's
    unmatched messages at the moment of the timeout.  Subclassing
    :class:`CommTimeoutError` keeps existing failure classification
    (resilience rollback treats it as a communication fault) working
    unchanged.
    """

    def __init__(self, message: str, report: str):
        self.report = report
        self._message = message
        super().__init__(f"{message}\n{report}")

    def __reduce__(self):
        # The two-argument __init__ breaks default exception pickling;
        # the procs backend ships these across the process boundary.
        return (DeadlockError, (self._message, self.report))


class WorldAbortError(RuntimeError):
    """The world was aborted because another rank failed (teardown)."""


class WorldError(RuntimeError):
    """One or more rank threads raised; carries the per-rank exceptions."""

    def __init__(self, failures: dict[int, BaseException]):
        self.failures = failures
        primary = self.primary_failures or failures
        msgs = "; ".join(f"rank {r}: {e!r}" for r, e in sorted(primary.items()))
        super().__init__(f"SPMD program failed on {len(failures)} rank(s): {msgs}")

    @property
    def primary_failures(self) -> dict[int, BaseException]:
        """Failures that caused the abort, excluding teardown aborts (dict)."""
        return {
            r: e for r, e in self.failures.items()
            if not isinstance(e, WorldAbortError)
        }


def pop_match(frames: list, source: int, tag: int, collective: bool):
    """Remove and return the first frame matching ``(source, tag)``, or None.

    The protocol's one matching rule: wildcards match any application
    frame, and collective frames only ever match a collective wait.
    """
    for i, frame in enumerate(frames):
        if (frame.collective == collective
                and source in (ANY_SOURCE, frame.source)
                and tag in (ANY_TAG, frame.tag)):
            return frames.pop(i)
    return None


class Request:
    """Handle for a non-blocking operation (mirrors ``MPI.Request``)."""

    def __init__(self, wait_fn: Callable[[float], Any]):
        self._wait_fn = wait_fn
        self._done = False
        self._value: Any = None

    def wait(self, timeout: float | None = None) -> Any:
        """Complete the operation; ``None`` defers to the world timeout."""
        if not self._done:
            self._value = self._wait_fn(timeout)
            self._done = True
        return self._value

    @staticmethod
    def waitall(requests: list["Request"], timeout: float | None = None) -> list[Any]:
        return [r.wait(timeout) for r in requests]


# Reduction operators usable with allreduce/exscan.  "max" and "min"
# carry a NaN from any rank to the result (``a != a``): the driver's
# divergence check reads the reduced value, not the local ones.
OPS: dict[str, Callable[[Any, Any], Any]] = {
    "sum": lambda a, b: a + b,
    "max": lambda a, b: a if a >= b or a != a else b,
    "min": lambda a, b: a if a <= b or a != a else b,
}


class Communicator:
    """The communicator protocol: one rank's view of an SPMD world.

    A transport subclass supplies five primitives and nothing else:

    * ``_deliver(dest, tag, payload, collective, op)`` -- hand one frame
      to ``dest`` (``op`` names it, should the transport have to wait);
    * ``_take(source, tag, collective, timeout)`` -- the payload of the
      first frame :func:`pop_match` accepts; raises
      :class:`CommTimeoutError` after ``timeout`` seconds and
      :class:`WorldAbortError` once the world is aborted;
    * ``_set_op(op)`` / ``_clear_op()`` -- publish / clear this rank's
      pending operation for the watchdog;
    * ``_report_lines()`` -- the transport's lines of the deadlock report.
    """

    #: Ranks share one address space here; the procs backend sets True.
    process_parallel = False

    def __init__(self, rank: int, size: int, timeout: float,
                 injector: Any = None, tracker: Any = None):
        self.rank = rank
        self.size = size
        self.timeout = timeout
        self.injector = injector
        #: optional :class:`repro.analysis.concurrency.RaceTracker`
        self.tracker = tracker
        #: Point-to-point traffic; collective frames are not counted.
        self.bytes_sent = 0
        self.messages_sent = 0
        self._gen = 0  #: collective sequence number (per rank)

    # -- the deadlock watchdog ---------------------------------------------

    def _watch(self, op: str, wait: Callable[..., Any], *args: Any,
               timeout: float | None = None) -> Any:
        """Run the blocking transport call ``wait(*args, timeout)``.

        ``op`` is this rank's pending operation meanwhile; a timeout
        becomes a :class:`DeadlockError` carrying the watchdog's report,
        a :class:`WorldAbortError` passes as it is.
        """
        self._set_op(op)
        try:
            return wait(*args, self.timeout if timeout is None else timeout)
        except CommTimeoutError as exc:
            report = "\n".join(["deadlock watchdog: pending operation per rank:",
                                *self._report_lines()])
            if self.tracker is not None:
                self.tracker.on_deadlock(
                    f"deadlock: rank {self.rank} timed out in {op} "
                    "(see DeadlockError report for the per-rank dump)",
                    site=f"runtime:rank{self.rank}",
                )
            raise DeadlockError(f"rank {self.rank}: {op} timed out",
                                report) from exc
        finally:
            self._clear_op()

    # -- point to point ---------------------------------------------------

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Buffered send: it never waits for the matching receive.

        With a fault injector attached, the payload passes through its
        transport hook first: it may be dropped, delayed, corrupted in
        transit, or fail with a (retryable) ``TransientCommError``.
        """
        if not 0 <= dest < self.size:
            raise ValueError(f"invalid destination rank {dest}")
        payload = obj
        if self.injector is not None:
            from ..resilience.inject import DROPPED

            payload = self.injector.on_send(self.rank, dest, payload)
            if payload is DROPPED:
                return
        # ndarray payloads and checksummed frames both expose ``nbytes``.
        self.bytes_sent += int(getattr(payload, "nbytes", 0))
        self.messages_sent += 1
        self._deliver(dest, tag, payload, False, f"send(dest={dest}, tag={tag})")

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
             timeout: float | None = None) -> Any:
        """Blocking selective receive; ``timeout=None`` uses the world
        timeout, after which the watchdog raises :class:`DeadlockError`."""
        return self._watch(f"recv(source={source}, tag={tag})", self._take,
                           source, tag, False, timeout=timeout)

    def isend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        self.send(obj, dest, tag)  # buffered: completes immediately
        return Request(lambda _t: None)

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        return Request(lambda t: self.recv(source, tag, timeout=t))

    # Uppercase aliases for NumPy arrays (mpi4py convention).
    Send = send
    Recv = recv
    Isend = isend
    Irecv = irecv

    # -- collectives --------------------------------------------------------

    def _gossip(self, value: Any, label: str) -> list[Any]:
        """Dissemination allgather: every rank's contribution, rank order.

        In round ``k`` rank ``r`` sends all it knows to ``r + 2**k`` and
        merges what ``r - 2**k`` knows, so after ``ceil(log2 P)`` rounds
        every rank knows every contribution -- and, through the frames'
        vector clocks, whatever any rank did before the collective
        happens before what every rank does after it.  Round frames are
        matched exactly by ``(source, gen, round)``: each pair's frames
        arrive in order and every rank runs collectives in program order.
        """
        gen = self._gen
        self._gen += 1
        known = {self.rank: value}
        for k in range((self.size - 1).bit_length()):
            dest = (self.rank + (1 << k)) % self.size
            src = (self.rank - (1 << k)) % self.size
            tag = (gen << 8) | k
            op = f"{label} (gen {gen}, round {k})"
            self._deliver(dest, tag, known, True, op)
            known.update(self._watch(op, self._take, src, tag, True))
        return [known[r] for r in range(self.size)]

    def barrier(self) -> None:
        self._gossip(None, "barrier")

    def allreduce(self, value: Any, op: str = "sum") -> Any:
        """Reduce scalars/arrays with ``op`` in ('sum', 'max', 'min').

        A left fold in rank order, so a float reduction is the same bits
        on every rank and on both transports.
        """
        return reduce(OPS[op], self._gossip(value, f"allreduce({op})"))

    def bcast(self, value: Any, root: int = 0) -> Any:
        return self._gossip(value if self.rank == root else None, "bcast")[root]

    def gather(self, value: Any, root: int = 0) -> list[Any] | None:
        values = self._gossip(value, "gather")
        return values if self.rank == root else None

    def allgather(self, value: Any) -> list[Any]:
        return self._gossip(value, "allgather")

    def exscan(self, value: Any, op: str = "sum") -> Any:
        """Exclusive prefix reduction (rank 0 receives the identity).

        This is the "exclusive prefix sum" the paper performs before the
        collective compressed-data write: each rank learns the file offset
        at which its buffer starts.
        """
        fn = OPS[op]
        values = self._gossip(value, f"exscan({op})")
        if self.rank:
            return reduce(fn, values[:self.rank])
        # Identity element: 0 for scalars, zeros for arrays.
        if isinstance(value, np.ndarray):
            return np.zeros_like(value)
        return type(value)(0)


@dataclass
class _Message:
    source: int
    tag: int
    payload: Any
    collective: bool = False
    #: sender's vector clock at send time (happens-before piggyback;
    #: None when no tracker is attached)
    clock: dict[int, int] | None = None


class _Mailbox:
    """Per-rank selective-receive message store.

    ``abort`` is the world's abort event: waiting receivers re-check it
    after every wakeup and raise :class:`WorldAbortError` so a dead
    rank's peers fail fast instead of timing out.
    """

    def __init__(self, abort: threading.Event):
        self._cv = threading.Condition(threading.Lock())
        self._messages: list[_Message] = []
        self._abort = abort

    def wake_for_abort(self) -> None:
        """Wake every waiting receiver (the abort event is already set)."""
        with self._cv:
            self._cv.notify_all()

    def put(self, msg: _Message) -> None:
        with self._cv:
            self._messages.append(msg)
            self._cv.notify_all()

    def get(self, source: int, tag: int, collective: bool,
            timeout: float) -> _Message:
        deadline = None
        with self._cv:
            while True:
                msg = pop_match(self._messages, source, tag, collective)
                if msg is not None:
                    return msg
                if self._abort.is_set():
                    raise WorldAbortError(
                        f"world aborted while waiting for Recv(source="
                        f"{source}, tag={tag})"
                    )
                if deadline is None:
                    deadline = time.monotonic() + timeout
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise CommTimeoutError(
                        f"Recv(source={source}, tag={tag}) timed out"
                    )
                self._cv.wait(remaining)

    def undelivered(self) -> list[tuple[int, int]]:
        """``(source, tag)`` of every buffered-but-unreceived application
        message."""
        with self._cv:
            return [(m.source, m.tag) for m in self._messages
                    if not m.collective]


class SimComm(Communicator):
    """The thread transport: one rank of a :class:`SimWorld`."""

    def __init__(self, world: "SimWorld", rank: int):
        super().__init__(rank, world.size, world.timeout, world.injector,
                         world.tracker)
        self._world = world

    def _deliver(self, dest: int, tag: int, payload: Any, collective: bool,
                 op: str) -> None:
        # The receiver must not see the sender's later writes: an array
        # is copied, a contribution set (its owner merges into it in
        # later rounds) snapshotted.
        if isinstance(payload, np.ndarray):
            payload = payload.copy()
        elif collective:
            payload = dict(payload)
        clock = None
        if self.tracker is not None:
            self.tracker.write(f"mailbox[{dest}]", self.rank,
                               locks=(f"mailbox[{dest}].cv",),
                               site="repro.cluster.mpi_sim:_Mailbox.put")
            clock = self.tracker.on_send(self.rank)
        self._world._mailboxes[dest].put(
            _Message(self.rank, tag, payload, collective, clock))

    def _take(self, source: int, tag: int, collective: bool,
              timeout: float) -> Any:
        msg = self._world._mailboxes[self.rank].get(source, tag, collective,
                                                    timeout)
        if self.tracker is not None:
            self.tracker.write(f"mailbox[{self.rank}]", self.rank,
                               locks=(f"mailbox[{self.rank}].cv",),
                               site="repro.cluster.mpi_sim:_Mailbox.get")
            self.tracker.on_deliver(self.rank, msg.clock)
        return msg.payload

    def _set_op(self, op: str) -> None:
        with self._world._pending_lock:
            self._world._pending[self.rank] = op

    def _clear_op(self) -> None:
        with self._world._pending_lock:
            self._world._pending.pop(self.rank, None)

    def _report_lines(self) -> list[str]:
        """Every rank's pending operation and the unmatched edge set --
        messages buffered in any mailbox that no receive has consumed.
        An empty edge set under a stuck receive means the matching send
        was never posted (or was dropped)."""
        world = self._world
        with world._pending_lock:
            pending = dict(world._pending)
        lines = [f"  rank {r}: {pending.get(r, 'not blocked in comm')}"
                 for r in range(self.size)]
        lines.append("unmatched edges (sent but never received):")
        edges = [
            f"  (source={src}, tag={tag}) -> rank {r} buffered, unconsumed"
            for r, box in enumerate(world._mailboxes)
            for src, tag in box.undelivered()
        ]
        return lines + (edges or ["  none (the matching send was never posted)"])


class SimWorld:
    """A set of ranks executing an SPMD program on threads.

    Usage::

        world = SimWorld(size=8)
        results = world.run(main)          # main(comm, *args) per rank

    ``run`` returns the per-rank return values (rank order) and re-raises
    rank failures as :class:`WorldError`.
    """

    def __init__(self, size: int, timeout: float = DEFAULT_TIMEOUT,
                 injector: Any | None = None, tracker: Any | None = None):
        if size < 1:
            raise ValueError("world size must be >= 1")
        self.size = size
        self.timeout = timeout
        self.injector = injector
        #: optional :class:`repro.analysis.concurrency.RaceTracker`
        #: (None = no concurrency checking, zero overhead)
        self.tracker = tracker
        self._abort = threading.Event()
        self._mailboxes = [_Mailbox(self._abort) for _ in range(size)]
        # Deadlock watchdog state: the blocking operation each rank is
        # currently parked in (always maintained; two locked dict ops
        # per blocking call).
        self._pending_lock = threading.Lock()
        self._pending: dict[int, str] = {}

    def comm(self, rank: int) -> SimComm:
        return SimComm(self, rank)

    def _signal_abort(self, rank: int | None = None) -> None:
        """MPI_Abort analogue: wake every blocked rank with WorldAbortError.

        Called when any rank fails; without it, surviving ranks would sit
        in recv/collective waits until their timeout expires.  ``rank``
        (when known) attributes the abort-event write for the tracker.
        """
        if self.tracker is not None and rank is not None:
            self.tracker.write("world.abort", rank, locks=("abort.event",),
                               site="repro.cluster.mpi_sim:SimWorld._signal_abort")
        self._abort.set()
        for box in self._mailboxes:
            box.wake_for_abort()

    def run(self, main: Callable[..., Any], *args: Any) -> list[Any]:
        results: list[Any] = [None] * self.size
        failures: dict[int, BaseException] = {}
        # Rank threads can fail concurrently; the lock orders the shared
        # failure-table mutation (``results`` needs none: each rank owns
        # its slot).
        failures_lock = threading.Lock()

        def runner(rank: int) -> None:
            try:
                # Each rank owns its slot: disjoint indices, no lock needed.
                results[rank] = main(self.comm(rank), *args)  # lint: disable=CL011
            except BaseException as exc:  # noqa: BLE001 - reported below  # lint: disable=CL005
                if self.tracker is not None:
                    self.tracker.write(
                        "world.failures", rank,
                        locks=("world.failures.lock",),
                        site="repro.cluster.mpi_sim:SimWorld.run",
                    )
                with failures_lock:
                    failures[rank] = exc
                self._signal_abort(rank)

        if self.size == 1:
            # Fast path: no threads for single-rank runs.
            runner(0)
        else:
            threads = [
                threading.Thread(target=runner, args=(r,), name=f"rank-{r}")
                for r in range(self.size)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        if failures:
            raise WorldError(failures)
        return results

"""In-process SPMD communicator: the cluster layer's MPI substitute.

The paper parallelizes across ranks with MPI (non-blocking point-to-point
halo exchange, global reductions for DT, an exclusive prefix sum for
parallel I/O offsets).  This module provides the same API surface executed
by *threads inside one process* -- each rank runs the same SPMD program in
its own thread, point-to-point messages travel through selective-receive
mailboxes and collectives synchronize through generation-counted
rendezvous.  NumPy releases the GIL inside kernels, so rank threads
genuinely overlap, and the control flow (Isend/Irecv + overlap of interior
computation with communication) is exercised exactly as on a real cluster.

The API follows mpi4py conventions: lowercase methods communicate Python
objects, capitalized methods communicate NumPy arrays.

Deadlock safety: every blocking wait carries a timeout
(:data:`DEFAULT_TIMEOUT` seconds) and, instead of hanging the test
suite, raises :class:`DeadlockError` -- a :class:`CommTimeoutError`
carrying the deadlock watchdog's localized dump: every rank's pending
operation plus the unmatched edge set (messages sent but never
received).

Concurrency checking: a :class:`repro.analysis.concurrency.RaceTracker`
attached to the world (``SimWorld(..., tracker=...)``) receives
happens-before edges from the runtime -- message sends piggyback the
sender's vector clock on :class:`_Message`, collectives join the clocks
of all participants -- and annotated accesses to the runtime's shared
structures (mailboxes, rendezvous scratch, abort event, failure table).
With no tracker attached (the default), every hook is one ``is None``
test.

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
from dataclasses import dataclass
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

    ``report`` holds :meth:`SimWorld.deadlock_report`: each rank's
    pending operation and the unmatched edge set at the moment of the
    timeout.  Subclassing :class:`CommTimeoutError` keeps existing
    failure classification (resilience rollback treats it as a
    communication fault) working unchanged.
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


@dataclass
class _Message:
    source: int
    tag: int
    payload: Any
    #: sender's vector clock at send time (happens-before piggyback;
    #: None when no tracker is attached)
    clock: dict[int, int] | None = None


class _Mailbox:
    """Per-rank selective-receive message store.

    ``abort`` is the world's abort event: waiting receivers re-check it
    after every wakeup and raise :class:`WorldAbortError` so a dead
    rank's peers fail fast instead of timing out.
    """

    def __init__(self, abort: threading.Event | None = None):
        self._lock = threading.Lock()
        self._cv = threading.Condition(self._lock)
        self._messages: list[_Message] = []
        self._abort = abort or threading.Event()

    def wake_for_abort(self) -> None:
        """Wake every waiting receiver (the abort event is already set)."""
        with self._cv:
            self._cv.notify_all()

    def put(self, msg: _Message) -> None:
        with self._cv:
            self._messages.append(msg)
            self._cv.notify_all()

    def _match(self, source: int, tag: int) -> _Message | None:
        for i, msg in enumerate(self._messages):
            if source not in (ANY_SOURCE, msg.source):
                continue
            if tag not in (ANY_TAG, msg.tag):
                continue
            return self._messages.pop(i)
        return None

    def get(self, source: int, tag: int, timeout: float) -> _Message:
        import time

        deadline = None
        with self._cv:
            while True:
                msg = self._match(source, tag)
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

    def poll(self, source: int, tag: int) -> _Message | None:
        with self._cv:
            return self._match(source, tag)

    def undelivered(self) -> list[tuple[int, int]]:
        """``(source, tag)`` of every buffered-but-unreceived message."""
        with self._cv:
            return [(m.source, m.tag) for m in self._messages]


class _Rendezvous:
    """Generation-counted collective rendezvous.

    Each rank calls :meth:`contribute` with its sequence number (ranks of
    an SPMD program execute collectives in identical order, so sequence
    numbers line up).  The last contributor applies the combiner and wakes
    everybody; results are reference-counted away afterwards.
    """

    def __init__(self, size: int, abort: threading.Event | None = None):
        self.size = size
        self._lock = threading.Lock()
        self._cv = threading.Condition(self._lock)
        self._contrib: dict[int, dict[int, Any]] = {}
        self._results: dict[int, Any] = {}
        self._reads: dict[int, int] = {}
        self._abort = abort or threading.Event()

    def wake_for_abort(self) -> None:
        """Wake every waiting contributor (the abort event is already set)."""
        with self._cv:
            self._cv.notify_all()

    def contribute(
        self,
        gen: int,
        rank: int,
        value: Any,
        combiner: Callable[[dict[int, Any]], Any],
        timeout: float,
    ) -> Any:
        import time

        with self._cv:
            slot = self._contrib.setdefault(gen, {})
            if rank in slot:
                raise RuntimeError(f"rank {rank} contributed twice to gen {gen}")
            slot[rank] = value
            if len(slot) == self.size:
                self._results[gen] = combiner(slot)
                self._reads[gen] = 0
                self._cv.notify_all()
            deadline = time.monotonic() + timeout
            while gen not in self._results:
                if self._abort.is_set():
                    raise WorldAbortError(
                        f"world aborted while waiting in collective gen {gen}"
                    )
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    missing = self.size - len(self._contrib.get(gen, {}))
                    raise CommTimeoutError(
                        f"collective gen {gen} timed out waiting for "
                        f"{missing} rank(s)"
                    )
                self._cv.wait(remaining)
            result = self._results[gen]
            self._reads[gen] += 1
            if self._reads[gen] == self.size:
                del self._results[gen]
                del self._reads[gen]
                del self._contrib[gen]
        return result


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


class SimComm:
    """Communicator bound to one rank of a :class:`SimWorld`."""

    #: Ranks share one address space here; the procs backend sets True.
    process_parallel = False

    def __init__(self, world: "SimWorld", rank: int):
        self._world = world
        self.rank = rank
        self.size = world.size
        self._gen = 0  #: collective sequence number (per rank)
        #: Bytes moved through point-to-point sends (traffic accounting).
        self.bytes_sent = 0
        self.messages_sent = 0

    # -- point to point ---------------------------------------------------

    def _payload_bytes(self, obj: Any) -> int:
        # ndarray payloads and checksummed frames both expose ``nbytes``.
        return int(getattr(obj, "nbytes", 0))

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Blocking-API send (delivery is buffered, so it never blocks).

        With a fault injector attached to the world, the payload passes
        through its transport hook first: it may be dropped, delayed,
        corrupted in transit, or fail with a (retryable)
        ``TransientCommError``.
        """
        if not 0 <= dest < self.size:
            raise ValueError(f"invalid destination rank {dest}")
        payload = obj.copy() if isinstance(obj, np.ndarray) else obj
        injector = self._world.injector
        if injector is not None:
            from ..resilience.inject import DROPPED

            payload = injector.on_send(self.rank, dest, payload)
            if payload is DROPPED:
                return
        self.bytes_sent += self._payload_bytes(payload)
        self.messages_sent += 1
        tracker = self._world.tracker
        clock = None
        if tracker is not None:
            tracker.write(f"mailbox[{dest}]", self.rank,
                          locks=(f"mailbox[{dest}].cv",),
                          site="repro.cluster.mpi_sim:_Mailbox.put")
            clock = tracker.on_send(self.rank)
        self._world._mailboxes[dest].put(_Message(self.rank, tag, payload, clock))

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
             timeout: float | None = None) -> Any:
        """Blocking receive; ``timeout=None`` uses the world timeout.

        A plain timeout is upgraded by the deadlock watchdog into a
        :class:`DeadlockError` carrying every rank's pending operation
        and the unmatched edge set.
        """
        world = self._world
        if timeout is None:
            timeout = world.timeout
        op = f"recv(source={source}, tag={tag})"
        world._set_pending(self.rank, op)
        try:
            msg = world._mailboxes[self.rank].get(source, tag, timeout)
        except DeadlockError:
            raise
        except CommTimeoutError as exc:
            raise world._deadlock_error(self.rank, op) from exc
        finally:
            world._clear_pending(self.rank)
        tracker = world.tracker
        if tracker is not None:
            tracker.write(f"mailbox[{self.rank}]", self.rank,
                          locks=(f"mailbox[{self.rank}].cv",),
                          site="repro.cluster.mpi_sim:_Mailbox.get")
            tracker.on_deliver(self.rank, msg.clock)
        return msg.payload

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

    def _collective(self, value: Any, combiner, label: str = "collective") -> Any:
        gen = self._gen
        self._gen += 1
        world = self._world
        tracker = world.tracker
        use_combiner = combiner
        if tracker is not None:
            tracker.write("rendezvous.scratch", self.rank,
                          locks=("rendezvous.cv",),
                          site="repro.cluster.mpi_sim:_Rendezvous.contribute")
            value = (value, tracker.on_collective_enter(self.rank))

            def wrapped(slot: dict[int, Any]) -> Any:
                inner = {r: vc[0] for r, vc in slot.items()}
                return combiner(inner), [vc[1] for vc in slot.values()]

            use_combiner = wrapped
        op = f"{label} (gen {gen})"
        world._set_pending(self.rank, op)
        try:
            result = world._rendezvous.contribute(
                gen, self.rank, value, use_combiner, world.timeout
            )
        except DeadlockError:
            raise
        except CommTimeoutError as exc:
            raise world._deadlock_error(self.rank, op) from exc
        finally:
            world._clear_pending(self.rank)
        if tracker is not None:
            result, clocks = result
            tracker.on_collective_exit(self.rank, clocks)
        return result

    def barrier(self) -> None:
        self._collective(None, lambda slot: True, label="barrier")

    def allreduce(self, value: Any, op: str = "sum") -> Any:
        """Reduce scalars/arrays with ``op`` in ('sum', 'max', 'min')."""
        fn = OPS[op]

        def combiner(slot: dict[int, Any]) -> Any:
            acc = None
            for r in sorted(slot):
                acc = slot[r] if acc is None else fn(acc, slot[r])
            return acc

        return self._collective(value, combiner, label=f"allreduce({op})")

    def bcast(self, value: Any, root: int = 0) -> Any:
        return self._collective(
            value if self.rank == root else None,
            lambda slot: slot[root],
            label="bcast",
        )

    def gather(self, value: Any, root: int = 0) -> list[Any] | None:
        result = self._collective(
            value, lambda slot: [slot[r] for r in sorted(slot)], label="gather"
        )
        return result if self.rank == root else None

    def allgather(self, value: Any) -> list[Any]:
        return self._collective(
            value, lambda slot: [slot[r] for r in sorted(slot)],
            label="allgather",
        )

    def exscan(self, value: Any, op: str = "sum") -> Any:
        """Exclusive prefix reduction (rank 0 receives the identity).

        This is the "exclusive prefix sum" the paper performs before the
        collective compressed-data write: each rank learns the file offset
        at which its buffer starts.
        """
        fn = OPS[op]

        def combiner(slot: dict[int, Any]) -> list[Any]:
            out: list[Any] = []
            acc = None
            for r in sorted(slot):
                out.append(acc)
                acc = slot[r] if acc is None else fn(acc, slot[r])
            return out

        per_rank = self._collective(value, combiner, label=f"exscan({op})")
        result = per_rank[self.rank]
        if result is None:
            # Identity element: 0 for scalars, zeros for arrays.
            if isinstance(value, np.ndarray):
                return np.zeros_like(value)
            return type(value)(0)
        return result


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
        self._rendezvous = _Rendezvous(size, self._abort)
        # Deadlock watchdog state: the blocking operation each rank is
        # currently parked in (always maintained; two locked dict ops
        # per blocking call).
        self._pending_lock = threading.Lock()
        self._pending: dict[int, str] = {}

    def comm(self, rank: int) -> SimComm:
        return SimComm(self, rank)

    def _set_pending(self, rank: int, op: str) -> None:
        with self._pending_lock:
            self._pending[rank] = op

    def _clear_pending(self, rank: int) -> None:
        with self._pending_lock:
            self._pending.pop(rank, None)

    def deadlock_report(self) -> str:
        """Localized watchdog dump of the current wait state (str).

        Lists the blocking operation each rank is parked in and the
        unmatched edge set -- messages buffered in a mailbox that no
        receive has consumed.  An empty edge set under a stuck receive
        means the matching send was never posted (or was dropped).
        """
        with self._pending_lock:
            pending = dict(self._pending)
        lines = ["deadlock watchdog: pending operation per rank:"]
        for r in range(self.size):
            lines.append(f"  rank {r}: {pending.get(r, 'not blocked in comm')}")
        lines.append("unmatched edges (sent but never received):")
        edges = [
            f"  (source={src}, tag={tag}) -> rank {r} buffered, unconsumed"
            for r, box in enumerate(self._mailboxes)
            for src, tag in box.undelivered()
        ]
        lines.extend(edges or ["  none (the matching send was never posted)"])
        return "\n".join(lines)

    def _deadlock_error(self, rank: int, op: str) -> DeadlockError:
        """Build the watchdog's :class:`DeadlockError` for a timed-out op."""
        report = self.deadlock_report()
        if self.tracker is not None:
            self.tracker.on_deadlock(
                f"deadlock: rank {rank} timed out in {op} "
                "(see DeadlockError report for the per-rank dump)",
                site=f"runtime:rank{rank}",
            )
        return DeadlockError(f"rank {rank}: {op} timed out", report)

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
        self._rendezvous.wake_for_abort()

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

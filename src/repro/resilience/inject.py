"""Runtime fault injection: the chaos engine arming a :class:`FaultPlan`.

One :class:`FaultInjector` is shared by every rank thread of a
:class:`~repro.cluster.mpi_sim.SimWorld`, and one is the ledger of a
supervised run's whole lineage of attempts: each attempt runs a clone
of it (:func:`repro.resilience.recover.resume`) whose consumed hits and
counters fold back.  That persistence is what makes recovery testable: a
``max_hits``-bounded crash consumed on attempt 1 does not fire again
after the rollback, exactly like a real node loss.

The injector doubles as the campaign's resilience monitor: thread-safe
``counters`` accumulate injected/detected/recovered totals per fault
kind plus bookkeeping the scorecard reports (dumps skipped, checkpoint
bytes written, comm retries).  An injector armed with an empty plan is a
valid pure monitor.

Injection sites (see ``docs/resilience.md`` for the taxonomy):

* :meth:`at_step` -- driver step loop: ``rank_crash`` / ``straggler``
  (a crash is raised in the rank it names, whatever the backend);
* :meth:`on_send` -- communicator point-to-point path:
  ``comm_transient`` / ``msg_drop`` / ``msg_delay`` / ``msg_corrupt``;
* :meth:`io_fails` -- dump and checkpoint writers: ``io_fail``;
* :meth:`corrupt_checkpoint_payload` -- checkpoint writer:
  ``ckpt_bitflip``.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import replace

import numpy as np

from .detect import HaloFrame
from .plan import FaultPlan, FaultSpec

#: Sentinel returned by :meth:`FaultInjector.on_send` for dropped
#: messages (``None`` is a legitimate payload).
DROPPED = object()


class InjectedFault(RuntimeError):
    """Base class of all injector-raised faults."""


class InjectedRankCrash(InjectedFault):
    """An injected rank loss at a step boundary (a thread rank dies of
    it; a process rank turns it into a ``SIGKILL`` of itself)."""

    kind = "rank_crash"


class TransientCommError(InjectedFault):
    """A transient point-to-point failure; retry with backoff."""


class InjectedIOError(InjectedFault, OSError):
    """An injected storage write failure."""


#: Counters that hold a level, not a count: a merge takes the child's
#: value instead of adding it.
GAUGES = frozenset({"ckpt_generation_bytes", "ckpt_generations_kept",
                    "last_rejected_step", "recovery_attempts"})


class FaultInjector:
    """Arms a :class:`FaultPlan`; consulted at the injection sites.

    Thread-safe: rank threads share one instance.  Probabilistic specs
    draw from per-spec ``random.Random`` streams seeded by
    ``(plan.seed, spec_index)`` so a plan replays identically regardless
    of rank interleaving *per spec*.
    """

    def __init__(self, plan: FaultPlan | None = None):
        self.plan = plan or FaultPlan()
        self._lock = threading.Lock()
        self._hits = [0] * len(self.plan.faults)
        self._rngs = [
            random.Random(f"{self.plan.seed}:{i}")
            for i in range(len(self.plan.faults))
        ]
        self._flip_rng = random.Random(f"{self.plan.seed}:bitflip")
        self._draws = [1] * len(self.plan.faults)  #: see world_clone
        self._steps: dict[int, int] = {}  #: rank -> current 1-based step
        self.counters: dict[str, float] = {}
        #: Optional ``fn(rank, step)`` called on :meth:`begin_step` --
        #: the procs backend and the service workers publish step
        #: heartbeats through it.
        self.step_listener = None

    # -- cross-process support (the procs cluster backend) ---------------

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["_lock"]          # not picklable; recreated on load
        state["step_listener"] = None  # process-local callback
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def child_clone(self) -> "FaultInjector":
        """A child injector sharing this plan (FaultInjector).

        The clone starts from the parent's *current* consumed-hit state
        (so hits spent on earlier relaunch attempts stay spent) and
        probabilistic streams (so a process rank draws what a thread
        rank sharing this injector would), with zeroed counters -- the
        child reports counter *deltas* the parent folds back via
        :meth:`merge_child`.  Rank processes run :meth:`world_clone`.
        """
        clone = FaultInjector(self.plan)
        with self._lock:
            clone._hits = list(self._hits)
            for mine, theirs in zip(clone._rngs, self._rngs):
                mine.setstate(theirs.getstate())
            clone._flip_rng.setstate(self._flip_rng.getstate())
        return clone

    def world_clone(self, size: int) -> "FaultInjector":
        """The clone each rank process of a ``size``-rank world runs.

        A ``rank_crash`` naming no rank would fire in every process's
        copy; here rank 0 alone holds it and draws it for all ``size``
        ranks a step, as the thread ranks' shared injector spends it.
        """
        clone = self.child_clone()
        held = [s.kind == "rank_crash" and s.rank is None
                for s in self.plan.faults]
        clone.plan = FaultPlan(self.plan.seed, [
            replace(s, rank=0) if h else s
            for s, h in zip(self.plan.faults, held)])
        clone._draws = [size if h else 1 for h in held]
        return clone

    def merge_child(self, counters: dict, hits: list) -> None:
        """Fold a child injector's ledger back into this one.

        Counter values add (they are deltas), :data:`GAUGES` take the
        child's value; consumed-hit counts take the elementwise max (the
        child saw a superset of the parent's state for the specs it
        armed).
        """
        with self._lock:
            for name, value in counters.items():
                if name not in GAUGES:
                    value += self.counters.get(name, 0)
                self.counters[name] = value
            for i, h in enumerate(hits[:len(self._hits)]):
                if h > self._hits[i]:
                    self._hits[i] = h

    def hit_state(self) -> list[int]:
        """Snapshot of per-spec consumed hits (list of int)."""
        with self._lock:
            return list(self._hits)

    def reseed(self, salt) -> None:
        """Re-derive the probabilistic fault streams for a retry attempt.

        A retried job must not deterministically refire the same
        probabilistic faults: each spec's RNG stream (and the bit-flip
        stream) is re-derived from ``(plan.seed, spec index, salt)``.
        Consumed-hit state is preserved -- ``max_hits``-bounded faults
        stay spent -- and the physics seed (which lives in the request,
        not the plan) is untouched, so the *result* of the retry is
        still bit-identical to a fault-free run.
        """
        with self._lock:
            self._rngs = [
                random.Random(f"{self.plan.seed}:{i}:retry{salt}")
                for i in range(len(self.plan.faults))
            ]
            self._flip_rng = random.Random(
                f"{self.plan.seed}:bitflip:retry{salt}"
            )

    def fire(self, kind: str, rank: int, step: int | None,
             target: str | None = None) -> bool:
        """Public firing check: consume a matching armed spec (bool).

        Used by the job service to spend a stall it punished with a
        timeout kill (the worker's own ledger dies with it).
        """
        return self._fires(kind, rank, step, target=target) is not None

    # -- bookkeeping ------------------------------------------------------

    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to the named resilience counter (created at 0)."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def set_counter(self, name: str, value: float) -> None:
        """Overwrite the named counter (gauge semantics)."""
        with self._lock:
            self.counters[name] = value

    def detected(self, kind: str, n: float = 1) -> None:
        """Record ``n`` detections of faults of ``kind``."""
        self.count(f"detected_{kind}", n)

    def recovered(self, kind: str, n: float = 1) -> None:
        """Record ``n`` recoveries from faults of ``kind``."""
        self.count(f"recovered_{kind}", n)

    def injected(self, kind: str) -> float:
        """Total injected faults of ``kind`` so far (float)."""
        with self._lock:
            return self.counters.get(f"injected_{kind}", 0)

    def begin_step(self, rank: int, step: int) -> None:
        """Record the 1-based step ``rank`` is about to compute."""
        with self._lock:
            self._steps[rank] = step
        if self.step_listener is not None:
            self.step_listener(rank, step)

    def current_step(self, rank: int) -> int | None:
        """The step ``rank`` last announced, or None (int | None)."""
        with self._lock:
            return self._steps.get(rank)

    # -- core firing logic ------------------------------------------------

    def _armed(self, i: int, kind: str, rank: int, step: int | None) -> bool:
        """Whether spec ``i`` is of ``kind``, names ``(rank, step)`` and
        has hits left (bool; call with the lock held)."""
        spec = self.plan.faults[i]
        return (spec.kind == kind and spec.matches(rank, step)
                and not (spec.max_hits and self._hits[i] >= spec.max_hits))

    def _fires(self, kind: str, rank: int, step: int | None,
               target: str | None = None) -> FaultSpec | None:
        """The first armed spec firing at this site, or None (FaultSpec).

        Firing consumes one of the spec's ``max_hits`` and increments
        the ``injected_<kind>`` counter, once per rank the spec is drawn
        for (:meth:`world_clone`).
        """
        with self._lock:
            for i, spec in enumerate(self.plan.faults):
                if target is not None and spec.target != target:
                    continue
                fired = 0
                for _ in range(self._draws[i]):
                    if not self._armed(i, kind, rank, step):
                        break
                    if spec.probability < 1.0 and \
                            self._rngs[i].random() >= spec.probability:
                        continue
                    self._hits[i] += 1
                    fired += 1
                if fired:
                    self.counters[f"injected_{kind}"] = \
                        self.counters.get(f"injected_{kind}", 0) + fired
                    return spec
        return None

    # -- injection sites --------------------------------------------------

    def at_step(self, rank: int, step: int) -> None:
        """Driver hook at the top of each step: crash or straggle.

        Raises :class:`InjectedRankCrash` for an armed ``rank_crash``;
        sleeps for an armed ``straggler`` (absorbed faults count as
        detected and recovered immediately).  The crash is raised in the
        rank it names, on every backend: a process rank
        (:mod:`repro.cluster.procs`) turns it into a real ``SIGKILL`` of
        itself, after sending this ledger home.
        """
        self.begin_step(rank, step)
        spec = self._fires("straggler", rank, step)
        if spec is not None:
            time.sleep(spec.delay)
            self.detected("straggler")
            self.recovered("straggler")
        if self._fires("rank_crash", rank, step) is not None:
            raise InjectedRankCrash(
                f"injected crash of rank {rank} at step {step}"
            )

    def on_send(self, rank: int, dest: int, payload):
        """Communicator hook on every point-to-point send.

        Returns the (possibly corrupted) payload to deliver, or
        :data:`DROPPED`.  Raises :class:`TransientCommError` for an
        armed ``comm_transient`` (the halo layer retries with backoff).
        """
        step = self.current_step(rank)
        if self._fires("comm_transient", rank, step) is not None:
            raise TransientCommError(
                f"injected transient send failure rank {rank} -> {dest}"
            )
        if self._fires("msg_drop", rank, step) is not None:
            return DROPPED
        spec = self._fires("msg_delay", rank, step)
        if spec is not None:
            time.sleep(spec.delay)
            self.detected("msg_delay")
            self.recovered("msg_delay")
        if self._fires("msg_corrupt", rank, step) is not None:
            payload = self._flip_bit(payload)
        return payload

    def io_fails(self, rank: int, target: str, step: int | None = None) -> bool:
        """Whether an armed ``io_fail`` hits this write (bool)."""
        if step is None:
            step = self.current_step(rank)
        return self._fires("io_fail", rank, step, target=target) is not None

    def corrupt_checkpoint_payload(self, rank: int, step: int,
                                   payload: bytes) -> bytes:
        """Returns the payload, bit-flipped if ``ckpt_bitflip`` fires (bytes)."""
        if self._fires("ckpt_bitflip", rank, step) is None:
            return payload
        buf = bytearray(payload)
        with self._lock:
            pos = self._flip_rng.randrange(len(buf))
            bit = self._flip_rng.randrange(8)
        buf[pos] ^= 1 << bit
        return bytes(buf)

    def _flip_bit(self, payload):
        """One-bit corruption of an array-ish payload (same type back)."""
        arr = payload.payload if isinstance(payload, HaloFrame) else payload
        if not isinstance(arr, np.ndarray) or arr.nbytes == 0:
            return payload
        flat = np.ascontiguousarray(arr).view(np.uint8).reshape(-1).copy()
        with self._lock:
            pos = self._flip_rng.randrange(flat.size)
            bit = self._flip_rng.randrange(8)
        flat[pos] ^= np.uint8(1 << bit)
        corrupted = flat.view(arr.dtype).reshape(arr.shape)
        if isinstance(payload, HaloFrame):
            return HaloFrame(crc=payload.crc, payload=corrupted)
        return corrupted

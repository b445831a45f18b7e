"""Supervised worker pool: real processes computing simulation jobs.

Each worker is one OS process (``multiprocessing`` spawn, the procs
cluster backend's discipline) reading tasks from a one-way pipe and
writing results to another; the parent holds the far ends only, so EOF
on a worker's result pipe *is* its death and arrives after every byte
it ever sent.  While a job runs the worker publishes a heartbeat --
``(job seq, rank, step, beat time)`` in a shared array -- through two
channels:

* one *ticker* thread per process, beating every 100 ms while a job
  runs and parked otherwise (process liveness, covering jobs whose rank
  progress happens in grandchild processes under the procs backend);
* the fault injector's ``step_listener`` (rank/step progress: the
  health snapshot's ``hb_step`` and the step a timed-out job's stall is
  spent at).

A job's faults fire inside the worker, a ``rank_crash`` as an exception
of the rank it names (or, under the procs backend, that rank process's
own ``SIGKILL``).  A worker never decides retry policy: it classifies
its failure by the one taxonomy (:func:`repro.exitcodes.classify`),
ships the fault ledger (counter deltas + consumed-hit state) home, and
lets the engine decide.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from dataclasses import dataclass

import numpy as np

#: Heartbeat array slots (doubles in a shared Array).
HB_SEQ, HB_RANK, HB_STEP, HB_BEAT, HB_BUSY = range(5)
HB_SLOTS = 5


def result_payload(result) -> dict:
    """The cacheable result payload of a completed run (dict).

    Bit-stable by construction: the final field and diagnostics series
    come straight from the deterministic solver.  A run resumed from a
    checkpoint reports the resumed tail of the series
    (``first_recorded_step`` marks where it starts); its final field is
    bit-identical to an uninterrupted run's.
    """
    recs = result.records
    diag = [r for r in recs if r.diagnostics is not None]
    return {
        "schema": "repro.job_result/v1",
        "final_field": result.final_field,
        "steps": np.asarray([r.step for r in recs], dtype=np.int64),
        "times": np.asarray([r.time for r in recs]),
        "dts": np.asarray([r.dt for r in recs]),
        "first_recorded_step": int(recs[0].step) if recs else 0,
        "series": {
            name: np.asarray([getattr(r.diagnostics, name) for r in diag])
            for name in ("max_pressure", "wall_max_pressure",
                         "kinetic_energy", "vapor_volume",
                         "equivalent_radius")
        },
        "wall_seconds": float(result.wall_seconds),
    }


def _run_task(task: dict, injector) -> dict:
    """Execute one job task inside the worker process; returns payload."""
    from dataclasses import replace

    from ..cluster.driver import Simulation
    from .request import JobRequest

    request = JobRequest.from_payload(task["request"])
    cfg = replace(
        request.config,
        # Service-managed I/O: per-job checkpoint lineage for retry
        # resume, no dumps, no observability objects in the hot loop.
        checkpoint_interval=task.get("checkpoint_interval", 0),
        checkpoint_dir=task.get("checkpoint_dir", "."),
        checkpoint_keep=0,
        collect_final_field=True,
        dump_interval=0,
        telemetry="off",
        flight_out=None,
        progress_interval=0,
    )
    sim = Simulation(cfg, request.ic.build(),
                     restart_from=task.get("restart_from"),
                     injector=injector)
    return result_payload(sim.run())


def worker_main(worker_id: int, task_r, result_w, hb) -> None:
    """Process entry point: loop over tasks until the stop sentinel.

    Each result tuple is ``(job_seq, status, body, counter_deltas,
    hit_state, (received, run_done))`` -- the fault ledger rides along
    so the engine can merge consumed hits even for failed attempts (a
    retry must not refire a consumed transient fault); the two stamps
    are ``time.monotonic()``, host-wide on Linux, for the engine's
    stage record.
    """
    # Everything a task runs is imported here, at spawn, not in the
    # first task (and nothing the worker does not run: see
    # docs/ARCHITECTURE.md, "What a process imports").
    from ..cluster import driver  # noqa: F401
    from ..resilience.inject import FaultInjector

    busy = threading.Event()

    def tick() -> None:
        while True:
            busy.wait()
            time.sleep(0.1)
            with hb.get_lock():
                if hb[HB_BUSY]:
                    hb[HB_BEAT] = time.monotonic()

    threading.Thread(target=tick, name=f"hb-{worker_id}",
                     daemon=True).start()

    def on_step(rank: int, step: int) -> None:
        with hb.get_lock():
            hb[HB_RANK] = float(rank)
            hb[HB_STEP] = float(step)
            hb[HB_BEAT] = time.monotonic()

    while True:
        task = task_r.recv()
        if task is None:
            break
        received = time.monotonic()
        seq = task["seq"]
        injector = task.get("injector") or FaultInjector()
        with hb.get_lock():
            hb[HB_SEQ] = float(seq)
            hb[HB_RANK] = 0.0
            hb[HB_STEP] = 0.0
            hb[HB_BEAT] = received
            hb[HB_BUSY] = 1.0
        busy.set()
        injector.step_listener = on_step
        try:
            payload = _run_task(task, injector)
            status, body = "ok", payload
        except BaseException as exc:  # lint: disable=CL005 -- ships home as data
            from ..exitcodes import classify

            status = "fail"
            body = {"kind": classify(exc)[0], "cause": repr(exc)[:2000]}
        finally:
            busy.clear()
            with hb.get_lock():
                hb[HB_BUSY] = 0.0
        result_w.send((seq, status, body, dict(injector.counters),
                       injector.hit_state(), (received, time.monotonic())))


@dataclass
class WorkerHandle:
    """Parent-side state of one pool worker."""

    id: int
    process: object
    task_w: object    #: write end of the worker's task pipe
    result_r: object  #: read end of its result pipe
    hb: object
    spawned_at: float
    #: seq of the job this worker is computing (None = idle)
    busy_seq: int | None = None
    dispatched_at: float = 0.0
    deadline: float | None = None
    #: why the parent killed it ("timeout" | "worker_hung" | ...), if it did
    kill_reason: str | None = None
    jobs_done: int = 0
    #: the result pipe hit EOF: the process is gone
    eof: bool = False

    def heartbeat(self) -> tuple[int, int, int, float, bool]:
        """Snapshot ``(seq, rank, step, beat, busy)`` of the shared slot."""
        with self.hb.get_lock():
            return (int(self.hb[HB_SEQ]), int(self.hb[HB_RANK]),
                    int(self.hb[HB_STEP]), float(self.hb[HB_BEAT]),
                    bool(self.hb[HB_BUSY]))

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    def close(self) -> None:
        """Close the parent's pipe ends (idempotent)."""
        self.task_w.close()
        self.result_r.close()


class WorkerPool:
    """Fixed-size pool of worker processes with replace-on-death.

    The pool owns process lifecycle only; scheduling decisions live in
    the engine.  ``retire`` replaces a worker gracefully (stop sentinel;
    :meth:`reap` joins it when its result pipe reaches EOF), ``kill``
    delivers a real ``SIGKILL`` -- the caller is then responsible for
    calling ``replace`` once the pipe says the process is gone.
    """

    def __init__(self, size: int, start_method: str = "spawn"):
        if size < 1:
            raise ValueError("pool size must be >= 1")
        from .._child import get_context

        self.size = size
        self._ctx = get_context(start_method)
        self.workers: dict[int, WorkerHandle] = {}
        self._retiring: list[WorkerHandle] = []
        self._next_id = 0
        self.restarts = 0  #: replacement spawns after the initial pool

    def start(self) -> None:
        for _ in range(self.size):
            self._spawn()

    def _spawn(self) -> WorkerHandle:
        wid = self._next_id
        self._next_id += 1
        hb = self._ctx.Array("d", HB_SLOTS)
        task_r, task_w = self._ctx.Pipe(duplex=False)
        result_r, result_w = self._ctx.Pipe(duplex=False)
        handle = WorkerHandle(
            id=wid, task_w=task_w, result_r=result_r, hb=hb,
            spawned_at=time.monotonic(),
            process=self._ctx.Process(
                target=worker_main, args=(wid, task_r, result_w, hb),
                name=f"service-worker-{wid}", daemon=False,
            ),
        )
        try:
            handle.process.start()
        except BaseException:
            handle.close()
            raise
        finally:
            # The child's ends live in the child only: a parent copy of
            # ``result_w`` would keep EOF from ever arriving.
            task_r.close()
            result_w.close()
        self.workers[wid] = handle
        return handle

    # -- scheduling hooks -------------------------------------------------

    def idle(self) -> list[WorkerHandle]:
        """Live, unassigned workers (list, id order)."""
        return [w for w in sorted(self.workers.values(), key=lambda w: w.id)
                if w.busy_seq is None and not w.eof]

    def pipes(self) -> dict:
        """``{result pipe: worker}`` of every worker and retiree whose
        pipe has not reached EOF: the handles the supervisor waits on."""
        return {w.result_r: w
                for w in list(self.workers.values()) + self._retiring
                if not w.eof}

    def dispatch(self, worker: WorkerHandle, task: dict,
                 deadline: float | None) -> None:
        worker.busy_seq = task["seq"]
        worker.dispatched_at = time.monotonic()
        worker.deadline = deadline
        worker.kill_reason = None
        try:
            worker.task_w.send(task)
        except OSError:
            pass  # died idle: EOF on its result pipe reports the loss

    def finish(self, worker: WorkerHandle) -> None:
        """Mark a worker idle after its result arrived."""
        worker.busy_seq = None
        worker.deadline = None
        worker.kill_reason = None
        worker.jobs_done += 1

    # -- lifecycle --------------------------------------------------------

    def kill(self, worker: WorkerHandle, reason: str) -> None:
        """Deliver a real ``SIGKILL``; records why for classification."""
        worker.kill_reason = reason
        pid = worker.process.pid
        if pid is not None:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

    def replace(self, worker: WorkerHandle) -> WorkerHandle:
        """Swap a dead worker (pipe at EOF) for a fresh one; returns the
        new handle."""
        self.workers.pop(worker.id, None)
        self._retiring.append(worker)
        self.reap(worker)
        self.restarts += 1
        return self._spawn()

    def retire(self, worker: WorkerHandle) -> WorkerHandle:
        """Gracefully replace an (idle) worker; returns the new handle.

        Used after a failed attempt so the retry lands on a *fresh*
        worker: the old one gets the stop sentinel and is joined by
        :meth:`reap` when its result pipe reaches EOF.
        """
        self.workers.pop(worker.id, None)
        try:
            worker.task_w.send(None)
        except OSError:
            pass
        self._retiring.append(worker)
        self.restarts += 1
        return self._spawn()

    def reap(self, worker: WorkerHandle) -> None:
        """Release a retiree whose result pipe reached EOF: close the
        pipes, join the process (exiting: EOF is its last fd closing)."""
        worker.eof = True
        worker.close()
        worker.process.join(timeout=1.0)
        if not worker.process.is_alive():
            self._retiring.remove(worker)

    def stop(self, graceful: bool = True, timeout: float = 10.0) -> None:
        """Stop every worker (sentinel first, then escalate)."""
        everyone = list(self.workers.values()) + self._retiring
        for w in everyone:
            if not graceful:
                self.kill(w, "shutdown")
            elif not w.eof and w.id in self.workers:
                try:
                    w.task_w.send(None)
                except OSError:
                    pass
        deadline = time.monotonic() + timeout
        for w in everyone:
            w.process.join(timeout=max(0.0, deadline - time.monotonic()))
            if w.process.is_alive():
                w.process.terminate()
                w.process.join(timeout=2.0)
            if w.process.is_alive():
                # terminate() (SIGTERM) can be shrugged off mid-kernel;
                # the supervisor must not return with live children.
                self.kill(w, "shutdown")
                w.process.join(timeout=2.0)
            w.close()
        self.workers.clear()
        self._retiring.clear()

    def snapshot(self) -> list[dict]:
        """Health view of the pool (list of JSON-able dicts)."""
        out = []
        for w in sorted(self.workers.values(), key=lambda w: w.id):
            seq, rank, step, beat, busy = w.heartbeat()
            out.append({
                "id": w.id,
                "pid": w.process.pid,
                "alive": w.alive,
                "busy_seq": w.busy_seq,
                "jobs_done": w.jobs_done,
                "hb_step": step if busy else None,
            })
        return out

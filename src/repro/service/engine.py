"""The job engine: async simulation-as-a-service with fault tolerance.

:class:`JobEngine` accepts canonicalized :class:`JobRequest`\\ s and
returns :class:`JobHandle` futures.  Every submission flows through the
same gauntlet:

1. **circuit breaker** -- a key quarantined as poison fails fast;
2. **result cache** -- a CRC-verified hit resolves instantly (corrupt
   entries are quarantined and fall through to recompute);
3. **dedup** -- a key already in flight is joined, never recomputed
   (single-flight);
4. **admission control** -- bounded ready queue, bounded parking lot,
   worst-first shedding (:class:`~repro.service.queue.AdmissionQueue`);
5. **supervised execution** -- a worker-pool process computes the job
   under heartbeat liveness, per-job wall-clock timeout, and (for
   chaos plans) parent-side SIGKILL delivery;
6. **bounded retry** -- failed attempts retry on a *fresh* worker with
   exponential backoff + decorrelated jitter, resuming from the newest
   verified checkpoint when checkpointing is on, until the attempt
   budget is spent or the breaker opens.

The supervisor is one thread owning all scheduling state; workers are
real processes (see :mod:`repro.service.workers`).  It waits on handles
(a wake pipe, the workers' result pipes), not on a clock; the timeout is
the nearest real deadline, and none when idle.
"""

from __future__ import annotations

import os
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field, replace

from .. import native
from ..resilience.inject import FaultInjector
from ..resilience.plan import FaultPlan
from ..telemetry.log import get_logger
from .cache import ResultCache
from .queue import AdmissionQueue
from .request import JobRequest
from .retry import BackoffPolicy, CircuitBreaker
from .workers import WorkerPool

#: Job lifecycle states.
QUEUED = "queued"
PARKED = "parked"
RUNNING = "running"
RETRY_WAIT = "retry_wait"
DONE_COMPUTED = "done_computed"
DONE_CACHED = "done_cached"
FAILED = "failed"
SHED = "shed"
POISONED = "poisoned"
CANCELLED = "cancelled"

TERMINAL = frozenset({DONE_COMPUTED, DONE_CACHED, FAILED, SHED,
                      POISONED, CANCELLED})

#: Seconds between two looks at the heartbeat (a shared array has no
#: handle to wait on) of a worker whose job has a ``rank_crash`` the
#: engine must deliver; no other job is ever polled.
_KILL_WATCH = 0.002

#: A worker that dies idle is replaced no sooner than this long after it
#: was spawned: a worker that cannot start is not a spawn storm.
_RESPAWN_GAP = 0.5

#: The stages of a computed request, in order (:attr:`JobResult.stages`).
STAGES = ("queued", "dispatch", "run", "return", "persist")


class ServiceClosedError(RuntimeError):
    """The engine is draining or stopped; it accepts no new work."""


class JobFailedError(RuntimeError):
    """A job reached a terminal failure; ``kind`` names the taxonomy."""

    def __init__(self, kind: str, cause: str = "", attempts: int = 0):
        self.kind = kind
        self.cause = cause
        self.attempts = attempts
        msg = f"job failed [{kind}] after {attempts} attempt(s)"
        if cause:
            msg += f": {cause}"
        super().__init__(msg)


class JobShedError(JobFailedError):
    """Admission control refused or displaced the job (overload)."""

    def __init__(self, cause: str = "admission control shed the job"):
        super().__init__("shed", cause, attempts=0)


class JobCancelledError(JobFailedError):
    """The job was cancelled by a non-draining shutdown."""

    def __init__(self, cause: str = "service shut down"):
        super().__init__("cancelled", cause, attempts=0)


@dataclass(frozen=True)
class JobResult:
    """Terminal result of a completed job."""

    key: str
    payload: dict
    cached: bool  #: True when served from the result cache
    attempts: int
    #: ms per :data:`STAGES` entry of a computed result, submit -> done
    #: (docs/service.md); None for a cached result and for a handle that
    #: joined another's job.  Off the payload: never cached, never keyed.
    stages: dict | None = None

    @property
    def final_field(self):
        return self.payload["final_field"]

    def series(self, name: str):
        """One diagnostics series (ndarray) by name."""
        return self.payload["series"][name]


@dataclass
class ServiceConfig:
    """Tuning knobs of one :class:`JobEngine`."""

    workers: int = 2
    workdir: str = "service-work"
    cache_dir: str | None = None  #: default: ``<workdir>/cache``
    max_pending: int = 64
    park_capacity: int = 64
    #: Per-job wall-clock budget (seconds); None disables timeouts.
    job_timeout: float | None = None
    #: Stale-heartbeat kill threshold (seconds); None disables.
    heartbeat_timeout: float | None = 30.0
    backoff: BackoffPolicy = field(default_factory=BackoffPolicy)
    breaker_threshold: int = 3
    #: Steps between retry-resume checkpoints; 0 = retry from scratch
    #: (full diagnostics series -- see docs/service.md for the tradeoff).
    checkpoint_interval: int = 0
    #: Replace a worker after a failed attempt so the retry lands on a
    #: fresh process (also what makes breaker streaks distinct-worker).
    retire_failed_workers: bool = True
    #: Whether the engine delivers plan ``rank_crash`` SIGKILLs itself;
    #: None = auto (yes for the sim backend, no for procs whose own
    #: parent supervisor delivers them inside the worker).
    supervise_kills: bool | None = None
    #: Service-level chaos plan (cache-write corruption via
    #: ``ckpt_bitflip`` specs addressed at rank -1); per-job faults
    #: travel with ``submit(..., fault_plan=...)`` instead.
    fault_plan: FaultPlan | None = None
    start_method: str = "spawn"
    seed: int = 2013

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.checkpoint_interval < 0:
            raise ValueError("checkpoint_interval must be >= 0")
        if isinstance(self.fault_plan, dict):
            self.fault_plan = FaultPlan.from_dict(self.fault_plan)


@dataclass
class _Job:
    """Supervisor-private state of one submitted request."""

    seq: int
    key: str
    request: JobRequest
    payload: dict  #: request.to_payload(), built once
    priority: int
    timeout: float | None
    max_attempts: int
    injector: FaultInjector
    supervise: bool
    checkpoint_dir: str
    delays: object  #: backoff delay stream
    submitted_at: float = 0.0
    status: str = QUEUED
    attempts: int = 0
    not_before: float = 0.0
    worker_ids: list = field(default_factory=list)
    failure_kinds: list = field(default_factory=list)
    result: JobResult | None = None
    error: BaseException | None = None
    done: threading.Event = field(default_factory=threading.Event)


class JobHandle:
    """Caller-facing future of one submission."""

    def __init__(self, engine: "JobEngine", job: _Job,
                 joined: bool = False):
        self._engine = engine
        self._job = job
        self._joined = joined

    @property
    def key(self) -> str:
        return self._job.key

    @property
    def status(self) -> str:
        return self._job.status

    @property
    def attempts(self) -> int:
        return self._job.attempts

    def done(self) -> bool:
        return self._job.done.is_set()

    def result(self, timeout: float | None = None) -> JobResult:
        """Block for the terminal result; raises the job's failure.

        Raises :class:`TimeoutError` if the job is not terminal within
        ``timeout`` seconds (the job keeps running).
        """
        if not self._job.done.wait(timeout):
            raise TimeoutError(
                f"job {self._job.key[:16]} not done within {timeout}s"
            )
        result = self._job.result
        if result is None:
            raise self._job.error
        return replace(result, stages=None) if self._joined else result


class JobEngine:
    """Supervised async job service over a process worker pool."""

    def __init__(self, config: ServiceConfig | None = None):
        self.config = config or ServiceConfig()
        cfg = self.config
        os.makedirs(cfg.workdir, exist_ok=True)
        #: Service-level monitor + chaos hook (cache-write corruption).
        self.injector = FaultInjector(cfg.fault_plan)
        self.cache = ResultCache(
            cfg.cache_dir or os.path.join(cfg.workdir, "cache"),
            injector=self.injector,
        )
        self.queue = AdmissionQueue(cfg.max_pending, cfg.park_capacity)
        self.breaker = CircuitBreaker(cfg.breaker_threshold)
        self.pool = WorkerPool(cfg.workers, cfg.start_method)
        self._log = get_logger("service.engine")
        self._lock = threading.Lock()
        self._done_cond = threading.Condition(self._lock)
        self._jobs: dict[int, _Job] = {}  #: open (non-terminal) jobs
        self._ended: dict[str, int] = {}  #: terminal status -> job count
        self._stage_log: deque = deque(maxlen=256)  #: last jobs' stages
        self._active_by_key: dict[str, _Job] = {}
        self._waiting: list[_Job] = []  #: retry_wait jobs
        self._open_jobs = 0  #: non-terminal job count (drain target)
        self._next_seq = 0
        self._closed = False
        self.state = "created"
        self.counters = {
            "submitted": 0, "computed": 0, "cache_hits": 0,
            "dedup_joined": 0, "retries": 0, "shed": 0, "poisoned": 0,
            "exhausted": 0, "breaker_opened": 0, "timeouts": 0,
            "kills_delivered": 0, "cancelled": 0,
        }
        self.failures_by_kind: dict[str, int] = {}
        self._stop = threading.Event()
        # Non-blocking both ends: a full pipe is a wake already pending.
        self._wake_r, self._wake_w = os.pipe()
        os.set_blocking(self._wake_r, False)
        os.set_blocking(self._wake_w, False)
        self._supervisor = threading.Thread(
            target=self._supervise, name="service-supervisor", daemon=True
        )

    # -- lifecycle --------------------------------------------------------

    def start(self) -> "JobEngine":
        # The compiled kernels are built here, once, not by every worker
        # process starting cold.
        native.ensure_loaded()
        self.pool.start()
        self._supervisor.start()
        self.state = "running"
        self._log.info("service_started", workers=self.config.workers,
                       cache=self.cache.root)
        return self

    def __enter__(self) -> "JobEngine":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown(drain=exc_type is None)

    def drain(self, timeout: float | None = None) -> bool:
        """Block until every accepted job is terminal; returns success."""
        with self._done_cond:
            return self._done_cond.wait_for(
                lambda: self._open_jobs == 0, timeout
            )

    def shutdown(self, drain: bool = True,
                 timeout: float | None = 120.0) -> None:
        """Stop the service; with ``drain`` finish accepted work first.

        Without ``drain``, queued/waiting/running jobs are cancelled and
        running workers are killed.
        """
        with self._lock:
            if self.state == "stopped":
                return
            self._closed = True
            self.state = "draining" if drain else "stopping"
        if drain:
            ok = self.drain(timeout)
            if not ok:
                self._log.warn("drain_timeout", timeout=timeout)
        else:
            with self._lock:
                doomed = self.queue.drain() + list(self._waiting)
                self._waiting.clear()
                doomed += [j for j in self._jobs.values()
                           if j.status == RUNNING]
                for job in doomed:
                    if not job.done.is_set():
                        self.counters["cancelled"] += 1
                        self._fail_locked(job, JobCancelledError(),
                                          CANCELLED)
        self._stop.set()
        self._wake()
        if self._supervisor.is_alive():
            self._supervisor.join(timeout=10.0)
        self.pool.stop(graceful=drain)
        os.close(self._wake_r)
        os.close(self._wake_w)
        self.state = "stopped"
        self._log.info("service_stopped", drained=drain)

    def _wake(self) -> None:
        """Make the supervisor look again (never blocks, never raises)."""
        try:
            os.write(self._wake_w, b"\0")
        except BlockingIOError:
            pass  # pipe full: a wake is already pending

    # -- submission -------------------------------------------------------

    def submit(self, request: JobRequest, *, priority: int = 0,
               fault_plan: FaultPlan | None = None,
               timeout: float | None = None,
               max_attempts: int | None = None) -> JobHandle:
        """Accept one request; returns a :class:`JobHandle` future.

        ``priority`` (lower = more urgent) feeds admission control;
        ``fault_plan`` arms per-job chaos; ``timeout``/``max_attempts``
        override the service defaults for this job.
        """
        submitted_at = time.monotonic()
        # Request hashing and the cache probe do real IO (a restart
        # checkpoint is CRC'd into the key; the cache reads payload
        # files from disk) -- do all of it before taking the engine
        # lock so submit never stalls the supervisor/drain paths.
        key = request.key()
        payload = request.to_payload()
        hit = self.cache.get(key)
        with self._lock:
            if self._closed:
                raise ServiceClosedError("service is draining or stopped")
            self.counters["submitted"] += 1
            if self.breaker.is_open(key):
                self.counters["poisoned"] += 1
                job = self._terminal_job_locked(
                    key, request, POISONED, error=self.breaker.error(key)
                )
                return JobHandle(self, job)
            if hit is not None:
                meta, payload = hit
                self.counters["cache_hits"] += 1
                job = self._terminal_job_locked(
                    key, request, DONE_CACHED,
                    result_payload=payload,
                    attempts=int(meta.get("attempts", 1)),
                )
                self._log.info("cache_hit", key=key[:16])
                return JobHandle(self, job)
            active = self._active_by_key.get(key)
            if active is not None and not active.done.is_set():
                self.counters["dedup_joined"] += 1
                return JobHandle(self, active, joined=True)
            job = self._new_job_locked(request, key, payload, priority,
                                       fault_plan, timeout, max_attempts,
                                       submitted_at)
            decision, displaced = self.queue.offer(priority, job.seq, job)
            if displaced is not None:
                self.counters["shed"] += 1
                self._fail_locked(
                    displaced,
                    JobShedError("displaced by a higher-priority job"),
                    SHED,
                )
            if decision == "shed":
                self.counters["shed"] += 1
                self._open_jobs -= 1  # never really admitted
                self._active_by_key.pop(key, None)
                self._fail_locked(job, JobShedError(), SHED,
                                  already_closed=True)
            else:
                job.status = QUEUED if decision == "queued" else PARKED
            # Under the lock: shutdown closes the pipe only after taking
            # it, so an admitted submit never writes to a closed fd.
            self._wake()
        return JobHandle(self, job)

    def _new_job_locked(self, request, key, payload, priority, fault_plan,
                        timeout, max_attempts, submitted_at) -> _Job:
        cfg = self.config
        seq = self._next_seq
        self._next_seq += 1
        injector = FaultInjector(fault_plan)
        supervise = cfg.supervise_kills
        if supervise is None:
            supervise = request.config.cluster_backend == "sim"
        # Nothing to deliver, nothing to watch the heartbeat for.
        supervise = supervise and any(
            spec.kind == "rank_crash" for spec in injector.plan.faults)
        job = _Job(
            seq=seq,
            key=key,
            request=request,
            payload=payload,
            priority=priority,
            timeout=cfg.job_timeout if timeout is None else timeout,
            max_attempts=(cfg.backoff.max_attempts
                          if max_attempts is None else max_attempts),
            injector=injector,
            supervise=bool(supervise),
            checkpoint_dir=os.path.join(
                cfg.workdir, f"job-{seq:04d}-{key[:12]}"
            ),
            delays=cfg.backoff.delays(f"{cfg.seed}:{key[:16]}:{seq}"),
            submitted_at=submitted_at,
        )
        self._jobs[seq] = job
        self._active_by_key[key] = job
        self._open_jobs += 1
        return job

    def _terminal_job_locked(self, key, request, status, *, error=None,
                             result_payload=None, attempts=0) -> _Job:
        """A job born terminal (cache hit / poisoned fail-fast)."""
        seq = self._next_seq
        self._next_seq += 1
        job = _Job(
            seq=seq, key=key, request=request, payload={}, priority=0,
            timeout=None, max_attempts=0, injector=FaultInjector(),
            supervise=False, checkpoint_dir="", delays=iter(()),
            status=status, attempts=attempts, error=error,
        )
        if result_payload is not None:
            job.result = JobResult(key=key, payload=result_payload,
                                   cached=True, attempts=attempts)
        self._ended[status] = self._ended.get(status, 0) + 1
        job.done.set()
        return job

    # -- terminal transitions ---------------------------------------------

    def _fail_locked(self, job: _Job, error: BaseException, status: str,
                     already_closed: bool = False) -> None:
        job.error = error
        self._end_locked(job, status)
        if not already_closed:
            self._open_jobs -= 1
        job.done.set()
        self._done_cond.notify_all()
        self.failures_by_kind.setdefault(status, 0)
        self._log.warn("job_failed", seq=job.seq, key=job.key[:16],
                       status=status, attempts=job.attempts,
                       err=str(error)[:200])

    def _end_locked(self, job: _Job, status: str) -> None:
        """The engine lets go of a job: from here it is its handles'."""
        job.status = status
        self._jobs.pop(job.seq, None)
        self._ended[status] = self._ended.get(status, 0) + 1
        if self._active_by_key.get(job.key) is job:
            del self._active_by_key[job.key]

    def _complete_locked(self, job: _Job, payload: dict,
                         stages: dict) -> None:
        job.result = JobResult(key=job.key, payload=payload, cached=False,
                               attempts=job.attempts, stages=stages)
        self._stage_log.append(stages)
        self._end_locked(job, DONE_COMPUTED)
        self._open_jobs -= 1
        job.done.set()
        self._done_cond.notify_all()
        self._log.info("job_done", seq=job.seq, key=job.key[:16],
                       attempts=job.attempts, cached=False)

    # -- supervisor loop --------------------------------------------------

    def _supervise(self) -> None:
        # Imported with the pool, not with the package: every importer
        # of repro.service would otherwise load multiprocessing.
        from multiprocessing.connection import wait

        timeout = 0.0
        while not self._stop.is_set():
            try:
                pipes = self.pool.pipes()
                ready = wait([self._wake_r, *pipes], timeout)
                self._receive(pipes, ready)
                now = time.monotonic()
                due = self._promote_retries(now)
                self._dispatch()
                due += self._check_workers(now)
                timeout = max(0.0, min(due) - now) if due else None
            except Exception:  # pragma: no cover -- supervisor must live
                self._log.error("supervisor_error",
                                err=traceback.format_exc(limit=5))
                self._stop.wait(0.1)
                timeout = 0.0
        # Final look so results racing shutdown still resolve.
        try:
            pipes = self.pool.pipes()
            self._receive(pipes, wait(list(pipes), 0))
        except Exception:
            self._log.warn("final_drain_error",
                           err=traceback.format_exc(limit=3))

    def _receive(self, pipes: dict, ready: list) -> None:
        """Drain the wake pipe; take one message, or the EOF, off every
        ready result pipe."""
        for conn in ready:
            worker = pipes.get(conn)
            if worker is None:  # the wake pipe
                try:
                    while len(os.read(conn, 65536)) == 65536:
                        pass
                except BlockingIOError:
                    pass
                continue
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                # EOF follows every byte the worker ever sent: it is
                # gone and nothing of its is still in flight.
                if worker.id in self.pool.workers:
                    worker.eof = True  # _check_workers classifies it
                else:
                    self.pool.reap(worker)
                continue
            self._on_result(worker, msg, time.monotonic())

    def _on_result(self, worker, msg, received: float) -> None:
        seq, status, body, counters, hits, (taken, ran) = msg
        retire = False
        with self._lock:
            job = self._jobs.get(seq)
            if job is not None:
                job.injector.merge_child(counters, hits)
            dispatched = worker.dispatched_at
            if worker.busy_seq == seq:
                self.pool.finish(worker)
            if job is None:
                return  # late result of a job already resolved
            if status == "ok":
                job.attempts = max(job.attempts, 1)
                self.breaker.record_success(job.key)
                self.counters["computed"] += 1
            else:
                # Graceful failure: retire the worker so any retry
                # lands on a fresh process.
                retire = (self.config.retire_failed_workers
                          and worker.id in self.pool.workers)
                self._attempt_failed_locked(
                    job, worker.id, body["kind"], body["retryable"],
                    body.get("cause", ""),
                )
        if retire:
            self.pool.retire(worker)
        if status == "ok":
            # Cache persistence is disk IO (tmp + fsync + replace):
            # it runs with the engine lock dropped, but *before*
            # the job is marked done -- a waiter that resubmits on
            # wake must find the entry already durable.
            self._write_cache(job, body)
            marks = (job.submitted_at, dispatched, taken, ran, received,
                     time.monotonic())
            stages = {name: (t1 - t0) * 1e3
                      for name, t0, t1 in zip(STAGES, marks, marks[1:])}
            with self._lock:
                if not job.done.is_set():
                    self._complete_locked(job, body, stages)

    def _write_cache(self, job: _Job, payload: dict) -> None:
        meta = {
            "attempts": job.attempts,
            "wall_seconds": payload.get("wall_seconds", 0.0),
            "runtime": job.request.runtime_dict(),
        }
        self.cache.put(job.key, payload, meta)

    def _attempt_failed_locked(self, job: _Job, worker_id: int,
                               kind: str, retryable: bool,
                               cause: str) -> None:
        self.failures_by_kind[kind] = \
            self.failures_by_kind.get(kind, 0) + 1
        job.worker_ids.append(worker_id)
        job.failure_kinds.append(kind)
        opened = self.breaker.record_failure(job.key, worker_id, kind)
        self._log.warn("attempt_failed", seq=job.seq, key=job.key[:16],
                       attempt=job.attempts, kind=kind, worker=worker_id,
                       cause=cause[:200])
        if opened or self.breaker.is_open(job.key):
            if opened:
                self.counters["breaker_opened"] += 1
            self.counters["poisoned"] += 1
            self._fail_locked(job, self.breaker.error(job.key), POISONED)
            return
        if not retryable:
            self._fail_locked(
                job, JobFailedError(kind, cause, job.attempts), FAILED
            )
            return
        if job.attempts >= job.max_attempts:
            self.counters["exhausted"] += 1
            self._fail_locked(
                job,
                JobFailedError(
                    "exhausted",
                    f"retry budget spent; last failure [{kind}] {cause}",
                    job.attempts,
                ),
                FAILED,
            )
            return
        delay = next(job.delays)
        job.not_before = time.monotonic() + delay
        job.status = RETRY_WAIT
        self._waiting.append(job)
        self.counters["retries"] += 1
        self._log.info("retry_scheduled", seq=job.seq, key=job.key[:16],
                       attempt=job.attempts, delay=round(delay, 3))

    def _check_workers(self, now: float) -> list[float]:
        """Replace lost workers and fail their attempts, deliver kills,
        enforce deadlines; returns when to look next (list of times)."""
        due: list[float] = []
        for worker in list(self.pool.workers.values()):
            if worker.busy_seq is None:
                # An idle worker that died (e.g. spawn import failure)
                # still starves the pool: replace it, and dispatch again.
                if worker.eof:
                    respawn = worker.spawned_at + _RESPAWN_GAP
                    if now >= respawn:
                        self.pool.replace(worker)
                    due.append(max(now, respawn))
                continue
            with self._lock:
                job = self._jobs.get(worker.busy_seq)
            if worker.eof:
                kind = worker.kill_reason or "worker_lost"
                self.pool.replace(worker)
                due.append(now)  # a retry to schedule, a worker to use
                with self._lock:
                    if job is not None and not job.done.is_set():
                        self._attempt_failed_locked(
                            job, worker.id, kind, True,
                            f"worker {worker.id} died ({kind})",
                        )
                continue
            if job is None or worker.kill_reason is not None:
                continue  # cancelled, or SIGKILL sent: EOF comes next
            hb_seq, hb_rank, hb_step, hb_beat, hb_busy = worker.heartbeat()
            on_job = hb_seq == job.seq and hb_busy
            # Parent-side kill delivery: replay observed step progress
            # through the job's plan, exactly like the procs backend's
            # supervisor, so an armed rank_crash is a *real* SIGKILL.
            replayed = worker.replayed_step.get(hb_rank, 0)
            if job.supervise and on_job and hb_step > replayed:
                for s in range(replayed + 1, hb_step + 1):
                    if job.injector.fire("rank_crash", hb_rank, s):
                        self.counters["kills_delivered"] += 1
                        self.pool.kill(worker, "rank_crash")
                        break
                worker.replayed_step[hb_rank] = hb_step
                if worker.kill_reason is not None:
                    continue
            # Wall-clock timeout.
            if worker.deadline is not None and now > worker.deadline:
                if on_job:
                    # The stall the plan injected was delivered and is
                    # being punished; consume matching specs parent-side
                    # (the child's ledger dies with it) so the retry
                    # does not deterministically refire them.
                    for kind in ("straggler", "msg_delay"):
                        for _ in range(len(job.injector.plan.faults)):
                            if not job.injector.fire(kind, hb_rank,
                                                     hb_step):
                                break
                self.counters["timeouts"] += 1
                self.pool.kill(worker, "timeout")
                continue
            # Heartbeat liveness (hung worker, not just slow job).
            hb_limit = self.config.heartbeat_timeout
            baseline = hb_beat if on_job else worker.dispatched_at
            if hb_limit is not None and baseline > 0:
                if now - baseline > hb_limit:
                    self.pool.kill(worker, "worker_hung")
                    continue
                due.append(baseline + hb_limit)
            if worker.deadline is not None:
                due.append(worker.deadline)
            if job.supervise:
                due.append(now + _KILL_WATCH)
        return due

    def _promote_retries(self, now: float) -> list[float]:
        """Requeue the retries whose backoff has run out; returns when
        the others' will."""
        with self._lock:
            due = [j for j in self._waiting if j.not_before <= now]
            self._waiting = [j for j in self._waiting
                             if j.not_before > now]
            for job in due:
                job.status = QUEUED
                self.queue.requeue(job.priority, job.seq, job)
            return [j.not_before for j in self._waiting]

    def _dispatch(self) -> None:
        while True:
            idle = self.pool.idle()
            if not idle:
                return
            job = self.queue.pop()
            if job is None:
                return
            if job.done.is_set():
                continue  # resolved (cancelled) while queued
            self._start_attempt(job, idle[0])

    def _start_attempt(self, job: _Job, worker) -> None:
        cfg = self.config
        with self._lock:
            job.attempts += 1
            attempt = job.attempts
            job.status = RUNNING
        clone = job.injector.child_clone(
            disable_kinds=("rank_crash",) if job.supervise else ()
        )
        if attempt > 1:
            # Retry determinism: re-derive the chaos RNG streams so a
            # probabilistic fault consumed by luck does not refire by
            # the same luck; the physics seed lives in the request and
            # is untouched.
            clone.reseed(attempt)
        restart = job.request.restart_from
        if attempt > 1 and cfg.checkpoint_interval > 0:
            found = None
            try:
                from ..resilience.recover import \
                    find_latest_verified_checkpoint
                found = find_latest_verified_checkpoint(
                    job.checkpoint_dir, injector=job.injector
                )
            except OSError:
                found = None
            if found is not None:
                restart = found[1]
                self._log.info("retry_resume", seq=job.seq,
                               step=found[0])
        if cfg.checkpoint_interval > 0:
            os.makedirs(job.checkpoint_dir, exist_ok=True)
        task = {
            "seq": job.seq,
            "request": job.payload,
            "attempt": attempt,
            "restart_from": restart,
            "checkpoint_dir": job.checkpoint_dir,
            "checkpoint_interval": cfg.checkpoint_interval,
            "injector": clone,
        }
        deadline = (time.monotonic() + job.timeout
                    if job.timeout is not None else None)
        self.pool.dispatch(worker, task, deadline)
        self._log.info("dispatched", seq=job.seq, key=job.key[:16],
                       attempt=attempt, worker=worker.id)

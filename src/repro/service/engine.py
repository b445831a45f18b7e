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
real processes (see :mod:`repro.service.workers`).
"""

from __future__ import annotations

import os
import queue as queue_mod
import threading
import time
import traceback
from dataclasses import dataclass, field

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

#: Grace between noticing a worker died and declaring the attempt lost
#: (its buffered result may still be in flight on the result queue).
_DEATH_GRACE = 0.5


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
    cached: bool  #: True when served from the result cache / dedup
    attempts: int

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
    poll_interval: float = 0.01
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

    def __init__(self, engine: "JobEngine", job: _Job):
        self._engine = engine
        self._job = job

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
        if self._job.result is not None:
            return self._job.result
        raise self._job.error


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
        self._jobs: dict[int, _Job] = {}
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
        self._wake = threading.Event()
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
        self._wake.set()
        self._supervisor.join(timeout=10.0)
        self.pool.stop(graceful=drain)
        self.state = "stopped"
        self._log.info("service_stopped", drained=drain)

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
        cfg = self.config
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
                return JobHandle(self, active)
            job = self._new_job_locked(request, key, payload, priority,
                                       fault_plan, timeout, max_attempts)
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
        self._wake.set()
        return JobHandle(self, job)

    def _new_job_locked(self, request, key, payload, priority, fault_plan,
                        timeout, max_attempts) -> _Job:
        cfg = self.config
        seq = self._next_seq
        self._next_seq += 1
        supervise = cfg.supervise_kills
        if supervise is None:
            supervise = request.config.cluster_backend == "sim"
        job = _Job(
            seq=seq,
            key=key,
            request=request,
            payload=payload,
            priority=priority,
            timeout=cfg.job_timeout if timeout is None else timeout,
            max_attempts=(cfg.backoff.max_attempts
                          if max_attempts is None else max_attempts),
            injector=FaultInjector(fault_plan),
            supervise=bool(supervise),
            checkpoint_dir=os.path.join(
                cfg.workdir, f"job-{seq:04d}-{key[:12]}"
            ),
            delays=cfg.backoff.delays(f"{cfg.seed}:{key[:16]}:{seq}"),
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
        self._jobs[seq] = job
        job.done.set()
        return job

    # -- terminal transitions ---------------------------------------------

    def _fail_locked(self, job: _Job, error: BaseException, status: str,
                     already_closed: bool = False) -> None:
        job.error = error
        job.status = status
        if self._active_by_key.get(job.key) is job:
            del self._active_by_key[job.key]
        if not already_closed:
            self._open_jobs -= 1
        job.done.set()
        self._done_cond.notify_all()
        self.failures_by_kind.setdefault(status, 0)
        self._log.warn("job_failed", seq=job.seq, key=job.key[:16],
                       status=status, attempts=job.attempts,
                       err=str(error)[:200])

    def _complete_locked(self, job: _Job, payload: dict,
                         cached: bool) -> None:
        job.result = JobResult(key=job.key, payload=payload,
                               cached=cached, attempts=job.attempts)
        job.status = DONE_CACHED if cached else DONE_COMPUTED
        if self._active_by_key.get(job.key) is job:
            del self._active_by_key[job.key]
        self._open_jobs -= 1
        job.done.set()
        self._done_cond.notify_all()
        self._log.info("job_done", seq=job.seq, key=job.key[:16],
                       attempts=job.attempts, cached=cached)

    # -- supervisor loop --------------------------------------------------

    def _supervise(self) -> None:
        while not self._stop.is_set():
            try:
                self._drain_results()
                self._check_workers()
                self._promote_retries()
                self._dispatch()
                self.pool.reap()
            except Exception:  # pragma: no cover -- supervisor must live
                self._log.error("supervisor_error",
                                err=traceback.format_exc(limit=5))
            self._wake.wait(self.config.poll_interval)
            self._wake.clear()
        # Final sweep so results racing shutdown still resolve.
        try:
            self._drain_results()
        except Exception:
            self._log.warn("final_drain_error",
                           err=traceback.format_exc(limit=3))

    def _drain_results(self) -> None:
        while True:
            try:
                msg = self.pool.result_q.get_nowait()
            except queue_mod.Empty:
                return
            wid, seq, status, body, counters, hits = msg
            write_back = None
            with self._lock:
                job = self._jobs.get(seq)
                worker = self.pool.workers.get(wid)
                if job is not None:
                    job.injector.merge_child(counters, hits)
                if worker is not None and worker.busy_seq == seq:
                    self.pool.finish(worker)
                if job is None or job.done.is_set():
                    continue  # late result of a job already resolved
                if status == "ok":
                    job.attempts = max(job.attempts, 1)
                    self.breaker.record_success(job.key)
                    self.counters["computed"] += 1
                    write_back = job
                else:
                    # Graceful failure: retire the worker so any retry
                    # lands on a fresh process.
                    if (worker is not None
                            and self.config.retire_failed_workers
                            and worker.alive):
                        self.pool.retire(worker)
                    self._attempt_failed_locked(
                        job, wid, body["kind"], body["retryable"],
                        body.get("cause", ""),
                    )
            if write_back is not None:
                # Cache persistence is disk IO (tmp + fsync + replace):
                # it runs with the engine lock dropped, but *before*
                # the job is marked done -- a waiter that resubmits on
                # wake must find the entry already durable.
                self._write_cache(write_back, body)
                with self._lock:
                    if not write_back.done.is_set():
                        self._complete_locked(write_back, body,
                                              cached=False)

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

    def _check_workers(self) -> None:
        now = time.monotonic()
        for worker in list(self.pool.workers.values()):
            if worker.busy_seq is None:
                # An idle worker that died (e.g. spawn import failure)
                # still starves the pool: replace it.
                if not worker.alive:
                    if worker.death_seen is None:
                        worker.death_seen = now
                    elif now - worker.death_seen >= _DEATH_GRACE:
                        self.pool.replace(worker)
                continue
            with self._lock:
                job = self._jobs.get(worker.busy_seq)
            if job is None:
                continue
            if not worker.alive:
                if worker.death_seen is None:
                    worker.death_seen = now
                    continue
                if now - worker.death_seen < _DEATH_GRACE:
                    continue
                kind = worker.kill_reason or "worker_lost"
                self.pool.replace(worker)
                with self._lock:
                    if not job.done.is_set():
                        self._attempt_failed_locked(
                            job, worker.id, kind, True,
                            f"worker {worker.id} died ({kind})",
                        )
                continue
            hb_seq, hb_rank, hb_step, hb_beat, hb_busy = worker.heartbeat()
            on_job = hb_seq == job.seq and hb_busy
            if worker.kill_reason is not None:
                continue  # SIGKILL already sent; wait for the death path
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
            if hb_limit is not None:
                baseline = hb_beat if on_job else worker.dispatched_at
                if baseline > 0 and now - baseline > hb_limit:
                    self.pool.kill(worker, "worker_hung")

    def _promote_retries(self) -> None:
        now = time.monotonic()
        with self._lock:
            due = [j for j in self._waiting if j.not_before <= now]
            if not due:
                return
            self._waiting = [j for j in self._waiting
                             if j.not_before > now]
            for job in due:
                job.status = QUEUED
                self.queue.requeue(job.priority, job.seq, job)

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

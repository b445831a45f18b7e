"""Integration tests of the job engine over real worker processes.

Worker pools spawn real processes (~1 s import cost each), so jobs here
are tiny (16^3 cells, a handful of steps) and engines are scoped tightly.
"""

from __future__ import annotations

import multiprocessing.connection
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.cluster.driver import Simulation
from repro.resilience import FaultPlan, FaultSpec
from repro.service import (
    BackoffPolicy,
    ICSpec,
    JobEngine,
    JobRequest,
    JobShedError,
    PoisonedConfigError,
    ServiceClosedError,
    ServiceConfig,
    format_service_scorecard,
    health_snapshot,
)
from repro.service import engine as engine_mod
from repro.sim import SimulationConfig

pytestmark = pytest.mark.tier2

IC = ICSpec("uniform", {"rho": 1000.0, "p": 100.0})


def make_request(**overrides):
    kw = dict(cells=16, block_size=8, max_steps=3, diag_interval=1)
    kw.update(overrides)
    return JobRequest(config=SimulationConfig(**kw), ic=IC)


def fast_backoff(attempts=3):
    return BackoffPolicy(max_attempts=attempts, base_delay=0.05,
                         max_delay=0.2)


def reference_field(request: JobRequest):
    return Simulation(request.config, request.ic.build()).run().final_field


class TestEngineBasics:
    def test_compute_dedup_and_cache(self, tmp_path):
        req = make_request()
        other = make_request(max_steps=2)
        svc = ServiceConfig(workers=2, workdir=str(tmp_path / "w"))
        with JobEngine(svc) as engine:
            h1 = engine.submit(req)
            h_dup = engine.submit(req)   # in-flight duplicate: dedup
            h2 = engine.submit(other)
            r1 = h1.result(timeout=180)
            r_dup = h_dup.result(timeout=180)
            r2 = h2.result(timeout=180)
            # Single-flight: the duplicate shared the computation.
            assert engine.counters["computed"] == 2
            assert engine.counters["dedup_joined"] == 1
            assert r_dup.payload is r1.payload
            # Terminal duplicate: served from the CRC-verified cache.
            h3 = engine.submit(req)
            r3 = h3.result(timeout=10)
            assert r3.cached
            assert engine.counters["cache_hits"] == 1
            np.testing.assert_array_equal(r3.final_field, r1.final_field)
            assert r1.key != r2.key
            assert engine.cache.entries() == 2
        np.testing.assert_array_equal(r1.final_field, reference_field(req))

    def test_admission_sheds_under_overload(self, tmp_path):
        svc = ServiceConfig(workers=1, workdir=str(tmp_path / "w"),
                            max_pending=1, park_capacity=0)
        reqs = [make_request(max_steps=n) for n in (4, 2, 3)]
        with JobEngine(svc) as engine:
            h1 = engine.submit(reqs[0])
            deadline = time.monotonic() + 60
            while h1.status != "running" and time.monotonic() < deadline:
                time.sleep(0.01)
            assert h1.status == "running"
            h2 = engine.submit(reqs[1])  # takes the one ready slot
            h3 = engine.submit(reqs[2])  # no slot, no parking: shed
            assert h3.status == "shed"
            with pytest.raises(JobShedError):
                h3.result(timeout=5)
            assert h1.result(timeout=180).final_field is not None
            assert h2.result(timeout=180).final_field is not None
            assert engine.counters["shed"] == 1
            assert engine.queue.shed_total == 1

    def test_submit_reads_a_restart_checkpoint_once(self, tmp_path,
                                                    monkeypatch):
        """``submit`` builds the request's semantic dict once and takes the
        key and a miss's wire form from it: the restart checkpoint (whose
        CRC enters the key) is read once for a miss and once for a hit.
        A job born terminal carries no fault injector."""
        ckpt = tmp_path / "restart.rpc"
        ckpt.write_bytes(np.random.default_rng(3).bytes(50_000))
        request = JobRequest(config=SimulationConfig(cells=16, block_size=8,
                                                     max_steps=3),
                             ic=IC, restart_from=str(ckpt))
        reads, real_open = [], open

        def counting_open(file, *args, **kwargs):
            if os.fspath(file) == str(ckpt):
                reads.append(file)
            return real_open(file, *args, **kwargs)

        # Never started: the miss stays queued, nothing else reads.
        engine = JobEngine(ServiceConfig(workers=1,
                                         workdir=str(tmp_path / "w")))
        try:
            with monkeypatch.context() as patch:
                patch.setattr("builtins.open", counting_open)
                miss = engine.submit(request)
            assert len(reads) == 1 and miss.status == engine_mod.QUEUED
            assert miss._job.payload["semantic"] == request.semantic_dict()
            engine.cache.put(miss.key, {"dts": [0.1]})
            reads.clear()
            with monkeypatch.context() as patch:
                patch.setattr("builtins.open", counting_open)
                hit = engine.submit(request)
            assert len(reads) == 1 and hit.result(timeout=1).cached
            assert hit._job.injector is None
        finally:
            engine.shutdown(drain=False)

    def test_closed_engine_rejects_submits(self, tmp_path):
        svc = ServiceConfig(workers=1, workdir=str(tmp_path / "w"))
        engine = JobEngine(svc).start()
        engine.shutdown(drain=True)
        with pytest.raises(ServiceClosedError):
            engine.submit(make_request())

    def test_health_snapshot_schema(self, tmp_path):
        svc = ServiceConfig(workers=1, workdir=str(tmp_path / "w"))
        with JobEngine(svc) as engine:
            engine.submit(make_request(max_steps=1)).result(timeout=180)
            snap = health_snapshot(engine)
        assert snap["schema"] == "repro.service_health/v1"
        assert snap["counters"]["computed"] == 1
        assert snap["cache"]["entries"] == 1
        assert snap["breaker"]["open_keys"] == []
        assert len(snap["workers"]) == 1
        assert snap["jobs"]["by_status"]["done_computed"] == 1
        import json

        json.dumps(snap)  # must be JSON-able for --health-out / CI


class TestEngineChaos:
    def test_sigkill_retry_is_bit_identical(self, tmp_path):
        req = make_request(max_steps=4)
        plan = FaultPlan(seed=7, faults=[
            FaultSpec(kind="rank_crash", step=3, max_hits=1),
        ])
        svc = ServiceConfig(workers=1, workdir=str(tmp_path / "w"),
                            backoff=fast_backoff())
        with JobEngine(svc) as engine:
            handle = engine.submit(req, fault_plan=plan)
            result = handle.result(timeout=180)
            # The crashed attempt failed in the worker, which was
            # retired: the job retried on a fresh worker, and the crash
            # it consumed did not refire.
            assert result.attempts == 2
            assert engine.counters["retries"] == 1
            assert engine.pool.restarts >= 1
            assert engine.failures_by_kind.get("rank_crash") == 1
        np.testing.assert_array_equal(result.final_field,
                                      reference_field(req))

    def test_checkpoint_resume_retry_is_bit_identical(self, tmp_path):
        req = make_request(max_steps=6)
        plan = FaultPlan(seed=9, faults=[
            FaultSpec(kind="rank_crash", step=5, max_hits=1),
        ])
        svc = ServiceConfig(workers=1, workdir=str(tmp_path / "w"),
                            checkpoint_interval=2, backoff=fast_backoff())
        with JobEngine(svc) as engine:
            result = engine.submit(req, fault_plan=plan).result(timeout=180)
            assert result.attempts == 2
            # Resumed from the newest verified checkpoint, not scratch:
            # the recorded series starts mid-run ...
            assert result.payload["first_recorded_step"] > 1
        # ... and the final field is still bit-identical.
        np.testing.assert_array_equal(result.final_field,
                                      reference_field(req))

    def test_timeout_kill_and_recovery(self, tmp_path):
        req = make_request(max_steps=4)
        plan = FaultPlan(seed=8, faults=[
            FaultSpec(kind="straggler", step=2, delay=30.0, max_hits=1),
        ])
        svc = ServiceConfig(workers=1, workdir=str(tmp_path / "w"),
                            job_timeout=4.0, backoff=fast_backoff())
        with JobEngine(svc) as engine:
            result = engine.submit(req, fault_plan=plan).result(timeout=180)
            # The stalled attempt was killed at its deadline; the stall
            # was consumed parent-side so the retry ran clean.
            assert result.attempts == 2
            assert engine.counters["timeouts"] == 1
            assert engine.failures_by_kind.get("timeout") == 1
        np.testing.assert_array_equal(result.final_field,
                                      reference_field(req))

    def test_breaker_quarantines_poison_config(self, tmp_path):
        req = make_request(max_steps=2)
        poison = FaultPlan(seed=10, faults=[
            FaultSpec(kind="rank_crash", step=1, max_hits=0),  # unlimited
        ])
        svc = ServiceConfig(workers=2, workdir=str(tmp_path / "w"),
                            breaker_threshold=2,
                            backoff=fast_backoff(attempts=5))
        with JobEngine(svc) as engine:
            handle = engine.submit(req, fault_plan=poison)
            with pytest.raises(PoisonedConfigError) as exc_info:
                handle.result(timeout=180)
            assert handle.status == "poisoned"
            # Opened within K attempts, corroborated by distinct workers.
            assert len(set(exc_info.value.workers)) == 2
            assert handle.attempts <= 2
            assert engine.counters["breaker_opened"] == 1
            # Fail-fast: resubmitting the quarantined key never runs.
            h2 = engine.submit(req)
            with pytest.raises(PoisonedConfigError):
                h2.result(timeout=5)
            assert h2.attempts == 0
            assert engine.counters["poisoned"] == 2


def wait_until(predicate, timeout=30.0, what="condition"):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.002)


def busy_worker(engine):
    """The worker whose heartbeat says it is inside a job's steps."""
    for w in engine.pool.workers.values():
        if w.busy_seq is not None and w.heartbeat()[2] >= 1:
            return w
    return None


def in_supervisor() -> bool:
    """``Process.join`` waits through ``connection.wait`` too: a patched
    ``wait`` must tell the engine's supervisor thread from the rest."""
    return threading.current_thread().name == "service-supervisor"


def _exit_at_once(worker_id, task_r, result_w, hb):
    """A ``worker_main`` that cannot start (module level: fork target)."""


class TestEventDriven:
    """The supervisor waits on handles (wake pipe, result pipes / EOF,
    real deadlines), never on a tick."""

    def test_completion_needs_no_tick(self, tmp_path):
        svc = ServiceConfig(workers=1, workdir=str(tmp_path / "w"))
        returns = []
        with JobEngine(svc) as engine:
            for i in range(20):
                req = JobRequest(
                    config=SimulationConfig(cells=16, block_size=8,
                                            max_steps=1),
                    ic=ICSpec("uniform", {"rho": 1000.0, "p": 100.0 + i}))
                t0 = time.monotonic()
                result = engine.submit(req).result(timeout=180)
                latency_ms = (time.monotonic() - t0) * 1e3
                assert tuple(result.stages) == engine_mod.STAGES
                assert all(ms >= 0.0 for ms in result.stages.values())
                # submit -> done, so never more than the client saw
                assert sum(result.stages.values()) <= latency_ms
                returns.append(result.stages["return"])
            latency = health_snapshot(engine)["latency"]
        assert sorted(returns)[17] < 5.0, returns  # p90 of 20
        assert latency["jobs"] == 20
        assert set(latency) == {"jobs", *engine_mod.STAGES}
        assert latency["return"]["p50"] <= latency["return"]["p90"] < 5.0

    def test_stages_stay_off_the_payload_and_the_cache(self, tmp_path):
        req = make_request(max_steps=2)
        svc = ServiceConfig(workers=1, workdir=str(tmp_path / "w"))
        with JobEngine(svc) as engine:
            first, joined = engine.submit(req), engine.submit(req)
            computed = first.result(timeout=180)
            assert computed.stages is not None and not computed.cached
            assert joined.result(timeout=180).stages is None
            assert joined.result().payload is computed.payload
            hit = engine.submit(req).result(timeout=10)
            assert hit.cached and hit.stages is None
            meta, payload = engine.cache.get(req.key())
            scorecard = format_service_scorecard(health_snapshot(engine))
        assert set(meta) == {"schema", "key", "attempts", "wall_seconds",
                             "runtime"}
        assert set(payload) == set(computed.payload) == {
            "schema", "final_field", "steps", "times", "dts",
            "first_recorded_step", "series", "wall_seconds"}
        assert "ms per stage" in scorecard and "persist" in scorecard

    def test_engine_keeps_open_jobs_only(self, tmp_path):
        svc = ServiceConfig(workers=2, workdir=str(tmp_path / "w"),
                            max_pending=64)
        reqs = [JobRequest(
            config=SimulationConfig(cells=16, block_size=8, max_steps=1),
            ic=ICSpec("uniform", {"rho": 1000.0, "p": 50.0 + i}))
            for i in range(50)]
        with JobEngine(svc) as engine:
            handles = [engine.submit(r) for r in reqs]
            assert len(engine._jobs) == 50
            assert engine.drain(timeout=180)
            for _ in range(10):
                for r in reqs:
                    assert engine.submit(r).result(timeout=10).cached
            assert len(engine._jobs) == 0 and not engine._active_by_key
            snap = health_snapshot(engine)
            assert snap["jobs"]["by_status"] == {"done_computed": 50,
                                                 "done_cached": 500}
            # A late result of a popped seq is dropped, not resurrected.
            worker = next(iter(engine.pool.workers.values()))
            body = handles[0].result().payload
            engine._on_result(worker, (handles[0]._job.seq, "ok", body, {},
                                       [], (0.0, 0.0)), time.monotonic())
            assert engine.counters["computed"] == 50
            assert len(engine._jobs) == 0

    def test_idle_worker_killed_is_replaced(self, tmp_path):
        svc = ServiceConfig(workers=1, workdir=str(tmp_path / "w"))
        with JobEngine(svc) as engine:
            (first,) = engine.pool.workers.values()
            os.kill(first.process.pid, signal.SIGKILL)
            wait_until(lambda: list(engine.pool.workers) == [1], 10.0,
                       "the replacement")
            # ... no sooner than the spawn-storm guard allows
            (second,) = engine.pool.workers.values()
            assert second.spawned_at - first.spawned_at \
                >= engine_mod._RESPAWN_GAP
            result = engine.submit(make_request(max_steps=1)).result(180)
            assert result.attempts == 1

    def test_busy_worker_killed_retries_at_once(self, tmp_path):
        req = make_request(max_steps=150)
        svc = ServiceConfig(
            workers=1, workdir=str(tmp_path / "w"),
            backoff=BackoffPolicy(max_attempts=3, base_delay=0.01,
                                  max_delay=0.02))
        with JobEngine(svc) as engine:
            handle = engine.submit(req)  # no fault plan: nothing watched
            wait_until(lambda: busy_worker(engine) is not None, 60.0,
                       "the job to be stepping")
            victim = busy_worker(engine)
            killed_at = time.monotonic()
            os.kill(victim.process.pid, signal.SIGKILL)
            wait_until(lambda: handle.attempts == 2, 10.0, "the retry")
            (fresh,) = engine.pool.workers.values()
            wait_until(lambda: fresh.busy_seq is not None, 10.0,
                       "the dispatch")
            assert fresh.id != victim.id
            assert fresh.dispatched_at - killed_at < 0.3
            result = handle.result(timeout=180)
            assert result.attempts == 2
            assert engine.failures_by_kind == {"worker_lost": 1}
        np.testing.assert_array_equal(result.final_field,
                                      reference_field(req))

    def test_worker_that_cannot_start_is_no_spawn_storm(self, tmp_path,
                                                        monkeypatch):
        from repro.service import workers as workers_mod

        monkeypatch.setattr(workers_mod, "worker_main", _exit_at_once)
        svc = ServiceConfig(workers=1, workdir=str(tmp_path / "w"),
                            start_method="fork")
        engine = JobEngine(svc).start()
        try:
            time.sleep(1.2)
            assert 1 <= engine.pool.restarts <= 3
        finally:
            engine.shutdown(drain=False)

    def test_full_wake_pipe_and_idle_supervisor(self, tmp_path,
                                                monkeypatch):
        waits = []

        def counted_wait(objs, timeout=None):
            if in_supervisor():
                waits.append(timeout)
            return real_wait(objs, timeout)

        real_wait = multiprocessing.connection.wait
        monkeypatch.setattr(multiprocessing.connection, "wait", counted_wait)
        engine = JobEngine(ServiceConfig(workers=1,
                                         workdir=str(tmp_path / "w")))
        for _ in range(100_000):
            engine._wake()  # fills the pipe; neither blocks nor raises
        with engine:
            wait_until(lambda: len(waits) >= 2 and waits[-1] is None,
                       10.0, "the supervisor to go idle")
            # One pass drained the lot ...
            with pytest.raises(BlockingIOError):
                os.read(engine._wake_r, 1)
            # ... and an idle supervisor makes no iterations at all.
            seen = len(waits)
            assert seen == 2
            time.sleep(2.0)
            assert len(waits) == seen
            engine.submit(make_request(max_steps=1)).result(timeout=180)
            assert len(waits) > seen

    def test_shutdown_with_a_result_unread_in_the_pipe(self, tmp_path,
                                                       monkeypatch):
        gate = threading.Event()
        gate.set()
        real_wait = multiprocessing.connection.wait

        def gated_wait(objs, timeout=None):
            ready = real_wait(objs, timeout)
            if in_supervisor():
                gate.wait(30.0)  # held off its pipes
            return ready

        monkeypatch.setattr(multiprocessing.connection, "wait", gated_wait)
        svc = ServiceConfig(workers=1, workdir=str(tmp_path / "w"))
        engine = JobEngine(svc).start()
        handle = engine.submit(make_request(max_steps=30))
        wait_until(lambda: handle.status == "running", 60.0, "dispatch")
        gate.clear()
        (worker,) = engine.pool.workers.values()
        wait_until(lambda: handle.done() or worker.result_r.poll(0), 60.0,
                   "the result to reach the pipe")
        stopper = threading.Thread(target=engine.shutdown,
                                   kwargs={"drain": False})
        t0 = time.monotonic()
        stopper.start()
        wait_until(handle.done, 10.0, "the cancellation")
        gate.set()
        stopper.join(timeout=15.0)
        assert not stopper.is_alive()
        assert time.monotonic() - t0 < 15.0
        assert engine.state == "stopped"
        assert handle.status in ("cancelled", "done_computed")

    def test_shutdown_returns_after_the_supervisor_is_gone(self, tmp_path,
                                                          monkeypatch):
        real_wait = multiprocessing.connection.wait

        def slow_last_look(objs, timeout=None):
            if in_supervisor() and engine._stop.is_set():
                time.sleep(2.0)  # the final drain outlasts the pool's stop
            return real_wait(objs, timeout)

        monkeypatch.setattr(multiprocessing.connection, "wait",
                            slow_last_look)
        svc = ServiceConfig(workers=1, workdir=str(tmp_path / "w"))
        engine = JobEngine(svc).start()
        engine.shutdown(drain=False)
        assert not engine._supervisor.is_alive()

    def test_no_lock_is_held_across_a_receive(self, tmp_path, monkeypatch):
        """A client never waits on a result in transit: the supervisor
        takes a message off a pipe without holding the engine's lock."""
        receiving, gate = threading.Event(), threading.Event()
        real_recv = multiprocessing.connection.Connection.recv

        def held_recv(conn):
            if in_supervisor() and not gate.is_set():
                receiving.set()
                gate.wait(30.0)
            return real_recv(conn)

        monkeypatch.setattr(multiprocessing.connection.Connection, "recv",
                            held_recv)
        svc = ServiceConfig(workers=1, workdir=str(tmp_path / "w"))
        with JobEngine(svc) as engine:
            first = engine.submit(make_request(max_steps=1))
            try:
                assert receiving.wait(180.0), "no result reached the pipe"
                client = threading.Thread(
                    target=engine.submit, args=(make_request(max_steps=2),))
                client.start()
                client.join(timeout=5.0)
                assert not client.is_alive(), \
                    "submit waited on the supervisor's receive"
            finally:
                gate.set()
            client.join(timeout=10.0)
            assert not client.is_alive()
            assert first.result(timeout=180).attempts == 1

    def test_no_fd_or_process_left_behind(self, tmp_path, monkeypatch,
                                          resource_ledger):
        monkeypatch.setattr(engine_mod, "_RESPAWN_GAP", 0.0)

        def cycle(i):
            svc = ServiceConfig(workers=1,
                                workdir=str(tmp_path / f"w{i}"))
            engine = JobEngine(svc).start()
            (worker,) = engine.pool.workers.values()
            os.kill(worker.process.pid, signal.SIGKILL)
            wait_until(lambda: list(engine.pool.workers) == [1], 10.0,
                       "the replacement")
            engine.pool.retire(engine.pool.workers[1])
            engine.shutdown(drain=False)

        cycle(0)  # multiprocessing's own lazily opened fds
        fds = len(os.listdir("/proc/self/fd"))
        for i in range(1, 11):
            cycle(i)
        assert len(os.listdir("/proc/self/fd")) == fds

"""Chaos acceptance of the job service (this PR's acceptance criterion).

A seeded chaos campaign -- rank crashes, an injected stall punished
by the per-job timeout, one corrupted cache entry, and a poison config
-- must leave every legitimate job completed with results bit-identical
to fault-free runs, duplicates served without recompute, the poison
config quarantined within the breaker threshold, and the scorecard
reporting retries / cache hits / shed counts.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.driver import Simulation
from repro.resilience import FaultPlan, FaultSpec
from repro.service import (
    BackoffPolicy,
    ICSpec,
    JobEngine,
    JobRequest,
    PoisonedConfigError,
    ServiceConfig,
    format_service_scorecard,
    health_snapshot,
)
from repro.sim import SimulationConfig

IC = ICSpec("uniform", {"rho": 1000.0, "p": 100.0})


@pytest.fixture(autouse=True)
def _no_leaked_resources(resource_ledger):
    """Every chaos test must wind down to zero leaked segments,
    worker processes and threads (enforced at runtime by
    :class:`repro.analysis.ledger.ResourceLedger`)."""
    yield


def make_request(p=100.0, steps=3):
    cfg = SimulationConfig(cells=16, block_size=8, max_steps=steps,
                           diag_interval=1)
    return JobRequest(config=cfg, ic=ICSpec("uniform",
                                            {"rho": 1000.0, "p": p}))


@pytest.mark.tier2
class TestChaosAcceptance:
    def test_seeded_chaos_campaign(self, tmp_path):
        # Five unique scenarios; requests 0 and 1 get chaos plans.
        uniques = [make_request(p=100.0 * (i + 1), steps=3)
                   for i in range(5)]
        references = {
            r.key(): Simulation(r.config, r.ic.build()).run().final_field
            for r in uniques
        }
        kill_plan = FaultPlan(seed=71, faults=[
            FaultSpec(kind="rank_crash", step=2, max_hits=1),
        ])
        stall_plan = FaultPlan(seed=72, faults=[
            FaultSpec(kind="straggler", step=2, delay=60.0, max_hits=1),
        ])
        poison_plan = FaultPlan(seed=73, faults=[
            FaultSpec(kind="rank_crash", step=1, max_hits=0),  # every try
        ])
        # Service-level chaos: corrupt the first result-cache write.
        service_plan = FaultPlan(seed=74, faults=[
            FaultSpec(kind="ckpt_bitflip", rank=-1, max_hits=1),
        ])
        svc = ServiceConfig(
            workers=3,
            workdir=str(tmp_path / "service"),
            backoff=BackoffPolicy(max_attempts=4, base_delay=0.05,
                                  max_delay=0.3),
            breaker_threshold=2,
            fault_plan=service_plan,
            seed=2013,
        )
        with JobEngine(svc) as engine:
            # Phase 1: unique scenarios + in-flight duplicates (8 jobs).
            handles = [
                engine.submit(uniques[0], fault_plan=kill_plan),
                engine.submit(uniques[1], fault_plan=stall_plan,
                              timeout=6.0),
                engine.submit(uniques[2]),
                engine.submit(uniques[3]),
                engine.submit(uniques[4]),
                engine.submit(uniques[2]),  # duplicate: single-flight
                engine.submit(uniques[3]),  # duplicate
                engine.submit(uniques[4]),  # duplicate
            ]
            poison_handle = engine.submit(make_request(p=777.0, steps=2),
                                          fault_plan=poison_plan)
            results = [h.result(timeout=300) for h in handles]
            with pytest.raises(PoisonedConfigError) as poison_exc:
                poison_handle.result(timeout=300)

            # Every legitimate job completed bit-identical to fault-free.
            for handle, result in zip(handles, results):
                np.testing.assert_array_equal(
                    result.final_field, references[handle.key]
                )
            # The crashed and the stalled job were each retried once.
            assert results[0].attempts == 2
            assert results[1].attempts == 2
            # 1 crash of the kill-plan job + 2 of the poison job's
            # attempts.
            assert engine.failures_by_kind["rank_crash"] == 3
            assert engine.counters["timeouts"] == 1
            # Duplicates joined the in-flight computation: 5 computes.
            assert engine.counters["computed"] == 5
            assert engine.counters["dedup_joined"] == 3
            # Poison config: quarantined within K distinct-worker tries.
            assert poison_handle.status == "poisoned"
            assert poison_handle.attempts <= svc.breaker_threshold
            assert len(set(poison_exc.value.workers)) == 2
            assert engine.counters["breaker_opened"] == 1

            # Phase 2: resubmit after drain.  One cache entry was
            # corrupted at write time by the service plan; its read must
            # quarantine and transparently recompute, the others serve
            # verified cache hits.
            assert engine.injector.counters["injected_ckpt_bitflip"] == 1
            resubmits = [engine.submit(r) for r in uniques]
            for req, handle in zip(uniques, resubmits):
                np.testing.assert_array_equal(
                    handle.result(timeout=300).final_field,
                    references[req.key()],
                )
            assert engine.cache.counters["quarantined"] == 1
            assert engine.counters["cache_hits"] == 4
            assert engine.counters["computed"] == 6  # 5 + 1 recompute

            snapshot = health_snapshot(engine)
            scorecard = format_service_scorecard(snapshot)
        # The scorecard reports the required observability counters.
        assert "retries" in scorecard
        assert "cache hits" in scorecard
        assert "shed" in scorecard
        assert snapshot["counters"]["retries"] >= 2
        assert snapshot["counters"]["cache_hits"] == 4
        assert snapshot["counters"]["shed"] == 0
        assert snapshot["cache"]["quarantined"] == 1
        assert len(snapshot["breaker"]["open_keys"]) == 1


@pytest.mark.slow
class TestProcsServiceChaos:
    def test_multi_rank_sigkill_through_service(self, tmp_path):
        """Both rank processes of a procs job crash at the same step.

        Each rank SIGKILLs itself, its spent hit sent home first; the
        worker reports the rank loss gracefully, the service retries on
        a fresh worker with the consumed crashes merged home, and the
        retry completes bit-identically.  A duplicate submission is then
        served from the cache without recompute.
        """
        cfg = SimulationConfig(cells=16, block_size=8, max_steps=4,
                               diag_interval=1, ranks=2,
                               cluster_backend="procs", comm_timeout=30.0)
        req = JobRequest(config=cfg, ic=IC)
        sim_cfg = SimulationConfig(cells=16, block_size=8, max_steps=4,
                                   diag_interval=1)
        reference = Simulation(sim_cfg, IC.build()).run().final_field

        plan = FaultPlan(seed=75, faults=[
            FaultSpec(kind="rank_crash", rank=0, step=2, max_hits=1),
            FaultSpec(kind="rank_crash", rank=1, step=2, max_hits=1),
        ])
        svc = ServiceConfig(workers=1, workdir=str(tmp_path / "w"),
                            backoff=BackoffPolicy(max_attempts=3,
                                                  base_delay=0.05,
                                                  max_delay=0.3))
        with JobEngine(svc) as engine:
            handle = engine.submit(req, fault_plan=plan)
            result = handle.result(timeout=300)
            assert result.attempts == 2
            assert engine.failures_by_kind.get("rank_crash") == 1
            assert engine.pool.restarts >= 1
            # Both crashes fired inside the worker and were merged
            # home: the retry saw them consumed.
            assert handle._job.injector.hit_state() == [1, 1]
            # Cross-backend bit-identity holds through the service path.
            np.testing.assert_array_equal(result.final_field, reference)

            dup = engine.submit(req).result(timeout=30)
            assert dup.cached
            assert engine.counters["computed"] == 1
        np.testing.assert_array_equal(dup.final_field, reference)

"""The one failure taxonomy (repro.exitcodes): every failure type, bare
and inside a failed SPMD world, classifies to one row -- kind,
retryable, exit code -- and the CLI, the job service and the in-process
supervised run read the same row."""

from __future__ import annotations

import pytest

from repro.analysis.sanitizer import NumericsViolationError
from repro.cluster.mpi_sim import (
    CommTimeoutError,
    DeadlockError,
    WorldAbortError,
    WorldError,
)
from repro.cluster.procs import RankLostError, RingCorruptionError
from repro.exitcodes import KIND_EXIT, NAMES, TAXONOMY, classify
from repro.resilience import (
    CheckpointCorruptError,
    FaultPlan,
    HaloCorruptionError,
    InjectedRankCrash,
    ResilientSimulation,
)
from repro.service import (
    BackoffPolicy,
    CacheCorruptError,
    JobEngine,
    JobFailedError,
    JobRequest,
    JobShedError,
    PoisonedConfigError,
    RequestError,
    ServiceConfig,
)
from repro.service.request import ICSpec
from repro.sim import SimulationConfig
from repro.sim.ic import uniform

#: kind -> (retryable, exit code): the documented table, written out.
EXPECTED = {
    "rank_crash": (True, 67),
    "worker_lost": (True, 67),
    "msg_corrupt": (True, 65),
    "ckpt_corrupt": (True, 65),
    "cache_corrupt": (True, 65),
    "numerics": (False, 70),
    "invalid": (False, 64),
    "deadlock": (True, 66),
    "comm_timeout": (True, 1),
    "timeout": (True, 1),
    "worker_hung": (True, 1),
    "exhausted": (False, 68),
    "poisoned": (False, 69),
    "shed": (True, 75),
    "cancelled": (False, 1),
    "error": (True, 1),
}

#: One row per failure type: (id, exception, kind, retryable, exit code).
ROWS = [
    ("injected_crash", InjectedRankCrash("crash"), "rank_crash", True, 67),
    ("rank_lost", RankLostError("gone"), "rank_crash", True, 67),
    ("deadlock", DeadlockError("stuck", report=""), "deadlock", True, 66),
    ("comm_timeout", CommTimeoutError("slow"), "comm_timeout", True, 1),
    ("halo_corrupt", HaloCorruptionError("crc"), "msg_corrupt", True, 65),
    ("ring_corrupt", RingCorruptionError("crc"), "msg_corrupt", True, 65),
    ("ckpt_corrupt", CheckpointCorruptError("crc"), "ckpt_corrupt", True,
     65),
    ("cache_corrupt", CacheCorruptError("crc"), "cache_corrupt", True, 65),
    ("numerics", NumericsViolationError([]), "numerics", False, 70),
    ("request", RequestError("bad"), "invalid", False, 64),
    ("value", ValueError("bad"), "invalid", False, 64),
    ("poisoned", PoisonedConfigError("k" * 64, (0, 1), ("rank_crash",) * 2),
     "poisoned", False, 69),
    ("shed", JobShedError(), "shed", True, 75),
    ("exhausted", JobFailedError.exhausted("rank_crash", "x", 2),
     "exhausted", False, 68),
    ("unknown", RuntimeError("???"), "error", True, 1),
    ("job_failed_unknown", JobFailedError("mystery"), "error", True, 1),
] + [
    (f"job_failed_{kind}", JobFailedError(kind), kind, *EXPECTED[kind])
    for kind in EXPECTED
]


def test_the_table_is_the_documented_one():
    assert set(EXPECTED) == set(TAXONOMY) == set(KIND_EXIT)
    for kind, (retryable, code) in EXPECTED.items():
        assert TAXONOMY[kind].retryable is retryable, kind
        assert KIND_EXIT[kind] == code, kind
        assert code in NAMES
    assert all(0 <= code < 126 for code in NAMES)  # below the signal range


@pytest.mark.parametrize("wrapped", [False, True], ids=["bare", "world"])
@pytest.mark.parametrize("exc,kind,retryable,code",
                         [row[1:] for row in ROWS],
                         ids=[row[0] for row in ROWS])
def test_row(exc, kind, retryable, code, wrapped):
    if wrapped:
        exc = WorldError({0: WorldAbortError("teardown"), 1: exc})
    assert classify(exc) == (kind, retryable)
    assert KIND_EXIT[kind] == code


def test_a_world_is_classified_by_its_most_specific_failure():
    world = WorldError({0: CommTimeoutError("waiting"),
                        1: InjectedRankCrash("crash")})
    assert classify(world) == ("rank_crash", True)
    only_aborts = WorldError({0: WorldAbortError("teardown")})
    assert classify(only_aborts) == ("error", True)


# -- every caller reads the same rows --------------------------------------

#: A rank that crashes at step 1 of every attempt.
ALWAYS_CRASH = {"seed": 5, "faults": [
    {"kind": "rank_crash", "step": 1, "max_hits": 0}]}


def test_supervised_run_ledger():
    cfg = SimulationConfig(cells=16, block_size=8, max_steps=2,
                           max_recoveries=1,
                           fault_plan=FaultPlan.from_dict(ALWAYS_CRASH))
    sup = ResilientSimulation(cfg, uniform())
    with pytest.raises(JobFailedError) as exc:
        sup.run()
    assert [ev.kind for ev in sup.events] == ["rank_crash"]
    assert exc.value.attempts == sup.attempts == 2
    assert classify(exc.value.__cause__) == ("rank_crash", True)
    credited = TAXONOMY["rank_crash"].credits
    assert sup.injector.counters[f"detected_{credited}"] == 2
    assert sup.injector.counters[f"recovered_{credited}"] == 1
    assert classify(exc.value) == ("exhausted", False)


def test_cli_exit_code(tmp_path, capsys):
    from repro.cli import main

    plan = tmp_path / "plan.json"
    FaultPlan.from_dict(ALWAYS_CRASH).to_file(str(plan))
    code = main(["run", "--cells", "16", "--steps", "2", "--bubbles", "1",
                 "--fault-plan", str(plan), "--max-recoveries", "1"])
    assert code == KIND_EXIT["exhausted"]
    assert "error[exhausted]" in capsys.readouterr().err


def test_engine_failures_by_kind(tmp_path):
    cfg = SimulationConfig(cells=16, block_size=8, max_steps=2)
    svc = ServiceConfig(workers=1, workdir=str(tmp_path),
                        backoff=BackoffPolicy(max_attempts=2,
                                              base_delay=0.01,
                                              max_delay=0.02),
                        breaker_threshold=10)
    with JobEngine(svc) as engine:
        handle = engine.submit(JobRequest(config=cfg, ic=ICSpec("uniform")),
                               fault_plan=FaultPlan.from_dict(ALWAYS_CRASH))
        with pytest.raises(JobFailedError) as exc:
            handle.result(timeout=120)
        assert engine.failures_by_kind == {"rank_crash": 2}
    assert classify(exc.value) == ("exhausted", False)
    assert handle.attempts == 2

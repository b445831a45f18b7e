"""Tests of repro.resilience: chaos engine, detection, recovery.

The chaos-restart tests are the PR's acceptance criterion: a seeded
faulted campaign (rank crash + corrupted newest checkpoint + one dump
I/O failure) must complete through automatic rollback with a final field
*bit-exact* to the fault-free run, every injected fault detected and
recovered, and recovery overhead below the 20% bound.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.cluster import (
    CommTimeoutError,
    Simulation,
    SimWorld,
    WorldAbortError,
    WorldError,
    checkpoint_path,
    feasible_rank_counts,
    list_checkpoints,
    prune_checkpoints,
    read_checkpoint_field,
    write_checkpoint,
)
from repro.resilience import (
    MAX_RECOVERY_OVERHEAD,
    CheckpointCorruptError,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    HaloCorruptionError,
    HaloFrame,
    ResilienceExhaustedError,
    ResilientSimulation,
    RetryPolicy,
    TransientCommError,
    all_faults_recovered,
    crc32_array,
    find_latest_verified_checkpoint,
    format_resilience_scorecard,
    prune_stale_tmp,
    retry_transient,
    screen_restored_state,
)
from repro.sim import SimulationConfig
from repro.sim.ic import Bubble, cloud_collapse

from .conftest import make_uniform_aos


def collapse_ic():
    return cloud_collapse([Bubble((0.5, 0.5, 0.5), 0.2)], p_liquid=1000.0)


BASE = dict(cells=16, block_size=8, diag_interval=0)


# -- fault plans ----------------------------------------------------------


class TestFaultPlan:
    def test_json_round_trip(self, tmp_path):
        plan = FaultPlan(seed=42, faults=[
            FaultSpec(kind="rank_crash", rank=1, step=3),
            FaultSpec(kind="io_fail", target="checkpoint", probability=0.5),
        ])
        p = tmp_path / "plan.json"
        plan.to_file(str(p))
        back = FaultPlan.from_file(str(p))
        assert back == plan
        assert back.kinds() == {"rank_crash", "io_fail"}

    def test_dicts_coerced_to_specs(self):
        plan = FaultPlan(faults=[{"kind": "straggler", "delay": 0.1}])
        assert isinstance(plan.faults[0], FaultSpec)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(kind="power_surge")

    def test_io_fail_target_validated(self):
        with pytest.raises(ValueError, match="target"):
            FaultSpec(kind="io_fail", target="halo")

    def test_config_coerces_mapping(self, tmp_path):
        cfg = SimulationConfig(
            **BASE, fault_plan={"seed": 7, "faults": [{"kind": "straggler"}]}
        )
        assert isinstance(cfg.fault_plan, FaultPlan)
        assert cfg.fault_plan.seed == 7


# -- the injector ---------------------------------------------------------


class TestFaultInjector:
    def test_max_hits_bounds_firings(self):
        inj = FaultInjector(FaultPlan(faults=[
            FaultSpec(kind="rank_crash", rank=0, max_hits=1),
        ]))
        with pytest.raises(Exception, match="injected crash"):
            inj.at_step(0, 1)
        inj.at_step(0, 2)  # consumed: does not fire again
        assert inj.counters["injected_rank_crash"] == 1

    def test_step_addressing(self):
        inj = FaultInjector(FaultPlan(faults=[
            FaultSpec(kind="rank_crash", rank=0, step=3),
        ]))
        inj.at_step(0, 1)
        inj.at_step(0, 2)
        with pytest.raises(Exception, match="step 3"):
            inj.at_step(0, 3)

    def test_a_parent_owned_kill_is_waited_for_at_its_step(self, monkeypatch):
        """Where the parent delivers ``rank_crash`` as a SIGKILL, the rank
        holds at the step the spec names, the step published -- bounded,
        and only for a spec it can foresee."""
        import time

        from repro.resilience import inject

        monkeypatch.setattr(inject, "KILL_WAIT", 0.2)
        parent = FaultInjector(FaultPlan(faults=[
            FaultSpec(kind="rank_crash", rank=1, step=3, max_hits=1),
            FaultSpec(kind="rank_crash", step=5, probability=0.99),
        ]))
        child = parent.child_clone(disable_kinds=("rank_crash",))
        seen = []
        child.step_listener = lambda rank, step: seen.append((rank, step))
        t0 = time.monotonic()
        child.at_step(1, 2)     # another step
        child.at_step(0, 3)     # another rank
        child.at_step(1, 5)     # the parent draws: not foreseeable
        assert time.monotonic() - t0 < 0.1 and len(seen) == 3
        with pytest.raises(inject.KillNotDeliveredError,
                           match=r"rank 1 .* step 3 .*max_hits=1"):
            child.at_step(1, 3)
        assert time.monotonic() - t0 >= 0.2
        assert seen.count((1, 3)) > 2       # published while it waited
        assert child.hit_state() == [0, 0]  # the parent's to consume
        # the parent fires, the retry's clone starts from the spent hit
        assert parent.fire("rank_crash", 1, 3)
        retry = parent.child_clone(disable_kinds=("rank_crash",))
        t0 = time.monotonic()
        retry.at_step(1, 3)
        assert time.monotonic() - t0 < 0.1
        # a listener that raises (procs: the world aborted over a peer's
        # kill) ends the wait with its error
        monkeypatch.setattr(inject, "KILL_WAIT", 30.0)

        del seen[:]

        def aborted(rank, step):
            seen.append((rank, step))
            if len(seen) > 3:   # (the first call is begin_step's)
                raise WorldAbortError("world aborted")
        child.step_listener = aborted
        with pytest.raises(WorldAbortError):
            child.at_step(1, 3)
        assert len(seen) == 4

    def test_probability_stream_is_seeded(self):
        def run(seed):
            inj = FaultInjector(FaultPlan(seed=seed, faults=[
                FaultSpec(kind="msg_drop", probability=0.5, max_hits=0),
            ]))
            inj.begin_step(0, 1)
            from repro.resilience import DROPPED

            return [inj.on_send(0, 1, None) is DROPPED for _ in range(32)]

        assert run(1) == run(1)
        assert run(1) != run(2)

    def test_empty_plan_is_pure_monitor(self):
        inj = FaultInjector()
        inj.at_step(0, 1)
        inj.count("dumps_skipped")
        assert inj.counters == {"dumps_skipped": 1}

    def test_corrupt_checkpoint_payload_flips_one_bit(self):
        inj = FaultInjector(FaultPlan(faults=[
            FaultSpec(kind="ckpt_bitflip", rank=0, step=1),
        ]))
        payload = bytes(64)
        out = inj.corrupt_checkpoint_payload(0, 1, payload)
        assert out != payload
        diff = [a ^ b for a, b in zip(payload, out) if a != b]
        assert len(diff) == 1 and bin(diff[0]).count("1") == 1


# -- retries --------------------------------------------------------------


class TestRetry:
    def test_recovers_after_transients(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise TransientCommError("flap")
            return "ok"

        policy = RetryPolicy(max_attempts=3, base_delay=0.0, max_delay=0.0)
        assert retry_transient(flaky, policy) == "ok"
        assert calls["n"] == 3

    def test_exhaustion_reraises(self):
        def always():
            raise TransientCommError("down")

        policy = RetryPolicy(max_attempts=2, base_delay=0.0, max_delay=0.0)
        with pytest.raises(TransientCommError):
            retry_transient(always, policy)

    def test_non_transient_propagates_immediately(self):
        calls = {"n": 0}

        def boom():
            calls["n"] += 1
            raise ValueError("not transient")

        with pytest.raises(ValueError):
            retry_transient(boom, RetryPolicy(max_attempts=5, base_delay=0.0))
        assert calls["n"] == 1

    def test_jitter_sequence_is_the_seeded_one(self, monkeypatch):
        """Two transients then success: the two backoff sleeps are the
        draws of ``Random(2013)`` recorded when every call seeded one."""
        import time

        slept = []
        monkeypatch.setattr(time, "sleep", slept.append)
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise TransientCommError("flap")
            return "ok"

        assert retry_transient(flaky, RetryPolicy(seed=2013)) == "ok"
        assert slept == [0.01212588719383985, 0.020519068379440633]

    def test_success_builds_no_generator(self, monkeypatch):
        import random

        built = []

        class Counting(random.Random):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(random, "Random", Counting)
        policy = RetryPolicy(seed=7)
        for _ in range(1000):
            assert retry_transient(lambda: 1, policy) == 1
        assert built == []

    def test_in_halo_path(self, tmp_path):
        """A transient send is retried in place: no world failure."""
        plan = FaultPlan(faults=[
            FaultSpec(kind="comm_transient", rank=0, step=2),
        ])
        inj = FaultInjector(plan)
        cfg = SimulationConfig(**BASE, max_steps=3, ranks=2, fault_plan=plan)
        result = Simulation(cfg, collapse_ic(), injector=inj).run()
        assert len(result.records) == 3
        assert inj.counters["comm_retries"] >= 1
        assert inj.counters["detected_comm_transient"] >= 1
        reference = Simulation(
            SimulationConfig(**BASE, max_steps=3, ranks=2), collapse_ic()
        ).run()
        np.testing.assert_array_equal(result.final_field,
                                      reference.final_field)


# -- detection primitives -------------------------------------------------


class TestDetection:
    def test_halo_frame_verifies(self, rng):
        slab = rng.normal(size=(4, 4, 7)).astype(np.float32)
        frame = HaloFrame(crc=crc32_array(slab), payload=slab)
        np.testing.assert_array_equal(
            frame.verify(source=1, axis=0, side=1), slab
        )
        assert frame.nbytes == slab.nbytes

    def test_halo_frame_catches_bit_flip(self, rng):
        slab = rng.normal(size=(4, 4, 7)).astype(np.float32)
        frame = HaloFrame(crc=crc32_array(slab), payload=slab)
        flipped = slab.view(np.uint8).reshape(-1).copy()
        flipped[13] ^= 1
        bad = HaloFrame(crc=frame.crc,
                        payload=flipped.view(np.float32).reshape(slab.shape))
        with pytest.raises(HaloCorruptionError, match="CRC32"):
            bad.verify(source=1, axis=0, side=1)

    def test_screen_accepts_physical_state(self):
        screen_restored_state(make_uniform_aos((4, 4, 4)))

    def test_screen_localizes_nan(self):
        field = make_uniform_aos((4, 4, 4))
        field[1, 2, 3, 0] = np.nan
        with pytest.raises(CheckpointCorruptError, match=r"\(1, 2, 3\)"):
            screen_restored_state(field)

    def test_screen_rejects_nonpositive_density(self):
        field = make_uniform_aos((4, 4, 4))
        field[0, 0, 0, 0] = -1.0
        with pytest.raises(CheckpointCorruptError, match="density"):
            screen_restored_state(field)


# -- checkpoint durability ------------------------------------------------


def write_one_checkpoint(path, field, t=0.0, step=1, injector=None):
    world = SimWorld(1)

    def main(comm):
        return write_checkpoint(comm, path, field, (0, 0, 0), t=t, step=step,
                                injector=injector)

    return world.run(main)[0]


class TestCheckpointDurability:
    def test_atomic_no_tmp_left_behind(self, tmp_path, rng):
        field = rng.normal(size=(8, 8, 8, 7)).astype(np.float32)
        path = checkpoint_path(str(tmp_path), 1)
        write_one_checkpoint(path, field)
        assert os.path.exists(path)
        assert not any(n.endswith(".tmp") for n in os.listdir(tmp_path))

    def test_rotation_keeps_newest_n(self, tmp_path, rng):
        field = rng.normal(size=(8, 8, 8, 7)).astype(np.float32)
        for step in (1, 2, 3, 4):
            write_one_checkpoint(
                checkpoint_path(str(tmp_path), step), field, step=step
            )
        removed = prune_checkpoints(str(tmp_path), keep=2)
        assert len(removed) == 2
        assert [s for s, _ in list_checkpoints(str(tmp_path))] == [3, 4]

    def test_block_crc_catches_storage_flip(self, tmp_path, rng):
        field = rng.normal(size=(8, 8, 8, 7)).astype(np.float32)
        path = checkpoint_path(str(tmp_path), 1)
        write_one_checkpoint(path, field)
        with open(path, "r+b") as f:
            f.seek(65536 + 100)  # inside the rank-0 block
            b = f.read(1)
            f.seek(-1, os.SEEK_CUR)
            f.write(bytes([b[0] ^ 0x08]))
        with pytest.raises(CheckpointCorruptError, match="CRC32"):
            read_checkpoint_field(path)

    def test_coverage_gap_raises_not_zero_fills(self, tmp_path, rng):
        """The satellite fix: a missing rank block must raise, never
        silently restart from a zero-filled field."""
        pieces = [rng.normal(size=(8, 8, 8, 7)).astype(np.float32)
                  for _ in range(2)]
        path = checkpoint_path(str(tmp_path), 1)
        world = SimWorld(2)

        def main(comm):
            write_checkpoint(comm, path, pieces[comm.rank],
                             (8 * comm.rank, 0, 0), t=0.0, step=1)

        world.run(main)
        import json as _json

        with open(path, "r+b") as f:
            header = _json.loads(f.read(65536).decode().rstrip())
            # Claim the second block starts further out: leaves a gap.
            header["ranks"][1]["origin_cells"] = [16, 0, 0]
            f.seek(0)
            f.write(_json.dumps(header).encode().ljust(65536))
        with pytest.raises(CheckpointCorruptError, match="gap"):
            read_checkpoint_field(path)

    def test_truncated_block_raises(self, tmp_path, rng):
        field = rng.normal(size=(8, 8, 8, 7)).astype(np.float32)
        path = checkpoint_path(str(tmp_path), 1)
        write_one_checkpoint(path, field)
        size = os.path.getsize(path)
        with open(path, "r+b") as f:
            f.truncate(size - 64)
        with pytest.raises(CheckpointCorruptError, match="truncated"):
            read_checkpoint_field(path)

    def test_garbage_header_raises_corrupt_error(self, tmp_path):
        p = tmp_path / "ckpt_000001.rck"
        p.write_bytes(b"\xff" * 70000)
        with pytest.raises(CheckpointCorruptError):
            read_checkpoint_field(str(p))

    def test_fallback_to_previous_verified_generation(self, tmp_path, rng):
        field = make_uniform_aos((8, 8, 8), dtype=np.float32)
        for step in (1, 2):
            write_one_checkpoint(
                checkpoint_path(str(tmp_path), step), field, step=step
            )
        # Corrupt the newest generation on disk.
        with open(checkpoint_path(str(tmp_path), 2), "r+b") as f:
            f.seek(65536 + 10)
            f.write(b"\x00\x01\x02\x03")
        inj = FaultInjector()
        found = find_latest_verified_checkpoint(str(tmp_path), injector=inj)
        assert found is not None
        step, path = found
        assert step == 1
        assert inj.counters["detected_ckpt_bitflip"] == 1
        assert inj.counters["checkpoints_rejected"] == 1

    def test_no_verified_generation_returns_none(self, tmp_path):
        (tmp_path / "ckpt_000001.rck").write_bytes(b"junk")
        assert find_latest_verified_checkpoint(
            str(tmp_path), injector=FaultInjector()
        ) is None

    def test_injected_write_failure_degrades(self, tmp_path):
        """A failed checkpoint write is a counted skip on every rank;
        previous generations survive and no temporary is left."""
        plan = FaultPlan(faults=[
            FaultSpec(kind="io_fail", target="checkpoint", rank=0, step=4),
        ])
        inj = FaultInjector(plan)
        cfg = SimulationConfig(
            **BASE, max_steps=6, ranks=2, checkpoint_interval=2,
            checkpoint_dir=str(tmp_path), fault_plan=plan,
        )
        result = Simulation(cfg, collapse_ic(), injector=inj).run()
        assert len(result.records) == 6
        steps = [s for s, _ in list_checkpoints(str(tmp_path))]
        assert steps == [2, 6]  # the step-4 generation failed
        assert not any(n.endswith(".tmp") for n in os.listdir(tmp_path))
        assert inj.counters["checkpoints_failed"] == 1
        assert inj.counters["recovered_io_fail"] >= 1

    def test_prune_stale_tmp(self, tmp_path):
        (tmp_path / "ckpt_000001.rck.tmp").write_bytes(b"partial")
        assert prune_stale_tmp(str(tmp_path)) == 1
        assert prune_stale_tmp(str(tmp_path)) == 0


# -- world failure semantics ---------------------------------------------


class TestWorldAbort:
    def test_crash_aborts_blocked_peers_quickly(self):
        """A failed rank wakes peers blocked in collectives immediately
        (MPI_Abort semantics) instead of leaving them to time out."""
        import time

        world = SimWorld(2, timeout=60.0)

        def main(comm):
            if comm.rank == 1:
                raise RuntimeError("boom")
            comm.barrier()  # would block 60 s without the abort

        t0 = time.monotonic()
        with pytest.raises(WorldError) as exc:
            world.run(main)
        assert time.monotonic() - t0 < 10.0
        assert isinstance(exc.value.failures[1], RuntimeError)
        prim = exc.value.primary_failures
        assert list(prim) == [1]
        assert all(
            isinstance(e, WorldAbortError)
            for r, e in exc.value.failures.items() if r != 1
        )


# -- chaos campaigns (the acceptance tests) -------------------------------


class TestChaosRecovery:
    def test_acceptance_campaign_bit_exact(self, tmp_path):
        """The ISSUE's acceptance campaign: rank crash + corrupted newest
        checkpoint + one dump I/O failure, recovered automatically with a
        bit-exact final field and bounded overhead."""
        ckpt = tmp_path / "ckpt"
        dumps = tmp_path
        ckpt.mkdir()
        plan = FaultPlan(seed=11, faults=[
            FaultSpec(kind="ckpt_bitflip", rank=0, step=4),
            FaultSpec(kind="rank_crash", rank=1, step=5),
            FaultSpec(kind="io_fail", target="dump", rank=0, step=7),
        ])
        cfg = SimulationConfig(
            **BASE, max_steps=40, ranks=2,
            checkpoint_interval=2, checkpoint_dir=str(ckpt),
            checkpoint_keep=4, dump_interval=7, dump_dir=str(dumps),
            fault_plan=plan, comm_timeout=10.0,
        )
        # Warm caches/imports outside the measured campaign so the
        # overhead assertion reflects lost steps, not first-run costs.
        Simulation(
            SimulationConfig(**BASE, max_steps=1, ranks=2), collapse_ic()
        ).run()
        rres = ResilientSimulation(cfg, collapse_ic()).run()
        assert rres.attempts == 2
        ev = rres.events[0]
        assert ev.kind == "rank_crash" and ev.action == "rollback"
        # The step-4 generation was corrupted: rollback fell back to 2.
        assert ev.checkpoint_step == 2
        c = rres.counters
        assert c["detected_ckpt_bitflip"] >= 1
        assert c["dumps_skipped"] == 1
        assert c["rollbacks"] == 1
        assert all_faults_recovered(rres)
        assert rres.recovery_overhead < MAX_RECOVERY_OVERHEAD
        card = format_resilience_scorecard(rres)
        assert "MISSED" not in card and "rank_crash" in card

        reference = Simulation(
            SimulationConfig(**BASE, max_steps=40, ranks=2), collapse_ic()
        ).run()
        np.testing.assert_array_equal(rres.result.final_field,
                                      reference.final_field)

    def test_recovery_on_shrunk_rank_count(self, tmp_path):
        """After a rank loss the relaunch may run on fewer ranks; the
        final field stays bit-exact (decomposition invariance)."""
        plan = FaultPlan(faults=[
            FaultSpec(kind="rank_crash", rank=1, step=3),
        ])
        cfg = SimulationConfig(
            **BASE, max_steps=6, ranks=2,
            checkpoint_interval=2, checkpoint_dir=str(tmp_path),
            fault_plan=plan, recovery_shrink=True, comm_timeout=10.0,
        )
        rres = ResilientSimulation(cfg, collapse_ic()).run()
        assert rres.attempts == 2
        assert rres.events[0].ranks == 1
        reference = Simulation(
            SimulationConfig(**BASE, max_steps=6, ranks=2), collapse_ic()
        ).run()
        np.testing.assert_array_equal(rres.result.final_field,
                                      reference.final_field)

    def test_corrupted_halo_triggers_rollback(self, tmp_path):
        plan = FaultPlan(faults=[
            FaultSpec(kind="msg_corrupt", rank=0, step=3),
        ])
        cfg = SimulationConfig(
            **BASE, max_steps=5, ranks=2,
            checkpoint_interval=2, checkpoint_dir=str(tmp_path),
            fault_plan=plan, comm_timeout=10.0,
        )
        rres = ResilientSimulation(cfg, collapse_ic()).run()
        assert rres.attempts == 2
        assert rres.events[0].kind == "msg_corrupt"
        assert rres.counters["detected_msg_corrupt"] >= 1
        reference = Simulation(
            SimulationConfig(**BASE, max_steps=5, ranks=2), collapse_ic()
        ).run()
        np.testing.assert_array_equal(rres.result.final_field,
                                      reference.final_field)

    def test_dropped_message_times_out_and_rolls_back(self, tmp_path):
        plan = FaultPlan(faults=[
            FaultSpec(kind="msg_drop", rank=0, step=3),
        ])
        cfg = SimulationConfig(
            **BASE, max_steps=4, ranks=2,
            checkpoint_interval=2, checkpoint_dir=str(tmp_path),
            fault_plan=plan, comm_timeout=2.0,
        )
        rres = ResilientSimulation(cfg, collapse_ic()).run()
        assert rres.attempts == 2
        assert rres.events[0].kind == "msg_drop"
        reference = Simulation(
            SimulationConfig(**BASE, max_steps=4, ranks=2), collapse_ic()
        ).run()
        np.testing.assert_array_equal(rres.result.final_field,
                                      reference.final_field)

    def test_exhaustion_raises_with_ledger(self, tmp_path):
        plan = FaultPlan(faults=[
            FaultSpec(kind="rank_crash", rank=0, max_hits=0),  # every step
        ])
        cfg = SimulationConfig(
            **BASE, max_steps=4, ranks=1,
            checkpoint_dir=str(tmp_path), fault_plan=plan,
            max_recoveries=2,
        )
        with pytest.raises(ResilienceExhaustedError) as exc:
            ResilientSimulation(cfg, collapse_ic()).run()
        assert len(exc.value.events) == 2


# -- topology helper ------------------------------------------------------


def test_feasible_rank_counts():
    assert feasible_rank_counts((2, 2, 2), 4) == [1, 2, 4]
    assert feasible_rank_counts((2, 2, 2), 3) == [1, 2]
    assert 3 not in feasible_rank_counts((4, 4, 4), 8)


# -- CLI integration ------------------------------------------------------


def test_cli_fault_plan_campaign(tmp_path, capsys):
    from repro.cli import main as cli_main

    plan = FaultPlan(faults=[FaultSpec(kind="rank_crash", rank=0, step=3)])
    plan_file = tmp_path / "plan.json"
    plan.to_file(str(plan_file))
    out_json = tmp_path / "resilience.json"
    rc = cli_main([
        "run", "--cells", "16", "--steps", "4", "--bubbles", "1",
        "--checkpoint-interval", "2", "--checkpoint-dir", str(tmp_path),
        "--fault-plan", str(plan_file),
        "--resilience-out", str(out_json),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Resilience scorecard" in out
    payload = json.loads(out_json.read_text())
    assert payload["all_faults_recovered"] is True
    assert payload["attempts"] == 2


# -- process-parallel chaos (real SIGKILL, procs backend) -----------------


@pytest.mark.slow
class TestProcsChaos:
    """Chaos coverage for the process-parallel backend: the injected
    ``rank_crash`` is delivered as a *real* ``SIGKILL`` of the rank
    process by the parent supervisor -- a genuine rank loss, not a
    simulated exception -- and the tier-3 rollback-relaunch path must
    still complete bit-exact."""

    def test_sigkill_triggers_rollback_bit_exact(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        plan = FaultPlan(seed=3, faults=[
            FaultSpec(kind="rank_crash", rank=1, step=5),
        ])
        cfg = SimulationConfig(
            **BASE, max_steps=8, ranks=2, cluster_backend="procs",
            checkpoint_interval=2, checkpoint_dir=str(ckpt),
            fault_plan=plan, comm_timeout=20.0,
        )
        rres = ResilientSimulation(cfg, collapse_ic()).run()
        # One real kill, one rollback, campaign complete.
        assert rres.attempts == 2
        ev = rres.events[0]
        assert ev.kind == "rank_crash" and ev.action == "rollback"
        assert ev.checkpoint_step == 4
        c = rres.counters
        assert c["injected_rank_crash"] == 1
        assert c["detected_rank_crash"] == 1
        assert c["rollbacks"] == 1
        assert all_faults_recovered(rres)

        # Bit-exact against the fault-free thread-backend reference:
        # one assertion covering both the recovery path and the
        # cross-backend contract.
        reference = Simulation(
            SimulationConfig(**BASE, max_steps=8, ranks=2), collapse_ic()
        ).run()
        np.testing.assert_array_equal(rres.result.final_field,
                                      reference.final_field)

    def test_sigkill_consumed_hit_does_not_refire(self, tmp_path):
        """The parent-side killer consumes the plan hit: after the
        relaunch the same step passes unharmed (max_hits semantics
        across real process loss)."""
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        plan = FaultPlan(seed=5, faults=[
            FaultSpec(kind="rank_crash", rank=0, step=3, max_hits=1),
        ])
        cfg = SimulationConfig(
            **BASE, max_steps=6, ranks=2, cluster_backend="procs",
            checkpoint_interval=2, checkpoint_dir=str(ckpt),
            fault_plan=plan, comm_timeout=20.0,
        )
        rres = ResilientSimulation(cfg, collapse_ic()).run()
        assert rres.attempts == 2
        assert rres.counters["injected_rank_crash"] == 1
        # The relaunch resumed from the step-2 checkpoint and ran to
        # completion -- step 3 passed on the second attempt.
        assert rres.result.records[-1].step == 6
        assert rres.result.records[0].step == 3

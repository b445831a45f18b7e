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
import pickle
import re

import numpy as np
import pytest

from repro.cluster import (
    CommTimeoutError,
    Simulation,
    SimWorld,
    WorldAbortError,
    WorldError,
    checkpoint_path,
    list_checkpoints,
    prune_checkpoints,
    read_checkpoint_field,
    write_checkpoint,
)
from repro.resilience import (
    MAX_RECOVERY_OVERHEAD,
    DROPPED,
    CheckpointCorruptError,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    HaloCorruptionError,
    HaloFrame,
    InjectedRankCrash,
    ResilientSimulation,
    all_faults_recovered,
    crc32_array,
    find_latest_verified_checkpoint,
    format_resilience_scorecard,
    prune_stale_tmp,
    screen_restored_state,
)
from repro.container import PRELUDE_SIZE
from repro.exitcodes import JobFailedError
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

    def test_a_clone_starts_where_its_parent_is(self):
        """A clone carries the consumed hits and the probabilistic
        streams, not the counters: a spent crash stays spent, and a
        process rank draws what a thread rank sharing the parent would."""
        parent = FaultInjector(FaultPlan(seed=4, faults=[
            FaultSpec(kind="rank_crash", rank=1, step=3, max_hits=1),
            FaultSpec(kind="msg_drop", probability=0.5, max_hits=0),
        ]))
        parent.reseed(2)
        with pytest.raises(InjectedRankCrash, match="rank 1 at step 3"):
            parent.at_step(1, 3)

        def drops(inj):
            return [inj.on_send(1, 0, None) is DROPPED for _ in range(32)]

        drops(parent)
        clone = parent.child_clone()
        assert clone.counters == {}
        assert clone.hit_state() == parent.hit_state()
        clone.at_step(1, 3)  # spent: does not fire again
        seen = drops(clone)
        assert seen == drops(parent) and 0 < sum(seen) < 32

    @pytest.mark.parametrize("probability", [1.0, 0.3])
    def test_world_clone_fires_a_rankless_crash_once(self, probability):
        """Rank processes each hold a copy of the world clone: a
        ``rank_crash`` naming no rank fires in rank 0 alone, at the step
        and with the ledger the shared injector of thread ranks gives."""
        plan = FaultPlan(seed=7, faults=[
            FaultSpec(kind="rank_crash", probability=probability),
        ])

        def first_crash(injectors):
            crashed = []
            for step in range(1, 40):
                for rank, inj in enumerate(injectors):
                    try:
                        inj.at_step(rank, step)
                    except InjectedRankCrash:
                        crashed.append(rank)
                if crashed:
                    return step, crashed
            return None, crashed

        shared = FaultInjector(plan)
        step, crashed = first_crash([shared] * 3)
        assert step is not None and len(crashed) == 1

        parent = FaultInjector(plan)
        ranks = [pickle.loads(pickle.dumps(parent.world_clone(3)))
                 for _ in range(3)]
        assert first_crash(ranks) == (step, [0])
        for child in ranks:
            parent.merge_child(child.counters, child.hit_state())
        assert parent.hit_state() == shared.hit_state() == [1]
        assert parent.counters == shared.counters == {
            "injected_rank_crash": 1}

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

    def test_in_halo_path_budget(self):
        """A send that keeps failing is tried three times, then the run
        fails."""
        plan = FaultPlan(faults=[
            FaultSpec(kind="comm_transient", rank=0, step=2, max_hits=0),
        ])
        inj = FaultInjector(plan)
        cfg = SimulationConfig(**BASE, max_steps=3, ranks=2, fault_plan=plan,
                               comm_timeout=10.0)
        with pytest.raises(WorldError):
            Simulation(cfg, collapse_ic(), injector=inj).run()
        assert inj.counters["injected_comm_transient"] == 3
        assert inj.counters["comm_retries"] == 2


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
            f.seek(PRELUDE_SIZE + 100)  # inside the rank-0 block
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
            # The second block starts further out: leaves a gap.
            write_checkpoint(comm, path, pieces[comm.rank],
                             (16 * comm.rank, 0, 0), t=0.0, step=1)

        world.run(main)
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
            f.seek(PRELUDE_SIZE + 10)
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
        assert rres.events[0].kind == "deadlock"
        assert rres.counters["recovered_msg_drop"] == 1
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
        sup = ResilientSimulation(cfg, collapse_ic())
        with pytest.raises(JobFailedError) as exc:
            sup.run()
        assert len(sup.events) == 2
        assert exc.value.kind == "exhausted" and exc.value.attempts == 3
        assert isinstance(exc.value.__cause__, WorldError)

    def test_non_retryable_failure_is_not_retried(self):
        """A failure that would recur (a numerics violation: negative
        ambient pressure) propagates from the first attempt."""
        from repro.analysis.sanitizer import NumericsViolationError

        cfg = SimulationConfig(**BASE, max_steps=2, sanitize="raise")
        ic = cloud_collapse([Bubble((0.5, 0.5, 0.5), 0.2)], p_liquid=-50.0)
        sup = ResilientSimulation(cfg, ic)
        with pytest.raises(NumericsViolationError):
            sup.run()
        assert sup.attempts == 1


#: The columns of a scorecard with every kind of row, in first-seen order.
SCORECARD_COLUMNS = ["fault", "injected", "detected", "recovered", "status",
                     "count", "share [%]", "ratio"]


def scorecard_cells(card):
    """``(header, {fault: {column: text}})`` of a rendered scorecard."""
    lines = card.splitlines()
    header = lines[1]
    starts = [header.index(name) for name in SCORECARD_COLUMNS]
    rows = {}
    for line in lines[3:]:
        if not line:
            break  # the recovery ledger follows
        cells = [line[a:b].strip()
                 for a, b in zip(starts, starts[1:] + [None])]
        rows[cells[0]] = dict(zip(SCORECARD_COLUMNS, cells))
    return header, rows


class TestScorecard:
    def test_counts_have_their_own_column_and_keep_0_keeps_all(
            self, tmp_path):
        """One injected crash is one ``injected``; the two attempts it
        cost are a ``count``; ``checkpoint_keep=0`` prunes nothing."""
        plan = FaultPlan(faults=[FaultSpec(kind="rank_crash", rank=0,
                                           step=3)])
        cfg = SimulationConfig(**BASE, max_steps=6, checkpoint_interval=2,
                               checkpoint_dir=str(tmp_path),
                               fault_plan=plan)
        rres = ResilientSimulation(cfg, collapse_ic()).run()
        header, rows = scorecard_cells(format_resilience_scorecard(rres))
        assert re.split(r"\s{2,}", header.strip()) == SCORECARD_COLUMNS
        assert list(rows) == ["rank_crash", "attempts", "recovery overhead",
                              "ckpt write amplification"]
        blank = dict.fromkeys(SCORECARD_COLUMNS, "")
        assert rows["rank_crash"] == {
            **blank, "fault": "rank_crash", "injected": "1",
            "detected": "1", "recovered": "1", "status": "ok"}
        assert rows["attempts"] == {
            **blank, "fault": "attempts", "status": "1 rollback(s)",
            "count": "2"}
        amplification = rows["ckpt write amplification"]
        assert amplification["status"] == "all kept"
        assert float(amplification["ratio"]) > 1.0


def other_run_ic():
    return cloud_collapse([Bubble((0.4, 0.5, 0.5), 0.15)], p_liquid=500.0)


def leave_foreign_checkpoints(ckpt_dir, steps):
    """Another run's generations, left in ``ckpt_dir``."""
    cfg = SimulationConfig(**BASE, max_steps=steps, checkpoint_interval=2,
                           checkpoint_dir=str(ckpt_dir))
    Simulation(cfg, other_run_ic()).run()
    assert [s for s, _ in list_checkpoints(str(ckpt_dir))] == \
        list(range(2, steps + 1, 2))


class TestOwnLineageOnly:
    """A supervised run resumes only from generations it wrote itself."""

    def test_non_checkpointing_run_ignores_foreign_generations(self,
                                                                tmp_path):
        leave_foreign_checkpoints(tmp_path, 2)
        plan = FaultPlan(faults=[FaultSpec(kind="rank_crash", step=3)])
        cfg = SimulationConfig(**BASE, max_steps=4, checkpoint_interval=0,
                               checkpoint_dir=str(tmp_path),
                               fault_plan=plan)
        rres = ResilientSimulation(cfg, collapse_ic()).run()
        reference = Simulation(SimulationConfig(**BASE, max_steps=4),
                               collapse_ic()).run()
        np.testing.assert_array_equal(rres.result.final_field,
                                      reference.final_field)
        assert rres.attempts == 2
        assert rres.events[0].action == "restart"

    def test_newer_foreign_generation_is_skipped(self, tmp_path):
        leave_foreign_checkpoints(tmp_path, 4)
        plan = FaultPlan(faults=[FaultSpec(kind="rank_crash", step=3)])
        cfg = SimulationConfig(**BASE, max_steps=6, checkpoint_interval=2,
                               checkpoint_dir=str(tmp_path),
                               fault_plan=plan)
        rres = ResilientSimulation(cfg, collapse_ic()).run()
        reference = Simulation(SimulationConfig(**BASE, max_steps=6),
                               collapse_ic()).run()
        np.testing.assert_array_equal(rres.result.final_field,
                                      reference.final_field)
        assert rres.attempts == 2
        # Its own step-2 generation, not the other run's step 4.
        assert rres.events[0].checkpoint_step == 2


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
    ``rank_crash`` fires in the rank process it names, which sends its
    ledger home and dies of a *real* ``SIGKILL`` -- a genuine rank loss,
    not a simulated exception -- and the tier-3 rollback-relaunch path
    must still complete bit-exact."""

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
        # The rank process died of the signal, with no result.
        assert "rank 1 process died without a result (exitcode -9)" \
            in ev.cause
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
        """The killed rank sends its spent hit home before it dies:
        after the relaunch the same step passes unharmed (max_hits
        semantics across real process loss)."""
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

    def test_rankless_crash_kills_one_rank(self, tmp_path):
        """A ``rank_crash`` naming no rank is one loss on procs, as on
        sim: one kill, one rollback, every fault accounted for."""
        plan = FaultPlan(seed=2, faults=[
            FaultSpec(kind="rank_crash", step=3),
        ])

        def run(backend):
            ckpt = tmp_path / backend
            ckpt.mkdir()
            cfg = SimulationConfig(
                **BASE, max_steps=6, ranks=2, cluster_backend=backend,
                checkpoint_interval=2, checkpoint_dir=str(ckpt),
                fault_plan=plan, comm_timeout=20.0,
            )
            return ResilientSimulation(cfg, collapse_ic()).run()

        procs = run("procs")
        assert procs.attempts == 2
        assert procs.counters["injected_rank_crash"] == 1
        assert "rank 0 process died without a result (exitcode -9)" \
            in procs.events[0].cause
        assert all_faults_recovered(procs)
        sim = run("sim")
        assert [(ev.kind, ev.checkpoint_step) for ev in procs.events] \
            == [(ev.kind, ev.checkpoint_step) for ev in sim.events] \
            == [("rank_crash", 2)]
        for name in ("injected_rank_crash", "detected_rank_crash",
                     "recovered_rank_crash", "rollbacks"):
            assert procs.counters[name] == sim.counters[name] == 1
        np.testing.assert_array_equal(procs.result.final_field,
                                      sim.result.final_field)

    def test_probabilistic_crash_same_ledger_as_sim(self, tmp_path):
        """A rank-named ``rank_crash`` with ``probability < 1`` is drawn
        in the rank it names, from the attempt's stream: a procs run
        recovers exactly as a sim run does -- the same attempts, crashes
        and rollback steps -- however short its steps are."""
        plan = FaultPlan(seed=1, faults=[
            FaultSpec(kind="rank_crash", rank=1, probability=0.3,
                      max_hits=2),
        ])

        def ledger(backend):
            ckpt = tmp_path / backend
            ckpt.mkdir()
            cfg = SimulationConfig(
                **BASE, max_steps=8, ranks=2, cluster_backend=backend,
                checkpoint_interval=2, checkpoint_dir=str(ckpt),
                fault_plan=plan, comm_timeout=20.0, max_recoveries=3,
            )
            rres = ResilientSimulation(cfg, collapse_ic()).run()
            return (rres.attempts, rres.counters["injected_rank_crash"],
                    [(ev.kind, ev.checkpoint_step) for ev in rres.events]
                    ), rres.result.final_field

        sim, sim_field = ledger("sim")
        assert sim == (3, 2, [("rank_crash", 4), ("rank_crash", 6)])
        procs, procs_field = ledger("procs")
        assert procs == sim
        np.testing.assert_array_equal(procs_field, sim_field)

"""Tests of the dynamic race detector, deadlock watchdog and wiring."""

from __future__ import annotations

import time

import pytest

from repro.analysis.concurrency import (
    DEADLOCK_RULE,
    RACE_RULE,
    ConcurrencyViolationError,
    ConcurrencyWarning,
    RaceTracker,
    make_tracker,
)
from repro.cluster.driver import Simulation
from repro.cluster.mpi_sim import DeadlockError, SimWorld, WorldError
from repro.sim.config import SimulationConfig
from repro.sim.ic import uniform


def small_config(**kw):
    defaults = dict(cells=16, block_size=8, max_steps=3, num_workers=2,
                    diag_interval=1)
    defaults.update(kw)
    return SimulationConfig(**defaults)


# -- tracker construction and policy ---------------------------------------


class TestMakeTracker:
    def test_off_returns_none(self):
        assert make_tracker("off") is None

    def test_warn_and_raise_return_trackers(self):
        assert make_tracker("warn").policy == "warn"
        assert make_tracker("raise").policy == "raise"

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown concurrency policy"):
            make_tracker("loud")
        with pytest.raises(ValueError, match="unknown concurrency policy"):
            RaceTracker(policy="loud")

    def test_config_validates_policy(self):
        with pytest.raises(ValueError, match="concurrency_check"):
            SimulationConfig(cells=16, block_size=8,
                             concurrency_check="bogus")


# -- vector-clock unit behavior --------------------------------------------


class TestHappensBefore:
    def test_unordered_cross_rank_writes_race(self):
        tr = RaceTracker(policy="warn")
        with pytest.warns(ConcurrencyWarning):
            tr.write("shared.counter", 0)
            tr.write("shared.counter", 1)
        assert [v.rule for v in tr.report.violations] == [RACE_RULE]

    def test_raise_policy_raises_on_first_race(self):
        tr = RaceTracker(policy="raise")
        tr.write("shared.counter", 0)
        with pytest.raises(ConcurrencyViolationError) as exc:
            tr.write("shared.counter", 1)
        assert exc.value.violations[0].rule == RACE_RULE

    def test_message_edge_orders_accesses(self):
        tr = RaceTracker(policy="raise")
        tr.write("shared.counter", 0)
        clock = tr.on_send(0)
        tr.on_deliver(1, clock)
        tr.write("shared.counter", 1)  # ordered after rank 0's write
        assert tr.report.violations == []

    def test_collective_edge_orders_accesses(self):
        """A collective is rounds of clock-carrying frames: a write before
        it happens before a read after it, on any pair of ranks."""
        tr = RaceTracker(policy="raise")

        def main(comm):
            for label, collective in (
                ("before.barrier", comm.barrier),
                ("before.allreduce", lambda: comm.allreduce(comm.rank)),
            ):
                if comm.rank == 0:
                    tr.write(label, 0)
                collective()
                if comm.rank == 2:
                    tr.read(label, 2)

        SimWorld(3, tracker=tr).run(main)
        assert tr.report.violations == []
        assert tr.report.checks_run > 4

    def test_read_write_race_detected(self):
        tr = RaceTracker(policy="warn")
        tr.read("table", 0)
        with pytest.warns(ConcurrencyWarning, match="data race on table"):
            tr.write("table", 1)

    def test_concurrent_reads_do_not_race(self):
        tr = RaceTracker(policy="raise")
        tr.read("table", 0)
        tr.read("table", 1)
        assert tr.report.violations == []

    def test_same_rank_accesses_never_race(self):
        tr = RaceTracker(policy="raise")
        tr.write("table", 0)
        tr.write("table", 0)
        tr.read("table", 0)
        assert tr.report.violations == []

    def test_lockset_fallback_protects(self):
        tr = RaceTracker(policy="raise")
        tr.write("box", 0, locks=("box.cv",))
        tr.write("box", 1, locks=("box.cv",))
        assert tr.report.violations == []

    def test_disjoint_locks_still_race(self):
        tr = RaceTracker(policy="warn")
        tr.write("box", 0, locks=("a",))
        with pytest.warns(ConcurrencyWarning):
            tr.write("box", 1, locks=("b",))

    def test_on_deadlock_records_but_never_raises(self):
        tr = RaceTracker(policy="raise")
        v = tr.on_deadlock("deadlock: rank 0 timed out in recv")
        assert v.rule == DEADLOCK_RULE
        assert tr.report.violations == [v]


# -- runtime integration ---------------------------------------------------


class TestWorldIntegration:
    def test_clean_ring_exchange_under_raise(self):
        tracker = RaceTracker(policy="raise")
        world = SimWorld(4, tracker=tracker)

        def main(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            comm.send(comm.rank, dest=right, tag=0)
            got = comm.recv(source=left, tag=0)
            comm.barrier()
            total = comm.allreduce(1)
            return got, total

        results = world.run(main)
        assert [g for g, _ in results] == [3, 0, 1, 2]
        assert all(t == 4 for _, t in results)
        assert tracker.report.violations == []
        assert tracker.report.checks_run > 0

    def test_injected_unsynchronized_write_flagged(self):
        tracker = RaceTracker(policy="warn")
        world = SimWorld(4, tracker=tracker)

        def main(comm):
            # A deliberately unsynchronized cross-rank access, reported
            # through the tracker with no lock and no HB edge.
            tracker.write("shared.counter", comm.rank)
            comm.barrier()

        with pytest.warns(ConcurrencyWarning):
            world.run(main)
        races = [v for v in tracker.report.violations if v.rule == RACE_RULE]
        assert len(races) >= 1
        assert "shared.counter" in races[0].message

    def test_seeded_deadlock_produces_localized_report(self):
        tracker = RaceTracker(policy="warn")
        world = SimWorld(2, timeout=1.0, tracker=tracker)

        def main(comm):
            if comm.rank == 0:
                comm.send(b"x", dest=1, tag=5)
                comm.recv(source=1, tag=6)  # never sent
            else:
                comm.recv(source=0, tag=9)  # wrong tag: never matches

        start = time.monotonic()
        with pytest.raises(WorldError) as exc:
            world.run(main)
        # The watchdog fired instead of hanging for the default 120 s.
        assert time.monotonic() - start < 30
        deadlocks = [
            e for e in exc.value.failures.values()
            if isinstance(e, DeadlockError)
        ]
        assert deadlocks, exc.value.failures
        report = deadlocks[0].report
        assert "pending operation per rank" in report
        assert "recv" in report
        # The unmatched edge set names rank 0's orphaned tag-5 send.
        assert "tag=5" in report
        assert any(v.rule == DEADLOCK_RULE
                   for v in tracker.report.violations)

    def test_deadlock_report_without_pending_sends(self):
        world = SimWorld(2, timeout=0.5)

        def main(comm):
            comm.recv(source=1 - comm.rank, tag=0)  # nobody sends

        with pytest.raises(WorldError) as exc:
            world.run(main)
        (err,) = [e for e in exc.value.failures.values()
                  if isinstance(e, DeadlockError)][:1]
        assert "the matching send was never posted" in err.report


# -- driver / scorecard wiring ---------------------------------------------


class TestDriverIntegration:
    def test_off_policy_yields_no_report(self):
        res = Simulation(small_config(), uniform()).run()
        assert res.concurrency_report is None

    def test_warn_policy_clean_run_attaches_report(self):
        cfg = small_config(ranks=2, concurrency_check="warn")
        res = Simulation(cfg, uniform()).run()
        assert res.concurrency_report is not None
        assert res.concurrency_report.violations == []
        assert res.concurrency_report.checks_run > 0

    def test_raise_policy_clean_run_passes(self):
        cfg = small_config(ranks=2, concurrency_check="raise")
        res = Simulation(cfg, uniform()).run()
        assert res.concurrency_report.violations == []

    def test_scorecard_includes_concurrency_row(self):
        from repro.telemetry import format_run_scorecard

        cfg = small_config(ranks=2, concurrency_check="warn",
                           telemetry="metrics")
        res = Simulation(cfg, uniform()).run()
        card = format_run_scorecard(res)
        assert "concurrency" in card and "clean" in card

    @pytest.mark.slow
    def test_raise_policy_overhead_bounded(self):
        # Acceptance bound: the raise-policy run stays within 25%
        # overhead of the unchecked run on a chaos-smoke-sized problem.
        cfg_off = small_config(cells=16, max_steps=20, ranks=2)
        cfg_on = small_config(cells=16, max_steps=20, ranks=2,
                              concurrency_check="raise")
        ic = uniform()
        Simulation(cfg_off, ic).run()  # warm caches/JIT-free baseline
        base = min(Simulation(cfg_off, ic).run().wall_seconds
                   for _ in range(3))
        checked = min(Simulation(cfg_on, ic).run().wall_seconds
                      for _ in range(3))
        assert checked <= base * 1.25 + 0.05

"""Tests for the dynamic work dispatcher (repro.node.dispatcher)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.node.dispatcher import (
    Dispatcher,
    ScheduleStats,
    simulate_dynamic_schedule,
)

from .conftest import make_rng


class TestSimulatedSchedule:
    def test_uniform_items_balance(self):
        stats = simulate_dynamic_schedule(np.ones(8), num_workers=4)
        np.testing.assert_allclose(stats.busy, 2.0)
        assert stats.imbalance == 0.0
        assert stats.makespan == pytest.approx(2.0)

    def test_single_heavy_item_dominates(self):
        stats = simulate_dynamic_schedule([10.0, 1.0, 1.0, 1.0], 2)
        assert stats.makespan == pytest.approx(10.0)
        assert stats.imbalance > 1.0

    def test_dynamic_beats_static_for_skew(self):
        """Greedy dynamic scheduling keeps the makespan near the lower
        bound even with skewed costs."""
        durations = [5.0] + [1.0] * 10
        stats = simulate_dynamic_schedule(durations, 3)
        assert stats.makespan == pytest.approx(5.0, abs=1e-12)

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            simulate_dynamic_schedule([1.0], 0)

    @given(
        seed=st.integers(0, 2**31),
        n=st.integers(1, 40),
        workers=st.integers(1, 8),
    )
    @settings(max_examples=60, deadline=None)
    def test_invariants(self, seed, n, workers):
        durations = make_rng(seed).uniform(0.1, 2.0, size=n)
        stats = simulate_dynamic_schedule(durations, workers)
        # Work conservation.
        assert stats.busy.sum() == pytest.approx(durations.sum())
        # Makespan bounds.
        lower = max(durations.max(), durations.sum() / workers)
        assert stats.makespan >= lower - 1e-9
        assert stats.makespan <= durations.sum() + 1e-9
        # Greedy list scheduling is 2-competitive.
        assert stats.makespan <= 2.0 * lower + 1e-9


class TestStats:
    def test_imbalance_definition(self):
        stats = ScheduleStats(
            busy=np.array([1.0, 2.0, 3.0]), makespan=3.0,
            item_durations=np.array([]),
        )
        assert stats.imbalance == pytest.approx((3.0 - 1.0) / 2.0)

    def test_efficiency(self):
        stats = ScheduleStats(
            busy=np.array([2.0, 2.0]), makespan=2.0,
            item_durations=np.array([]),
        )
        assert stats.efficiency == pytest.approx(1.0)

    def test_zero_work(self):
        stats = ScheduleStats(
            busy=np.zeros(2), makespan=0.0, item_durations=np.array([])
        )
        assert stats.imbalance == 0.0


class TestDispatcher:
    def test_results_in_item_order(self):
        d = Dispatcher(num_workers=3)
        results, _ = d.run(range(10), lambda x: x * x)
        assert results == [x * x for x in range(10)]

    def test_instrumented_stats(self):
        d = Dispatcher(num_workers=2)
        _, stats = d.run(range(6), lambda x: sum(range(1000)))
        assert stats.busy.size == 2
        assert stats.item_durations.size == 6
        assert (stats.item_durations > 0).all()

    def test_threads_mode(self):
        d = Dispatcher(num_workers=4, mode="threads")
        results, stats = d.run(range(20), lambda x: x + 1)
        assert results == list(range(1, 21))
        assert stats.busy.size == 4

    def test_threads_mode_actually_distributes(self):
        """Items 0 and 1 meet at a barrier, so they run on two workers at
        once however the OS schedules the threads: no worker can take all
        16 items.  A dispatcher that ran every item on one thread would
        raise ``BrokenBarrierError`` here instead of passing."""
        import threading

        import numpy as _np

        d = Dispatcher(num_workers=4, mode="threads")
        meet = threading.Barrier(2, timeout=10)

        def work(i):
            if i < 2:
                meet.wait()
            return float(_np.linalg.norm(_np.ones((200, 200)) @ _np.ones((200, 200))))

        _, stats = d.run(range(16), work)
        # More than one worker must have received work.
        assert (stats.busy > 0).sum() >= 2

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            Dispatcher(mode="processes")

    def test_empty_items(self):
        d = Dispatcher(num_workers=2)
        results, stats = d.run([], lambda x: x)
        assert results == []
        assert stats.busy.sum() == 0.0

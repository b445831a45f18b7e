"""Tests of service policies: backoff, circuit breaker, admission."""

from __future__ import annotations

import pytest

from repro.service import (
    AdmissionQueue,
    BackoffPolicy,
    CircuitBreaker,
    PoisonedConfigError,
)

pytestmark = pytest.mark.tier1


class TestBackoffPolicy:
    def test_deterministic_per_seed(self):
        p = BackoffPolicy(max_attempts=5, base_delay=0.1, max_delay=2.0)

        def draws(seed, n=4):
            stream = p.delays(seed)
            return [next(stream) for _ in range(n)]

        assert draws("job-1") == draws("job-1")
        assert draws("job-1") != draws("job-2")

    def test_delays_bounded(self):
        p = BackoffPolicy(base_delay=0.05, max_delay=1.0)
        stream = p.delays(seed=0)
        prev = p.base_delay
        for _ in range(50):
            d = next(stream)
            assert p.base_delay <= d <= p.max_delay
            assert d <= max(3.0 * prev, p.base_delay)
            prev = d

    def test_validation(self):
        with pytest.raises(ValueError):
            BackoffPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            BackoffPolicy(base_delay=0.5, max_delay=0.1)
        with pytest.raises(ValueError):
            BackoffPolicy(base_delay=-0.1)

    def test_decide_spends_the_budget(self):
        p = BackoffPolicy(max_attempts=3, base_delay=0.1, max_delay=1.0)
        stream = p.delays("job")
        assert 0.1 <= p.decide(1, True, stream) <= 0.3
        assert p.decide(2, True, stream) is not None
        assert p.decide(3, True, stream) is None   # budget spent
        assert p.decide(1, False, stream) is None  # would recur

    def test_zero_base_retries_at_once(self):
        p = BackoffPolicy(max_attempts=4, base_delay=0.0, max_delay=0.0)
        stream = p.delays(0)
        assert [p.decide(k, True, stream) for k in (1, 2, 3, 4)] == \
            [0.0, 0.0, 0.0, None]


class TestCircuitBreaker:
    def test_opens_on_distinct_workers_only(self):
        br = CircuitBreaker(threshold=3)
        key = "k" * 64
        # Same worker failing repeatedly never opens the circuit.
        for _ in range(10):
            assert br.record_failure(key, worker_id=1,
                                     kind="rank_crash") is False
        assert not br.is_open(key)
        assert br.record_failure(key, 2, "rank_crash") is False
        assert br.record_failure(key, 3, "deadlock") is True
        assert br.is_open(key)
        assert br.open_keys() == [key]

    def test_success_resets_streak(self):
        br = CircuitBreaker(threshold=2)
        key = "k" * 64
        br.record_failure(key, 1, "rank_crash")
        br.record_success(key)
        assert br.record_failure(key, 2, "rank_crash") is False
        assert not br.is_open(key)

    def test_error_carries_evidence(self):
        br = CircuitBreaker(threshold=2)
        key = "e" * 64
        br.record_failure(key, 4, "timeout")
        br.record_failure(key, 7, "rank_crash")
        err = br.error(key)
        assert isinstance(err, PoisonedConfigError)
        assert err.workers == (4, 7)
        assert err.kinds == ("timeout", "rank_crash")
        assert key[:16] in str(err)

    def test_reset_clears_open_circuit(self):
        br = CircuitBreaker(threshold=1)
        key = "r" * 64
        br.record_failure(key, 0, "numerics")
        assert br.is_open(key)
        br.reset(key)
        assert not br.is_open(key)


class TestAdmissionQueue:
    def test_priority_order_with_fifo_ties(self):
        q = AdmissionQueue(max_pending=8)
        q.offer(1, 0, "b")
        q.offer(0, 1, "a1")
        q.offer(0, 2, "a2")
        assert [q.pop(), q.pop(), q.pop()] == ["a1", "a2", "b"]
        assert q.pop() is None

    def test_parks_overflow_and_promotes_best(self):
        q = AdmissionQueue(max_pending=1, park_capacity=4)
        assert q.offer(5, 0, "ready")[0] == "queued"
        assert q.offer(3, 1, "mid")[0] == "parked"
        assert q.offer(1, 2, "urgent")[0] == "parked"
        # Popping frees the slot; the *best* parked job is promoted.
        assert q.pop() == "ready"
        assert q.pop() == "urgent"
        assert q.pop() == "mid"
        assert q.parked_total == 2

    def test_sheds_when_full(self):
        q = AdmissionQueue(max_pending=1, park_capacity=0)
        q.offer(0, 0, "only")
        decision, displaced = q.offer(0, 1, "extra")
        assert decision == "shed" and displaced is None
        assert q.shed_total == 1

    def test_displacement_sheds_worst_parked(self):
        q = AdmissionQueue(max_pending=1, park_capacity=1)
        q.offer(0, 0, "running")
        q.offer(9, 1, "lowpri")
        decision, displaced = q.offer(1, 2, "urgent")
        assert decision == "parked"
        assert displaced == "lowpri"
        assert q.shed_total == 1
        assert q.pop() == "running"
        assert q.pop() == "urgent"

    def test_equal_priority_never_displaces(self):
        q = AdmissionQueue(max_pending=1, park_capacity=1)
        q.offer(1, 0, "a")
        q.offer(1, 1, "b")
        decision, displaced = q.offer(1, 2, "c")
        assert decision == "shed" and displaced is None

    def test_requeue_bypasses_admission(self):
        q = AdmissionQueue(max_pending=1, park_capacity=0)
        q.offer(0, 0, "a")
        q.requeue(0, 1, "retry")  # would have been shed via offer
        assert len(q) == 2

    def test_drain_empties_both_stages(self):
        q = AdmissionQueue(max_pending=1, park_capacity=4)
        q.offer(0, 0, "a")
        q.offer(0, 1, "b")
        assert sorted(q.drain()) == ["a", "b"]
        assert len(q) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionQueue(max_pending=0)
        with pytest.raises(ValueError):
            AdmissionQueue(park_capacity=-1)

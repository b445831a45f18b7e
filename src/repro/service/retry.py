"""Retry scheduling and circuit breaking.

Two policies, both deterministic per seed so chaos acceptance tests
replay exactly:

* :class:`BackoffPolicy` -- the *decide* step of every recovering
  caller (docs/resilience.md): whether a failed attempt gets another,
  and after how long.  It holds the attempt budget and draws delays by
  exponential backoff with *decorrelated jitter*: each delay is drawn
  uniformly from ``[base, min(cap, 3 * previous)]``.  Decorrelated
  jitter spreads a thundering herd of retries better than plain
  jittered exponential (retries of jobs that failed together stop being
  synchronized after the first draw) while keeping the exponential
  envelope.
* :class:`CircuitBreaker` -- per-request-key quarantine of poison
  configs: a request whose attempts keep failing on *distinct* workers
  is the problem itself (not an unlucky worker) and gets its circuit
  opened after ``threshold`` distinct-worker consecutive failures;
  further attempts and submissions fail fast instead of burning the
  pool.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field


@dataclass(frozen=True)
class BackoffPolicy:
    """Bounded retry with exponential backoff + decorrelated jitter.

    ``max_attempts`` bounds *total* attempts (first try included);
    delays between them follow the decorrelated-jitter recurrence of a
    seeded stream, so two runs of the same chaos plan produce the same
    retry schedule.  A zero ``base_delay`` retries at once.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < self.base_delay:
            raise ValueError("need 0 <= base_delay <= max_delay")

    def delays(self, seed) -> "_DelayStream":
        """The delay stream of one retrying caller (iterator of float
        seconds)."""
        return _DelayStream(self, seed)

    def decide(self, attempt: int, retryable: bool,
               delays: "_DelayStream") -> float | None:
        """After failed attempt ``attempt`` (1-based): seconds to wait
        before the next one, or None when there is none (the failure is
        not retryable, or the budget is spent)."""
        if not retryable or attempt >= self.max_attempts:
            return None
        return next(delays)


class _DelayStream:
    """Stateful decorrelated-jitter sequence of one retrying caller."""

    def __init__(self, policy: BackoffPolicy, seed):
        self._policy = policy
        self._rng = random.Random(f"service-backoff:{seed}")
        self._prev = policy.base_delay

    def __iter__(self):
        return self

    def __next__(self) -> float:
        p = self._policy
        d = self._rng.uniform(p.base_delay,
                              min(p.max_delay, 3.0 * self._prev))
        self._prev = d
        return d


class PoisonedConfigError(RuntimeError):
    """The request's circuit is open: it failed on too many workers."""

    kind = "poisoned"

    def __init__(self, key: str, workers: tuple, kinds: tuple):
        self.key = key
        self.workers = workers
        self.kinds = kinds
        super().__init__(
            f"request {key[:16]} quarantined by the circuit breaker: "
            f"{len(workers)} consecutive distinct-worker failures "
            f"(workers {list(workers)}, kinds {list(kinds)})"
        )


@dataclass
class _Circuit:
    """Failure streak of one request key."""

    workers: list = field(default_factory=list)  #: distinct ids, ordered
    kinds: list = field(default_factory=list)
    open: bool = False


class CircuitBreaker:
    """Per-key consecutive distinct-worker failure tracker.

    A failure on a worker already in the streak refreshes its kind but
    does not lengthen the streak -- only a *new* worker corroborating
    the failure does, which is what separates a poison config from a
    bad worker.  Any success resets the streak.  Thread-safe.
    """

    def __init__(self, threshold: int = 3):
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        self.threshold = threshold
        self._lock = threading.Lock()
        self._circuits: dict[str, _Circuit] = {}

    def record_failure(self, key: str, worker_id: int, kind: str) -> bool:
        """Record one failed attempt; returns True if the circuit opened."""
        with self._lock:
            c = self._circuits.setdefault(key, _Circuit())
            if c.open:
                return False
            if worker_id not in c.workers:
                c.workers.append(worker_id)
                c.kinds.append(kind)
            if len(c.workers) >= self.threshold:
                c.open = True
                return True
            return False

    def record_success(self, key: str) -> None:
        """A successful attempt clears the streak (closed circuits only)."""
        with self._lock:
            c = self._circuits.get(key)
            if c is not None and not c.open:
                del self._circuits[key]

    def is_open(self, key: str) -> bool:
        with self._lock:
            c = self._circuits.get(key)
            return c is not None and c.open

    def error(self, key: str) -> PoisonedConfigError:
        """The fail-fast error describing ``key``'s open circuit."""
        with self._lock:
            c = self._circuits.get(key) or _Circuit()
            return PoisonedConfigError(key, tuple(c.workers),
                                       tuple(c.kinds))

    def open_keys(self) -> list[str]:
        """Keys with open circuits (list[str], sorted)."""
        with self._lock:
            return sorted(k for k, c in self._circuits.items() if c.open)

    def reset(self, key: str) -> None:
        """Operator override: forget ``key``'s streak entirely."""
        with self._lock:
            self._circuits.pop(key, None)

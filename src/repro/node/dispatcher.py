"""Thread-level work dispatch (node layer).

The paper relies on OpenMP with *dynamic* scheduling at a parallel
granularity of one block to hide work imbalance (Section 6, "Enhancing
TLP").  Python cannot profitably run NumPy block kernels across real
threads for speed (GIL + bandwidth-bound kernels), so the dispatcher
supports two modes:

``instrumented`` (default)
    Execute the work items sequentially, timing each, then *simulate* the
    dynamic schedule over ``num_workers`` workers.  This yields the exact
    per-worker busy times an OpenMP dynamic-for would produce for those
    item costs -- which is what the paper's imbalance metric
    ``(t_max - t_min)/t_avg`` (Table 4) is computed from.

``threads``
    Execute with a real ``ThreadPoolExecutor`` work queue (NumPy releases
    the GIL inside ufuncs, so this exercises true concurrency) while
    recording per-worker busy time.

Both modes return :class:`ScheduleStats`.

A work item is whatever the caller hands out.  :class:`NodeSolver` hands
out *boxes* of neighbouring blocks -- one block at the paper's 32^3,
sixteen at 8^3 (``solver.BOX_CELLS``) -- so ``item_durations`` and the
flight record's ``schedule.items`` count boxes, and equal the block count
only in the first case.
"""

from __future__ import annotations

import heapq
import queue
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ..telemetry.clock import now


@dataclass
class ScheduleStats:
    """Per-worker busy times of one dispatch round."""

    busy: np.ndarray  #: seconds of work per worker
    makespan: float  #: simulated/observed parallel completion time
    item_durations: np.ndarray  #: seconds per work item (a box of blocks)

    @property
    def imbalance(self) -> float:
        """The paper's imbalance metric ``(t_max - t_min) / t_avg``.

        Computed over per-worker busy times; 0 is perfectly balanced.
        """
        avg = float(self.busy.mean())
        if avg == 0.0:
            return 0.0
        return float((self.busy.max() - self.busy.min()) / avg)

    @property
    def efficiency(self) -> float:
        """Total work / (workers * makespan); 1 is a perfect schedule."""
        denom = self.busy.size * self.makespan
        return float(self.busy.sum() / denom) if denom > 0 else 1.0

    def to_dict(self) -> dict:
        """JSON-compatible summary of the round (dict of floats/ints).

        The shape the flight recorder embeds per step: worker count,
        makespan, the paper's imbalance metric and the efficiency.
        """
        return {
            "workers": int(self.busy.size),
            "items": int(self.item_durations.size),
            "makespan": float(self.makespan),
            "imbalance": self.imbalance,
            "efficiency": self.efficiency,
        }


def simulate_dynamic_schedule(durations, num_workers: int) -> ScheduleStats:
    """Simulate an OpenMP dynamic-for over items with known ``durations``.

    Items are handed out in order to whichever worker becomes free first
    (a min-heap of worker finish times) -- exactly the behaviour of
    ``schedule(dynamic, 1)``.
    """
    durations = np.asarray(durations, dtype=float)
    if num_workers < 1:
        raise ValueError("num_workers must be positive")
    finish = [(0.0, w) for w in range(num_workers)]
    heapq.heapify(finish)
    busy = np.zeros(num_workers)
    for d in durations:
        t, w = heapq.heappop(finish)
        busy[w] += d
        heapq.heappush(finish, (t + d, w))
    makespan = max(t for t, _ in finish)
    return ScheduleStats(busy=busy, makespan=makespan, item_durations=durations)


class Dispatcher:
    """Dynamic work dispatcher with per-worker accounting.

    Items are opaque: one item is one call of ``fn``, timed as a whole
    (the node layer's items are boxes of blocks, see the module docstring).
    """

    def __init__(self, num_workers: int = 4, mode: str = "instrumented"):
        if mode not in ("instrumented", "threads"):
            raise ValueError(f"unknown dispatch mode {mode!r}")
        self.num_workers = int(num_workers)
        self.mode = mode

    def run(self, items, fn):
        """Apply ``fn`` to every item; returns ``(results, ScheduleStats)``.

        Results are returned in item order regardless of execution order.
        """
        items = list(items)
        if self.mode == "instrumented":
            results = []
            durations = np.empty(len(items))
            for i, item in enumerate(items):
                t0 = now()
                results.append(fn(item))
                durations[i] = now() - t0
            stats = simulate_dynamic_schedule(durations, self.num_workers)
            return results, stats
        return self._run_threads(items, fn)

    def _run_threads(self, items, fn):
        work: queue.SimpleQueue = queue.SimpleQueue()
        for i, item in enumerate(items):
            work.put((i, item))
        results = [None] * len(items)
        durations = np.zeros(len(items))
        busy = np.zeros(self.num_workers)

        def worker(wid: int) -> None:
            while True:
                try:
                    i, item = work.get_nowait()
                except queue.Empty:
                    return
                t0 = now()
                results[i] = fn(item)
                dt = now() - t0
                durations[i] = dt
                busy[wid] += dt

        t_start = now()
        with ThreadPoolExecutor(max_workers=self.num_workers) as pool:
            futures = [pool.submit(worker, w) for w in range(self.num_workers)]
            for f in futures:
                f.result()
        makespan = now() - t_start
        return results, ScheduleStats(
            busy=busy, makespan=makespan, item_durations=durations
        )

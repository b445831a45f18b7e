"""The benchmark-owned traced step loop and its span arithmetic.

``traced_rank_main`` is ``repro.cluster.rank_main`` rewritten from the
public pieces only, with an in-memory span around every layer boundary.
It must stay bit-identical to ``Simulation.run()``; the traced run checks
that on every invocation.  Spans stay in memory, ranks return them, and
the parent derives self times, the step budget and one Chrome trace.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager

import numpy as np

from repro.cluster import (
    CartTopology,
    HaloExchange,
    ProcsWorld,
    SimWorld,
    balanced_dims,
)
from repro.core import make_stepper
from repro.node import BlockGrid, Dispatcher, NodeSolver
from repro.physics import NQ, STORAGE_DTYPE

#: Children of a ``step`` span, in loop order: the rows of the budget.
STEP_PHASES = ("dt_max_sos", "dt_allreduce", "halo_start", "rhs_interior",
               "halo_finish", "rhs_halo", "up")
#: Phases in which a rank sends or waits rather than computes.
COMM_PHASES = ("dt_allreduce", "halo_start", "halo_finish")


class SpanLog:
    """Append-only span rows ``[name, parent, start, end, step]``.

    ``parent`` is the row index of the enclosing span (-1 at the root),
    so a rank's spans form a tree that pickles as plain lists.
    """

    def __init__(self):
        self.rows: list[list] = []
        self._stack: list[int] = []
        self.step = 0

    @contextmanager
    def span(self, name: str):
        row = [name, self._stack[-1] if self._stack else -1,
               time.perf_counter(), 0.0, self.step]
        index = len(self.rows)
        self.rows.append(row)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            row[3] = time.perf_counter()


def traced_rank_main(comm, config, ic_fn) -> dict:
    """One rank of the traced SPMD program (module-level: spawn imports it)."""
    log = SpanLog()
    with log.span("rank"):
        with log.span("setup"):
            topo = CartTopology(balanced_dims(comm.size), config.periodic)
            starts, counts = topo.subdomain_blocks(comm.rank,
                                                   config.global_blocks)
            n, h = config.block_size, config.h
            origin_cells = tuple(s * n for s in starts)
            grid = BlockGrid(counts, n, h,
                             origin=tuple(o * h for o in origin_cells))
            grid.fill(ic_fn)
            solver = NodeSolver(
                grid, boundary=config.boundary_spec(),
                dispatcher=Dispatcher(num_workers=config.num_workers),
                fused=config.fused_weno, use_slices=config.use_slices,
                order=config.weno_order, solver=config.riemann_solver,
            )
            halo = HaloExchange(comm, topo, grid)
            interior, halo_blocks = halo.halo_split()
            stepper = make_stepper(config.stepper)
        for step in range(1, config.max_steps + 1):
            log.step = step
            with log.span("step"):
                with log.span("dt_max_sos"):
                    local = solver.max_sos()
                with log.span("dt_allreduce"):
                    sos = comm.allreduce(local, op="max")
                # The workloads stop on max_steps, so rank_main's clamp of
                # the last dt to t_end has no counterpart here.
                dt = config.cfl * h / sos
                for stage in stepper.stages:
                    with log.span("halo_start"):
                        pending = halo.start()
                    with log.span("rhs_interior"):
                        rhs = solver.evaluate_rhs(interior)
                    with log.span("halo_finish"):
                        provider = halo.finish(pending)
                    with log.span("rhs_halo"):
                        rhs.update(solver.evaluate_rhs(halo_blocks, provider))
                    with log.span("up"):
                        solver.update(rhs, stage.a, stage.b, dt)
        log.step = 0
        with log.span("collect"):
            field = grid.to_array()
    return {"rank": comm.rank, "spans": log.rows, "field": field,
            "origin_cells": origin_cells, "messages": comm.messages_sent,
            "bytes": comm.bytes_sent}


def noop_rank_main(comm) -> int:
    """Launch-cost probe: a world whose ranks do nothing."""
    return comm.rank


def make_world(ranks: int, backend: str):
    return ProcsWorld(ranks) if backend == "procs" else SimWorld(ranks)


def run_traced(config, ic_fn) -> dict:
    """Run the traced loop on ``config``'s world; returns wall, the
    assembled final field and every rank's result."""
    t0 = time.perf_counter()
    ranks = make_world(config.ranks, config.cluster_backend).run(
        traced_rank_main, config, ic_fn)
    final = np.zeros(tuple(config.cells) + (NQ,), dtype=STORAGE_DTYPE)
    for rr in ranks:
        oz, oy, ox = rr["origin_cells"]
        sz, sy, sx = rr["field"].shape[:3]
        final[oz:oz + sz, oy:oy + sy, ox:ox + sx] = rr["field"]
    return {"wall": time.perf_counter() - t0, "field": final, "ranks": ranks}


# -- span arithmetic ----------------------------------------------------------

def self_times(rows) -> list[float]:
    """Self time of every span: its duration minus its children's."""
    out = [row[3] - row[2] for row in rows]
    for name, parent, start, end, _ in rows:
        if parent >= 0:
            out[parent] -= end - start
    return out


def durations(rows, name: str) -> list[float]:
    return [r[3] - r[2] for r in rows if r[0] == name]


def step_budget(ranks_rows) -> dict[str, float]:
    """Fractions of the traced step wall, summed over ranks and steps.

    Every phase contributes its self time; what a ``step`` span spends
    outside its children is ``unattributed``.  The rows sum to 1.
    """
    totals = dict.fromkeys(STEP_PHASES + ("unattributed",), 0.0)
    step_wall = 0.0
    for rows in ranks_rows:
        own = self_times(rows)
        for row, self_s in zip(rows, own):
            if row[0] == "step":
                step_wall += row[3] - row[2]
                totals["unattributed"] += self_s
            elif row[0] in totals:
                totals[row[0]] += self_s
    return {k: v / step_wall for k, v in totals.items()}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of a non-empty list (q in [0, 1])."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def cluster_metrics(ranks_rows) -> dict[str, float]:
    """Per-backend cluster numbers from one traced run's spans."""
    steps = [d for rows in ranks_rows for d in durations(rows, "step")]
    busy = []
    comm = 0.0
    for rows in ranks_rows:
        waited = sum(d for p in COMM_PHASES for d in durations(rows, p))
        comm += waited
        busy.append(sum(durations(rows, "step")) - waited)
    mean_busy = statistics.fmean(busy)
    med = {p: statistics.median(
        [d for rows in ranks_rows for d in durations(rows, p)])
        for p in COMM_PHASES}
    return {
        "allreduce_us": med["dt_allreduce"] * 1e6,
        "halo_start_us": med["halo_start"] * 1e6,
        "halo_finish_us": med["halo_finish"] * 1e6,
        "step_ms": statistics.median(steps) * 1e3,
        "step_p90_ms": percentile(steps, 0.9) * 1e3,
        "comm_frac": comm / sum(steps),
        "imbalance": (max(busy) - min(busy)) / mean_busy,
    }


def chrome_trace(runs) -> dict:
    """Chrome trace-event document of ``(run_id, ranks)`` pairs.

    One process row per run, one thread row per rank; every event's
    ``args.id`` is ``run_id/rank/step`` so a span is traceable to the
    workload, run, rank and step that produced it.
    """
    events = []
    t_zero = min(row[2] for _, ranks in runs for rr in ranks
                 for row in rr["spans"])
    for pid, (run_id, ranks) in enumerate(runs):
        events.append({"ph": "M", "name": "process_name", "pid": pid,
                       "args": {"name": run_id}})
        for rr in ranks:
            for name, parent, start, end, step in rr["spans"]:
                events.append({
                    "ph": "X", "name": name, "pid": pid, "tid": rr["rank"],
                    "ts": (start - t_zero) * 1e6, "dur": (end - start) * 1e6,
                    "args": {"id": f"{run_id}/{rr['rank']}/{step}",
                             "parent": parent},
                })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str, runs) -> int:
    """Write the trace; returns the number of span events."""
    doc = chrome_trace(runs)
    with open(path, "w") as f:
        json.dump(doc, f)
    return sum(1 for e in doc["traceEvents"] if e["ph"] == "X")

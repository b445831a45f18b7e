"""Paper Fig. 9: node-layer weak scaling and roofline placement.

Left: modeled GFLOP/s of RHS/DT/UP vs thread count on the BQC (RHS/DT
scale with cores + SMT; UP saturates at the memory bandwidth).

Right: the three kernels placed against the BQC roofline.

Measured: real thread scaling of the node layer (dispatcher in
``threads`` mode) over the eight 32^3 blocks of a 64^3 rank, on both
kernel paths.  The NumPy passes hold the GIL between ~220 short ufunc
calls a tile, so a second worker mostly adds contention; a call into the
compiled library (``repro.native``) drops the GIL for the whole run of
blocks, so two workers can overlap -- when the host's second vCPU is
free, which on the shared build host it is not always.  Reported with
its spread, not claimed.
"""

import time

import numpy as np
from _common import write_result

from repro import native
from repro.node.dispatcher import Dispatcher
from repro.node.grid import BlockGrid
from repro.node.solver import NodeSolver
from repro.perf.machines import BGQ_NODE
from repro.perf.report import format_table
from repro.perf.roofline import attainable
from repro.perf.scaling import cluster_perf, core_perf, fig9_weak_scaling
from repro.perf.kernels import DT, RHS, UP
from repro.perf.traffic import table3


def render_model() -> str:
    rows = fig9_weak_scaling()
    text = format_table(rows, "Fig 9 (left): modeled node-layer weak scaling "
                              "[GFLOP/s vs threads]")
    oi = {e.kernel: e.reordered_oi for e in table3()}
    achieved = {
        "RHS": core_perf(RHS).gflops * 16,
        "DT": core_perf(DT).gflops * 16,
        "UP": core_perf(UP).gflops * 16,
    }
    roof_rows = [
        {
            "kernel": k,
            "OI [FLOP/B]": oi[k],
            "roofline bound [GF/s]": attainable(BGQ_NODE, oi[k]),
            "achieved [GF/s]": v,
            "bound hit [%]": 100 * v / attainable(BGQ_NODE, oi[k]),
        }
        for k, v in achieved.items()
    ]
    return text + "\n\n" + format_table(
        roof_rows, "Fig 9 (right): kernels on the BQC roofline"
    )


def measured_thread_scaling(repeats=9):
    """One ``evaluate_rhs`` of a 64^3 rank in eight 32^3 blocks and of a
    32^3 rank in sixty-four 8^3 blocks per (path, workers): min / median /
    max of ``repeats`` warm rounds, the work items handed out (boxes of
    blocks) and the digest of the result (the same for every row of a
    grid)."""
    rows = []
    loaded = native.lib
    for num_blocks, n in (((2, 2, 2), 32), ((4, 4, 4), 8)):
        g = BlockGrid(num_blocks, n, h=0.05)
        rng = np.random.default_rng(0)
        field = np.zeros(g.cells + (7,), dtype=np.float32)
        field[..., 0] = 1000.0 * (1 + 0.01 * rng.normal(size=g.cells))
        field[..., 4] = 1300.0
        field[..., 5] = 0.179
        field[..., 6] = 1212.0
        g.from_array(field)
        try:
            for path in ("numpy", "c"):
                if path == "c" and loaded is None:
                    continue
                native.lib = loaded if path == "c" else None
                for workers in (1, 2):
                    solver = NodeSolver(
                        g, dispatcher=Dispatcher(workers, mode="threads"))
                    solver.evaluate_rhs()  # warm: work areas are made here
                    times = []
                    for _ in range(repeats):
                        t0 = time.perf_counter()
                        rhs = solver.evaluate_rhs()
                        times.append(time.perf_counter() - t0)
                    rows.append({
                        "blocks": f"{len(g.blocks)} x {n}^3",
                        "kernels": path, "workers": workers,
                        "items": solver.last_schedule.item_durations.size,
                        "min [ms]": 1e3 * min(times),
                        "median [ms]": 1e3 * float(np.median(times)),
                        "max [ms]": 1e3 * max(times),
                        "work areas": len(solver._areas),
                        "digest": hash(b"".join(
                            rhs[idx].tobytes() for idx in sorted(rhs))),
                    })
        finally:
            native.lib = loaded
    return rows


def test_fig9_model(benchmark):
    text = benchmark(render_model)
    write_result("fig9_node_scaling_model", text)
    rows = fig9_weak_scaling()
    # UP saturates: 64-thread UP < 2x the 8-thread UP.
    by_t = {r["threads"]: r for r in rows}
    assert by_t[64]["UP"] < 2.0 * by_t[8]["UP"]
    # RHS keeps scaling into SMT territory.
    assert by_t[64]["RHS"] > 1.5 * by_t[16]["RHS"]


def test_fig9_measured_threads(benchmark):
    import os

    rows = benchmark.pedantic(measured_thread_scaling, rounds=1, iterations=1)
    digests = {(row["blocks"], row.pop("digest")) for row in rows}
    assert len(digests) == 2  # same bytes on every row of a grid
    median = {(r["blocks"], r["kernels"], r["workers"]): r["median [ms]"]
              for r in rows}
    lines = [
        f"{blocks}, {path}: 2 workers / 1 worker = "
        f"{median[blocks, path, 2] / median[blocks, path, 1]:.2f}x the time"
        for blocks, path, workers in median if workers == 1
    ]
    text = format_table(
        rows, "Measured node-layer thread scaling: evaluate_rhs of one "
        "rank, real threads,\n9 warm rounds per row; a work item is a box "
        "of neighbouring blocks",
        floatfmt="{:.1f}",
    ) + (
        f"\n{os.cpu_count()} CPU(s), shared host (medians).\n"
        + "\n".join(lines) +
        "\n(the NumPy passes hold the GIL between ufunc calls, so a second "
        "worker adds\n contention; the compiled calls drop it for a whole "
        "box of blocks.  The work\n areas are the solver's, one per worker "
        "that ever overlapped: no round re-makes them)"
    )
    write_result("fig9_thread_scaling_measured", text)

"""Shared helpers for the benchmark harness.

Every bench regenerates one table or figure of the paper.  Because
``pytest --benchmark-only`` captures stdout, each bench *also* writes its
rendered table to ``benchmarks/results/<name>.txt`` so the reproduction
artifacts survive the run (EXPERIMENTS.md is assembled from them).
"""

from __future__ import annotations

import os

import numpy as np

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def write_result(name: str, text: str) -> str:
    """Persist a rendered table; returns the path."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w") as f:
        f.write(text.rstrip() + "\n")
    # Also echo for -s runs.
    print(f"\n{text}\n[written to {path}]")
    return path


def collapse_fields(cells: int = 32, seed: int = 7):
    """A realistic (p, Gamma) field pair from a short cloud-collapse run.

    Used by the compression benches (Table 4, compression rates): the
    paper compresses exactly these two quantities.
    """
    from repro.cluster.driver import Simulation
    from repro.sim.cloud import generate_cloud
    from repro.sim.config import SimulationConfig
    from repro.sim.diagnostics import pressure_field
    from repro.sim.ic import cloud_collapse

    bubbles = generate_cloud(
        4, (0.5, 0.5, 0.5), 0.38, rng=seed, r_min=0.07, r_max=0.11
    )
    cfg = SimulationConfig(
        cells=cells, block_size=16, max_steps=30, diag_interval=0,
    )
    ic = cloud_collapse(bubbles, p_liquid=1000.0, smoothing=1.0 / cells)
    sim = Simulation(cfg, ic)
    res = sim.run()
    fld = res.final_field
    p = pressure_field(fld).astype(np.float32)
    gamma = fld[..., 5].astype(np.float32)
    return p, gamma


def gflops(flops: float, seconds: float) -> float:
    return flops / seconds / 1e9

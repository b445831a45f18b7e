"""The benchmark's metric catalog: workloads, units, directions, bounds.

``BENCHMARK.json`` at the repo root mirrors these tables (a test keeps
them equal).  Every ``--trace 0`` run reports every end-to-end metric
and every ``--trace 1`` run every per-layer metric, so each end-to-end
metric has one definition per workload (table in README.md); for a layer
the workload never enters, counts and shares read 0 and times read the
rung timer's floor (see ``workloads.idle_layers``).
"""

from __future__ import annotations

#: name -> why the workload exists (one line, <= 200 chars).
WORKLOADS = {
    "cloud64_b32": "1 rank, 64^3 cells in 32^3 paper blocks: kernel-bound, "
                   "physics+core >= 97 % of a step; where WENO/HLLE/dtype work shows",
    "cloud32_b8": "1 rank, 32^3 cells in 8^3 blocks: same kernels, 64 calls per "
                  "sweep, padded ratio 5.36; per-call, ghost and dispatch cost peak",
    "halo2_b8": "periodic (32,16,16)/8^3 run as 1 rank, 2 ranks procs, 2 ranks "
                "sim: every block a halo block, largest cluster share on 2 cores",
    "dump128": "128^3 p and Gamma of a 12-bubble cloud: compress+write then "
               "read+decompress; compression does all the work, the solver none",
    "service_mix": "JobEngine, 2 workers, 2 closed-loop clients, every key 3x, "
                   "then sequential cache hits: one request cold vs cache-hot",
}

#: (name, unit, better, bound).  ``bound`` is the share of the parent's
#: median by which the metric may worsen before a change is rejected.
END_TO_END = [
    ("mcells_per_s", "Mcells/s", "higher", 0.25),
    ("second_path_ms", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
]

_US, _MS, _S = ("us", "lower"), ("ms", "lower"), ("s", "lower")
_FRAC, _COUNT = ("ratio", "lower"), ("count", "lower")
_RATE = ("Mcells/s", "higher")

#: (name, unit, better); no bounds.  Remainder rows (``*_unattributed_frac``,
#: ``*_overhead_frac``, ``aos_soa_frac``) are the named gaps between rungs.
PER_LAYER = [
    (f"physics.{n}", *u) for n, u in (
        ("conv_us", _US), ("weno5_us", _US), ("hlle_us", _US),
        ("compute_rhs_ms", _MS), ("rhs_unattributed_frac", _FRAC),
        ("flop_per_cell_computed", _COUNT),
    )
] + [
    (f"core.{n}", *u) for n, u in (
        ("rhs_kernel_ms", _MS), ("aos_soa_frac", _FRAC),
        ("update_stage_us", _US), ("sos_kernel_us", _US),
        ("rhs_mcells_per_s", _RATE), ("up_mcells_per_s", _RATE),
        ("sos_mcells_per_s", _RATE),
    )
] + [
    (f"node.{n}", *u) for n, u in (
        ("blocks", _COUNT), ("padded_ratio_computed", _FRAC),
        ("fill_ghosts_us", _US), ("rhs_for_block_ms", _MS),
        ("ghost_frac", _FRAC), ("evaluate_rhs_ms", _MS),
        ("dispatch_overhead_frac", _FRAC), ("update_ms", _MS),
        ("max_sos_ms", _MS), ("to_array_ms", _MS),
    )
] + [
    (f"cluster.{b}.{n}", *u) for b in ("sim", "procs") for n, u in (
        ("launch_s", _S), ("allreduce_us", _US), ("halo_start_us", _US),
        ("halo_finish_us", _US), ("step_ms", _MS), ("step_p90_ms", _MS),
        ("comm_frac", _FRAC), ("imbalance", _FRAC),
    )
] + [
    ("cluster.msgs_per_step", *_COUNT),
    ("cluster.bytes_per_step", "B", "lower"),
    ("cluster.strong_eff", "ratio", "higher"),
] + [
    (f"compression.{n}", *u) for n, u in (
        ("fwt_ms", _MS), ("dec_ms", _MS), ("enc_ms", _MS), ("write_ms", _MS),
        ("read_ms", _MS), ("decompress_ms", _MS), ("survival_frac", _FRAC),
        ("bytes_out", ("B", "lower")), ("ratio", ("ratio", "higher")),
        ("unattributed_frac", _FRAC),
    )
] + [
    (f"service.{n}", *u) for n, u in (
        ("key_us", _US), ("cache_put_ms", _MS), ("cache_get_ms", _MS),
        ("engine_start_ms", _MS), ("worker_spawn_s", _S),
        ("cold_ms", _MS), ("cold_p90_ms", _MS), ("cold_overhead_ms", _MS),
        ("hot_p95_ms", _MS), ("requests_per_s", ("1/s", "higher")),
        ("shutdown_ms", _MS), ("cold_runs", _COUNT),
        ("dedup_joined", ("count", "higher")),
        ("cache_hits", ("count", "higher")),
    )
] + [
    (f"step.{n}", *_FRAC) for n in (
        "dt_max_sos_frac", "dt_allreduce_frac", "halo_start_frac",
        "rhs_interior_frac", "halo_finish_frac", "rhs_halo_frac",
        "up_frac", "unattributed_frac",
    )
] + [
    ("step.median_ms", *_MS),
    ("step.p90_ms", *_MS),
    ("trace_overhead_frac", *_FRAC),
    ("host.triad_gbs", "GB/s", "higher"),
    ("host.fma_gflops", "GFLOP/s", "higher"),
    ("host.speed_factor", "ratio", "lower"),
]

#: Ceilings of the budget-closure gates checked by every traced step run.
UNATTRIBUTED_CEILING = 0.05
TRACE_OVERHEAD_CEILING = 0.05


def benchmark_json(run_seconds: int) -> dict:
    """The ``BENCHMARK.json`` document these tables define (dict)."""
    return {
        "command": ["python3", "benchmarks/ladder/run.py"],
        "paths": ["benchmarks/ladder"],
        "run_seconds": run_seconds,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
        ],
    }

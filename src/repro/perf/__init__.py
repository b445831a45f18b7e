"""Performance models of the paper's target platforms.

The paper's headline results (11 PFLOP/s, 55 % of Sequoia's peak) are
hardware measurements; this subpackage reproduces their *structure* --
machine specs (Tables 1-2), the roofline model (Section 2), the data
reordering traffic analysis (Table 3), the instruction-issue bounds
(Table 8) and the core/node/cluster layer composition (Tables 5-7, 9, 10,
Fig. 9, the Section 7 throughput claims) -- as executable models that the
benchmark harness prints next to the paper's measured values.
"""

from .._exports import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "issue": (
        "IssueBound", "rhs_issue_bound_fraction", "rhs_issue_bounds",
        "stage_bound",
    ),
    "kernels": (
        "CELL_BYTES", "DT", "FWT", "KERNELS", "LINE_BYTES", "RHS",
        "RHS_ISSUE_DENSITY", "RHS_STAGES", "UP", "KernelModel", "StageMix",
        "flops_per_cell_step",
    ),
    "network": (
        "CommComputeOverlap", "DumpModel", "TorusNetwork", "dump_analysis",
        "halo_message_bytes", "overlap_analysis",
    ),
    "machines": (
        "BGQ_INSTALLATIONS", "BGQ_NODE", "BUILD_HOST", "JUQUEEN", "MONTE_ROSA",
        "MONTE_ROSA_NODE", "PIZ_DAINT", "PIZ_DAINT_NODE", "SEQUOIA", "ZRL",
        "ClusterSpec", "MachineSpec", "bqc_table", "machines_table",
    ),
    "report": ("compare_row", "format_table"),
    "scorecard": (
        "ScorecardRow", "format_scorecard", "reproduction_scorecard",
        "scorecard_ok",
    ),
    "roofline": (
        "RooflinePoint", "attainable", "attainable_single_core",
        "roofline_curve",
    ),
    "scaling": (
        "KernelPerf", "cluster_perf", "core_perf", "fig9_weak_scaling",
        "node_perf", "overall_perf", "step_time_per_cell", "table5", "table6",
        "table7", "table9", "table10", "throughput_cells_per_second",
        "time_per_step",
    ),
    "traffic": (
        "TrafficEstimate", "dt_traffic", "rhs_traffic", "table3", "up_traffic",
    ),
})

"""Node layer: per-rank block grid, ghosts, SFC ordering, work dispatch.

"The node layer is responsible for coordinating the work within the
ranks.  The work associated to each block is exclusively assigned to one
thread." (paper Section 6)
"""

from .._exports import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "dispatcher": ("Dispatcher", "ScheduleStats", "simulate_dynamic_schedule"),
    "ghosts": ("BOUNDARY_KINDS", "BoundarySpec", "fill_block_ghosts"),
    "grid": ("BlockGrid",),
    "sfc": (
        "locality_score", "morton_decode", "morton_encode", "morton_order",
    ),
    "solver": ("NodeSolver",),
})

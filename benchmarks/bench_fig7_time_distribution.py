"""Paper Fig. 7: wall-clock time distribution of a production step.

Left pie: the RHS dominates the step (~89 %) and compressed dumps cost
only ~4 % of total time.  Right pie: inside a dump, parallel I/O takes
92 %, encoding 6 %, the wavelet transform + decimation 2 % (on BGQ, where
the FWT is QPX-vectorized and the file system is shared; here the compiled
transform and the encoder together outweigh a write to a local disk, which
the results file records honestly -- EXPERIMENTS.md has the FWT : ENC :
write split of a 128^3 dump).  The right-hand table opens with the collect --
the field, p and the Gamma cast the transform starts from -- which the
paper's split leaves out: its three rows add up to the dump.

The bench runs a real simulation with dumps enabled and reports the
measured phase shares.
"""

import pytest
from _common import write_result

from repro.cluster.driver import Simulation
from repro.perf.report import format_table
from repro.sim.cloud import Bubble
from repro.sim.config import SimulationConfig
from repro.sim.ic import cloud_collapse


@pytest.fixture(scope="module")
def dump_run(tmp_path_factory):
    dump_dir = tmp_path_factory.mktemp("fig7_dumps")
    cfg = SimulationConfig(
        cells=32, block_size=16, max_steps=10, dump_interval=5,
        dump_dir=str(dump_dir), num_workers=4, diag_interval=0,
    )
    ic = cloud_collapse(
        [Bubble((0.5, 0.5, 0.5), 0.2), Bubble((0.3, 0.6, 0.4), 0.1)],
        p_liquid=1000.0,
    )
    return Simulation(cfg, ic)


def test_fig7_time_distribution(benchmark, dump_run):
    res = benchmark.pedantic(dump_run.run, rounds=1, iterations=1)
    timers = res.timers
    compute_keys = ("RHS", "DT", "UP", "COMM_WAIT", "IO_WAVELET")
    total = sum(timers.get(k, 0.0) for k in compute_keys)
    rows = [
        {
            "phase": k,
            "share [%]": 100.0 * timers.get(k, 0.0) / total,
            "paper [%]": {"RHS": 89, "DT": 2, "UP": 5, "COMM_WAIT": 0,
                          "IO_WAVELET": 4}[k],
        }
        for k in compute_keys
    ]
    text = format_table(
        rows, "Fig 7 (left): step time distribution "
        f"(kernels: {res.kernels['backend']})")

    io_total = timers.get("IO_WAVELET", 0.0)
    collect = timers.get("IO_COLLECT", 0.0)
    fwt = timers.get("IO_FWT", 0.0)
    write = timers.get("IO_WRITE", 0.0)
    rows2 = [
        {"stage": "collect", "share [%]": 100 * collect / io_total,
         "paper [%]": 0},
        {"stage": "FWT+DEC+ENC", "share [%]": 100 * fwt / io_total,
         "paper [%]": 8},
        {"stage": "parallel IO", "share [%]": 100 * write / io_total,
         "paper [%]": 92},
    ]
    text += "\n\n" + format_table(
        rows2,
        "Fig 7 (right): within a dump (paper: IO 92 %, ENC 6 %, FWT 2 %;\n"
        "here transform + encoder outweigh a write to a local disk)",
    )
    write_result("fig7_time_distribution", text)

    # Shape assertions: RHS dominates; dumps are a small fraction.
    assert timers["RHS"] == max(timers.get(k, 0.0) for k in compute_keys)
    assert timers["RHS"] / total > 0.5
    assert io_total / total < 0.4
    # The three stages are the dump: what is left is call overhead.
    assert collect + fwt + write == pytest.approx(io_total, rel=0.05)

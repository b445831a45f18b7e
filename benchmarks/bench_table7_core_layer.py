"""Paper Table 7: core-layer kernel performance (C++ vs QPX).

Model rows reproduce the BGQ numbers; the measured section reports the
*Python* core-layer kernels in GFLOP/s using the model's per-cell FLOP
counts -- the honest statement of the interpreted-language gap the
calibration notes predicted (repro band: "bandwidth-bound kernel core
contradicts interpreted approach").
"""

import time

import numpy as np
import pytest
from _common import write_result

from repro.compression.wavelet import fwt3d
from repro.core.kernels import (
    rhs_kernel,
    sos_kernel,
    stream_scratch,
    update_stage,
)
from repro.perf.kernels import DT, FWT, RHS, UP
from repro.perf.report import format_table
from repro.perf.scaling import table7

PAPER = {
    "RHS": (2.21, 8.27, 65, 3.7),
    "DT": (0.90, 1.96, 15, 2.2),
    "UP": (0.30, 0.29, 2, 1.0),
    "FWT": (0.40, 1.29, 10, 3.2),
}


def render_model() -> str:
    rows = []
    for row in table7():
        k = row["kernel"]
        rows.append(
            {
                "kernel": k,
                "C++ [GF/s]": row["C++ [GFLOP/s]"],
                "QPX [GF/s]": row["QPX [GFLOP/s]"],
                "peak [%]": row["Peak fraction [%]"],
                "improv.": row["Improvement"],
                "paper C++/QPX/%/X": "{}/{}/{}/{}".format(*PAPER[k]),
            }
        )
    return format_table(rows, "Table 7: core layer (model vs paper)")


@pytest.fixture(scope="module")
def block_state():
    n = 16
    rng = np.random.default_rng(1)
    pad = np.zeros((n + 6, n + 6, n + 6, 7), dtype=np.float32)
    pad[..., 0] = 1000.0 * (1 + 0.02 * rng.normal(size=pad.shape[:3]))
    pad[..., 4] = 1300.0
    pad[..., 5] = 0.179
    pad[..., 6] = 1212.0
    return pad


def test_table7_model(benchmark):
    text = benchmark(render_model)
    write_result("table7_core_model", text)


def test_table7_measured_python(benchmark, block_state):
    n = block_state.shape[0] - 6
    cells = n**3
    core = block_state[3:-3, 3:-3, 3:-3]
    # UP and SOS stream through a scratch the node layer holds per thread.
    scratch = stream_scratch()

    def measure():
        out = {}
        t0 = time.perf_counter()
        rhs = rhs_kernel(block_state, 0.05)
        out["RHS"] = (RHS.flops_per_cell * cells) / (time.perf_counter() - t0) / 1e9

        t0 = time.perf_counter()
        sos_kernel(core, scratch)
        out["DT"] = (DT.flops_per_cell * cells) / (time.perf_counter() - t0) / 1e9

        u = core.copy()
        res = np.zeros_like(u)
        t0 = time.perf_counter()
        update_stage(u, res, rhs, -0.5, 0.9, 1e-4, scratch=scratch)
        out["UP"] = (UP.flops_per_cell * cells) / (time.perf_counter() - t0) / 1e9

        t0 = time.perf_counter()
        fwt3d(core[..., 0].astype(np.float32), 1)
        out["FWT"] = (FWT.flops_per_cell * cells) / (time.perf_counter() - t0) / 1e9
        return out

    measured = benchmark.pedantic(measure, rounds=3, iterations=1)
    rows = [
        {
            "kernel": k,
            "Python [GFLOP/s]": v,
            "paper QPX [GFLOP/s]": PAPER[k][1],
            "gap [x]": PAPER[k][1] / v if v else float("inf"),
        }
        for k, v in measured.items()
    ]
    text = format_table(
        rows,
        "Measured Python core kernels (model FLOP accounting) vs paper QPX\n"
        "(the 100-1000x gap is the expected interpreted-language penalty)",
        floatfmt="{:.4f}",
    )
    write_result("table7_core_measured_python", text)
    assert measured["RHS"] > 0

"""Paper Table 7: core-layer kernel performance (C++ vs QPX).

Model rows reproduce the BGQ numbers.  The measured section reports this
repo's core-layer kernels on both paths -- the NumPy passes and the
compiled tile bodies of ``repro.native`` -- in GFLOP/s under the model's
per-cell FLOP counts, and divides each by what the build host allows one
core at the kernel's operational intensity (``perf.machines.BUILD_HOST``,
``perf.roofline.attainable_single_core``): our "% of this host" column
next to the paper's 65 / 15 / 2 / 10 % of the BQC's peak.  FWT gets both
rates and their ratio but no "% host": ``perf.traffic.table3`` has no
traffic model of it to take an operational intensity from (ROADMAP
item 2).
"""

import time

import numpy as np
import pytest
from _common import write_result

from repro import native
from repro.compression.wavelet import fwt3d
from repro.core.kernels import (
    rhs_kernel,
    sos_kernel,
    stream_scratch,
    update_stage,
)
from repro.perf.kernels import DT, FWT, RHS, UP
from repro.perf.machines import BUILD_HOST
from repro.perf.report import format_table
from repro.perf.roofline import attainable_single_core
from repro.perf.scaling import table7
from repro.perf.traffic import table3

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
    n = 32  # the paper's block
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


def _median_seconds(fn, repeats=5):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def measure_kernels(pad) -> dict[str, float]:
    """GFLOP/s (model FLOP accounting) of the four kernels on one block,
    on whichever path ``native.lib`` selects; median of five calls."""
    cells = (pad.shape[0] - 6) ** 3
    core = np.ascontiguousarray(pad[3:-3, 3:-3, 3:-3])
    # UP and SOS stream through a scratch the node layer holds per worker.
    scratch = stream_scratch()
    rhs = rhs_kernel(pad, 0.05)
    u, res = core.copy(), np.zeros_like(core)
    plane = core[..., 0].astype(np.float32)
    seconds = {
        "RHS": _median_seconds(lambda: rhs_kernel(pad, 0.05, out=rhs)),
        "DT": _median_seconds(lambda: sos_kernel(core, scratch)),
        "UP": _median_seconds(lambda: update_stage(
            u, res, rhs, -0.5, 0.9, 1e-4, scratch=scratch)),
        "FWT": _median_seconds(lambda: fwt3d(plane, 1)),
    }
    model = {"RHS": RHS, "DT": DT, "UP": UP, "FWT": FWT}
    return {k: model[k].flops_per_cell * cells / t / 1e9
            for k, t in seconds.items()}


def test_table7_measured_python(benchmark, block_state, monkeypatch):
    def measure():
        out = {"c": measure_kernels(block_state) if native.lib else None}
        with monkeypatch.context() as patch:
            patch.setattr(native, "lib", None)
            out["numpy"] = measure_kernels(block_state)
        return out

    measured = benchmark.pedantic(measure, rounds=3, iterations=1)
    oi = {e.kernel: e.reordered_oi for e in table3()}
    rows = []
    for k, numpy_rate in measured["numpy"].items():
        # FWT has no traffic model: no bound to divide by
        bound = (attainable_single_core(BUILD_HOST, oi[k])
                 if k in oi else None)
        row = {"kernel": k, "NumPy [GF/s]": numpy_rate}
        compiled = measured["c"] is not None
        if compiled:
            row["C [GF/s]"] = measured["c"][k]
            row["C / NumPy"] = measured["c"][k] / numpy_rate
        if bound is not None:
            row["OI [F/B]"] = oi[k]
            row["host bound [GF/s]"] = bound
            row["NumPy [% host]"] = 100 * numpy_rate / bound
            if compiled:
                row["C [% host]"] = 100 * measured["c"][k] / bound
        row["paper QPX [GF/s]"] = PAPER[k][1]
        row["paper [% peak]"] = PAPER[k][2]
        rows.append(row)
    status = native.status()
    text = format_table(
        rows,
        "Measured core kernels on one 32^3 block, one core (model FLOP "
        "accounting), per path,\nagainst the single-core roofline of "
        f"{BUILD_HOST.name}:\n"
        f"peak {BUILD_HOST.peak_per_core_gflops:.1f} GF/s per core "
        "(with FMA; the compiled kernels are built without contraction), "
        f"stream {BUILD_HOST.single_core_stream_bw:.1f} GB/s;\n"
        f"kernels: backend {status['backend']}, {status['compiler']}, "
        f"{' '.join(f for f in status['flags'] if f.startswith('-O') or 'fp-contract' in f)}",
        floatfmt="{:.3f}",
    )
    write_result("table7_core_measured_python", text)
    assert measured["numpy"]["RHS"] > 0

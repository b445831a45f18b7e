"""Paper Table 9: micro-fused vs baseline WENO kernel.

The paper reports 7.9 -> 9.2 GFLOP/s (1.2x rate, 1.3x cycles) from
micro-fusing the WENO stage.  Here both the *model* reproduction of that
row and a *measured* comparison are produced: the expression form
(``_weno5_minus_raw`` on both sides, one temporary per operation) against
production ``weno5`` with a held workspace (the same arithmetic, bit for
bit, as ``out=``-threaded passes over shared line tables) -- the same
engineering idea, observable in Python as fewer passes over memory.

Below it, the fusion done for real: one whole RHS of a 32^3 block through
the NumPy whole-box passes against the compiled sweep of
``repro.native`` (WENO5 -> HLLE -> difference -> SUM once through
registers, a ring of two flux rows), byte-identical, with the cost per
cell that the PAPER_MAP row compares with MFC's reported grind time.
"""

import time

import numpy as np
import pytest
from _common import write_result

from repro import native
from repro.perf.scaling import table9
from repro.physics.equations import SweepWorkspace, compute_rhs
from repro.physics.weno import Weno5Workspace, _weno5_minus_raw, weno5


def render_model() -> str:
    t = table9()
    return (
        "Table 9: WENO kernel micro-fusion (model vs paper)\n"
        f"  baseline: {t['baseline_gflops']:.2f} GFLOP/s "
        f"({100 * t['baseline_peak_frac']:.0f} % peak)   [paper: 7.9 / 62 %]\n"
        f"  fused   : {t['fused_gflops']:.2f} GFLOP/s "
        f"({100 * t['fused_peak_frac']:.0f} % peak)   [paper: 9.2 / 72 %]\n"
        f"  GFLOP/s improvement: {t['gflops_improvement']:.2f}x  [paper: 1.2x]\n"
        f"  time improvement   : {t['time_improvement']:.2f}x  [paper: 1.3x]"
    )


def weno5_expression(v):
    """Both face states in expression form: the un-fused baseline."""
    nfaces = v.shape[1] - 5
    a, b, c, d, e, f = (v[:, k:k + nfaces] for k in range(6))
    return _weno5_minus_raw(a, b, c, d, e), _weno5_minus_raw(f, e, d, c, b)


@pytest.fixture(scope="module")
def weno_input():
    rng = np.random.default_rng(3)
    # 7 quantities x the pencils of one 32^3 block, stencil axis first:
    # the layout of the production sweeps, so both columns read their
    # operands as contiguous runs and differ in the fusion alone.
    return rng.normal(size=(7, 38, 32, 32))


@pytest.fixture(scope="module")
def held(weno_input):
    """Workspace and output arrays a hot-path caller keeps across calls."""
    shape = (7, 33, 32, 32)
    return Weno5Workspace(shape, axis=1), np.empty(shape), np.empty(shape), 1


def test_table9_model(benchmark):
    text = benchmark(render_model)
    write_result("table9_weno_fusion_model", text)


def test_table9_baseline_weno(benchmark, weno_input):
    benchmark(weno5_expression, weno_input)


def test_table9_fused_weno(benchmark, weno_input, held):
    benchmark(weno5, weno_input, *held)


def whole_rhs_comparison(monkeypatch, n=32, reps=7) -> str:
    """``compute_rhs`` of one ``n``^3 block on both kernel paths: median
    of ``reps`` warm calls each, same bytes."""
    rng = np.random.default_rng(4)
    Upad = np.empty((7,) + (n + 6,) * 3)
    Upad[0] = 1000.0 * (1 + 0.02 * rng.normal(size=Upad.shape[1:]))
    Upad[1:4] = rng.normal(size=(3,) + Upad.shape[1:])
    Upad[4], Upad[5], Upad[6] = 1300.0, 0.179, 1212.0
    workspace, out = SweepWorkspace(), np.empty((7, n, n, n))

    def median_ms():
        compute_rhs(Upad, 0.05, workspace=workspace, out=out)  # warm
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            compute_rhs(Upad, 0.05, workspace=workspace, out=out)
            times.append(time.perf_counter() - t0)
        return 1e3 * float(np.median(times)), out.tobytes()

    with monkeypatch.context() as patch:
        patch.setattr(native, "lib", None)
        t_numpy, want = median_ms()
    lines = [f"Whole RHS of one {n}^3 block (compute_rhs: CONV + the three "
             "sweeps), median of 7:",
             f"  NumPy whole-box passes    : {t_numpy:7.2f} ms  "
             f"({1e6 * t_numpy / n ** 3:6.0f} ns per cell)"]
    if native.lib is None:
        lines.append("  compiled sweep            : not built here "
                     f"({native.status()['reason']})")
    else:
        t_c, got = median_ms()
        assert got == want
        lines.append(
            f"  compiled sweep (C)        : {t_c:7.2f} ms  "
            f"({1e6 * t_c / n ** 3:6.0f} ns per cell)   same bytes")
        lines.append(
            f"  time improvement          : {t_numpy / t_c:7.2f}x")
    return "\n".join(lines)


def test_table9_measured_comparison(benchmark, weno_input, held, monkeypatch):
    """Direct timing comparison written to the results file."""

    def compare():
        reps = 10
        base = weno5_expression(weno_input)  # warm
        t0 = time.perf_counter()
        for _ in range(reps):
            weno5_expression(weno_input)
        t_base = (time.perf_counter() - t0) / reps

        fused = weno5(weno_input, *held)
        assert all(f.tobytes() == b.tobytes() for f, b in zip(fused, base))
        t0 = time.perf_counter()
        for _ in range(reps):
            weno5(weno_input, *held)
        t_fused = (time.perf_counter() - t0) / reps
        return t_base, t_fused

    t_base, t_fused = benchmark.pedantic(compare, rounds=1, iterations=1)

    gain = t_base / t_fused
    text = (
        "Measured Python WENO fusion gain:\n"
        f"  baseline (expression form): {t_base * 1e3:7.2f} ms\n"
        f"  fused (held workspace)    : {t_fused * 1e3:7.2f} ms\n"
        f"  time improvement          : {gain:7.2f}x   [paper: 1.3x]\n\n"
        + whole_rhs_comparison(monkeypatch)
    )
    write_result("table9_weno_fusion_measured", text)
    # The fused kernel must win, as in the paper (paper: 1.3x).
    assert gain > 1.05

"""The roofline performance model (Williams, Waterman & Patterson).

"The high performance techniques developed herein were guided by the
roofline performance model" (paper Section 2).  Given a machine's peak
FLOP rate and memory bandwidth, a kernel with operational intensity
``oi`` can attain at most ``min(peak, oi * bandwidth)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .machines import MachineSpec


@dataclass(frozen=True)
class RooflinePoint:
    """A kernel placed on the roofline (Fig. 9, right)."""

    name: str
    oi: float  #: operational intensity, FLOP/B
    achieved_gflops: float

    def bound_gflops(self, machine: MachineSpec) -> float:
        return attainable(machine, self.oi)

    def efficiency(self, machine: MachineSpec) -> float:
        """Achieved / roofline-attainable."""
        return self.achieved_gflops / self.bound_gflops(machine)

    def memory_bound(self, machine: MachineSpec) -> bool:
        return self.oi < machine.ridge_point


def attainable(machine: MachineSpec, oi: float) -> float:
    """Maximum attainable GFLOP/s at operational intensity ``oi``."""
    if oi < 0:
        raise ValueError("operational intensity must be non-negative")
    return min(machine.peak_gflops, oi * machine.dram_bw_gbs)


def attainable_single_core(machine: MachineSpec, oi: float) -> float:
    """Maximum GFLOP/s one core attains at operational intensity ``oi``:
    its share of the peak, or what the bandwidth it can draw alone
    feeds.  The bound a single-threaded kernel is measured against."""
    if oi < 0:
        raise ValueError("operational intensity must be non-negative")
    return min(machine.peak_per_core_gflops,
               oi * machine.single_core_stream_bw)


def roofline_curve(
    machine: MachineSpec, oi_min: float = 0.05, oi_max: float = 100.0, points: int = 200
) -> tuple[np.ndarray, np.ndarray]:
    """Sampled roofline (log-spaced OI, attainable GFLOP/s)."""
    oi = np.geomspace(oi_min, oi_max, points)
    perf = np.minimum(machine.peak_gflops, oi * machine.dram_bw_gbs)
    return oi, perf


def example_from_paper() -> float:
    """The worked example of Section 2: 0.1 FLOP/B on a 200 GFLOP/s,
    30 GB/s machine is capped at 3 GFLOP/s."""
    demo = MachineSpec(
        name="roofline-demo", cores=1, threads_per_core=1, freq_ghz=1.0,
        simd_width=1, fma=False, dram_bw_gbs=30.0, explicit_peak_gflops=200.0,
    )
    return attainable(demo, 0.1)

"""Machine specifications of every platform in the paper (Tables 1-2),
and of the host this reproduction is built and measured on.

The paper's headline results are hardware results; we reproduce their
*structure* with machine models.  :class:`MachineSpec` describes one
compute node (chip), :class:`ClusterSpec` an installation.

The paper's numbers are from its Section 4 or the cited BGQ
documentation; :data:`BUILD_HOST` is the benchmark ladder's measured
calibration promoted to data, so that a kernel's measured rate can be
divided by what this host allows at the kernel's intensity (our column of
Tables 5-7).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class MachineSpec:
    """One compute node.

    ``peak_gflops`` may be given explicitly (vendor nominal) or derived
    from ``cores * freq * simd_width * flops_per_lane_cycle``.
    """

    name: str
    cores: int
    threads_per_core: int
    freq_ghz: float
    simd_width: int  #: native SIMD lanes (QPX: 4 doubles)
    fma: bool  #: fused multiply-add available
    dram_bw_gbs: float  #: measured DRAM bandwidth
    l2_bw_gbs: float | None = None
    explicit_peak_gflops: float | None = None
    #: DRAM bandwidth one core can draw alone (a single in-order A2 core
    #: cannot saturate the node's memory controllers; ~1/4 of the node
    #: bandwidth is typical).  ``None`` defaults to ``dram_bw_gbs / 4``.
    core_stream_bw_gbs: float | None = None
    #: SIMD width actually exploited by the ported software (the QPX->SSE
    #: macro conversion uses SSE, not AVX -- paper Section 8.1).
    used_simd_width: int | None = None

    @property
    def flops_per_lane_cycle(self) -> int:
        return 2 if self.fma else 1

    @property
    def peak_gflops(self) -> float:
        """Nominal node peak."""
        if self.explicit_peak_gflops is not None:
            return self.explicit_peak_gflops
        return (
            self.cores
            * self.freq_ghz
            * self.simd_width
            * self.flops_per_lane_cycle
        )

    @property
    def peak_per_core_gflops(self) -> float:
        return self.peak_gflops / self.cores

    @property
    def scalar_peak_per_core_gflops(self) -> float:
        """Peak of non-vectorized code (one lane, FMA allowed)."""
        return self.freq_ghz * self.flops_per_lane_cycle

    @property
    def single_core_stream_bw(self) -> float:
        return self.core_stream_bw_gbs or self.dram_bw_gbs / 4.0

    @property
    def ridge_point(self) -> float:
        """Roofline ridge: FLOP/B above which kernels are compute-bound."""
        return self.peak_gflops / self.dram_bw_gbs

    @property
    def simd_utilization(self) -> float:
        """Fraction of nominal SIMD width the software exploits."""
        used = self.used_simd_width or self.simd_width
        return used / self.simd_width


#: IBM Blue Gene/Q compute chip (BQC): 16 cores + 2 (OS/spare), 4-way SMT,
#: 1.6 GHz, QPX 4-wide FMA -> 204.8 GFLOP/s; measured 28 GB/s DRAM and
#: 185 GB/s L2 (paper Table 2).
BGQ_NODE = MachineSpec(
    name="IBM BGQ (BQC)",
    cores=16,
    threads_per_core=4,
    freq_ghz=1.6,
    simd_width=4,
    fma=True,
    dram_bw_gbs=28.0,
    l2_bw_gbs=185.0,
)

#: Cray XE6 "Monte Rosa" node: 2P AMD Bulldozer (Interlagos), nominal
#: 540 GFLOP/s, measured 60 GB/s aggregate (paper Section 4; ridge 9).
MONTE_ROSA_NODE = MachineSpec(
    name="Cray XE6 (Monte Rosa)",
    cores=32,
    threads_per_core=1,
    freq_ghz=2.1,
    simd_width=4,
    fma=True,
    dram_bw_gbs=60.0,
    explicit_peak_gflops=540.0,
    used_simd_width=2,  # SSE port of the QPX kernels (double precision)
)

#: Cray XC30 "Piz Daint" node: 2P Intel Sandy Bridge, nominal 670 GFLOP/s,
#: measured 80 GB/s (paper Section 4; ridge 8.4).  Sandy Bridge has no
#: FMA; AVX peak counts separate add+mul pipes.
PIZ_DAINT_NODE = MachineSpec(
    name="Cray XC30 (Piz Daint)",
    cores=16,
    threads_per_core=2,
    freq_ghz=2.6,
    simd_width=4,
    fma=False,
    dram_bw_gbs=80.0,
    explicit_peak_gflops=670.0,
    used_simd_width=2,  # SSE port; AVX would be needed for nominal peak
)


#: The build host: a 2-vCPU microVM on an Intel Xeon at 2.1 GHz with
#: AVX-512 (8 doubles a vector) and FMA, one FMA issue a cycle counted.
#: The bandwidth is the benchmark ladder's measured triad -- 16.1 GB/s from
#: one core over three 64 MiB arrays (``benchmarks/ladder/results/
#: baseline.json``, ``host.triad_gbs``) -- which that host's 260 MiB
#: last-level cache makes a cache-resident streaming rate, not a DRAM
#: bandwidth; it is the only bandwidth measured here, so it stands for
#: both the node and the single core.  The compiled kernels are built
#: without contraction into FMAs (bit-identity), so half of this peak is
#: what they can reach.
BUILD_HOST = MachineSpec(
    name="build host (2 vCPU Xeon 2.1 GHz, AVX-512)",
    cores=2,
    threads_per_core=1,
    freq_ghz=2.1,
    simd_width=8,
    fma=True,
    dram_bw_gbs=16.1,
    core_stream_bw_gbs=16.1,
)


@dataclass(frozen=True)
class ClusterSpec:
    """An installation: racks of nodes plus network/I/O characteristics."""

    name: str
    node: MachineSpec
    nodes_per_rack: int
    racks: int
    #: 5D-torus link bandwidth per direction (paper: 2 GB/s send + 2 recv).
    link_bw_gbs: float = 2.0
    #: I/O bandwidth per dedicated I/O node (paper: 4 GB/s).
    io_bw_per_node_gbs: float = 4.0
    io_nodes_per_rack: int = 8

    @property
    def nodes(self) -> int:
        return self.nodes_per_rack * self.racks

    @property
    def cores(self) -> int:
        return self.nodes * self.node.cores

    @property
    def peak_pflops(self) -> float:
        return self.nodes * self.node.peak_gflops / 1.0e6

    @property
    def io_bw_gbs(self) -> float:
        return self.io_bw_per_node_gbs * self.io_nodes_per_rack * self.racks

    def with_racks(self, racks: int) -> "ClusterSpec":
        """The same installation restricted to ``racks`` racks."""
        return ClusterSpec(
            name=f"{self.name} ({racks} racks)",
            node=self.node,
            nodes_per_rack=self.nodes_per_rack,
            racks=racks,
            link_bw_gbs=self.link_bw_gbs,
            io_bw_per_node_gbs=self.io_bw_per_node_gbs,
            io_nodes_per_rack=self.io_nodes_per_rack,
        )


#: Table 1 installations: a BGQ rack is 32 node boards x 32 nodes = 1024
#: nodes = 0.21 PFLOP/s.
SEQUOIA = ClusterSpec(name="Sequoia", node=BGQ_NODE, nodes_per_rack=1024, racks=96)
JUQUEEN = ClusterSpec(name="Juqueen", node=BGQ_NODE, nodes_per_rack=1024, racks=24)
ZRL = ClusterSpec(name="ZRL", node=BGQ_NODE, nodes_per_rack=1024, racks=1)

#: CSCS resources used in Section 8.1 (0.34 / 0.28 PFLOP/s available).
PIZ_DAINT = ClusterSpec(
    name="Piz Daint", node=PIZ_DAINT_NODE, nodes_per_rack=507, racks=1
)
MONTE_ROSA = ClusterSpec(
    name="Monte Rosa", node=MONTE_ROSA_NODE, nodes_per_rack=519, racks=1
)

BGQ_INSTALLATIONS = (SEQUOIA, JUQUEEN, ZRL)


def machines_table() -> list[dict]:
    """Rows of paper Table 1."""
    return [
        {
            "Name": c.name,
            "Racks": c.racks,
            "Cores": c.cores,
            "PFLOP/s": round(c.peak_pflops, 1),
        }
        for c in BGQ_INSTALLATIONS
    ]


def bqc_table() -> dict:
    """Rows of paper Table 2."""
    n = BGQ_NODE
    return {
        "Cores": f"{n.cores}, {n.threads_per_core}-way SMT, {n.freq_ghz} GHz",
        "Peak performance": f"{n.peak_gflops:.1f} GFLOP/s",
        "L2 peak bandwidth": f"{n.l2_bw_gbs:.0f} GB/s",
        "Memory peak bandwidth": f"{n.dram_bw_gbs:.0f} GB/s",
    }

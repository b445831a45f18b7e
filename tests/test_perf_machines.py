"""Tests for the machine specifications (repro.perf.machines)."""

import pytest

from repro.perf.machines import (
    BGQ_NODE,
    BUILD_HOST,
    JUQUEEN,
    MONTE_ROSA_NODE,
    PIZ_DAINT_NODE,
    SEQUOIA,
    ZRL,
    MachineSpec,
    bqc_table,
    machines_table,
)


class TestBqcNode:
    def test_peak_derivation(self):
        # 16 cores x 1.6 GHz x 4-wide QPX x 2 (FMA) = 204.8 GFLOP/s.
        assert BGQ_NODE.peak_gflops == pytest.approx(204.8)

    def test_per_core_peak(self):
        assert BGQ_NODE.peak_per_core_gflops == pytest.approx(12.8)

    def test_scalar_peak(self):
        assert BGQ_NODE.scalar_peak_per_core_gflops == pytest.approx(3.2)

    def test_ridge_point(self):
        # Paper Section 4: "kernels that exhibit operational intensities
        # higher than 7.3 FLOP/off-chip Byte are compute-bound".
        assert BGQ_NODE.ridge_point == pytest.approx(7.3, abs=0.05)

    def test_bandwidths(self):
        assert BGQ_NODE.dram_bw_gbs == 28.0
        assert BGQ_NODE.l2_bw_gbs == 185.0


class TestBuildHost:
    """This host as data: the ladder's calibration, promoted."""

    def test_peak_and_bandwidth(self):
        # 2 vCPU x 2.1 GHz x 8 doubles (AVX-512) x 2 (FMA).
        assert BUILD_HOST.peak_gflops == pytest.approx(67.2)
        assert BUILD_HOST.peak_per_core_gflops == pytest.approx(33.6)
        assert BUILD_HOST.single_core_stream_bw == BUILD_HOST.dram_bw_gbs

    def test_single_core_roofline(self):
        from repro.perf.roofline import attainable_single_core
        from repro.perf.traffic import table3

        oi = {e.kernel: e.reordered_oi for e in table3()}
        # RHS sits under the core's peak, UP under its bandwidth.
        assert attainable_single_core(BUILD_HOST, oi["RHS"]) == (
            pytest.approx(33.6))
        assert attainable_single_core(BUILD_HOST, oi["UP"]) == (
            pytest.approx(oi["UP"] * 16.1))
        with pytest.raises(ValueError):
            attainable_single_core(BUILD_HOST, -1.0)


class TestInstallations:
    def test_sequoia_table1(self):
        assert SEQUOIA.racks == 96
        assert SEQUOIA.cores == pytest.approx(1.6e6, rel=0.02)
        assert SEQUOIA.peak_pflops == pytest.approx(20.1, rel=0.01)

    def test_juqueen_zrl(self):
        assert JUQUEEN.peak_pflops == pytest.approx(5.0, rel=0.01)
        assert ZRL.peak_pflops == pytest.approx(0.2, rel=0.05)

    def test_rack_peak(self):
        # "a rack, with a nominal compute performance of 0.21 PFLOP/s".
        assert SEQUOIA.with_racks(1).peak_pflops == pytest.approx(0.21, rel=0.01)

    def test_with_racks_preserves_node(self):
        sub = SEQUOIA.with_racks(24)
        assert sub.node is SEQUOIA.node
        assert sub.nodes == 24 * 1024


class TestCSCSNodes:
    def test_monte_rosa(self):
        assert MONTE_ROSA_NODE.peak_gflops == 540.0
        assert MONTE_ROSA_NODE.ridge_point == pytest.approx(9.0)

    def test_piz_daint(self):
        assert PIZ_DAINT_NODE.peak_gflops == 670.0
        assert PIZ_DAINT_NODE.ridge_point == pytest.approx(8.4, abs=0.03)

    def test_sse_port_utilization(self):
        assert PIZ_DAINT_NODE.simd_utilization == pytest.approx(0.5)


class TestTables:
    def test_table1_rows(self):
        rows = machines_table()
        assert [r["Name"] for r in rows] == ["Sequoia", "Juqueen", "ZRL"]
        assert rows[0]["PFLOP/s"] == 20.1

    def test_table2_entries(self):
        t = bqc_table()
        assert "204.8" in t["Peak performance"]
        assert "185" in t["L2 peak bandwidth"]
        assert "28" in t["Memory peak bandwidth"]


class TestMachineSpec:
    def test_explicit_peak_override(self):
        m = MachineSpec(
            name="x", cores=4, threads_per_core=1, freq_ghz=1.0,
            simd_width=2, fma=True, dram_bw_gbs=10.0,
            explicit_peak_gflops=123.0,
        )
        assert m.peak_gflops == 123.0

    def test_no_fma_halves_peak(self):
        a = MachineSpec("a", 1, 1, 1.0, 4, True, 1.0)
        b = MachineSpec("b", 1, 1, 1.0, 4, False, 1.0)
        assert a.peak_gflops == 2 * b.peak_gflops

"""Tests for the performance models against the paper's measurements.

These assert the *shapes* the reproduction must preserve: who wins, by
roughly what factor, and where bounds sit.  Exact paper values are
annotated; the models must land within the stated windows.
"""

import numpy as np
import pytest

from repro.perf.issue import rhs_issue_bound_fraction, rhs_issue_bounds
from repro.perf.kernels import DT, FWT, RHS, RHS_STAGES, UP, flops_per_cell_step
from repro.perf.machines import BGQ_NODE, SEQUOIA, MachineSpec
from repro.perf.report import format_table
from repro.perf.roofline import attainable, example_from_paper, roofline_curve
from repro.perf.scaling import (
    cluster_perf,
    core_perf,
    fig9_weak_scaling,
    node_perf,
    overall_perf,
    table5,
    table6,
    table7,
    table9,
    table10,
    throughput_cells_per_second,
    time_per_step,
)
from repro.perf.traffic import table3


class TestRoofline:
    def test_paper_example(self):
        # Section 2: min(200, 0.1 * 30) = 3 GFLOP/s.
        assert example_from_paper() == pytest.approx(3.0)

    def test_compute_bound_caps_at_peak(self):
        assert attainable(BGQ_NODE, 100.0) == BGQ_NODE.peak_gflops

    def test_memory_bound_linear(self):
        assert attainable(BGQ_NODE, 1.0) == pytest.approx(28.0)

    def test_curve_monotone(self):
        oi, perf = roofline_curve(BGQ_NODE)
        assert (np.diff(perf) >= -1e-9).all()

    def test_negative_oi_raises(self):
        with pytest.raises(ValueError):
            attainable(BGQ_NODE, -1.0)


class TestTable3:
    def test_operational_intensities_near_paper(self):
        est = {e.kernel: e for e in table3()}
        # Paper: RHS 1.4 -> 21 FLOP/B; DT 1.3 -> 5.1; UP 0.2 -> 0.2.
        assert est["RHS"].naive_oi == pytest.approx(1.4, rel=0.25)
        assert est["RHS"].reordered_oi == pytest.approx(21.0, rel=0.15)
        assert est["DT"].naive_oi == pytest.approx(1.3, rel=0.1)
        assert est["DT"].reordered_oi == pytest.approx(5.1, rel=0.1)
        assert est["UP"].naive_oi == pytest.approx(0.2, rel=0.05)

    def test_gain_factors(self):
        est = {e.kernel: e for e in table3()}
        # Paper factors: 15x, 3.9x, 1x.
        assert est["RHS"].gain == pytest.approx(15.0, rel=0.15)
        assert est["DT"].gain == pytest.approx(3.9, rel=0.1)
        assert est["UP"].gain == 1.0

    def test_reordered_rhs_compute_bound(self):
        est = {e.kernel: e for e in table3()}
        assert est["RHS"].reordered_oi > BGQ_NODE.ridge_point
        assert est["RHS"].naive_oi < BGQ_NODE.ridge_point
        assert est["UP"].reordered_oi < BGQ_NODE.ridge_point


class TestTable8:
    def test_stage_bounds_match_paper(self):
        rows = {b.stage: b for b in rhs_issue_bounds()}
        # Paper Table 8: CONV 55 %, WENO 78 %, HLLE 65 %, SUM 61 %, BACK 64 %.
        assert rows["CONV"].peak_fraction == pytest.approx(0.55, abs=0.005)
        assert rows["WENO"].peak_fraction == pytest.approx(0.78, abs=0.005)
        assert rows["HLLE"].peak_fraction == pytest.approx(0.65, abs=0.005)
        assert rows["SUM"].peak_fraction == pytest.approx(0.61, abs=0.005)
        assert rows["BACK"].peak_fraction == pytest.approx(0.64, abs=0.005)

    def test_all_bound_is_76_percent(self):
        assert rhs_issue_bound_fraction() == pytest.approx(0.755, abs=0.01)

    def test_weno_dominates_instruction_mix(self):
        weights = {s.name: s.weight for s in RHS_STAGES}
        assert weights["WENO"] == max(weights.values())
        assert weights["WENO"] > 0.8


class TestTable7CoreLayer:
    def test_qpx_rhs_near_paper(self):
        perf = core_perf(RHS, vectorized=True)
        assert perf.gflops == pytest.approx(8.27, rel=0.03)
        assert perf.peak_fraction == pytest.approx(0.65, abs=0.02)

    def test_scalar_rhs(self):
        assert core_perf(RHS, vectorized=False).gflops == pytest.approx(
            2.21, rel=0.03
        )

    def test_improvements(self):
        rows = {r["kernel"]: r for r in table7()}
        # Paper: 3.7X RHS, 2.2X DT, ~1X UP, 3.2X FWT.
        assert rows["RHS"]["Improvement"] == pytest.approx(3.7, rel=0.05)
        assert rows["DT"]["Improvement"] == pytest.approx(2.2, rel=0.05)
        assert rows["UP"]["Improvement"] == pytest.approx(1.0, rel=0.1)
        assert rows["FWT"]["Improvement"] == pytest.approx(3.2, rel=0.05)

    def test_up_is_bandwidth_bound(self):
        """UP must not benefit from vectorization (the Table 7 signature
        of a memory-bound kernel)."""
        scalar = core_perf(UP, vectorized=False).gflops
        qpx = core_perf(UP, vectorized=True).gflops
        assert qpx == pytest.approx(scalar, rel=0.1)


class TestTables5and6:
    def test_rhs_column(self):
        rows = {r["racks"]: r for r in table5()}
        # Paper: 60 / 57 / 55 %.
        assert rows[1]["RHS [%]"] == pytest.approx(60.0, abs=1.5)
        assert rows[24]["RHS [%]"] == pytest.approx(57.0, abs=1.5)
        assert rows[96]["RHS [%]"] == pytest.approx(55.0, abs=1.5)

    def test_96_rack_pflops(self):
        rows = {r["racks"]: r for r in table5()}
        # Paper: RHS 10.99 PFLOP/s, ALL 10.14 PFLOP/s.
        assert rows[96]["RHS [PFLOP/s]"] == pytest.approx(10.99, rel=0.05)
        assert rows[96]["ALL [PFLOP/s]"] == pytest.approx(10.14, rel=0.10)

    def test_overall_fraction_around_half_peak(self):
        # Paper: ALL 53 / 51 / 50 %; the model lands within ~10 %.
        for racks, paper in ((1, 53.0), (24, 51.0), (96, 50.0)):
            model = 100.0 * overall_perf(racks).peak_fraction
            assert model == pytest.approx(paper, rel=0.12)

    def test_monotone_degradation(self):
        fr = [cluster_perf(RHS, r).peak_fraction for r in (1, 24, 96)]
        assert fr[0] > fr[1] > fr[2]

    def test_node_beats_rack(self):
        rows = table6()
        rack = next(r for r in rows if r["scope"] == "1 rack")
        node = next(r for r in rows if r["scope"] == "1 node")
        assert node["RHS [%]"] > rack["RHS [%]"]
        # DT collapses at cluster scope (global reduction): 18 % -> 7 %.
        assert node["DT [%]"] == pytest.approx(18.0, abs=1.5)
        assert rack["DT [%]"] == pytest.approx(7.0, abs=1.0)


class TestTable9:
    def test_fusion_gains(self):
        t = table9()
        # Paper: 7.9 -> 9.2 GFLOP/s (62 % -> 72 %), 1.2X rate, 1.3X time.
        assert t["baseline_gflops"] == pytest.approx(7.9, rel=0.02)
        assert t["fused_gflops"] == pytest.approx(9.2, rel=0.02)
        assert t["gflops_improvement"] == pytest.approx(1.16, abs=0.05)
        assert t["time_improvement"] == pytest.approx(1.3, abs=0.05)


class TestTable10:
    def test_cscs_fractions(self):
        rows = {r["machine"]: r for r in table10()}
        pd = rows["Cray XC30 (Piz Daint)"]
        mr = rows["Cray XE6 (Monte Rosa)"]
        # Paper: PD 269 GF (40 %), MR 201 GF (37 %).
        assert pd["RHS [GFLOP/s]"] == pytest.approx(269.0, rel=0.08)
        assert mr["RHS [GFLOP/s]"] == pytest.approx(201.0, rel=0.05)
        assert pd["UP [%]"] == pytest.approx(2.0, abs=0.5)
        assert mr["DT [GFLOP/s]"] == pytest.approx(86.0, rel=0.1)


class TestThroughput:
    def test_cells_per_second(self):
        # Paper: 721e9 cells/s on 96 racks.
        assert throughput_cells_per_second(96) == pytest.approx(
            721e9, rel=0.05
        )

    def test_step_time(self):
        # Paper: 18.3 s per step for 13.2e12 cells.
        assert time_per_step(13.2e12, 96) == pytest.approx(18.3, rel=0.05)

    def test_flops_accounting_consistent(self):
        """The 96-rack model must tie its own numbers together:
        ALL PFLOP/s == flops/cell/step * cells/s."""
        pflops = overall_perf(96).gflops / 1e6
        cells = throughput_cells_per_second(96)
        implied = flops_per_cell_step() * cells / 1e15
        # FWT contributes flops but no step time; exclude it.
        step_flops = sum(k.flops_per_cell_step() for k in (RHS, DT, UP))
        implied = step_flops * cells / 1e15
        assert implied == pytest.approx(pflops, rel=1e-6)


class TestFig9:
    def test_scaling_monotone(self):
        rows = fig9_weak_scaling()
        for kernel in ("RHS", "DT", "UP"):
            vals = [r[kernel] for r in rows]
            assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))

    def test_up_saturates_rhs_does_not(self):
        rows = fig9_weak_scaling()
        first, last = rows[0], rows[-1]
        rhs_speedup = last["RHS"] / first["RHS"]
        up_speedup = last["UP"] / first["UP"]
        assert up_speedup < rhs_speedup / 1.5  # UP hits the bandwidth wall

    def test_full_node_near_table6(self):
        rows = fig9_weak_scaling()
        full = rows[-1]
        assert full["RHS"] / BGQ_NODE.peak_gflops == pytest.approx(
            0.62, abs=0.02
        )


class TestReport:
    def test_format_table_alignment(self):
        out = format_table([{"a": 1, "b": 2.5}, {"a": 10, "b": 0.125}], "T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_format_table_heterogeneous_rows_union_columns(self):
        # The telemetry scorecard mixes phase rows and summary rows with
        # different keys: columns are the union in first-seen order and
        # missing cells render blank.
        out = format_table([
            {"phase": "RHS", "seconds": 1.5},
            {"phase": "throughput", "Gcells/s": 0.75},
        ])
        lines = out.splitlines()
        header = lines[0]
        assert header.index("phase") < header.index("seconds")
        assert header.index("seconds") < header.index("Gcells/s")
        assert "1.50" in lines[2] and "Gcells/s" not in lines[2]
        assert "0.75" in lines[3] and "seconds" not in lines[3]
        # the blank fill keeps every row aligned to the header width
        assert len({len(line) for line in lines[1:]}) <= 2

    def test_empty_table(self):
        assert "empty" in format_table([])

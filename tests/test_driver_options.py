"""End-to-end coverage of the driver's configuration paths.

Each solver/scheme option must run through the full stack and agree with
the production path where mathematically equivalent (uniform flows), or
differ in the expected direction where not.
"""

import numpy as np
import pytest

from repro.cluster.driver import Simulation
from repro.sim.cloud import Bubble
from repro.sim.config import SimulationConfig
from repro.sim.ic import cloud_collapse, uniform


def cfg(**kw):
    base = dict(cells=16, block_size=8, max_steps=3, diag_interval=1)
    base.update(kw)
    return SimulationConfig(**base)


IC = cloud_collapse([Bubble((0.5, 0.5, 0.5), 0.2)], p_liquid=1000.0)


class TestSchemeOptions:
    def test_use_slices_matches_vectorized(self):
        r_vec = Simulation(cfg(), IC).run()
        r_sl = Simulation(cfg(use_slices=True), IC).run()
        scale = np.abs(r_vec.final_field).max()
        np.testing.assert_allclose(
            r_sl.final_field, r_vec.final_field, atol=1e-9 * scale
        )

    def test_fused_weno_close_to_baseline(self):
        r0 = Simulation(cfg(), IC).run()
        r1 = Simulation(cfg(fused_weno=True), IC).run()
        scale = np.abs(r0.final_field).max()
        np.testing.assert_allclose(
            r1.final_field, r0.final_field, atol=1e-5 * scale
        )

    def test_hllc_runs_and_differs(self):
        r0 = Simulation(cfg(max_steps=5), IC).run()
        r1 = Simulation(cfg(max_steps=5, riemann_solver="hllc"), IC).run()
        assert np.isfinite(r1.final_field).all()
        # Different flux => different (finite) evolution near the interface.
        assert np.abs(
            r1.final_field.astype(np.float64)
            - r0.final_field.astype(np.float64)
        ).max() > 0

    def test_weno3_runs(self):
        r = Simulation(cfg(max_steps=5, weno_order=3), IC).run()
        assert np.isfinite(r.final_field).all()
        vv = r.series("vapor_volume")
        assert vv[-1] < vv[0]  # still collapsing

    def test_euler_stepper_runs(self):
        r = Simulation(cfg(stepper="euler"), IC).run()
        assert np.isfinite(r.final_field).all()

    def test_uniform_invariant_under_all_options(self):
        for opts in (
            {"use_slices": True},
            {"fused_weno": True},
            {"riemann_solver": "hllc"},
            {"weno_order": 3},
            {"stepper": "euler"},
        ):
            r = Simulation(cfg(**opts), uniform()).run()
            np.testing.assert_allclose(
                r.series("kinetic_energy"), 0.0, atol=1e-12,
                err_msg=f"uniform flow disturbed by {opts}",
            )


class TestSchemeValidation:
    """An unsupported scheme fails at configuration time, with a
    ``ValueError``, instead of at the first sweep or not at all."""

    @pytest.mark.parametrize("opts", [
        {"weno_order": 3}, {"riemann_solver": "hllc"}, {"fused_weno": True},
    ])
    def test_use_slices_rejects_what_it_would_ignore(self, opts):
        # The streaming RHS is WENO5 + HLLE: it used to run exactly that,
        # whatever the configuration asked for.
        with pytest.raises(ValueError, match="use_slices"):
            cfg(use_slices=True, **opts)

    def test_unknown_order_and_solver(self):
        with pytest.raises(ValueError, match="WENO order"):
            cfg(weno_order=4)
        with pytest.raises(ValueError, match="Riemann solver"):
            cfg(riemann_solver="roe")

    @pytest.mark.parametrize("block_size", [0, -8, 5])
    def test_block_size_too_small_is_a_value_error(self, block_size):
        # block_size=0 used to reach the divisibility check first:
        # ZeroDivisionError.
        with pytest.raises(ValueError, match="block_size"):
            SimulationConfig(cells=16, block_size=block_size)


class TestDiagnosticsOptions:
    def test_diag_interval_skips_records(self):
        r = Simulation(cfg(max_steps=6, diag_interval=3), IC).run()
        with_diag = [rec for rec in r.records if rec.diagnostics is not None]
        assert len(r.records) == 6
        assert len(with_diag) == 2
        assert [rec.step for rec in with_diag] == [3, 6]

    def test_diag_disabled(self):
        r = Simulation(cfg(diag_interval=0), IC).run()
        assert all(rec.diagnostics is None for rec in r.records)
        assert r.series("max_pressure").size == 0

    def test_no_final_field_collection(self):
        r = Simulation(cfg(collect_final_field=False), IC).run()
        assert r.final_field is None
        assert r.rank_results[0].field is None


class TestDumpOptions:
    def test_guaranteed_dump_mode(self, tmp_path):
        c = cfg(max_steps=2, dump_interval=2, dump_dir=str(tmp_path),
                dump_guaranteed=True, eps_pressure=1.0)
        r = Simulation(c, IC).run()
        from repro.compression.io import read_field

        field = read_field(str(tmp_path / "dump_step000002_p.rwz"))
        from repro.sim.diagnostics import pressure_field

        p_true = pressure_field(r.final_field)
        # Strict L-inf bound (plus float32 transform noise).
        assert np.abs(field - p_true).max() <= 1.0 + 1e-3

    def test_traffic_counters_populated(self):
        r = Simulation(cfg(ranks=2), IC).run()
        sent = [rr.bytes_sent for rr in r.rank_results]
        msgs = [rr.messages_sent for rr in r.rank_results]
        # 3 steps x 3 RK stages x 1 face message per rank.
        assert all(m == 9 for m in msgs)
        assert all(s > 0 for s in sent)


class TestOddRankCounts:
    def test_three_ranks(self):
        """Non-power-of-two decomposition: 3 ranks along z."""
        cfg3 = SimulationConfig(cells=24, block_size=8, max_steps=2,
                                diag_interval=1, ranks=3)
        cfg1 = SimulationConfig(cells=24, block_size=8, max_steps=2,
                                diag_interval=1)
        r3 = Simulation(cfg3, IC).run()
        r1 = Simulation(cfg1, IC).run()
        np.testing.assert_array_equal(r3.final_field, r1.final_field)

    def test_six_ranks_one_block_each(self):
        """balanced_dims(6) = (3, 2, 1); an anisotropic (24, 16, 8) domain
        gives every rank exactly one block."""
        cfg6 = SimulationConfig(cells=(24, 16, 8), block_size=8, max_steps=1,
                                diag_interval=0, ranks=6)
        r = Simulation(cfg6, IC).run()
        assert np.isfinite(r.final_field).all()
        assert r.final_field.shape == (24, 16, 8, 7)


class TestUnitScaling:
    def test_per_cell_cost_stable_across_domain_size(self):
        """Paper Section 7: 'for larger simulations we do not observe a
        significant change in time-to-solution' (per cell).  Per-cell cost
        at 16^3 and 24^3 must agree within a factor ~2.5 (block dispatch
        overhead shrinks as blocks grow in number)."""
        import time

        costs = {}
        for cells in (16, 24):
            cfg = SimulationConfig(cells=cells, block_size=8, max_steps=2,
                                   diag_interval=0)
            t0 = time.perf_counter()
            Simulation(cfg, IC).run()
            costs[cells] = (time.perf_counter() - t0) / cells**3
        ratio = costs[16] / costs[24]
        assert 0.4 < ratio < 2.5, f"per-cell cost ratio {ratio}"

"""Tests for the simulation driver (repro.cluster.driver)."""

import os
from dataclasses import dataclass

import numpy as np
import pytest

from repro.cluster.driver import Simulation
from repro.cluster.mpi_sim import SimWorld, WorldError
from repro.cluster.procs import ProcsWorld
from repro.compression.io import read_field, read_header
from repro.sim.config import SimulationConfig
from repro.sim.ic import cloud_collapse, uniform
from repro.sim.cloud import Bubble


def small_config(**kw):
    defaults = dict(cells=16, block_size=8, max_steps=3, num_workers=2,
                    diag_interval=1)
    defaults.update(kw)
    return SimulationConfig(**defaults)


class TestUniformRun:
    def test_stays_uniform(self):
        res = Simulation(small_config(), uniform()).run()
        assert len(res.records) == 3
        ke = res.series("kinetic_energy")
        np.testing.assert_allclose(ke, 0.0, atol=1e-12)
        p = res.series("max_pressure")
        np.testing.assert_allclose(p, 100.0, rtol=1e-4)

    def test_time_advances_with_cfl(self):
        res = Simulation(small_config(), uniform()).run()
        dts = [r.dt for r in res.records]
        assert all(dt > 0 for dt in dts)
        # CFL 0.3, h = 1/16, c ~ 5.26 (paper materials in bar/kg/m3 units)
        assert dts[0] == pytest.approx(0.3 * (1 / 16) / 5.258, rel=0.01)

    def test_t_end_respected(self):
        cfg = small_config(max_steps=1000, t_end=0.01)
        res = Simulation(cfg, uniform()).run()
        assert res.records[-1].time == pytest.approx(0.01, rel=1e-9)
        assert len(res.records) < 1000

    def test_timers_recorded(self):
        res = Simulation(small_config(), uniform()).run()
        for key in ("DT", "RHS", "UP", "COMM_WAIT", "DIAG"):
            assert key in res.timers
        assert res.timers["RHS"] > 0


class TestDecompositionInvariance:
    def test_multi_rank_matches_single(self):
        ic = cloud_collapse([Bubble((0.5, 0.5, 0.5), 0.2)])
        r1 = Simulation(small_config(cells=16, max_steps=3), ic).run()
        r2 = Simulation(small_config(cells=16, max_steps=3, ranks=2), ic).run()
        np.testing.assert_array_equal(r2.final_field, r1.final_field)

    def test_eight_ranks(self):
        ic = cloud_collapse([Bubble((0.5, 0.5, 0.5), 0.2)])
        r1 = Simulation(small_config(cells=16, max_steps=2), ic).run()
        r8 = Simulation(small_config(cells=16, max_steps=2, ranks=8), ic).run()
        np.testing.assert_array_equal(r8.final_field, r1.final_field)

    def test_diagnostics_identical_across_ranks(self):
        ic = cloud_collapse([Bubble((0.5, 0.5, 0.5), 0.2)])
        r1 = Simulation(small_config(cells=16, max_steps=3), ic).run()
        r2 = Simulation(small_config(cells=16, max_steps=3, ranks=2), ic).run()
        np.testing.assert_allclose(
            r1.series("max_pressure"), r2.series("max_pressure"), rtol=1e-12
        )
        np.testing.assert_allclose(
            r1.series("vapor_volume"), r2.series("vapor_volume"), rtol=1e-12
        )


class TestCollapsePhysics:
    def test_bubble_shrinks_under_pressure(self):
        ic = cloud_collapse([Bubble((0.5, 0.5, 0.5), 0.2)])
        res = Simulation(small_config(cells=16, max_steps=6), ic).run()
        vv = res.series("vapor_volume")
        assert vv[-1] < vv[0]

    def test_kinetic_energy_grows_initially(self):
        ic = cloud_collapse([Bubble((0.5, 0.5, 0.5), 0.2)])
        res = Simulation(small_config(cells=16, max_steps=6), ic).run()
        ke = res.series("kinetic_energy")
        assert ke[-1] > ke[0]

    def test_wall_diagnostic_active(self):
        ic = cloud_collapse([Bubble((0.5, 0.5, 0.5), 0.2)])
        cfg = small_config(cells=16, max_steps=2, wall=(0, -1))
        res = Simulation(cfg, ic).run()
        w = res.series("wall_max_pressure")
        assert np.isfinite(w).all()
        assert (w > 0).all()


class TestDumps:
    def test_compressed_dump_roundtrip(self, tmp_path):
        ic = cloud_collapse([Bubble((0.5, 0.5, 0.5), 0.2)])
        cfg = small_config(
            cells=16, max_steps=2, dump_interval=2, dump_dir=str(tmp_path)
        )
        res = Simulation(cfg, ic).run()
        p_file = tmp_path / "dump_step000002_p.rwz"
        g_file = tmp_path / "dump_step000002_Gamma.rwz"
        assert p_file.exists() and g_file.exists()
        header = read_header(str(p_file))
        assert header["quantity"] == "p"
        field = read_field(str(g_file))
        assert field.shape == (16, 16, 16)
        # Decompressed Gamma must lie between the two material values.
        assert field.min() >= 0.17 and field.max() <= 2.51
        assert res.rank_results[0].compression_stats

    def test_multi_rank_dump_stitches(self, tmp_path):
        ic = cloud_collapse([Bubble((0.5, 0.5, 0.5), 0.2)])
        base = dict(cells=16, max_steps=2, dump_interval=2)
        cfg1 = small_config(**base, dump_dir=str(tmp_path / "a"))
        cfg2 = small_config(**base, ranks=2, dump_dir=str(tmp_path / "b"))
        os.makedirs(tmp_path / "a")
        os.makedirs(tmp_path / "b")
        Simulation(cfg1, ic).run()
        Simulation(cfg2, ic).run()
        f1 = read_field(str(tmp_path / "a" / "dump_step000002_p.rwz"))
        f2 = read_field(str(tmp_path / "b" / "dump_step000002_p.rwz"))
        assert f2.shape == f1.shape
        # Lossy thresholds are applied per subdomain, so allow the bound.
        assert np.abs(f1 - f2).max() <= 2 * 1e-2 * 120  # eps_p * scale margin

    def test_io_timers(self, tmp_path):
        ic = uniform()
        cfg = small_config(dump_interval=1, dump_dir=str(tmp_path))
        res = Simulation(cfg, ic).run()
        assert res.timers.get("IO_WAVELET", 0) > 0
        assert res.timers.get("IO_FWT", 0) > 0
        assert res.timers.get("IO_WRITE", 0) > 0


@dataclass(frozen=True)
class NanCellIC:
    """A quiescent liquid whose energy is NaN in the cell that contains
    the point ``where`` (z, y, x) -- one cell of one block of one rank.
    Module-level, so the procs backend can pickle it."""

    where: tuple[float, float, float]
    h: float

    def __call__(self, z, y, x):
        out = uniform()(z, y, x)
        hit = ((np.abs(z - self.where[0]) < self.h / 2)
               & (np.abs(y - self.where[1]) < self.h / 2)
               & (np.abs(x - self.where[2]) < self.h / 2))
        out[..., 4][hit] = np.nan
        return out


def _reduce_with_nan(comm, nan_rank, op):
    value = float("nan") if comm.rank == nan_rank else float(comm.rank + 1)
    return comm.allreduce(value, op=op)


class TestDivergenceReachesTheCheck:
    """The DT kernel folds block maxima per rank and rank maxima per
    world; a NaN anywhere must survive both folds, or the run continues
    on a NaN state (python's ``max`` keeps a NaN only where it comes
    first, ``a if a >= b else b`` only where it comes last)."""

    @staticmethod
    def _run_diverged(block_index, **config):
        cfg = small_config(diag_interval=0, num_workers=1, **config)
        cell = tuple((8 * b + 3 + 0.5) * cfg.h for b in block_index)
        with pytest.raises(WorldError) as err:
            Simulation(cfg, NanCellIC(cell, cfg.h)).run()
        causes = list(err.value.primary_failures.values())
        assert causes and all(isinstance(c, RuntimeError) for c in causes)
        assert all("solution diverged at step 0" in str(c) for c in causes)
        return causes

    @pytest.mark.parametrize("block_index", list(np.ndindex(2, 2, 2)))
    def test_nan_in_every_block_position(self, block_index):
        self._run_diverged(block_index)

    @pytest.mark.parametrize("backend", ["sim", "procs"])
    @pytest.mark.parametrize("block_index", [(0, 0, 0), (1, 1, 1)])
    def test_nan_on_either_rank(self, block_index, backend,
                                resource_ledger):
        # The two blocks differ in every coordinate: whichever way the
        # domain is split, they belong to different ranks -- and both
        # ranks see the NaN after the allreduce.
        causes = self._run_diverged(block_index, ranks=2,
                                    cluster_backend=backend)
        assert len(causes) == 2

    @pytest.mark.parametrize("op", ["max", "min"])
    def test_allreduce_carries_nan_from_any_rank(self, op, resource_ledger):
        for world in (SimWorld(3), ProcsWorld(2, timeout=60.0)):
            for nan_rank in range(world.size):
                out = world.run(_reduce_with_nan, nan_rank, op)
                assert len(out) == world.size and all(np.isnan(out)), (
                    type(world).__name__, nan_rank, out)
            clean = world.run(_reduce_with_nan, -1, op)
            assert clean == [float(world.size if op == "max" else 1)] * (
                world.size)

    def test_nonpositive_velocity_is_a_typed_error(self):
        from repro.core.kernels import dt_from_sos

        assert dt_from_sos(5.0, 0.25, 0.3) == 0.3 * 0.25 / 5.0
        with pytest.raises(ValueError, match="must be positive"):
            dt_from_sos(-1.0, 0.25, 0.3)

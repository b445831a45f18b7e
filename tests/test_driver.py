"""Tests for the simulation driver (repro.cluster.driver)."""

import hashlib
import json
import os
import struct
from dataclasses import dataclass

import numpy as np
import pytest

from repro.cluster.checkpoint import list_checkpoints, read_checkpoint_field
from repro.cluster.driver import Simulation
from repro.cluster.mpi_sim import SimWorld, WorldError
from repro.cluster.procs import ProcsWorld
from repro.compression.encoder import StreamEncoder
from repro.compression.io import read_compressed, read_field, read_header
from repro.sim.config import SimulationConfig
from repro.sim.ic import cloud_collapse, uniform
from repro.sim.cloud import Bubble, generate_cloud
from repro.sim.erosion import ErosionModel
from repro.telemetry.flight import read_flight


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


def _sha(data) -> str:
    """SHA-256 of an array's bytes, of bytes, or of JSON (sorted keys)."""
    if isinstance(data, np.ndarray):
        data = data.tobytes()
    elif not isinstance(data, bytes):
        data = json.dumps(data, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def _all_features_digests(ranks, backend, tmp_path):
    """SHA-256 digests of what a 6-step 32^3 cloud run with every per-step
    feature on leaves behind: the final field, the diagnostics series,
    the wall damage map, every dump's decoded coefficients, every kept
    checkpoint's restored field, each flight record's step, t, dt and
    drift, the merged counters and the non-timing fields of every
    rank's compression stats."""
    config = SimulationConfig(
        cells=32, block_size=8, max_steps=6, ranks=ranks,
        cluster_backend=backend, num_workers=1,
        sanitize="warn", telemetry="trace",
        flight_out=str(tmp_path / "flight.jsonl"), progress_interval=1,
        wall=(2, -1), erosion=ErosionModel(p_threshold=50.0),
        diag_interval=1, dump_interval=2, dump_dir=str(tmp_path / "dumps"),
        checkpoint_interval=2, checkpoint_keep=2,
        checkpoint_dir=str(tmp_path / "ckpt"),
    )
    cloud = generate_cloud(8, (0.5, 0.5, 0.5), 0.38,
                           rng=np.random.default_rng(39), r_min=0.07,
                           r_max=0.11)
    result = Simulation(config, cloud_collapse(cloud, smoothing=config.h)).run()
    assert len(result.records) == 6
    assert result.skipped_writes == []
    assert result.sanitizer_report is not None
    assert result.wall_damage.any()
    digests = {
        "field": _sha(result.final_field),
        "diagnostics": _sha(b"".join(
            struct.pack("<4d", d.max_pressure, d.wall_max_pressure,
                        d.kinetic_energy, d.vapor_volume)
            for d in (rec.diagnostics for rec in result.records))),
        "wall_damage": _sha(result.wall_damage),
        "counters": _sha(result.telemetry.counters),
        "compression_stats": _sha([
            [{k: s[k] for k in ("step", "quantity", "rate", "raw_bytes",
                                "compressed_bytes")}
             for s in rr.compression_stats]
            for rr in result.rank_results]),
    }
    _, flight = read_flight(config.flight_out)
    digests["flight"] = _sha(sorted(
        [r["step"], r["rank"], r["t"], r["dt"], r["drift"]] for r in flight))
    for path in sorted((tmp_path / "dumps").glob("*.rwz")):
        digests[path.name] = _sha([
            _sha(StreamEncoder().decode_batch(cf.payload,
                                              (cf.block_size,) * 3))
            for cf in read_compressed(str(path))])
    for step, path in list_checkpoints(config.checkpoint_dir):
        fld, t, at = read_checkpoint_field(path)
        digests[os.path.basename(path)] = _sha([_sha(fld), t, at, step])
    return digests


#: (ranks, backend) -> ``_all_features_digests``, recorded before the
#: driver's step loop was split into set-up, step, chosen work and result.
ALL_FEATURES_DIGESTS = {
    (1, "sim"): {
        "field":
            "ec277f7aa87fb4c4bd8255d428aad41564e6286638919510c2b16a928861f0dc",
        "diagnostics":
            "fb79d0ea948fde553f539f00267da4cd9beb4e7b42d99db3b3345e6f7fbcc028",
        "wall_damage":
            "cd2f371102943ef82b862f65e1b99c359376362fb2c7b476be220bdd5de51962",
        "counters":
            "8d204184d9dde9a07f3a6aa5ea2342d931b459071ecaa979eecf8b6e0290e5ec",
        "compression_stats":
            "46933313a9f89629d64e1c7b3036f56773e7a99a5ce8fd74a6c05bd11a46ef71",
        "flight":
            "0898326bd0a6b3da3389f383989a928c2782eb61eae5cab423e4bc37467b866c",
        "dump_step000002_Gamma.rwz":
            "24f5a6a20567f403374bcc880f79363d37bf531a86f4daada0065094d0a83c0b",
        "dump_step000002_p.rwz":
            "6332368da6b0b9522daa0f385342898312c29a4ec6e0ffb4aec50dfd7676e358",
        "dump_step000004_Gamma.rwz":
            "fee487a1596ab172da90b511d674c3a8887be04207d2c012fe2b3cabbd41a8b9",
        "dump_step000004_p.rwz":
            "4042327e45052a961791aecb0080571f3b5739e989e77f81f1ed8dca5a36796c",
        "dump_step000006_Gamma.rwz":
            "5b35276c3154f331bedc68a4a72e5e90965b28df3c7fcb9e9f827cb2f181bf7b",
        "dump_step000006_p.rwz":
            "e6dedf89cc753a570b03c347ee1beed7458aa3ed283f75c874a854c8da9f0e8c",
        "ckpt_000004.rck":
            "637fabbbb669d62be4505bbbc0d3b6810df3208e04e53c65b48a541c3c4ce633",
        "ckpt_000006.rck":
            "6c10f9990deed3562f8ee214754cf314190449b88580a04cb142169c061fb4a5",
    },
    (2, "procs"): {
        "field":
            "ec277f7aa87fb4c4bd8255d428aad41564e6286638919510c2b16a928861f0dc",
        "diagnostics":
            "fb79d0ea948fde553f539f00267da4cd9beb4e7b42d99db3b3345e6f7fbcc028",
        "wall_damage":
            "cd2f371102943ef82b862f65e1b99c359376362fb2c7b476be220bdd5de51962",
        "counters":
            "4ebb74fccba0e7df220989d4b0f444800f81087fff1fd5fc2a38eaa405686e87",
        "compression_stats":
            "42818510848fe8c7cee6fac2ec76fba08efd971a658bc848e10b4d4ca7412fb5",
        "flight":
            "da4beb5435595427889771a52ee3445deb7a954ca5b461c55abce0d495e068fe",
        "dump_step000002_Gamma.rwz":
            "832e629cfa8376650ab97269266f586dfa7d1d84c970023fbf4d79a42bfd6784",
        "dump_step000002_p.rwz":
            "929dd1ac4d5f73a315c977f7481b6ed220e3a1955e10bb1d1d3faf3abbf7b8ad",
        "dump_step000004_Gamma.rwz":
            "cd2d6c4925f9ea4a1a272aa4eb7af2551d7b363c992ac47662c5b17826339136",
        "dump_step000004_p.rwz":
            "b11a2c74cfc4e9e2b595cbce86f8cc252530647c5cf75b355ca74620f5dc7c2a",
        "dump_step000006_Gamma.rwz":
            "5a5f79fb0624c6c33f951411552d874ddcf0bd0b8f3c8e311e54a68d7115a8bc",
        "dump_step000006_p.rwz":
            "db844a13ed735e3ec31d0f9c0d7ee2a3302f18e5bb2e4164adf2519a77cc5386",
        "ckpt_000004.rck":
            "637fabbbb669d62be4505bbbc0d3b6810df3208e04e53c65b48a541c3c4ce633",
        "ckpt_000006.rck":
            "6c10f9990deed3562f8ee214754cf314190449b88580a04cb142169c061fb4a5",
    },
}


class TestAllFeaturesDigests:
    """A run that turns on every per-step feature -- sanitizer, trace,
    flight recording, progress, erosion, diagnostics, dumps and rotated
    checkpoints -- leaves the bytes it left before the step loop was
    restructured, on either kernel path."""

    @pytest.mark.parametrize("ranks, backend", [(1, "sim"), (2, "procs")])
    def test_every_feature_every_artifact(self, ranks, backend, tmp_path,
                                          resource_ledger, kernel_path):
        digests = _all_features_digests(ranks, backend, tmp_path)
        assert digests == ALL_FEATURES_DIGESTS[(ranks, backend)]

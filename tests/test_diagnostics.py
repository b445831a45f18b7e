"""Tests for flow diagnostics (repro.sim.diagnostics)."""

import numpy as np
import pytest

from repro.cluster.mpi_sim import SimWorld
from repro.physics.eos import LIQUID, VAPOR
from repro.sim.diagnostics import (
    Diagnostics,
    kinetic_energy,
    max_pressure,
    pressure_field,
    rank_diagnostics,
    reduce_diagnostics,
    vapor_fraction_field,
    vapor_volume,
    wall_max_pressure,
)

from repro.physics.eos import pressure
from repro.physics.state import ENERGY, GAMMA, PI, RHO, RHOU, RHOV, RHOW

from .conftest import bytes_equal, make_smooth_aos, make_uniform_aos


class TestPressure:
    def test_uniform(self):
        f = make_uniform_aos((4, 4, 4), p=77.0).astype(np.float32)
        np.testing.assert_allclose(pressure_field(f), 77.0, rtol=1e-4)
        assert max_pressure(f) == pytest.approx(77.0, rel=1e-4)

    def test_hotspot(self):
        f = make_uniform_aos((8, 8, 8), p=100.0)
        hot = make_uniform_aos((1, 1, 1), p=500.0)
        f[3, 4, 5] = hot[0, 0, 0]
        assert max_pressure(f) == pytest.approx(500.0, rel=1e-6)

    def test_wall_layer_only(self):
        f = make_uniform_aos((8, 8, 8), p=100.0)
        hot = make_uniform_aos((1, 1, 1), p=500.0)
        f[4, 4, 4] = hot[0, 0, 0]  # interior hotspot
        assert wall_max_pressure(f, axis=0, side=-1) == pytest.approx(
            100.0, rel=1e-6
        )
        f[0, 2, 2] = hot[0, 0, 0]  # wall hotspot
        assert wall_max_pressure(f, axis=0, side=-1) == pytest.approx(
            500.0, rel=1e-6
        )

    def test_wall_high_side(self):
        f = make_uniform_aos((8, 8, 8), p=100.0)
        hot = make_uniform_aos((1, 1, 1), p=321.0)
        f[-1, 1, 1] = hot[0, 0, 0]
        assert wall_max_pressure(f, axis=0, side=1) == pytest.approx(
            321.0, rel=1e-6
        )


class TestKineticEnergy:
    def test_at_rest(self):
        f = make_uniform_aos((4, 4, 4))
        assert kinetic_energy(f, h=0.1) == 0.0

    def test_uniform_motion(self):
        f = make_uniform_aos((4, 4, 4), rho=1000.0, u=(0.0, 0.0, 2.0))
        # KE = 0.5 * rho * u^2 * V = 0.5 * 1000 * 4 * (64 * h^3)
        expected = 0.5 * 1000.0 * 4.0 * 64 * 0.1**3
        assert kinetic_energy(f, h=0.1) == pytest.approx(expected, rel=1e-6)


class TestVaporFraction:
    def test_pure_phases(self):
        f = make_uniform_aos((2, 2, 2), material=LIQUID)
        np.testing.assert_allclose(vapor_fraction_field(f), 0.0, atol=1e-6)
        f = make_uniform_aos((2, 2, 2), rho=1.0, p=0.02, material=VAPOR)
        np.testing.assert_allclose(vapor_fraction_field(f), 1.0, rtol=1e-6)

    def test_volume(self):
        f = make_uniform_aos((4, 4, 4), rho=1.0, p=0.02, material=VAPOR)
        assert vapor_volume(f, h=0.5) == pytest.approx(64 * 0.125, rel=1e-6)

    def test_equivalent_radius(self):
        d = Diagnostics(
            max_pressure=0, wall_max_pressure=0, kinetic_energy=0,
            vapor_volume=4.0 / 3.0 * np.pi * 8.0,
        )
        assert d.equivalent_radius == pytest.approx(2.0)


class TestReduction:
    def test_reduce_across_ranks(self):
        world = SimWorld(3)

        def main(comm):
            f = make_uniform_aos((4, 4, 4), p=100.0 + comm.rank * 10).astype(
                np.float32
            )
            wall = (0, -1) if comm.rank == 0 else None
            local = rank_diagnostics(f, h=0.1, wall=wall)
            return reduce_diagnostics(comm, local)

        out = world.run(main)
        for d in out:
            assert d.max_pressure == pytest.approx(120.0, rel=1e-4)
            assert d.wall_max_pressure == pytest.approx(100.0, rel=1e-4)
            assert d.kinetic_energy == 0.0
            assert d.vapor_volume == pytest.approx(0.0, abs=1e-4)


class TestColumnConversionBitIdentity:
    """``pressure_field`` / ``kinetic_energy`` convert the columns they read,
    not the field; the results are the whole-field expression's bytes."""

    @staticmethod
    def fields(rng):
        aos = make_smooth_aos((12, 10, 8), rng, dtype=np.float32)
        return {"contiguous": aos, "wall layer": aos[:, -1:], "strided": aos[::2, 1:, ::3]}

    def test_pressure_field(self, rng):
        for name, field in self.fields(rng).items():
            f = field.astype(np.float64)
            expected = pressure(
                f[..., RHO], f[..., RHOU], f[..., RHOV], f[..., RHOW],
                f[..., ENERGY], f[..., GAMMA], f[..., PI],
            )
            assert bytes_equal(pressure_field(field), expected), name

    def test_kinetic_energy(self, rng):
        for name, field in self.fields(rng).items():
            f = field.astype(np.float64)
            ke = 0.5 * (
                f[..., RHOU] ** 2 + f[..., RHOV] ** 2 + f[..., RHOW] ** 2
            ) / f[..., RHO]
            assert kinetic_energy(field, 0.25) == float(ke.sum() * 0.25**3), name

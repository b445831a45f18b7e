"""Tests for the RHS assembly (repro.physics.equations)."""

import numpy as np
import pytest

from repro.physics.equations import compute_rhs
from repro.physics.eos import LIQUID, conserved_to_primitive
from repro.physics.state import (
    ENERGY,
    GAMMA,
    NQ,
    PI,
    RHO,
    RHOU,
    RHOV,
    RHOW,
    aos_to_soa,
)

from .conftest import make_interface_aos, make_smooth_aos, make_uniform_aos


def soa(aos):
    return aos_to_soa(aos, dtype=np.float64)


class TestUniform:
    def test_zero_rhs(self):
        pad = make_uniform_aos((18, 18, 18), u=(1.0, -2.0, 3.0))
        rhs = compute_rhs(soa(pad), h=0.01)
        assert np.abs(rhs).max() == 0.0

    def test_fused_zero_rhs(self):
        pad = make_uniform_aos((14, 14, 14), u=(1.0, -2.0, 3.0))
        rhs = compute_rhs(soa(pad), h=0.01, fused=True)
        np.testing.assert_allclose(rhs, 0.0, atol=1e-8)


class TestInterfacePreservation:
    """The Johnsen-Ham criterion: a material interface advected at
    uniform velocity and pressure must keep p and u exactly uniform."""

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_pressure_velocity_invariant(self, axis):
        pad = make_interface_aos((16, 16, 16), axis=axis, u_n=25.0, p0=80.0)
        h = 0.02
        rhs = compute_rhs(soa(pad), h)
        U = soa(pad)[:, 3:-3, 3:-3, 3:-3] + 1e-5 * rhs
        W = conserved_to_primitive(U)
        np.testing.assert_allclose(W[ENERGY], 80.0, rtol=1e-7)
        vel = W[RHOU + (2 - axis)]
        np.testing.assert_allclose(vel, 25.0, rtol=1e-7)

    def test_gamma_pi_transported(self):
        """The interface itself must move: Gamma's RHS is nonzero there."""
        pad = make_interface_aos((16, 16, 16), axis=2, u_n=25.0)
        rhs = compute_rhs(soa(pad), 0.02)
        assert np.abs(rhs[GAMMA]).max() > 0


class TestDirectionalSymmetry:
    def test_axis_permutation_consistency(self, rng):
        """Transposing the field transposes the RHS accordingly."""
        pad = make_smooth_aos((14, 14, 14), rng)
        U = soa(pad)
        rhs = compute_rhs(U, 0.05)
        # Swap z and x axes: velocity components w and u swap as well.
        Ut = np.swapaxes(U, 1, 3).copy()
        Ut[[RHOU, RHOW]] = Ut[[RHOW, RHOU]]
        rhs_t = compute_rhs(Ut, 0.05)
        expect = np.swapaxes(rhs, 1, 3).copy()
        expect[[RHOU, RHOW]] = expect[[RHOW, RHOU]]
        np.testing.assert_allclose(rhs_t, expect, rtol=1e-10, atol=1e-8)


class TestInput:
    def test_wrong_leading_axis(self):
        with pytest.raises(ValueError):
            compute_rhs(np.zeros((NQ + 1, 10, 10, 10)), 0.1)


class TestConservation:
    def test_interior_conservation_telescopes(self, rng):
        """With periodic wrap padding, the flux divergence telescopes: the
        volume integral of the conserved-quantity RHS vanishes."""
        n = 12
        core = make_smooth_aos((n, n, n), rng)
        # periodic pad by wrapping
        pad = np.empty((n + 6, n + 6, n + 6, NQ))
        idx = (np.arange(-3, n + 3)) % n
        pad[...] = core[np.ix_(idx, idx, idx)]
        rhs = compute_rhs(soa(pad), h=1.0 / n)
        for q in (RHO, RHOU, RHOV, RHOW, ENERGY):
            total = rhs[q].sum()
            scale = np.abs(rhs[q]).sum() + 1e-30
            assert abs(total) / scale < 1e-10, f"quantity {q} not conservative"

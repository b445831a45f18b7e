"""Tests for the classical bubble-collapse baselines (repro.physics.rayleigh)."""

import numpy as np
import pytest

from repro.physics.rayleigh import (
    Gilmore,
    KellerMiksis,
    RayleighPlesset,
    rayleigh_collapse_time,
)


class TestRayleighTime:
    def test_formula(self):
        t = rayleigh_collapse_time(R0=1e-3, rho_liquid=1000.0, dp=1e5)
        assert t == pytest.approx(0.914681 * 1e-3 * np.sqrt(1000.0 / 1e5))

    def test_scaling_with_radius(self):
        t1 = rayleigh_collapse_time(1.0, 1000.0, 1e5)
        t2 = rayleigh_collapse_time(2.0, 1000.0, 1e5)
        assert t2 == pytest.approx(2.0 * t1)

    def test_scaling_with_pressure(self):
        t1 = rayleigh_collapse_time(1.0, 1000.0, 1e5)
        t2 = rayleigh_collapse_time(1.0, 1000.0, 4e5)
        assert t2 == pytest.approx(t1 / 2.0)

    def test_invalid_dp(self):
        with pytest.raises(ValueError):
            rayleigh_collapse_time(1.0, 1000.0, 0.0)


class TestRayleighPlesset:
    def test_empty_cavity_matches_rayleigh(self):
        """RP with no gas content collapses at the analytic Rayleigh time."""
        R0, rho, p_inf = 1e-3, 1000.0, 1e5
        model = RayleighPlesset(R0=R0, p_inf=p_inf, rho=rho, pg0=0.0)
        t_exact = rayleigh_collapse_time(R0, rho, p_inf)
        traj = model.integrate(t_end=2 * t_exact, r_floor_frac=1e-3)
        assert traj.collapse_time is not None
        assert traj.collapse_time == pytest.approx(t_exact, rel=0.02)

    def test_radius_monotone_until_collapse(self):
        model = RayleighPlesset(R0=1e-3, p_inf=1e5, rho=1000.0, pg0=0.0)
        traj = model.integrate(t_end=1.0)
        assert (np.diff(traj.R) <= 1e-12).all()

    def test_gas_content_arrests_collapse(self):
        """A gas-filled bubble rebounds instead of collapsing to the floor."""
        model = RayleighPlesset(
            R0=1e-3, p_inf=1e5, rho=1000.0, pg0=1e3, kappa=1.4
        )
        t_r = rayleigh_collapse_time(1e-3, 1000.0, 1e5)
        traj = model.integrate(t_end=4 * t_r, r_floor_frac=1e-4)
        assert traj.min_radius is not None
        assert traj.min_radius > 1e-4 * 1e-3  # never hit the floor

    def test_equilibrium_is_stationary(self):
        """pg0 == p_inf with no surface tension: R stays at R0."""
        model = RayleighPlesset(R0=1e-3, p_inf=1e5, rho=1000.0, pg0=1e5,
                                kappa=1.0)
        traj = model.integrate(t_end=1e-4)
        np.testing.assert_allclose(traj.R, 1e-3, rtol=1e-6)

    def test_radius_at_interpolation(self):
        model = RayleighPlesset(R0=1e-3, p_inf=1e5, rho=1000.0, pg0=0.0)
        traj = model.integrate(t_end=1e-4)
        assert traj.radius_at(0.0) == pytest.approx(1e-3)


class TestKellerMiksis:
    def test_reduces_to_rp_for_large_c(self):
        """As c -> inf the Keller-Miksis collapse time approaches RP."""
        kwargs = dict(R0=1e-3, p_inf=1e5, rho=1000.0, pg0=0.0)
        rp = RayleighPlesset(**kwargs).integrate(t_end=1e-3)
        km = KellerMiksis(**kwargs, c=1e9).integrate(t_end=1e-3)
        assert km.collapse_time == pytest.approx(rp.collapse_time, rel=1e-3)

    def test_compressibility_is_a_small_correction(self):
        kwargs = dict(R0=1e-3, p_inf=1e5, rho=1000.0, pg0=0.0)
        rp = RayleighPlesset(**kwargs).integrate(t_end=1e-3)
        km = KellerMiksis(**kwargs, c=1500.0).integrate(t_end=1e-3)
        assert km.collapse_time == pytest.approx(rp.collapse_time, rel=0.05)


class TestGilmore:
    def test_empty_cavity_collapse_time_near_rayleigh(self):
        R0, rho, p_inf = 1e-3, 1000.0, 1e5
        model = Gilmore(R0=R0, p_inf=p_inf, rho0=rho, pg0=0.0)
        t_exact = rayleigh_collapse_time(R0, rho, p_inf)
        traj = model.integrate(t_end=3 * t_exact)
        assert traj.collapse_time is not None
        # Compressibility slows the final stage slightly.
        assert traj.collapse_time == pytest.approx(t_exact, rel=0.1)

    def test_wall_speed_stays_subsonic_longer_than_rp(self):
        """Gilmore's wall Mach number saturates; RP diverges faster."""
        kwargs = dict(R0=1e-3, p_inf=1e5, pg0=0.0)
        rp = RayleighPlesset(rho=1000.0, **kwargs).integrate(
            t_end=1e-3, r_floor_frac=5e-3
        )
        gl = Gilmore(rho0=1000.0, **kwargs).integrate(
            t_end=1e-3, r_floor_frac=5e-3
        )
        assert abs(gl.Rdot[-1]) <= abs(rp.Rdot[-1]) * 1.05


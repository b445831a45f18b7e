"""Classical single-bubble collapse models (validation baselines).

The paper (Section 2) traces cavitation modeling back to Lord Rayleigh's
empty-cavity collapse, Gilmore's compressible extension and Hickling &
Plesset's collapse/rebound studies.  These models are the *baselines* the
3D two-phase solver is validated against in the integration tests:

* :func:`rayleigh_collapse_time` -- the analytic collapse time of an empty
  cavity, ``t_c = 0.91468 * R0 * sqrt(rho_L / dp)``;
* :class:`RayleighPlesset` -- incompressible bubble dynamics with a
  polytropic gas content;
* :class:`KellerMiksis` -- first-order compressible correction;
* :class:`Gilmore` -- compressible model built on the Tait liquid EOS.

All integrators use ``scipy.integrate.solve_ivp`` with stiff-safe settings
and report trajectories ``(t, R, Rdot)`` plus detected collapse events.
SciPy is imported where an integration starts, not with the module: the
study and validation code that needs only the analytic collapse time
does not load an ODE stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Rayleigh's constant: t_c = K * R0 * sqrt(rho / dp) for an empty cavity.
RAYLEIGH_CONSTANT = 0.914681
# K = sqrt(3/2) * Beta(5/6, 1/2) / ... numerically 0.914681...


def rayleigh_collapse_time(R0: float, rho_liquid: float, dp: float) -> float:
    """Analytic collapse time of an empty spherical cavity.

    Parameters
    ----------
    R0:
        Initial bubble radius.
    rho_liquid:
        Liquid density.
    dp:
        Driving pressure difference ``p_inf - p_bubble`` (must be > 0).

    Returns the collapse time as a python float.
    """
    if dp <= 0:
        raise ValueError("driving pressure difference must be positive")
    return RAYLEIGH_CONSTANT * R0 * np.sqrt(rho_liquid / dp)


@dataclass
class BubbleTrajectory:
    """Result of a bubble-dynamics integration."""

    t: np.ndarray
    R: np.ndarray
    Rdot: np.ndarray
    collapse_time: float | None = None  #: time of first radius minimum
    min_radius: float | None = None

    def radius_at(self, t: float) -> float:
        """Linear interpolation of the radius trajectory."""
        return float(np.interp(t, self.t, self.R))


@dataclass
class RayleighPlesset:
    """Incompressible Rayleigh--Plesset dynamics with polytropic gas.

    ``R * Rdd + 1.5 * Rd^2 = (p_B(R) - p_inf) / rho`` with
    ``p_B = pg0 * (R0/R)^(3*kappa)``.  Surface tension and viscosity are
    negligible on cavitation-collapse time scales (paper Section 3) but can
    be enabled for completeness.
    """

    R0: float
    p_inf: float
    rho: float
    pg0: float = 0.0  #: initial gas pressure inside the bubble
    kappa: float = 1.4  #: polytropic exponent of the bubble content
    sigma: float = 0.0  #: surface tension coefficient
    mu: float = 0.0  #: liquid dynamic viscosity

    def bubble_pressure(self, R, Rdot=0.0):
        """Pressure exerted by the bubble content at radius ``R``."""
        p = self.pg0 * (self.R0 / np.asarray(R)) ** (3.0 * self.kappa)
        if self.sigma:
            p = p - 2.0 * self.sigma / R
        if self.mu:
            p = p - 4.0 * self.mu * Rdot / R
        return p

    def _rhs(self, t, y):
        R, Rd = y
        pB = self.bubble_pressure(R, Rd)
        Rdd = ((pB - self.p_inf) / self.rho - 1.5 * Rd * Rd) / R
        return (Rd, Rdd)

    def integrate(
        self, t_end: float, rtol: float = 1e-9, atol: float = 1e-12,
        max_step: float | None = None, r_floor_frac: float = 1e-3,
    ) -> BubbleTrajectory:
        """Integrate to ``t_end`` (or until the radius hits the floor).

        ``r_floor_frac * R0`` terminates the integration: for an empty
        cavity the Rayleigh-Plesset singularity is reached in finite time
        and the solver would otherwise stall.
        """
        from scipy.integrate import solve_ivp

        floor = r_floor_frac * self.R0

        def hit_floor(t, y):
            return y[0] - floor

        hit_floor.terminal = True
        hit_floor.direction = -1

        sol = solve_ivp(
            self._rhs,
            (0.0, t_end),
            (self.R0, 0.0),
            rtol=rtol,
            atol=atol,
            dense_output=True,
            events=hit_floor,
            max_step=max_step or np.inf,
            method="RK45",
        )
        R = sol.y[0]
        traj = BubbleTrajectory(t=sol.t, R=R, Rdot=sol.y[1])
        if sol.t_events[0].size:
            traj.collapse_time = float(sol.t_events[0][0])
            traj.min_radius = floor
        elif R.size:
            imin = int(np.argmin(R))
            traj.min_radius = float(R[imin])
            if 0 < imin < R.size - 1:
                traj.collapse_time = float(sol.t[imin])
        return traj


@dataclass
class KellerMiksis(RayleighPlesset):
    """Keller--Miksis equation: first-order compressibility correction.

    ``(1 - Rd/c) R Rdd + 1.5 Rd^2 (1 - Rd/(3c))
        = (1 + Rd/c) (pB - p_inf)/rho + R/(rho c) dpB/dt``.
    """

    c: float = 1500.0  #: liquid speed of sound

    def _rhs(self, t, y):
        R, Rd = y
        c, rho = self.c, self.rho
        pB = self.bubble_pressure(R, Rd)
        # dpB/dt for the polytropic content (viscous term omitted in the
        # derivative; it is second order in the correction).
        dpB = -3.0 * self.kappa * self.pg0 * (self.R0 / R) ** (
            3.0 * self.kappa
        ) * Rd / R
        if self.sigma:
            dpB = dpB + 2.0 * self.sigma * Rd / (R * R)
        lhs_coeff = (1.0 - Rd / c) * R
        # Clamp: the model loses validity as Rd -> c; keep the ODE solvable.
        lhs_coeff = max(lhs_coeff, 1e-12 * self.R0)
        rhs = (
            (1.0 + Rd / c) * (pB - self.p_inf) / rho
            + R * dpB / (rho * c)
            - 1.5 * Rd * Rd * (1.0 - Rd / (3.0 * c))
        )
        return (Rd, rhs / lhs_coeff)


@dataclass
class Gilmore:
    """Gilmore's compressible collapse model on a Tait liquid.

    The liquid obeys the Tait EOS ``p = (p0 + B) (rho/rho0)^n - B`` and the
    bubble wall enthalpy / local sound speed follow from it.  This is the
    classical model the paper cites for the late, compressibility-dominated
    collapse stages.
    """

    R0: float
    p_inf: float
    rho0: float
    pg0: float = 0.0
    kappa: float = 1.4
    p0: float = 1.0e5  #: Tait reference pressure
    B: float = 3.049e8  #: Tait stiffness (water: ~3049 bar)
    n: float = 7.15  #: Tait exponent (water)

    def _enthalpy(self, p):
        """Liquid enthalpy difference H(p) - H(p_inf) from the Tait EOS."""
        n, B = self.n, self.B
        pref = self.p0 + B
        c0 = (n / (n - 1.0)) * pref / self.rho0
        return c0 * (
            ((p + B) / pref) ** ((n - 1.0) / n)
            - ((self.p_inf + B) / pref) ** ((n - 1.0) / n)
        )

    def _sound_speed(self, H):
        c_inf2 = (
            self.n
            * (self.p0 + self.B)
            / self.rho0
            * ((self.p_inf + self.B) / (self.p0 + self.B)) ** ((self.n - 1.0) / self.n)
        )
        return np.sqrt(np.maximum(c_inf2 + (self.n - 1.0) * H, 1e-12))

    def bubble_pressure(self, R):
        return self.pg0 * (self.R0 / np.asarray(R)) ** (3.0 * self.kappa)

    def _rhs(self, t, y):
        R, Rd = y
        pB = self.bubble_pressure(R)
        H = self._enthalpy(pB)
        C = float(self._sound_speed(H))
        dpB_dR = -3.0 * self.kappa * pB / R
        # dH/dp = 1/rho(p); rho(p) from Tait.
        rho_p = self.rho0 * ((pB + self.B) / (self.p0 + self.B)) ** (1.0 / self.n)
        dH_dt = dpB_dR * Rd / rho_p
        x = Rd / C
        lhs_coeff = R * (1.0 - x)
        lhs_coeff = max(lhs_coeff, 1e-12 * self.R0)
        rhs = (
            H * (1.0 + x)
            + R * dH_dt / C * (1.0 - x)
            - 1.5 * Rd * Rd * (1.0 - x / 3.0)
        )
        return (Rd, rhs / lhs_coeff)

    def integrate(
        self, t_end: float, rtol: float = 1e-9, atol: float = 1e-12,
        r_floor_frac: float = 1e-3,
    ) -> BubbleTrajectory:
        from scipy.integrate import solve_ivp

        floor = r_floor_frac * self.R0

        def hit_floor(t, y):
            return y[0] - floor

        hit_floor.terminal = True
        hit_floor.direction = -1

        sol = solve_ivp(
            self._rhs,
            (0.0, t_end),
            (self.R0, 0.0),
            rtol=rtol,
            atol=atol,
            events=hit_floor,
            method="RK45",
        )
        traj = BubbleTrajectory(t=sol.t, R=sol.y[0], Rdot=sol.y[1])
        if sol.t_events[0].size:
            traj.collapse_time = float(sol.t_events[0][0])
            traj.min_radius = floor
        elif sol.y[0].size:
            imin = int(np.argmin(sol.y[0]))
            traj.min_radius = float(sol.y[0][imin])
            if 0 < imin < sol.y[0].size - 1:
                traj.collapse_time = float(sol.t[imin])
        return traj

"""Stiffened-gas equation of state and conserved/primitive conversions.

The two-phase model of the paper closes the Euler system with a stiffened
equation of state,

    Gamma * p + Pi = E - rho * |u|^2 / 2,

where ``Gamma = 1/(gamma - 1)`` and ``Pi = gamma * p_c / (gamma - 1)`` are
advected with the flow (paper Eq. 2).  Both pure phases and their numerical
mixtures are described by the pair ``(Gamma, Pi)``; this module provides

* conversions between the material parameters ``(gamma, p_c)`` and the
  advected pair ``(Gamma, Pi)``;
* pressure / total energy / sound-speed evaluation;
* the CONV and BACK stages of the RHS pipeline (conserved -> primitive and
  primitive -> conserved conversions on SoA data).

All functions are NumPy-vectorized and dtype-preserving; kernels call them
on float64 working arrays (mixed-precision scheme of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .state import ENERGY, GAMMA, NQ, PI, RHO, RHOU, RHOV, RHOW

#: Floor applied inside the sound-speed square root to guard against
#: negative arguments produced by round-off near strong rarefactions.
_SOUND_SPEED_FLOOR = 1.0e-12


@dataclass(frozen=True)
class Material:
    """A pure phase described by the stiffened-gas parameters.

    Parameters match the paper's Section 7 setup: ``gamma`` is the specific
    heat ratio and ``pc`` the correction pressure of the phase.
    """

    name: str
    gamma: float
    pc: float
    rho0: float = 1.0  #: reference density used by initial conditions
    p0: float = 1.0  #: reference pressure used by initial conditions

    @property
    def G(self) -> float:
        """Advected EOS coefficient ``Gamma = 1/(gamma - 1)``."""
        return 1.0 / (self.gamma - 1.0)

    @property
    def P(self) -> float:
        """Advected EOS coefficient ``Pi = gamma * pc / (gamma - 1)``."""
        return self.gamma * self.pc / (self.gamma - 1.0)


# Paper Section 7 material properties (pressures in bar, densities in kg/m^3,
# matching the production simulations of cloud cavitation collapse).
VAPOR = Material(name="vapor", gamma=1.4, pc=1.0, rho0=1.0, p0=0.0234)
LIQUID = Material(name="liquid", gamma=6.59, pc=4096.0, rho0=1000.0, p0=100.0)


def G_from_gamma(gamma):
    """``Gamma = 1/(gamma - 1)``; returns an array shaped like ``gamma``."""
    return 1.0 / (np.asarray(gamma) - 1.0)


def P_from_gamma_pc(gamma, pc):
    """``Pi = gamma * pc / (gamma - 1)``.

    Returns an array broadcast over ``gamma`` and ``pc``.
    """
    gamma = np.asarray(gamma)
    return gamma * np.asarray(pc) / (gamma - 1.0)


def gamma_from_G(G):
    """Inverse map ``gamma = 1 + 1/Gamma``; returns an array like ``G``."""
    return 1.0 + 1.0 / np.asarray(G)


def pc_from_G_P(G, P):
    """Inverse map ``p_c = Pi / (Gamma + 1)``.

    From ``Pi = gamma*pc*Gamma`` with ``gamma = (Gamma+1)/Gamma`` it follows
    that ``Pi = (Gamma + 1) * pc``.  Returns an array broadcast over
    ``G`` and ``P``.
    """
    return np.asarray(P) / (np.asarray(G) + 1.0)


def pressure(rho, rhou, rhov, rhow, E, G, P):
    """Pressure from conserved quantities and advected EOS coefficients.

    Inverts the stiffened EOS ``Gamma*p + Pi = E - rho|u|^2/2``.  Returns
    the pointwise pressure broadcast over the inputs, dtype-preserving.
    """
    ke = 0.5 * (rhou * rhou + rhov * rhov + rhow * rhow) / rho
    return (E - ke - P) / G


def total_energy(rho, u, v, w, p, G, P):
    """Total energy per unit volume from primitive quantities.

    Returns ``Gamma*p + Pi + rho|u|^2/2`` broadcast over the inputs,
    dtype-preserving.
    """
    ke = 0.5 * rho * (u * u + v * v + w * w)
    return G * p + P + ke


def sound_speed(rho, p, G, P):
    """Speed of sound of the stiffened gas.

    With ``gamma = (Gamma+1)/Gamma`` and ``gamma*p_c = Pi/Gamma``,

        c^2 = gamma * (p + p_c) / rho = ((Gamma + 1) * p + Pi) / (Gamma * rho).

    Returns ``c`` broadcast over the inputs (square root floored against
    round-off-negative arguments).
    """
    c2 = ((G + 1.0) * p + P) / (G * rho)
    return np.sqrt(np.maximum(c2, _SOUND_SPEED_FLOOR))


def pressure_into(rho, ru, rv, rw, E, G, P, out: np.ndarray,
                  work: np.ndarray,
                  ke: np.ndarray | None = None) -> np.ndarray:
    """:func:`pressure` as ``out=`` passes, bit for bit.

    ``out`` and ``work`` are arrays shaped like the operands and none of
    them; the result is in ``out``.  ``ke``, another such array, keeps the
    kinetic energy term ``0.5 * |rho u|^2 / rho`` on the way.
    """
    k = out if ke is None else ke
    np.multiply(ru, ru, out=k)
    np.multiply(rv, rv, out=work)
    np.add(k, work, out=k)
    np.multiply(rw, rw, out=work)
    np.add(k, work, out=k)
    np.multiply(0.5, k, out=k)
    np.divide(k, rho, out=k)
    np.subtract(E, k, out=out)
    np.subtract(out, P, out=out)
    return np.divide(out, G, out=out)


def total_energy_into(W: np.ndarray, out: np.ndarray,
                      work: np.ndarray) -> np.ndarray:
    """:func:`total_energy` of primitive SoA states ``W`` as ``out=`` passes.

    ``out`` and ``work`` are arrays shaped like one quantity of ``W`` (and
    no part of it); the result, in ``out``, is the value the expression
    form computes, bit for bit.
    """
    u, v, w = W[RHOU], W[RHOV], W[RHOW]
    np.multiply(u, u, out=work)
    np.multiply(v, v, out=out)
    np.add(work, out, out=work)
    np.multiply(w, w, out=out)
    np.add(work, out, out=work)
    np.multiply(0.5, W[RHO], out=out)
    np.multiply(out, work, out=work)
    np.multiply(W[GAMMA], W[ENERGY], out=out)
    np.add(out, W[PI], out=out)
    return np.add(out, work, out=out)


def sound_speed_into(rho, p, G, P, out: np.ndarray,
                     work: np.ndarray) -> np.ndarray:
    """:func:`sound_speed` as ``out=`` passes, bit for bit.

    ``out`` and ``work`` are arrays shaped like the operands and none of
    them, except that ``work`` may be dead storage of any kind; the
    result is in ``out``.
    """
    np.add(G, 1.0, out=out)
    np.multiply(out, p, out=out)
    np.add(out, P, out=out)
    np.multiply(G, rho, out=work)
    np.divide(out, work, out=out)
    np.maximum(out, _SOUND_SPEED_FLOOR, out=out)
    return np.sqrt(out, out=out)


def max_velocity_of_conserved(U: np.ndarray, work: np.ndarray) -> float:
    """:func:`max_characteristic_velocity` of *conserved* SoA data
    ``(NQ, cells)``, the CONV stage included, without a temporary.

    ``U`` is destroyed and ``work`` is two more rows like it,
    ``(2, cells)``.  Every cell's ``|u_i| + c`` is the value
    ``max_characteristic_velocity(conserved_to_primitive(U))`` computes;
    returns their maximum as a python float, NaN if any is NaN.
    """
    rho, ru, rv, rw, E, G, P = U
    t0, t1 = work
    pressure_into(rho, ru, rv, rw, E, G, P, t0, t1)
    # max |u_i|, in ru
    np.divide(1.0, rho, out=t1)
    np.multiply(ru, t1, out=ru)
    np.multiply(rv, t1, out=rv)
    np.multiply(rw, t1, out=rw)
    np.abs(ru, out=ru)
    np.abs(rv, out=rv)
    np.abs(rw, out=rw)
    np.maximum(rv, rw, out=rv)
    np.maximum(ru, rv, out=ru)
    # c in t1; the energy row is dead and serves as its scratch
    sound_speed_into(rho, t0, G, P, t1, E)
    np.add(ru, t1, out=ru)
    return float(ru.max())


def max_characteristic_velocity(W: np.ndarray) -> float:
    """Maximum of ``|u_i| + c`` over an SoA primitive array ``(NQ, ...)``.

    This is the quantity globally reduced by the DT kernel (paper Fig. 1) to
    determine the CFL-limited time step.  Returns a python float.
    """
    rho = W[RHO]
    u = W[RHOU]
    v = W[RHOV]
    w = W[RHOW]
    p = W[ENERGY]
    G = W[GAMMA]
    P = W[PI]
    c = sound_speed(rho, p, G, P)
    speed = np.maximum(np.abs(u), np.maximum(np.abs(v), np.abs(w))) + c
    return float(speed.max())


def _quantity_rows(W: np.ndarray) -> tuple[np.ndarray, ...]:
    """The ``NQ`` quantities of an SoA array as arrays to pass as
    ``out=`` -- 0-d views where ``W`` is a single state ``(NQ,)``."""
    return (W[RHO, ...], W[RHOU, ...], W[RHOV, ...], W[RHOW, ...],
            W[ENERGY, ...], W[GAMMA, ...], W[PI, ...])


def conserved_to_primitive(
    U: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """CONV stage: convert SoA conserved data ``(NQ, ...)`` to primitives.

    Output layout (same shape): ``rho, u, v, w, p, Gamma, Pi``.  The paper
    performs the spatial reconstruction on primitive quantities to avoid
    spurious pressure/velocity oscillations at material interfaces
    (Abgrall & Karni; Johnsen & Colonius).  ``out`` is an optional array
    of the shape and dtype of ``U`` (not ``U`` itself) to write into.

    Issued as ``out=`` passes with rows of the result as scratch, so that
    nothing else is allocated; every value is the one of the expression
    form, ``u_i = (rho u_i) * (1 / rho)`` and :func:`pressure`.
    """
    W = np.empty_like(U) if out is None else out
    _, u, v, w, p, G, P = _quantity_rows(W)
    rho, ru, rv, rw = U[RHO], U[RHOU], U[RHOV], U[RHOW]
    # the Gamma and Pi rows, written last, are scratch until then
    pressure_into(rho, ru, rv, rw, U[ENERGY], U[GAMMA], U[PI], p, G)
    # velocities, with 1 / rho in the Pi row
    np.divide(1.0, rho, out=P)
    np.multiply(ru, P, out=u)
    np.multiply(rv, P, out=v)
    np.multiply(rw, P, out=w)
    W[RHO] = rho
    W[GAMMA] = U[GAMMA]
    W[PI] = U[PI]
    return W


def primitive_to_conserved(W: np.ndarray) -> np.ndarray:
    """BACK stage: convert SoA primitive data ``(NQ, ...)`` to conserved.

    Returns an array of the same shape and dtype as ``W``.
    """
    U = np.empty_like(W)
    rho = W[RHO]
    u, v, w = W[RHOU], W[RHOV], W[RHOW]
    p = W[ENERGY]
    U[RHO] = rho
    U[RHOU] = rho * u
    U[RHOV] = rho * v
    U[RHOW] = rho * w
    U[ENERGY] = total_energy(rho, u, v, w, p, W[GAMMA], W[PI])
    U[GAMMA] = W[GAMMA]
    U[PI] = W[PI]
    return U


def mixture(material_a: Material, material_b: Material, alpha):
    """Volume-fraction mixture of two phases in ``(Gamma, Pi)`` space.

    ``alpha`` is the volume fraction of ``material_a``.  ``Gamma`` and ``Pi``
    mix linearly (which is exactly why they are the advected quantities:
    linear mixing keeps interface capturing free of pressure oscillations).
    Returns ``(G, P)`` arrays broadcast against ``alpha``.
    """
    alpha = np.asarray(alpha)
    G = alpha * material_a.G + (1.0 - alpha) * material_b.G
    P = alpha * material_a.P + (1.0 - alpha) * material_b.P
    return G, P

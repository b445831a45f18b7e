"""HLLE approximate Riemann solver for the two-phase Euler system.

The RHS kernel evaluates numerical fluxes at cell faces with the HLLE
(Harten, Lax, van Leer, Einfeldt) scheme (paper Section 3).  The advected
EOS quantities ``Gamma`` and ``Pi`` obey ``phi_t + u . grad(phi) = 0``; we
discretize them in the quasi-conservative form of Johnsen & Colonius,

    phi_t + div(phi * u) - phi * div(u) = 0,

where ``div(phi * u)`` is computed with the same HLLE formula as the
conserved fluxes and ``div(u)`` from the HLLE-consistent interface velocity
``u*`` (the HLL flux of the constant function 1 with flux ``u``).  This
keeps pressure and velocity exactly uniform across material interfaces --
the defining correctness property of the scheme, asserted by the tests.

All functions operate on face-collocated SoA arrays along arbitrary
trailing shapes; the direction is encoded by which momentum component is
"normal".
"""

from __future__ import annotations

import math

import numpy as np

from .eos import sound_speed, sound_speed_into, total_energy, total_energy_into
from .state import (
    COMPUTE_DTYPE,
    ENERGY,
    GAMMA,
    NQ,
    PI,
    RHO,
    RHOU,
    RHOV,
    RHOW,
)


def einfeldt_wave_speeds(rho_l, un_l, p_l, G_l, P_l, rho_r, un_r, p_r, G_r, P_r,
                         out=None):
    """Lower/upper wave-speed estimates ``(s_l, s_r)``.

    Simple Davis/Einfeldt-type bounds: the minimum (maximum) of the left
    and right acoustic speeds, clipped so that ``s_l <= 0 <= s_r`` never
    has to be special-cased by callers (HLLE reduces to the upwind flux
    automatically when the interface is supersonic).  Returns the pair
    ``(s_l, s_r)`` of arrays broadcast over the face states.

    ``out`` is an optional tuple of four arrays shaped like the face
    states: the speeds are then its first two, the other two are scratch,
    nothing is allocated, and every value is the one the expression form
    gives.
    """
    if out is None:
        c_l = sound_speed(rho_l, p_l, G_l, P_l)
        c_r = sound_speed(rho_r, p_r, G_r, P_r)
        s_l = np.minimum(un_l - c_l, un_r - c_r)
        s_r = np.maximum(un_l + c_l, un_r + c_r)
        return s_l, s_r
    s_l, s_r, c_l, c_r = out
    sound_speed_into(rho_l, p_l, G_l, P_l, c_l, s_l)
    sound_speed_into(rho_r, p_r, G_r, P_r, c_r, s_l)
    np.subtract(un_l, c_l, out=s_l)
    np.subtract(un_r, c_r, out=s_r)
    np.minimum(s_l, s_r, out=s_l)
    np.add(un_l, c_l, out=c_l)
    np.add(un_r, c_r, out=c_r)
    np.maximum(c_l, c_r, out=s_r)
    return s_l, s_r


class HlleWorkspace:
    """Outputs and scratch of :func:`hlle_flux` for one face-batch shape.

    ``shape`` is the shape of the face states, ``(NQ, ...)``.  The
    workspace holds ``flux`` (that shape), ``ustar`` and
    :attr:`TEMPORARIES` scratch arrays (one quantity of it each) and the
    mask of degenerate faces, so a caller that keeps it across calls --
    the sweeps keep one per tile shape -- evaluates fluxes without
    allocating; the arrays :func:`hlle_flux` returns are then valid until
    its next call with this workspace.

    ``buffer`` is an optional flat array of at least :meth:`elements`
    entries of ``dtype`` to carve everything from (the sweeps hold one per
    thread, sized for their full tile); by default the workspace allocates
    its own.
    """

    #: Face-shaped scratch arrays besides ``flux`` and ``ustar``: the two
    #: clipped wave speeds, their product and guarded span, two combine
    #: scratches, ``F`` and ``U`` of both sides, and one more per side
    #: that holds ``rho * u_n`` and later the total energy.
    TEMPORARIES = 12

    def __init__(self, shape: tuple[int, ...], dtype=COMPUTE_DTYPE,
                 buffer: np.ndarray | None = None):
        self.shape = tuple(shape)
        self.dtype = np.dtype(dtype)
        needed = self.elements(self.shape, self.dtype)
        if buffer is None:
            buffer = np.empty(needed, dtype=self.dtype)
        elif buffer.dtype != self.dtype or buffer.size < needed:
            raise ValueError(
                f"buffer must hold {needed} {self.dtype} entries, got "
                f"{buffer.size} of {buffer.dtype}"
            )
        nq, faces = self.shape[0], self.shape[1:]
        n = math.prod(faces)
        self.flux = buffer[:nq * n].reshape(self.shape)
        #: ``flux[q]`` as an array also where the faces are 0-d.
        self.flux_rows = tuple(self.flux[q, ...] for q in range(nq))
        rows = tuple(
            buffer[k * n:(k + 1) * n].reshape(faces)
            for k in range(nq, nq + 1 + self.TEMPORARIES)
        )
        self.ustar = rows[0]
        self.temporaries = rows[1:]
        #: Faces without a positive wave-speed span (identically zero or
        #: NaN states): boolean, carved from the tail of the buffer.
        tail = buffer[(nq + 1 + self.TEMPORARIES) * n:needed]
        self.degenerate = tail.view(np.bool_)[:n].reshape(faces)

    @staticmethod
    def elements(shape: tuple[int, ...], dtype=COMPUTE_DTYPE) -> int:
        """Entries of ``dtype`` a workspace for face states of ``shape``
        needs."""
        n = math.prod(shape[1:])
        return ((shape[0] + 1 + HlleWorkspace.TEMPORARIES) * n
                + -(-n // np.dtype(dtype).itemsize))


def _hlle_combine(ws, masked, F_l, F_r, dU, out):
    """The HLLE flux formula with supersonic upwinding built in.

    ``ws`` holds the clipped wave speeds, their product and the guarded
    span (see :func:`hlle_flux`); ``dU`` is ``U_r - U_l`` and is
    overwritten; ``out`` receives the combined flux.  The evaluation
    order matches the expression form bit for bit: where every face has a
    positive span (``masked`` false) the quotient *is* the result and
    goes straight into ``out``.
    """
    s_l_m, s_r_p, prod, safe, t0, t1 = ws.temporaries[:6]
    np.multiply(s_r_p, F_l, out=t0)
    np.multiply(s_l_m, F_r, out=t1)
    np.subtract(t0, t1, out=t0)
    np.multiply(prod, dU, out=dU)
    np.add(t0, dU, out=t0)
    np.divide(t0, safe, out=out)
    if masked:
        # Central average fallback for the degenerate (zero-span) faces.
        np.add(F_l, F_r, out=t1)
        np.multiply(0.5, t1, out=t1)
        np.copyto(out, t1, where=ws.degenerate)
    return out


def hlle_flux(W_l: np.ndarray, W_r: np.ndarray, normal: int,
              workspace: HlleWorkspace | None = None):
    """HLLE flux of the 7-quantity system at a set of faces.

    Parameters
    ----------
    W_l, W_r:
        Face-collocated primitive SoA states, shape ``(NQ, ...)``, layout
        ``rho, u, v, w, p, Gamma, Pi``.
    normal:
        0, 1 or 2 -- which velocity component is normal to the face
        (x, y, z sweeps of the RHS kernel).
    workspace:
        Optional :class:`HlleWorkspace` kept across calls; one that does
        not match the shape and dtype of ``W_l`` is replaced by a fresh
        one, as is a missing one.

    Returns
    -------
    (flux, ustar):
        ``flux`` has shape ``(NQ, ...)`` and contains the conservative HLLE
        fluxes of mass, momentum and energy plus the *conservative part*
        ``phi*u`` of the Gamma/Pi transport.  ``ustar`` is the
        HLLE-consistent interface velocity used for the non-conservative
        ``-phi * div(u)`` correction.  Both are arrays of the workspace.

    Every value is the one the expression form computes
    (:func:`einfeldt_wave_speeds`, :func:`~repro.physics.eos.total_energy`
    and ``(s_r F_l - s_l F_r + s_l s_r (U_r - U_l)) / (s_r - s_l)`` on the
    clipped speeds), issued as ``out=`` passes.
    """
    ws = workspace
    if ws is None or ws.shape != W_l.shape or ws.dtype != W_l.dtype:
        ws = HlleWorkspace(W_l.shape, W_l.dtype)
    mom_n = RHOU + normal
    rho_l, p_l, G_l, P_l = W_l[RHO], W_l[ENERGY], W_l[GAMMA], W_l[PI]
    rho_r, p_r, G_r, P_r = W_r[RHO], W_r[ENERGY], W_r[GAMMA], W_r[PI]
    un_l = W_l[mom_n]
    un_r = W_r[mom_n]
    s_l_m, s_r_p, prod, safe, t0, t1, F_l, F_r, U_l, U_r, a_l, a_r = (
        ws.temporaries
    )
    flux = ws.flux_rows

    # Einfeldt wave speeds, clipped so that s_l <= 0 <= s_r.
    s_l, s_r = einfeldt_wave_speeds(
        rho_l, un_l, p_l, G_l, P_l, rho_r, un_r, p_r, G_r, P_r,
        out=(s_l_m, s_r_p, F_l, F_r),
    )
    np.minimum(s_l, 0.0, out=s_l_m)
    np.maximum(s_r, 0.0, out=s_r_p)
    np.subtract(s_r_p, s_l_m, out=safe)
    np.multiply(s_l_m, s_r_p, out=prod)
    # A span that is not positive (both speeds zero, or NaN) can only
    # occur for identically zero or NaN states; guard the division there
    # and fall back to the average.  Decided once per call: a batch
    # without such a face skips the fallback in all eight combines.
    np.greater(safe, 0.0, out=ws.degenerate)
    np.logical_not(ws.degenerate, out=ws.degenerate)
    masked = bool(ws.degenerate.any())
    if masked:
        np.copyto(safe, 1.0, where=ws.degenerate)

    # Mass; rho * u_n is shared with the momentum fluxes.
    np.multiply(rho_l, un_l, out=a_l)
    np.multiply(rho_r, un_r, out=a_r)
    np.subtract(rho_r, rho_l, out=U_r)
    _hlle_combine(ws, masked, a_l, a_r, U_r, flux[RHO])

    # Momentum: normal component carries the pressure term.
    for comp in (RHOU, RHOV, RHOW):
        np.multiply(a_l, W_l[comp], out=F_l)
        np.multiply(a_r, W_r[comp], out=F_r)
        if comp == mom_n:
            np.add(F_l, p_l, out=F_l)
            np.add(F_r, p_r, out=F_r)
            np.subtract(a_r, a_l, out=U_r)
        else:
            np.multiply(rho_l, W_l[comp], out=U_l)
            np.multiply(rho_r, W_r[comp], out=U_r)
            np.subtract(U_r, U_l, out=U_r)
        _hlle_combine(ws, masked, F_l, F_r, U_r, flux[comp])

    # Energy.
    E_l = total_energy_into(W_l, a_l, t0)
    E_r = total_energy_into(W_r, a_r, t0)
    np.add(E_l, p_l, out=F_l)
    np.multiply(F_l, un_l, out=F_l)
    np.add(E_r, p_r, out=F_r)
    np.multiply(F_r, un_r, out=F_r)
    np.subtract(E_r, E_l, out=U_r)
    _hlle_combine(ws, masked, F_l, F_r, U_r, flux[ENERGY])

    # Advected quantities: conservative part phi * u.
    np.multiply(G_l, un_l, out=F_l)
    np.multiply(G_r, un_r, out=F_r)
    np.subtract(G_r, G_l, out=U_r)
    _hlle_combine(ws, masked, F_l, F_r, U_r, flux[GAMMA])
    np.multiply(P_l, un_l, out=F_l)
    np.multiply(P_r, un_r, out=F_r)
    np.subtract(P_r, P_l, out=U_r)
    _hlle_combine(ws, masked, F_l, F_r, U_r, flux[PI])

    # Interface velocity: HLL flux of U == 1 with F == u (U_r - U_l == 0).
    U_r.fill(0.0)
    _hlle_combine(ws, masked, un_l, un_r, U_r, ws.ustar)

    return ws.flux, ws.ustar


# Expression-form on purpose: HLLC is the numpy-only contact-resolution
# reference, read against Toro's formulas; HLLE is the production solver.
def hllc_flux(W_l: np.ndarray, W_r: np.ndarray, normal: int,  # lint: disable=CP003
              workspace=None):
    """HLLC flux: HLLE plus a restored contact wave (Toro).

    Same contract as :func:`hlle_flux`: returns ``(flux, ustar)`` with
    ``flux`` of shape ``(NQ, ...)``; ``workspace`` is accepted so that the
    sweeps call either solver alike, and not used -- the expression form
    allocates what it returns.  The contact speed ``s*`` doubles
    as the interface velocity of the quasi-conservative Gamma/Pi
    transport -- HLLC keeps isolated material contacts *exactly*
    stationary, which HLLE smears (the ablation the contact-resolution
    bench quantifies).
    """
    mom_n = RHOU + normal
    rho_l, p_l, G_l, P_l = W_l[RHO], W_l[ENERGY], W_l[GAMMA], W_l[PI]
    rho_r, p_r, G_r, P_r = W_r[RHO], W_r[ENERGY], W_r[GAMMA], W_r[PI]
    un_l = W_l[mom_n]
    un_r = W_r[mom_n]

    s_l, s_r = einfeldt_wave_speeds(
        rho_l, un_l, p_l, G_l, P_l, rho_r, un_r, p_r, G_r, P_r
    )
    # Contact speed (Toro 10.37), guarded against degenerate denominators.
    ml = rho_l * (s_l - un_l)
    mr = rho_r * (s_r - un_r)
    denom = ml - mr
    safe = np.where(np.abs(denom) > 1e-300, denom, 1.0)
    s_star = np.where(
        np.abs(denom) > 1e-300,
        (p_r - p_l + un_l * ml - un_r * mr) / safe,
        0.5 * (un_l + un_r),
    )

    E_l = total_energy(rho_l, W_l[RHOU], W_l[RHOV], W_l[RHOW], p_l, G_l, P_l)
    E_r = total_energy(rho_r, W_r[RHOU], W_r[RHOV], W_r[RHOW], p_r, G_r, P_r)

    def side_flux(W, rho, un, p, E):
        F = np.empty_like(W)
        F[RHO] = rho * un
        for comp in (RHOU, RHOV, RHOW):
            F[comp] = rho * un * W[comp]
        F[mom_n] += p
        F[ENERGY] = (E + p) * un
        F[GAMMA] = W[GAMMA] * un
        F[PI] = W[PI] * un
        return F

    F_l = side_flux(W_l, rho_l, un_l, p_l, E_l)
    F_r = side_flux(W_r, rho_r, un_r, p_r, E_r)

    def star_state(W, rho, un, p, E, s_k):
        """Toro's HLLC star-region conserved state (10.39), with the
        advected Gamma/Pi scaled like density (passive transport)."""
        factor = rho * (s_k - un) / (s_k - s_star)
        U = np.empty_like(W)
        U[RHO] = factor
        for comp in (RHOU, RHOV, RHOW):
            U[comp] = factor * W[comp]
        U[mom_n] = factor * s_star
        U[ENERGY] = factor * (
            E / rho + (s_star - un) * (s_star + p / (rho * (s_k - un)))
        )
        U[GAMMA] = W[GAMMA] * (s_k - un) / (s_k - s_star)
        U[PI] = W[PI] * (s_k - un) / (s_k - s_star)
        return U

    def conserved(W, rho, E):
        U = np.empty_like(W)
        U[RHO] = rho
        for comp in (RHOU, RHOV, RHOW):
            U[comp] = rho * W[comp]
        U[ENERGY] = E
        U[GAMMA] = W[GAMMA]
        U[PI] = W[PI]
        return U

    # Guard the star-state division when s_k ~ s_star (then the star
    # region is empty on that side and the branch is never selected).
    eps = 1e-300
    with np.errstate(divide="ignore", invalid="ignore"):
        U_star_l = star_state(W_l, rho_l, un_l, p_l, E_l,
                              np.where(np.abs(s_l - s_star) > eps, s_l,
                                       s_star - 1.0))
        U_star_r = star_state(W_r, rho_r, un_r, p_r, E_r,
                              np.where(np.abs(s_r - s_star) > eps, s_r,
                                       s_star + 1.0))
    U_l = conserved(W_l, rho_l, E_l)
    U_r = conserved(W_r, rho_r, E_r)

    F_star_l = F_l + s_l * (U_star_l - U_l)
    F_star_r = F_r + s_r * (U_star_r - U_r)

    flux = np.where(
        s_l >= 0.0,
        F_l,
        np.where(
            s_star >= 0.0,
            F_star_l,
            np.where(s_r > 0.0, F_star_r, F_r),
        ),
    )
    # Upwinded interface velocity: the contact speed where subsonic.
    ustar = np.where(
        s_l >= 0.0, un_l, np.where(s_r <= 0.0, un_r, s_star)
    )
    return flux, ustar

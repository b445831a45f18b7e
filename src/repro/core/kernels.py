"""Core-layer compute kernels: RHS, UP and SOS (DT).

These are the paper's performance-critical kernels (Fig. 1):

* **RHS** -- evaluation of the right-hand side of the governing equations
  for every cell average of a block.  Two functionally identical
  implementations are provided: :func:`rhs_kernel` (whole-block
  vectorized) and :func:`rhs_kernel_slices` (the paper's streaming z-sweep
  over 2D slices through ring buffers).  The test suite asserts they agree
  to round-off; benchmarks compare their cost.
* **UP** -- the low-storage TVD Runge-Kutta update (:func:`update_stage`).
  Deliberately trivial arithmetic on large arrays: the paper reports it at
  0.2 FLOP/B and ~2 % of peak, i.e. purely memory-bound.
* **SOS** -- "speed of sound" reduction feeding the DT kernel: the maximum
  characteristic velocity of a block (:func:`sos_kernel`); the cluster
  layer allreduces it.

All kernels take AoS block data (the storage layout) and convert to
double-precision SoA internally (the paper's AoS/SoA conversion and mixed
precision).
"""

from __future__ import annotations

import numpy as np

from ..physics.eos import conserved_to_primitive, max_characteristic_velocity
from ..physics.equations import SweepWorkspace, compute_rhs
from ..physics.riemann import hlle_flux
from ..physics.state import COMPUTE_DTYPE, GAMMA, NQ, PI
from ..physics.weno import Weno5Workspace, weno5
from .block import GHOSTS
from .ringbuffer import RING_DEPTH, SliceRing


def rhs_kernel(pad_aos: np.ndarray, h: float, fused: bool = False,
               order: int = 5, solver: str = "hlle",
               workspace: SweepWorkspace | None = None) -> np.ndarray:
    """Whole-block RHS: pencil-tile directional sweeps over a batch of blocks.

    Parameters
    ----------
    pad_aos:
        Ghost-padded AoS block data, shape ``(n+6, n+6, n+6, NQ)``, or a
        batch of ``B`` blocks ``(B, n+6, n+6, n+6, NQ)``: converted to
        double-precision SoA once and swept as one array, which is what
        lets small blocks share the per-call cost of every pass.  Each
        block of a batch gets the bytes it gets alone.
    h:
        Grid spacing.
    fused:
        Use the re-associated WENO kernel (equal to round-off only).
    workspace:
        Optional :class:`~repro.physics.equations.SweepWorkspace` the
        caller keeps across calls (one per thread); it also holds the
        SoA fields of the batch.

    Returns
    -------
    AoS time derivative of the conserved state, shape ``(n, n, n, NQ)`` or
    ``(B, n, n, n, NQ)``, in compute precision; a fresh array the caller
    owns.
    """
    if pad_aos.ndim not in (4, 5):
        raise ValueError(
            "expected (n+6, n+6, n+6, NQ) or (B, n+6, n+6, n+6, NQ), got "
            f"{pad_aos.shape}"
        )
    batch = pad_aos if pad_aos.ndim == 5 else pad_aos[np.newaxis]
    if workspace is None:
        workspace = SweepWorkspace()
    interior = tuple(m - 2 * GHOSTS for m in batch.shape[1:4])
    Upad = workspace.staging(batch.shape[0], interior, COMPUTE_DTYPE)
    _, rhs_soa = workspace.fields(batch.shape[0], interior, COMPUTE_DTYPE)
    np.copyto(Upad, np.moveaxis(batch, -1, 0))
    compute_rhs(Upad, h, fused=fused, order=order, solver=solver,
                workspace=workspace, out=rhs_soa)
    rhs = np.ascontiguousarray(np.moveaxis(rhs_soa, 0, -1))
    return rhs if pad_aos.ndim == 5 else rhs[0]


def _plane_rhs(
    W2d: np.ndarray, h: float, workspace: Weno5Workspace | None = None
) -> np.ndarray:
    """x- and y-sweep contributions for one padded primitive z-slice.

    ``W2d`` has shape ``(NQ, n+6, n+6)`` (axes: quantity, y, x) and holds
    primitives.  Returns the SoA contribution ``(NQ, n, n)`` of the two
    in-plane directional sweeps (flux divergence subtracted,
    quasi-conservative correction added).  Both sweeps reconstruct into
    the same (optionally caller-held) :class:`Weno5Workspace`.
    """
    g = GHOSTS
    inv_h = 1.0 / h

    # x sweep: interior in y, padded in x; reconstruct along the last axis.
    Wd = W2d[:, g:-g, :]
    face_shape = Wd.shape[:-1] + (Wd.shape[-1] - 5,)
    if workspace is None or workspace.shape != face_shape:
        workspace = Weno5Workspace(face_shape, dtype=Wd.dtype)
    Wm, Wp = weno5(Wd, workspace)
    flux, ustar = hlle_flux(Wm, Wp, normal=0)
    div = np.subtract(flux[..., 1:], flux[..., :-1])
    div *= inv_h
    du = np.subtract(ustar[..., 1:], ustar[..., :-1])
    du *= inv_h
    Wc = Wd[..., g:-g]
    contrib = np.negative(div, out=div)
    contrib[GAMMA] += Wc[GAMMA] * du
    contrib[PI] += Wc[PI] * du
    out = contrib

    # y sweep: interior in x, padded in y; swap axes to sweep contiguously.
    Wd = np.ascontiguousarray(np.swapaxes(W2d[:, :, g:-g], 1, 2))
    Wm, Wp = weno5(Wd, workspace)
    flux, ustar = hlle_flux(Wm, Wp, normal=1)
    div = np.subtract(flux[..., 1:], flux[..., :-1])
    div *= inv_h
    du = np.subtract(ustar[..., 1:], ustar[..., :-1])
    du *= inv_h
    Wc = Wd[..., g:-g]
    contrib = np.negative(div, out=div)
    contrib[GAMMA] += Wc[GAMMA] * du
    contrib[PI] += Wc[PI] * du
    out += np.swapaxes(contrib, 1, 2)
    return out


def rhs_kernel_slices(pad_aos: np.ndarray, h: float) -> np.ndarray:
    """Streaming RHS: the paper's ring-buffer z-sweep (Fig. 2, right).

    Converts one z-slice at a time (CONV), keeps the last ``RING_DEPTH``
    primitive slices in a :class:`SliceRing`, computes z-face fluxes
    incrementally and finishes each output slice as soon as its upper
    face is available.  Numerically identical to :func:`rhs_kernel`:
    returns the AoS time derivative, shape ``(n, n, n, NQ)`` in compute
    precision (dtype ``COMPUTE_DTYPE``).
    """
    m = pad_aos.shape[0]
    n = m - 2 * GHOSTS
    g = GHOSTS
    inv_h = 1.0 / h

    ring = SliceRing((NQ, m, m), depth=RING_DEPTH, dtype=COMPUTE_DTYPE)
    rhs = np.empty((n, n, n, NQ), dtype=COMPUTE_DTYPE)

    # Workspaces held across the sweep: one for the z-face stencils, one
    # shared by the in-plane sweeps of every finalized slice.
    ws_z = Weno5Workspace((NQ, 1, n, n), dtype=COMPUTE_DTYPE, axis=1)
    ws_plane = Weno5Workspace((NQ, n, n + 1), dtype=COMPUTE_DTYPE)

    flux_prev: np.ndarray | None = None
    ustar_prev: np.ndarray | None = None

    for zp in range(m):
        # CONV stage, one slice at a time.
        Uslice = np.ascontiguousarray(
            np.moveaxis(pad_aos[zp], -1, 0), dtype=COMPUTE_DTYPE
        )
        ring.push(conserved_to_primitive(Uslice))

        if zp < RING_DEPTH - 1:
            continue

        # Ring now holds padded z-cells zp-5 .. zp; that is exactly the
        # 6-cell stencil of the z-face between cells zp-3 and zp-2,
        # i.e. global face index f = zp - 5 (0 .. n).
        f = zp - (RING_DEPTH - 1)
        # Stencil axis first: every tap of the z stencil is a whole
        # contiguous plane per quantity.
        sten = np.stack(
            [ring[i][:, g:-g, g:-g] for i in range(RING_DEPTH)], axis=1
        )  # (NQ, 6, n, n)
        Wm, Wp = weno5(sten, ws_z, axis=1)
        flux, ustar = hlle_flux(Wm[:, 0], Wp[:, 0], normal=2)

        if f >= 1:
            # Finalize output slice k = f - 1 (padded index k + GHOSTS;
            # the ring holds slices zp-(RING_DEPTH-1) .. zp, so that
            # center slice sits RING_DEPTH - 1 - GHOSTS slots from the
            # oldest entry).
            k = f - 1
            Wcenter = ring[RING_DEPTH - 1 - GHOSTS]
            contrib = _plane_rhs(Wcenter, h, ws_plane)
            # The outgoing face buffers double as scratch: they are
            # superseded by (flux, ustar) right after this block.
            np.subtract(flux, flux_prev, out=flux_prev)
            flux_prev *= inv_h
            contrib -= flux_prev
            np.subtract(ustar, ustar_prev, out=ustar_prev)
            ustar_prev *= inv_h
            du = ustar_prev
            Wc_int = Wcenter[:, g:-g, g:-g]
            contrib[GAMMA] += Wc_int[GAMMA] * du
            contrib[PI] += Wc_int[PI] * du
            rhs[k] = np.moveaxis(contrib, 0, -1)

        flux_prev, ustar_prev = flux, ustar

    return rhs


def sos_kernel(block_aos: np.ndarray) -> float:
    """SOS kernel: maximum characteristic velocity ``max(|u_i| + c)``.

    Input is un-padded AoS block data ``(n, n, n, NQ)``.  Returns the
    block maximum as a python float; the cluster layer reduces it
    globally and the DT kernel converts it into the CFL-limited step.
    """
    U = np.ascontiguousarray(np.moveaxis(block_aos, -1, 0), dtype=COMPUTE_DTYPE)
    W = conserved_to_primitive(U)
    return max_characteristic_velocity(W)


def dt_from_sos(sos_max: float, h: float, cfl: float) -> float:
    """DT kernel: CFL-limited time step from the global SOS reduction.

    Returns ``cfl * h / sos_max`` as a python float.
    """
    if sos_max <= 0:
        raise ValueError("maximum characteristic velocity must be positive")
    return cfl * h / sos_max


def update_stage(
    u_aos: np.ndarray,
    residual_aos: np.ndarray,
    rhs_aos: np.ndarray,
    a: float,
    b: float,
    dt: float,
    sanitizer=None,
    block: tuple[int, int, int] | None = None,
) -> None:
    """UP kernel: one low-storage Runge-Kutta stage, in place.

    Implements Williamson's 2N-storage update

        S <- a * S + dt * RHS(U)
        U <- U + b * S

    on AoS block data.  ``u_aos`` and ``residual_aos`` are storage
    precision and updated in place; the arithmetic runs in compute
    precision (mixed-precision scheme).

    ``sanitizer`` is an optional
    :class:`repro.analysis.sanitizer.NumericsSanitizer`; when given, the
    post-stage block state is checked for NaN/Inf, negative density /
    Gamma / pressure and the storage-dtype contract (``block`` labels
    the findings with the block index).  ``None`` -- the production
    default -- adds no checking work to this memory-bound kernel.
    """
    res64 = residual_aos.astype(COMPUTE_DTYPE)
    res64 *= a
    res64 += dt * rhs_aos
    u64 = u_aos.astype(COMPUTE_DTYPE)
    u64 += b * res64
    residual_aos[...] = res64
    u_aos[...] = u64
    if sanitizer is not None:
        sanitizer.check_block_write(u_aos, block=block)
        sanitizer.check_state(u_aos, block=block)

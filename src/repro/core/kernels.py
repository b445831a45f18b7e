"""Core-layer compute kernels: RHS, UP and SOS (DT).

These are the paper's performance-critical kernels (Fig. 1):

* **RHS** -- evaluation of the right-hand side of the governing equations
  for every cell average of a block.  Two functionally identical
  implementations are provided: :func:`rhs_kernel` (whole-box
  vectorized) and :func:`rhs_kernel_slices` (the paper's streaming z-sweep
  over 2D slices through ring buffers).  The test suite asserts they agree
  to round-off; benchmarks compare their cost.
* **UP** -- the low-storage TVD Runge-Kutta update (:func:`update_stage`).
  Deliberately trivial arithmetic on large arrays: the paper reports it at
  0.2 FLOP/B and ~2 % of peak, i.e. purely memory-bound.
* **SOS** -- "speed of sound" reduction feeding the DT kernel: the maximum
  characteristic velocity of a block (:func:`sos_kernel`); the cluster
  layer allreduces it.

Next to them, :func:`cell_pressure`: the pressure and kinetic energy of
every cell, the collect of a dump and of a step's diagnostics.

All kernels take AoS block data (the storage layout) and convert to
double precision internally (the paper's AoS/SoA conversion and mixed
precision).  UP and SOS are *streamed*: whatever the size of their
operands, they are walked in cache-sized chunks through one small scratch
(:func:`stream_scratch`) that the caller may hold across calls, as the
node layer does per thread -- then neither allocates an array.

Where :mod:`repro.native` has a compiled library, the production cases of
all four (WENO5 + HLLE on storage pads, contiguous operands) run in it:
one pass over memory each, byte for byte what the NumPy passes here
compute.  Those stay as the fallback, the oracle and the ablations.
"""

from __future__ import annotations

import math

import numpy as np

from .. import native
from ..physics.eos import (
    conserved_to_primitive,
    max_velocity_of_conserved,
    pressure_into,
)
from ..physics.equations import SweepWorkspace, compute_rhs, native_sweeps
from ..physics.riemann import hlle_flux
from ..physics.state import COMPUTE_DTYPE, GAMMA, NQ, PI, STORAGE_DTYPE
from ..physics.weno import Weno5Workspace, weno5
from .block import GHOSTS
from .ringbuffer import RING_DEPTH, SliceRing

_STORAGE = np.dtype(STORAGE_DTYPE)


def plan_table(shape, rows, dtype=STORAGE_DTYPE) -> np.ndarray:
    """The table :func:`gather_conv` or :func:`scatter_aos` executes.

    ``rows`` are ``(at, aos, flip)``: the cell ``at = (z, y, x)`` of an
    SoA field of ``shape`` cells where the AoS view ``aos`` ``(ez, ey, ex,
    NQ)`` of ``dtype`` begins -- any steps along its cell axes (0 from a
    broadcast, negative from a flip), the ``NQ`` values of a cell adjacent
    -- and the momentum row negated on the way in, or -1.  Returns
    ``(len(rows), 9)`` 64-bit integers ``(cell, ez, ey, ex, address, sz,
    sy, sx, flip)``, steps in values; ``ValueError`` for a row that leaves
    the field or is of another layout or dtype -- the library checks
    nothing.  A row holds the address of ``aos``: valid while the caller
    keeps that memory alive; a caller that points a row at other cells
    assigns it the row of a table made for those.
    """
    table = []
    for at, aos, flip in rows:
        if (aos.ndim != 4 or aos.shape[-1] != NQ or aos.dtype != dtype
                or aos.strides[-1] != aos.itemsize or any(
                    a < 0 or a + e > m
                    for a, e, m in zip(at, aos.shape, shape))):
            raise ValueError(
                f"{aos.dtype} cells {aos.shape}, strides {aos.strides}, at "
                f"{tuple(at)} are not (ez, ey, ex, {NQ}) {np.dtype(dtype)} "
                f"cells of adjacent values in a field of {tuple(shape)}")
        table.append(((at[0] * shape[1] + at[1]) * shape[2] + at[2],
                      *aos.shape[:-1], aos.ctypes.data,
                      *[step // aos.itemsize for step in aos.strides[:-1]],
                      flip))
    return np.array(table, dtype=np.int64).reshape(-1, 9)


def _plan_whole(aos: np.ndarray) -> np.ndarray:
    """The plan of one row: every cell of ``aos``, a C-contiguous AoS array
    of the dtype its executor takes (the caller's to check), and the SoA
    field of as many cells, in order."""
    cells = aos.size // NQ
    return np.array([[0, 1, 1, cells, aos.ctypes.data, cells * NQ,
                      cells * NQ, NQ, -1]], dtype=np.int64)


def _check_plan(table: np.ndarray, field: np.ndarray) -> None:
    """``ValueError`` unless ``table`` and the SoA ``field`` can be handed
    to the library by address (row bounds were :func:`plan_table`'s)."""
    if not (native.addressable(table, np.int64) and table.ndim == 2
            and table.shape[1] == 9 and len(field) == NQ
            and native.addressable(field, COMPUTE_DTYPE, writeable=True)):
        raise ValueError(
            f"need a C-contiguous (rows, 9) int64 table and ({NQ}, ...) "
            f"float64 field, got {table.dtype} {table.shape} and "
            f"{field.dtype} {field.shape}")


def gather_conv(lib, table: np.ndarray, W: np.ndarray) -> None:
    """Compiled gather: the storage-precision AoS cells the rows of
    ``table`` name -- a :func:`plan_table` for the cells ``W.shape[-3:]``
    -- into the primitive SoA field ``W`` ``(NQ, ..., mz, my, mx)`` in
    compute precision, each through the staging copy and the CONV stage
    in one pass.  Cells of ``W`` no row names keep what they held."""
    _check_plan(table, W)
    lib.repro_gather_conv(table.ctypes.data, len(table), *W.shape[-2:],
                          W[0].size, W.ctypes.data)


def scatter_aos(lib, R: np.ndarray, table: np.ndarray) -> None:
    """Compiled scatter: the cells of the SoA result ``R`` ``(NQ, ...,
    nz, ny, nx)`` into the compute-precision AoS arrays the rows of
    ``table`` name (a :func:`plan_table` for the cells ``R.shape[-3:]``)."""
    _check_plan(table, R)
    lib.repro_scatter_aos(R.ctypes.data, *R.shape[-2:], R[0].size,
                          table.ctypes.data, len(table))


def _check_out(out: np.ndarray, result: np.ndarray) -> None:
    """``ValueError`` unless the AoS ``result`` reshapes to ``out``: as
    many cells, the quantities last."""
    if out.size != result.size or out.shape[-1] != NQ:
        raise ValueError(
            f"out has shape {out.shape}, the result {result.shape}")


def rhs_kernel(pad_aos: np.ndarray, h: float, fused: bool = False,
               order: int = 5, solver: str = "hlle",
               workspace: SweepWorkspace | None = None,
               out: np.ndarray | None = None) -> np.ndarray:
    """Whole-box RHS: pencil-tile directional sweeps over one padded box.

    Parameters
    ----------
    pad_aos:
        Ghost-padded AoS data of one box, shape ``(nz+6, ny+6, nx+6, NQ)``
        -- a block, or the node layer's box of blocks: converted to
        double-precision SoA once and swept as one array.
    h:
        Grid spacing.
    fused:
        Use the re-associated WENO kernel (equal to round-off only).
    workspace:
        Optional :class:`~repro.physics.equations.SweepWorkspace` the
        caller keeps across calls (one per thread); it also holds the
        SoA fields of the box.
    out:
        Optional destination in compute precision: an array the result
        reshapes to without a copy (the node layer passes the cells of a
        box as they lie in its RHS array, split by block).

    Returns
    -------
    AoS time derivative of the conserved state, shape ``(nz, ny, nx,
    NQ)``, in compute precision: ``out`` if given, else a fresh array the
    caller owns.
    """
    if pad_aos.ndim != 4:
        raise ValueError(
            f"expected (nz+6, ny+6, nx+6, NQ), got {pad_aos.shape}")
    if workspace is None:
        workspace = SweepWorkspace()
    interior = tuple(m - 2 * GHOSTS for m in pad_aos.shape[:-1])
    lib = native_sweeps(order, solver, fused)
    if (lib is not None and native.addressable(pad_aos, _STORAGE)
            and pad_aos.shape[-1] == NQ):
        # Storage pad -> primitive SoA in one pass (the staging copy and
        # the CONV stage: a plan of one row), then the three sweeps: the
        # bytes of the path below, and no tile scratch.
        Wpad, rhs_soa = workspace.fields(interior, COMPUTE_DTYPE)
        gather_conv(lib, _plan_whole(pad_aos), Wpad)
        lib.repro_rhs_sweeps(Wpad.ctypes.data, 1, *interior, 1.0 / h,
                             rhs_soa.ctypes.data)
    else:
        Upad = workspace.staging(interior, COMPUTE_DTYPE)
        _, rhs_soa = workspace.fields(interior, COMPUTE_DTYPE)
        np.copyto(Upad, np.moveaxis(pad_aos, -1, 0))
        compute_rhs(Upad, h, fused=fused, order=order, solver=solver,
                    workspace=workspace, out=rhs_soa)
    rhs_aos = np.moveaxis(rhs_soa, 0, -1)
    if out is None:
        out = np.empty(rhs_aos.shape, dtype=rhs_aos.dtype)
    _check_out(out, rhs_aos)
    if lib is not None and native.addressable(out, COMPUTE_DTYPE,
                                              writeable=True):
        scatter_aos(lib, rhs_soa, _plan_whole(out))
    else:
        np.copyto(out, rhs_aos.reshape(out.shape))
    return out


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


def rhs_kernel_slices(pad_aos: np.ndarray, h: float,
                      out: np.ndarray | None = None) -> np.ndarray:
    """Streaming RHS: the paper's ring-buffer z-sweep (Fig. 2, right).

    Converts one z-slice at a time (CONV), keeps the last ``RING_DEPTH``
    primitive slices in a :class:`SliceRing`, computes z-face fluxes
    incrementally and finishes each output slice as soon as its upper
    face is available.  Numerically identical to :func:`rhs_kernel`:
    returns the AoS time derivative, shape ``(n, n, n, NQ)`` in compute
    precision (dtype ``COMPUTE_DTYPE``): ``out`` if given, else a fresh
    array.
    """
    m = pad_aos.shape[0]
    n = m - 2 * GHOSTS
    g = GHOSTS
    inv_h = 1.0 / h

    ring = SliceRing((NQ, m, m), depth=RING_DEPTH, dtype=COMPUTE_DTYPE)
    rhs = out if out is not None else np.empty((n, n, n, NQ),
                                               dtype=COMPUTE_DTYPE)

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


#: Entries of the scratch UP and SOS stream their operands through
#: (512 KiB).  UP walks its flat operands in chunks of half of it (two
#: float64 buffers, next to 16 bytes of operands per element: 1 MiB a
#: chunk), SOS the cells of its blocks in chunks of a ninth (the seven
#: quantities and two work rows: 7 281 cells, fourteen 8^3 blocks).  A
#: chunk should stay in the L2 through its nine (UP) or thirty (SOS)
#: passes and be long enough to amortize their call cost.  Measured on the
#: build host (Xeon, 2 MiB L2 per core) on the blocks of ladder seed 11,
#: 30 rounds in shuffled order, median time relative to 64 Ki entries --
#: UP of eight 32^3 blocks (4.2 ms) | SOS of the same (3.8 ms) | SOS of
#: sixty-four 8^3 blocks (0.56 ms):
#:   4 Ki 1.72 | 2.74 | 2.42     8 Ki 1.38 | 1.82 | 1.71
#:  16 Ki 1.12 | 1.29 | 1.28    32 Ki 1.04 | 1.04 | 1.11
#:  48 Ki 1.07 | 1.06 | 1.02    64 Ki 1.00 | 1.00 | 1.00
#:  96 Ki 1.12 | 1.02 | 1.00   128 Ki 1.17 | 1.06 | 1.08
#: 256 Ki 1.70 | 1.29 | 1.22     1 Mi 2.39 | 1.66 | 1.20
#: UP of an 8^3 block is one chunk of 3 584 elements from 8 Ki on
#: (0.93-1.00 with no trend).
STREAM_ELEMENTS = 65536


#: Rows of the SOS chunk: the seven quantities and two work rows.
_SOS_ROWS = NQ + 2


def nan_max(a: float, b: float) -> float:
    """The larger of two floats, NaN if either is.

    A NaN replaces any maximum and is replaced by none (python's ``max``
    keeps a NaN only where it comes first).  Returns a python float.
    """
    return b if b > a or b != b else a


def stream_scratch(elements: int = STREAM_ELEMENTS) -> np.ndarray:
    """A scratch for :func:`update_stage` and :func:`sos_kernel` to hold
    across calls.

    Returns a flat compute-precision array of ``elements`` entries (at
    least ``NQ + 2``).
    """
    return np.empty(elements, dtype=COMPUTE_DTYPE)


def _own_scratch(needed: int) -> np.ndarray:
    """The scratch of a call that was given none: no larger than its
    operands need (a fresh 512 KiB is a fresh mapping, which an 8^3 block
    would pay 10 us of its 25 for).  Returns a flat compute-precision
    array."""
    return stream_scratch(max(_SOS_ROWS, min(STREAM_ELEMENTS, needed)))


def sos_kernel(data: np.ndarray, scratch: np.ndarray | None = None) -> float:
    """SOS kernel: maximum characteristic velocity ``max(|u_i| + c)``.

    ``data`` is one array of un-padded AoS block data ``(..., NQ)``: a
    block, or the blocks of a rank.  Its cells are streamed, in order and
    across block boundaries, through one SoA chunk ``(NQ + 2, cells)``
    viewed on ``scratch`` (:func:`stream_scratch`; a fresh one by
    default): several small blocks share a set of passes, a large block
    takes several.  Returns the maximum as a python float -- NaN if any
    cell's velocity is NaN -- which the cluster layer reduces globally and
    the DT kernel converts into the CFL-limited step.

    Contiguous storage-precision data is reduced in one pass by the
    compiled library where there is one (:mod:`repro.native`); the value
    is the same.  Raises ``TypeError`` for anything but an array.
    """
    if not isinstance(data, np.ndarray):
        raise TypeError(
            f"sos_kernel takes one array, got {type(data).__name__}")
    if scratch is not None and scratch.size < _SOS_ROWS:
        raise ValueError(
            f"scratch must hold at least {_SOS_ROWS} entries, got "
            f"{scratch.size}"
        )
    lib = native.lib
    if lib is not None and native.addressable(data, _STORAGE):
        # One pass over the cells, a NaN carried: the value of the chunked
        # passes below.
        return float(lib.repro_max_sos(data.ctypes.data, data.size // NQ))
    cells = data.reshape(-1, NQ)
    if scratch is None:
        scratch = _own_scratch(_SOS_ROWS * len(cells))
    chunk = scratch[:scratch.size - scratch.size % _SOS_ROWS].reshape(
        _SOS_ROWS, -1)
    capacity = chunk.shape[1]
    peak = float("-inf")
    for start in range(0, len(cells), capacity):
        take = min(capacity, len(cells) - start)
        np.copyto(chunk[:NQ, :take], cells[start:start + take].T)
        peak = nan_max(peak, max_velocity_of_conserved(
            chunk[:NQ, :take], chunk[NQ:, :take]))
    return peak


#: Rows of a :func:`cell_pressure` slab: the seven quantities, a work row.
_SLAB_ROWS = NQ + 1


def cell_pressure(field: np.ndarray, kinetic: bool = False):
    """Pressure -- and the kinetic energy density -- of every cell.

    ``field`` is AoS data ``(..., NQ)`` of any dtype and layout.  Returns
    ``(p, ke)``: compute-precision arrays of shape ``field.shape[:-1]``,
    each cell's :func:`repro.physics.eos.pressure` and its kinetic term
    ``0.5 * |rho u|^2 / rho`` of the quantities converted to float64;
    ``ke`` is None unless ``kinetic``.

    C-contiguous storage-precision data is one pass of the compiled
    library where there is one (:mod:`repro.native`); anything else takes
    :func:`_pressure_slabs` -- the same bytes.
    """
    if field.ndim == 0 or field.shape[-1] != NQ:
        raise ValueError(f"expected AoS data (..., {NQ}), got {field.shape}")
    p = np.empty(field.shape[:-1], dtype=COMPUTE_DTYPE)
    ke = np.empty_like(p) if kinetic else None
    lib = native.lib
    if lib is not None and native.addressable(field, _STORAGE):
        lib.repro_cell_pressure(field.ctypes.data, p.size, p.ctypes.data,
                                None if ke is None else ke.ctypes.data)
    else:
        _pressure_slabs(field if field.ndim > 1 else field[np.newaxis], p, ke)
    return p, ke


def _pressure_slabs(field: np.ndarray, p: np.ndarray, ke) -> None:
    """The NumPy form of :func:`cell_pressure`: ``field`` (at least one
    axis before the quantities) into ``p`` and ``ke`` (or None) in slabs of
    whole planes along the first axis, about :data:`STREAM_ELEMENTS`
    entries of scratch -- each slab's quantities converted once, then
    :func:`repro.physics.eos.pressure_into` into its part of the result."""
    shape = field.shape[:-1]
    p, ke = p.reshape(shape), None if ke is None else ke.reshape(shape)
    plane = max(math.prod(shape[1:]), 1)
    rows = max(1, STREAM_ELEMENTS // _SLAB_ROWS // plane)
    scratch = np.empty((_SLAB_ROWS, min(rows, len(field))) + shape[1:],
                       dtype=COMPUTE_DTYPE)
    for start in range(0, len(field), rows):
        slab = slice(start, start + rows)
        taken = len(p[slab])
        scratch[:NQ, :taken] = np.moveaxis(field[slab], -1, 0)
        U = scratch[:, :taken]
        pressure_into(*U[:NQ], p[slab], U[NQ],
                      ke=None if ke is None else ke[slab])


def dt_from_sos(sos_max: float, h: float, cfl: float) -> float:
    """DT kernel: CFL-limited time step from the global SOS reduction.

    Returns ``cfl * h / sos_max`` as a python float.
    """
    if sos_max <= 0:
        raise ValueError("maximum characteristic velocity must be positive")
    return cfl * h / sos_max


def _update_chunk(u, res, rhs, s, t, a, b, dt):
    """One chunk of :func:`update_stage`: ``u`` and ``res`` (storage
    precision) updated in place from ``rhs`` through the compute-precision
    scratch ``s`` and ``t`` of their shape."""
    s[...] = res
    np.multiply(s, a, out=s)
    np.multiply(dt, rhs, out=t)
    np.add(s, t, out=s)
    res[...] = s
    np.multiply(b, s, out=t)
    s[...] = u
    np.add(s, t, out=s)
    u[...] = s


def _check_update_operands(u_aos, residual_aos, rhs_aos) -> None:
    """``ValueError`` naming the operand of :func:`update_stage` whose
    shape is not the state's, whose dtype is not the storage one, or that
    is not C-contiguous."""
    shape = u_aos.shape
    if residual_aos.shape != shape or rhs_aos.shape != shape:
        name, other = (("residual_aos", residual_aos)
                       if residual_aos.shape != shape else
                       ("rhs_aos", rhs_aos))
        raise ValueError(
            f"{name} has shape {other.shape}, the state u_aos {shape}"
        )
    if u_aos.dtype != _STORAGE or residual_aos.dtype != _STORAGE:
        name, other = (("u_aos", u_aos) if u_aos.dtype != _STORAGE else
                       ("residual_aos", residual_aos))
        raise ValueError(f"{name} must be {_STORAGE}, got {other.dtype}")
    for name, operand in (("u_aos", u_aos), ("residual_aos", residual_aos),
                          ("rhs_aos", rhs_aos)):
        if not operand.flags.c_contiguous:
            raise ValueError(
                f"{name} must be C-contiguous, got strides {operand.strides}")


def update_stage(
    u_aos: np.ndarray,
    residual_aos: np.ndarray,
    rhs_aos: np.ndarray,
    a: float,
    b: float,
    dt: float,
    sanitizer=None,
    block: tuple[int, int, int] | None = None,
    scratch: np.ndarray | None = None,
) -> None:
    """UP kernel: one low-storage Runge-Kutta stage, in place.

    Implements Williamson's 2N-storage update

        S <- a * S + dt * RHS(U)
        U <- U + b * S

    on one C-contiguous AoS array per operand, of any shape -- a block, or
    the blocks of a rank.  ``u_aos`` and ``residual_aos`` are storage
    precision and updated in place; ``rhs_aos`` has their shape.  The
    arithmetic runs in compute precision (mixed-precision scheme): the
    operands are walked in flat chunks of half of ``scratch``
    (:func:`stream_scratch`; a fresh one by default), each converted once
    into it, pushed through the two expressions above as same-type passes
    and rounded once into place -- ``U`` from the unrounded ``S`` -- so
    that a block far larger than the cache is updated out of it.  The
    chunking changes no bit of the result, and neither does the compiled
    library (:mod:`repro.native`), which takes a compute-precision RHS in
    one pass where it is there.

    ``sanitizer`` is an optional
    :class:`repro.analysis.sanitizer.NumericsSanitizer`; when given, the
    post-stage block state is checked for NaN/Inf, negative density /
    Gamma / pressure and the storage-dtype contract (``block`` labels
    the findings with the block index).  ``None`` -- the production
    default -- adds no checking work to this memory-bound kernel.

    Raises ``ValueError``, before any write, naming the operand for a
    residual or RHS whose shape is not the state's (an RHS of shape
    ``(NQ,)`` would broadcast into every cell), for a state or residual
    that is not ``STORAGE_DTYPE`` and for an operand that is not
    C-contiguous.
    """
    _check_update_operands(u_aos, residual_aos, rhs_aos)
    if scratch is not None and scratch.size < 2:
        raise ValueError(
            f"scratch must hold at least 2 entries, got {scratch.size}"
        )
    lib = native.lib
    if (lib is not None and native.addressable(rhs_aos, COMPUTE_DTYPE)
            and u_aos.flags.writeable and residual_aos.flags.writeable):
        # One pass, one rounding store each: the bytes of the chunked
        # passes below.
        lib.repro_update_stage(u_aos.ctypes.data, residual_aos.ctypes.data,
                               rhs_aos.ctypes.data, u_aos.size, float(a),
                               float(b), float(dt))
    else:
        if scratch is None:
            scratch = _own_scratch(2 * u_aos.size)
        # A chunk is a run of half the scratch.
        u, res, rhs = u_aos.ravel(), residual_aos.ravel(), rhs_aos.ravel()
        step = scratch.size // 2
        s_all, t_all = scratch, scratch[step:]
        count = len(u)
        if count <= step:
            # One chunk: the operands as they are, no loop.
            _update_chunk(u, res, rhs, s_all[:count], t_all[:count], a, b,
                          dt)
        else:
            for start in range(0, count, step):
                chunk = slice(start, start + step)
                u_c = u[chunk]
                _update_chunk(u_c, res[chunk], rhs[chunk], s_all[:len(u_c)],
                              t_all[:len(u_c)], a, b, dt)
    if sanitizer is not None:
        sanitizer.check_block_write(u_aos, block=block)
        sanitizer.check_state(u_aos, block=block)

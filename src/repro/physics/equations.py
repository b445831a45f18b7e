"""Right-hand-side assembly for the two-phase Euler system.

Combines the stages of the paper's RHS pipeline (Fig. 1, right) on SoA
data:

    CONV -> WENO -> HLLE -> SUM

``compute_rhs`` performs the three directional sweeps over a ghost-padded
primitive field and returns the time derivative of the conserved state.
The core layer wraps this with block storage, AoS/SoA conversion and ring
buffers; this module is pure array mathematics and is what integration and
property tests validate directly.

Each direction is one **pencil-tile sweep** (the paper's data reordering
for directional sweeps, Table 3, over cache-resident slices, Fig. 2): the
primitives are viewed with the sweep axis right after the quantity axis,
``(NQ, cells, rows, width)``, so that every shifted stencil operand is a
long contiguous run, and walked in tiles of whole rows of pencils.  A
tile is copied into a contiguous buffer, reconstructed, passed through
the Riemann solver, differenced and added into the result while it is
still in cache.  The arithmetic per element does not depend on layout or
tiling: results are bit-identical to whole-block expressions.
"""

from __future__ import annotations

import numpy as np

from .eos import conserved_to_primitive
from .riemann import hllc_flux, hlle_flux
from .state import GAMMA, NQ, PI
from .weno import Weno5Workspace, weno3, weno5, weno5_fused

#: Ghost cells required per side by the WENO5 stencil.
STENCIL_WIDTH = 3


#: Available numerical-flux functions keyed by name.
RIEMANN_SOLVERS = {"hlle": hlle_flux, "hllc": hllc_flux}


#: Elements per scratch buffer of a sweep tile.  A tile is copied once and
#: then streamed through some 250 ufunc passes over two dozen buffers of
#: its size, so it should be small enough to stay cache resident and large
#: enough to amortize the per-pass call cost (about 1 us).  Measured on the
#: build host (Xeon, 4 MiB L2 per core), ``compute_rhs`` of one 32^3 block,
#: median ms of 30 interleaved rounds: 8 Ki 84, 16 Ki 81, 32 Ki 63,
#: 40-96 Ki 58-62, 128 Ki 69, 256 Ki 74, untiled 75.  A 16^3 block is
#: fastest as a single tile (39 424 elements: 7.4 ms against 8.8-9.7 ms in
#: two or three); an 8^3 block (6 272) is one tile at any setting.
TILE_ELEMENTS = 65536


class _TileScratch:
    """Every buffer one tile of a directional sweep needs, by tile shape."""

    def __init__(self, shape: tuple[int, int, int, int], dtype):
        nq, ncells, rows, width = shape
        faces = (nq, ncells - 5, rows, width)
        cells = (nq, ncells - 2 * STENCIL_WIDTH, rows, width)
        self.W = np.empty(shape, dtype=dtype)
        self.W_minus = np.empty(faces, dtype=dtype)
        self.W_plus = np.empty(faces, dtype=dtype)
        self.weno = Weno5Workspace(faces, dtype=dtype, axis=1)
        self.div = np.empty(cells, dtype=dtype)
        self.du = np.empty(cells[1:], dtype=dtype)
        # Only the Gamma and Pi rows are ever written: the other rows are
        # the exact zeros ``phi_corr - div`` subtracts from.
        self.phi_corr = np.zeros(cells, dtype=dtype)


class SweepWorkspace:
    """Scratch of the pencil-tile sweeps, held by one thread at a time.

    Buffers are created on first use per tile shape and dtype (a cubic
    block has one full tile shape for all three directions, plus one for
    the remainder tile), so a caller that keeps the workspace across
    calls -- the node layer keeps one per worker thread -- sweeps without
    allocating anything but what the Riemann solver returns.
    """

    def __init__(self):
        self._tiles: dict[tuple, _TileScratch] = {}

    def tile(self, shape: tuple[int, int, int, int], dtype) -> _TileScratch:
        """The scratch buffers of a ``(NQ, cells, rows, width)`` tile."""
        key = (shape, np.dtype(dtype))
        scratch = self._tiles.get(key)
        if scratch is None:
            scratch = self._tiles[key] = _TileScratch(shape, dtype)
        return scratch


def _sweep_first(field: np.ndarray, axis: int) -> np.ndarray:
    """View of a ``(NQ, z, y, x)`` field with the sweep direction at axis 1.

    The z sweep needs no transpose, y swaps whole x rows, x becomes
    ``(NQ, x, z, y)`` -- a gather, done tile by tile.
    """
    if axis == 0:
        return field
    if axis == 1:
        return np.swapaxes(field, 1, 2)
    if axis == 2:
        return np.moveaxis(field, 3, 1)
    raise ValueError(f"axis must be 0, 1 or 2, got {axis}")


def _sweep_tiles(Wpad, axis, h, fused, workspace, order, solver):
    """Pencil-tile sweep of one direction: WENO -> Riemann flux -> difference.

    Walks the sweep-axis-first view of the primitives in tiles of whole
    rows of pencils, small enough that the buffers a tile passes through
    stay cache resident (:data:`TILE_ELEMENTS`), and yields
    ``(j0, j1, div, phi_corr)`` per tile: rows ``j0:j1`` of axis 2 of the
    sweep-axis-first result, ``div`` and ``phi_corr`` as documented in
    :func:`directional_rhs`.  The yielded arrays are workspace buffers,
    valid (and writable) until the next tile is requested.
    """
    if order not in (3, 5):
        raise ValueError(f"unsupported WENO order {order}")
    # Explicit branch (not the RIEMANN_SOLVERS table): dict-of-functions
    # dispatch does not lower to compiled backends (perfcheck CP004).
    if solver == "hlle":
        flux_fn = hlle_flux
    elif solver == "hllc":
        flux_fn = hllc_flux
    else:
        raise ValueError(
            f"unknown Riemann solver {solver!r}; choose from "
            f"{sorted(RIEMANN_SOLVERS)}"
        )
    g = STENCIL_WIDTH
    Wd = _sweep_first(Wpad, axis)[:, :, g:-g, g:-g]
    normal = 2 - axis  # z, y, x sweeps see w, v, u as the normal velocity
    inv_h = 1.0 / h
    nq, ncells, npencil_rows, width = Wd.shape
    rows = min(npencil_rows, max(1, TILE_ELEMENTS // (nq * ncells * width)))
    for j0 in range(0, npencil_rows, rows):
        j1 = min(j0 + rows, npencil_rows)
        t = workspace.tile((nq, ncells, j1 - j0, width), Wd.dtype)
        np.copyto(t.W, Wd[:, :, j0:j1])
        if order == 3:
            W_minus, W_plus = weno3(t.W, axis=1)
        elif fused:
            W_minus, W_plus = weno5_fused(t.W, t.weno, t.W_minus, t.W_plus, 1)
        else:
            W_minus, W_plus = weno5(t.W, t.weno, t.W_minus, t.W_plus, 1)
        flux, ustar = flux_fn(W_minus, W_plus, normal)

        np.subtract(flux[:, 1:], flux[:, :-1], out=t.div)
        np.multiply(t.div, inv_h, out=t.div)
        np.subtract(ustar[1:], ustar[:-1], out=t.du)
        np.multiply(t.du, inv_h, out=t.du)
        np.multiply(t.W[GAMMA, g:-g], t.du, out=t.phi_corr[GAMMA])
        np.multiply(t.W[PI, g:-g], t.du, out=t.phi_corr[PI])
        yield j0, j1, t.div, t.phi_corr


def directional_rhs(
    Wpad: np.ndarray,
    axis: int,
    h: float,
    fused: bool = False,
    workspace: SweepWorkspace | None = None,
    order: int = 5,
    solver: str = "hlle",
):
    """Flux divergence contribution of one directional sweep.

    Parameters
    ----------
    Wpad:
        Primitive SoA field ``(NQ, nz+6, ny+6, nx+6)`` (ghost-padded in all
        directions).
    axis:
        Sweep direction: 0 = z (array axis 1), 1 = y (axis 2), 2 = x
        (axis 3).  The *normal velocity* passed to HLLE is ``w``, ``v``,
        ``u`` respectively.
    h:
        Grid spacing.
    workspace:
        Optional :class:`SweepWorkspace` kept across calls.

    Returns
    -------
    (div, phi_corr):
        ``div`` -- shape ``(NQ, nz, ny, nx)`` flux divergence (to be
        subtracted from the state's time derivative); ``phi_corr`` -- the
        non-conservative correction ``phi * div(u)`` for the ``Gamma`` and
        ``Pi`` rows (zero elsewhere), to be *added*.
    """
    if workspace is None:
        workspace = SweepWorkspace()
    g = STENCIL_WIDTH
    div = np.empty_like(Wpad[:, g:-g, g:-g, g:-g])
    phi_corr = np.empty_like(div)
    div_rows = _sweep_first(div, axis)
    corr_rows = _sweep_first(phi_corr, axis)
    for j0, j1, tile_div, tile_corr in _sweep_tiles(
        Wpad, axis, h, fused, workspace, order, solver
    ):
        div_rows[:, :, j0:j1] = tile_div
        corr_rows[:, :, j0:j1] = tile_corr
    return div, phi_corr


def compute_rhs(
    Upad: np.ndarray,
    h: float,
    fused: bool = False,
    order: int = 5,
    solver: str = "hlle",
    workspace: SweepWorkspace | None = None,
) -> np.ndarray:
    """Full RHS of the semi-discrete system from padded conserved data.

    Parameters
    ----------
    Upad:
        Conserved SoA field ``(NQ, n+6, n+6, n+6)`` (or anisotropic interior
        extents), ghost cells filled by the node/cluster layers.
    h:
        Uniform grid spacing.
    fused:
        Use the re-associated WENO kernel (equal to round-off only).
    order:
        Spatial reconstruction order: 5 (production) or 3 (ablation).
    solver:
        Numerical flux: "hlle" (production) or "hllc" (contact-sharp
        alternative).
    workspace:
        Optional :class:`SweepWorkspace` kept across calls (one per
        thread); by default a fresh one is allocated.

    Returns
    -------
    Time derivative ``dU/dt`` of shape ``(NQ, nz, ny, nx)``.
    """
    if Upad.shape[0] != NQ:
        raise ValueError(f"expected leading axis {NQ}, got {Upad.shape}")
    if workspace is None:
        workspace = SweepWorkspace()
    Wpad = conserved_to_primitive(Upad)  # CONV stage
    g = STENCIL_WIDTH
    rhs = np.empty_like(Wpad[:, g:-g, g:-g, g:-g])
    for axis in range(3):
        rows = _sweep_first(rhs, axis)
        for j0, j1, div, phi_corr in _sweep_tiles(
            Wpad, axis, h, fused, workspace, order, solver
        ):
            # SUM stage: rhs = (corr_z - div_z) + (corr_y - div_y) + ...
            np.subtract(phi_corr, div, out=div)
            if axis == 0:
                rows[:, :, j0:j1] = div
            else:
                rows[:, :, j0:j1] += div
    return rhs

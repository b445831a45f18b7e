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
primitives of a batch of blocks are viewed with the sweep axis right
after the quantity axis, ``(NQ, cells, blocks, rows, width)``, so that
every shifted stencil operand is a long contiguous run, and walked in
tiles shaped by the cache alone: some rows of pencils of one large block,
or all rows of several small blocks.  A tile is copied into a contiguous
buffer, reconstructed, passed through the Riemann solver, differenced and
added into the result while it is still in cache.  The arithmetic per
element does not depend on layout, batch or tiling: results are
bit-identical to whole-block expressions, block by block.
"""

from __future__ import annotations

import math
import mmap

import numpy as np

from .. import native
from .eos import conserved_to_primitive
from .riemann import HlleWorkspace, hllc_flux, hlle_flux
from .state import COMPUTE_DTYPE, GAMMA, NQ, PI
from .weno import Weno5Workspace, weno3, weno5, weno5_fused

#: Ghost cells required per side by the WENO5 stencil.
STENCIL_WIDTH = 3


#: Available numerical-flux functions keyed by name.
RIEMANN_SOLVERS = {"hlle": hlle_flux, "hllc": hllc_flux}


def check_scheme(order: int, solver: str) -> None:
    """Reject a reconstruction order or Riemann solver the sweeps do not
    implement (``ValueError``)."""
    if order not in (3, 5):
        raise ValueError(f"unsupported WENO order {order}; choose 3 or 5")
    if solver not in RIEMANN_SOLVERS:
        raise ValueError(
            f"unknown Riemann solver {solver!r}; choose from "
            f"{sorted(RIEMANN_SOLVERS)}"
        )


#: Elements per scratch buffer of a sweep tile.  A tile is copied once and
#: then streamed through several hundred ufunc passes over a dozen buffers
#: of its size, so it should be small enough to stay cache resident and
#: large enough to amortize the per-pass call cost (about 1 us).  Measured
#: on the build host (Xeon, 4 MiB L2 per core) with WENO chunked as below:
#: ``compute_rhs`` of one 32^3 block, 30 interleaved rounds, median of the
#: per-round time relative to 64 Ki (41-51 ms as the host drifts): 8 Ki
#: 1.35, 16 Ki 1.30, 32 Ki 1.14, 48 Ki 1.01, 64 Ki 1.00, 96 Ki 0.99,
#: 128 Ki 1.04, 256 Ki 1.26, untiled 1.66.  A 16^3 block is one tile of
#: 39 424 elements at any setting in the flat range.
TILE_ELEMENTS = 65536

#: Cells of whole quantities per ``weno5`` call inside a tile.  WENO is
#: independent per quantity and streams nine tables and nine buffers of
#: the chunk's size, so the chunk, not the tile, is what has to fit the
#: L2: all seven quantities of a 32^3 tile are 10 MB of WENO operands, one
#: quantity (8 512 cells) is 1.2 MB.  Same measurement, a 32^3 block at a
#: 64 Ki tile, relative to one quantity a chunk: two 1.01, three 1.03,
#: four 1.04, all seven 1.13; a 16^3 block (5 632 cells a quantity): two
#: 1.00, all seven 1.07; five 8^3 blocks (4 480): no difference from one
#: to seven (0.97-1.00) -- so the constant only has to stay below two
#: 32^3 quantities and above one.
WENO_CHUNK_ELEMENTS = 12288

#: Rows of the state that carry no quasi-conservative correction, and the
#: advected ``Gamma``/``Pi`` rows that do (the trailing two of the layout).
_EULER = slice(0, GAMMA)
_ADVECTED = slice(GAMMA, NQ)

#: A tile of whole blocks fills one part in this many of
#: :data:`TILE_ELEMENTS`: every block of a batch also keeps its pad, its
#: padded primitives and its result resident (0.5 MB a block at 8^3),
#: which one more row of a large block does not.  ``evaluate_rhs`` over 64
#: blocks of 8^3, same measurement, time relative to five blocks a tile:
#: one 1.45, two 1.26, three 1.13, five 1.00, seven 0.96, ten 0.85, twenty
#: 0.83 -- and the ladder's ``halo2_b8`` peak RSS (two rank threads, every
#: block a halo block) against the per-block parent's 186 MB: five 193 MB
#: (+3.8 %), ten 200 MB (+7.7 %, of a 10 % bound).
_BLOCK_TILE_DIVISOR = 2


def _tile_extent(ncells: int, nrows: int, width: int) -> tuple[int, int]:
    """``(blocks, rows)`` one tile of a ``(NQ, ncells, blocks, nrows,
    width)`` sweep holds: as many rows of one block as fit
    :data:`TILE_ELEMENTS`, or, when all do, as many whole blocks as fit
    its share for blocks (at least one)."""
    per_row = NQ * ncells * width
    rows = min(nrows, max(1, TILE_ELEMENTS // per_row))
    if rows < nrows:
        return 1, rows
    per_block = _BLOCK_TILE_DIVISOR * per_row * nrows
    return max(1, TILE_ELEMENTS // per_block), nrows


def _full_tiles(interior):
    """Shape ``(NQ, cells, blocks, rows, width)`` of the full tile of the
    z, y and x sweep over blocks of ``interior`` cells ``(nz, ny, nx)``."""
    nz, ny, nx = interior
    g2 = 2 * STENCIL_WIDTH
    for ncells, nrows, width in ((nz + g2, ny, nx), (ny + g2, nz, nx),
                                 (nx + g2, nz, ny)):
        blocks, rows = _tile_extent(ncells, nrows, width)
        yield NQ, ncells, blocks, rows, width


def blocks_per_tile(interior: tuple[int, int, int]) -> int:
    """Whole blocks of ``interior`` cells ``(nz, ny, nx)`` one tile holds
    in every sweep direction.  Returns a python int, 1 for a block that
    is tiled by rows."""
    return min(full[2] for full in _full_tiles(interior))


def _carve(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Consecutive C-contiguous views of ``flat``, one per shape."""
    views, start = [], 0
    for shape in shapes:
        stop = start + math.prod(shape)
        views.append(flat[start:stop].reshape(shape))
        start = stop
    return views


def _chunk_quantities(shape, full) -> int:
    """Whole quantities per WENO chunk of a tile of ``shape`` in a sweep
    whose full tile has shape ``full``.

    The full tile is chunked by :data:`WENO_CHUNK_ELEMENTS` (at least one
    quantity); a shorter tile takes as many quantities as fit the cells of
    that chunk, so it is swept in fewer, equally long passes out of the
    same workspace memory.
    """
    nq = full[0]
    per_quantity = math.prod(full[1:])
    cells = per_quantity * min(nq, max(1, WENO_CHUNK_ELEMENTS // per_quantity))
    return min(nq, cells // math.prod(shape[1:]))


def _face_shape(shape) -> tuple[int, ...]:
    """Shape of the face states of a tile of ``shape``."""
    return (shape[0], shape[1] - 5) + shape[2:]


def _tile_buffers(shape, chunk: int):
    """Shapes of the buffers a tile of ``shape`` is swept through: the
    flat WENO workspace of ``chunk`` quantities, the tile, the two face
    states, ``div``, ``corr`` and ``du``.

    The WENO workspace comes first so that it stays where it is as tile
    shapes change: pages of the scratch that no shape reaches are never
    touched, hence never resident.
    """
    nq, ncells = shape[:2]
    faces = _face_shape(shape)
    cells = (nq, ncells - 2 * STENCIL_WIDTH) + shape[2:]
    weno = Weno5Workspace.elements((chunk,) + faces[1:], axis=1)
    return ((weno,), shape, faces, faces, cells, (NQ - GAMMA,) + cells[1:],
            cells[1:])


def _tile_elements(full) -> int:
    """Entries of the flat scratch a sweep with full tile ``full`` needs."""
    return sum(math.prod(b) for b in _tile_buffers(
        full, _chunk_quantities(full, full)))


#: Tile shapes a :class:`SweepWorkspace` keeps views for.  A sweep of
#: 32^3 blocks alternates between two (full tile, remainder tile); carving
#: them anew at every change was 290 us, 144 times a step (4 % of it).
_VIEW_SETS = 8


class _TileViews:
    """The buffers of one tile shape, carved from the flat scratch, and
    the HLLE workspace of its face tile, carved from ``hlle``."""

    def __init__(self, shape, chunk: int, flat: np.ndarray,
                 hlle: np.ndarray):
        (weno, self.W, self.W_minus, self.W_plus, self.div, self.corr,
         self.du) = _carve(flat, _tile_buffers(shape, chunk))
        #: Outputs and scratch of the HLLE stage over the whole face tile.
        self.hlle = HlleWorkspace(self.W_minus.shape, flat.dtype, buffer=hlle)
        g = STENCIL_WIDTH
        #: Cell-centred ``Gamma`` and ``Pi`` of the tile's interior cells.
        self.advected = self.W[_ADVECTED, g:-g]
        #: ``(W, workspace, W_minus, W_plus)`` per chunk of at most
        #: ``chunk`` whole quantities: as few chunks as that allows, of
        #: even sizes, all viewing the same workspace memory.
        self.chunks = []
        nq = shape[0]
        nchunks = -(-nq // chunk)
        for k in range(nchunks):
            q0, q1 = k * nq // nchunks, (k + 1) * nq // nchunks
            self.chunks.append((
                self.W[q0:q1],
                Weno5Workspace((q1 - q0,) + self.W_minus.shape[1:],
                               dtype=flat.dtype, axis=1, buffer=weno),
                self.W_minus[q0:q1],
                self.W_plus[q0:q1],
            ))


def _mapped_empty(size: int, dtype: np.dtype) -> np.ndarray:
    """``size`` entries of ``dtype`` (zeros no one has touched) in an
    anonymous mapping of their own, which is what the scratch arrays of a
    :class:`SweepWorkspace` are, for two reasons NumPy's allocator leaves
    to chance.  *Alignment*: it promises 16 bytes, and which multiple of
    16 an array gets follows from every allocation the process made
    before; ``compute_rhs`` of one 32^3 block through the NumPy sweeps
    with the tile scratch 0 | 16 | 32 bytes past a cache line (the widest
    SIMD operand), interleaved rounds: 40.1 | 47.1 | 45.7 ms (the HLLE
    scratch alone 16 off: 41.3) -- the ladder's ``cloud64_b32`` read that
    as 8 % between two orders of the same allocations.  A mapping starts
    at a page.  *Release*: glibc's mmap and trim thresholds follow the
    largest chunk a process has freed, so the scratch of a second solver
    came from the heap and stayed resident when it was freed -- the
    ladder's ``halo2_b8`` (one solver after another, two rank threads)
    read 59 MB for the parent's 51 on the NumPy path; a mapping goes back
    to the system with its array (53 MB)."""
    buf = mmap.mmap(-1, max(1, size * dtype.itemsize),
                    flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    return np.frombuffer(buf, dtype=dtype, count=size)


def _padded(nblocks: int, interior) -> tuple[int, ...]:
    """Shape of a ghost-padded SoA batch of ``interior``-cell blocks."""
    return (NQ, nblocks) + tuple(n + 2 * STENCIL_WIDTH for n in interior)


class SweepWorkspace:
    """Scratch of the pencil-tile sweeps, held by one thread at a time.

    One flat array, sized once for the full tile of the sweep at hand
    (at most :data:`TILE_ELEMENTS` per buffer, plus one WENO chunk) and
    viewed per tile shape, a second one for the HLLE stage of that tile,
    plus the primitive and result SoA fields of the batch, reserved for a
    tile-full of blocks -- each a mapping of its own
    (:func:`_mapped_empty`: page aligned, back with the system when the
    workspace goes).  A caller that keeps the workspace across calls --
    the node layer keeps one per worker thread -- sweeps WENO5 + HLLE
    without allocating an array, whatever mix of batch sizes and remainder
    tiles it passes through; :attr:`nbytes` stays what the first call made
    it unless a later block shape or batch needs more.
    """

    def __init__(self):
        self._flat: np.ndarray | None = None
        self._hlle: np.ndarray | None = None
        #: ``_TileViews`` per tile shape met (a few: the full tile and the
        #: remainder of each batch size); views only, no memory of their own.
        self._views: dict[tuple, _TileViews] = {}
        self._fields: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def nbytes(self) -> int:
        """Bytes held: the two flat scratches and the batch fields."""
        held = (self._flat, self._hlle) + (self._fields or ())
        return sum(part.nbytes for part in held if part is not None)

    def _reserve(self, needed: int, dtype: np.dtype,
                 name: str = "_flat") -> np.ndarray:
        """The flat scratch ``name``, with at least ``needed`` entries of
        ``dtype``; views of the one it replaces are dropped."""
        flat = getattr(self, name)
        if flat is None or flat.dtype != dtype or flat.size < needed:
            flat = _mapped_empty(needed, dtype)
            setattr(self, name, flat)
            self._views.clear()
        return flat

    def tile(self, shape, dtype, full) -> _TileViews:
        """The buffers of a ``(NQ, cells, blocks, rows, width)`` tile.

        ``full`` is the shape of a full tile of the sweep this one belongs
        to: it sets the WENO chunk, and the scratch is sized for it, so
        that a short first batch or a remainder tile does not make a later
        full one reallocate.
        """
        dtype = np.dtype(dtype)
        key = (shape, full, dtype)
        views = self._views.get(key)
        if views is None:
            flat = self._reserve(_tile_elements(full), dtype)
            hlle = self._reserve(
                HlleWorkspace.elements(_face_shape(full), dtype), dtype,
                "_hlle")
            if len(self._views) >= _VIEW_SETS:
                self._views.clear()
            views = self._views[key] = _TileViews(
                shape, _chunk_quantities(shape, full), flat, hlle
            )
        return views

    def reserve(self, interiors, dtype) -> None:
        """Size the scratch for the NumPy sweeps of one block of any of
        ``interiors`` (cells ``(nz, ny, nx)``), staging included: a caller
        that sweeps blocks of several shapes -- the node layer's boxes --
        holds after this what it will hold after any of them."""
        dtype = np.dtype(dtype)
        fulls = [full for cells in interiors for full in _full_tiles(cells)]
        self._reserve(max(
            [_tile_elements(full) for full in fulls]
            + [math.prod(_padded(1, cells)) for cells in interiors]), dtype)
        self._reserve(max(HlleWorkspace.elements(_face_shape(full), dtype)
                          for full in fulls), dtype, "_hlle")

    def staging(self, nblocks: int, interior, dtype) -> np.ndarray:
        """A conserved SoA batch ``(NQ, nblocks, nz+6, ny+6, nx+6)`` to
        convert storage data into and hand to :func:`compute_rhs`.

        It is the memory of the tile scratch: the conserved state is dead
        once the CONV stage has run, which is before the first tile, so
        its contents are valid only until :func:`compute_rhs` is entered
        with this workspace.
        """
        shape = _padded(nblocks, interior)
        size = math.prod(shape)
        return self._reserve(size, np.dtype(dtype))[:size].reshape(shape)

    def fields(self, nblocks: int, interior, dtype):
        """``(Wpad, rhs)`` of a batch: the primitive SoA field
        ``(NQ, nblocks, nz+6, ny+6, nx+6)`` and the result
        ``(NQ, nblocks, nz, ny, nx)``, views of held memory."""
        dtype = np.dtype(dtype)
        shapes = (_padded(nblocks, interior), (NQ, nblocks) + tuple(interior))
        held = self._fields
        if held is None or any(
            flat.dtype != dtype or flat.size < math.prod(shape)
            for flat, shape in zip(held, shapes)
        ):
            reserve = max(nblocks, blocks_per_tile(interior))
            held = self._fields = tuple(
                _mapped_empty(math.prod(shape) // nblocks * reserve, dtype)
                for shape in shapes
            )
        return tuple(
            flat[:math.prod(shape)].reshape(shape)
            for flat, shape in zip(held, shapes)
        )


def _as_batch(field: np.ndarray) -> np.ndarray:
    """``(NQ, B, z, y, x)`` view of a field given with or without ``B``."""
    if field.ndim == 5:
        return field
    if field.ndim == 4:
        return field[:, np.newaxis]
    raise ValueError(
        f"expected (NQ, nz, ny, nx) or (NQ, B, nz, ny, nx), got {field.shape}"
    )


#: Axis orders of the sweep-axis-first view of a ``(NQ, B, z, y, x)``
#: batch, per sweep axis, and the orders that undo them.
_SWEEP_FIRST = ((0, 2, 1, 3, 4), (0, 3, 1, 2, 4), (0, 4, 1, 2, 3))
_NATURAL = ((0, 2, 1, 3, 4), (0, 2, 3, 1, 4), (0, 2, 3, 4, 1))


def _sweep_first(field: np.ndarray, axis: int) -> np.ndarray:
    """View of a ``(NQ, B, z, y, x)`` batch with the sweep direction at
    axis 1: ``(NQ, cells, B, rows, width)``.

    The z sweep moves whole blocks, y swaps whole x rows, x becomes
    ``(NQ, x, B, z, y)`` -- a gather, done tile by tile.
    """
    if axis not in (0, 1, 2):
        raise ValueError(f"axis must be 0, 1 or 2, got {axis}")
    return field.transpose(_SWEEP_FIRST[axis])


def _sweep_tiles(Wpad, axis, h, fused, workspace, order, solver):
    """Pencil-tile sweep of one direction: WENO -> Riemann flux -> difference.

    Walks the sweep-axis-first view of a batch of primitives
    ``(NQ, B, nz+6, ny+6, nx+6)`` in tiles small enough that the buffers a
    tile passes through stay cache resident (:data:`TILE_ELEMENTS`) --
    rows of one block or whole blocks, see :func:`_tile_extent` -- with
    WENO5 issued per chunk of whole quantities
    (:data:`WENO_CHUNK_ELEMENTS`), and yields ``(b0, b1, j0, j1, div,
    corr, spare)`` per tile: blocks ``b0:b1`` and rows ``j0:j1`` (axes 2
    and 3) of the sweep-axis-first result, ``div`` the flux divergence of
    all quantities, ``corr`` the ``phi * div(u)`` correction of the
    ``Gamma`` and ``Pi`` rows, and ``spare`` a flat buffer longer than
    ``div`` whose contents are dead.  The yielded arrays are workspace
    buffers, valid (and writable) until the next tile is requested.
    """
    check_scheme(order, solver)
    flux_fn = RIEMANN_SOLVERS[solver]
    g = STENCIL_WIDTH
    Wd = _sweep_first(Wpad, axis)[:, :, :, g:-g, g:-g]
    normal = 2 - axis  # z, y, x sweeps see w, v, u as the normal velocity
    inv_h = 1.0 / h
    nq, ncells, nblocks, nrows, width = Wd.shape
    tile_blocks, tile_rows = _tile_extent(ncells, nrows, width)
    full = (nq, ncells, tile_blocks, tile_rows, width)
    for b0 in range(0, nblocks, tile_blocks):
        b1 = min(b0 + tile_blocks, nblocks)
        for j0 in range(0, nrows, tile_rows):
            j1 = min(j0 + tile_rows, nrows)
            t = workspace.tile(
                (nq, ncells, b1 - b0, j1 - j0, width), Wd.dtype, full
            )
            np.copyto(t.W, Wd[:, :, b0:b1, j0:j1])
            if order == 3:
                W_minus, W_plus = weno3(t.W, axis=1)
            else:
                W_minus, W_plus = t.W_minus, t.W_plus
                for W, weno, chunk_minus, chunk_plus in t.chunks:
                    if fused:
                        weno5_fused(W, weno, chunk_minus, chunk_plus, 1)
                    else:
                        weno5(W, weno, chunk_minus, chunk_plus, 1)
            flux, ustar = flux_fn(W_minus, W_plus, normal, t.hlle)

            np.subtract(flux[:, 1:], flux[:, :-1], out=t.div)
            np.multiply(t.div, inv_h, out=t.div)
            np.subtract(ustar[1:], ustar[:-1], out=t.du)
            np.multiply(t.du, inv_h, out=t.du)
            np.multiply(t.advected, t.du, out=t.corr)
            yield b0, b1, j0, j1, t.div, t.corr, t.W_minus.reshape(-1)


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
        directions), or a batch of blocks ``(NQ, B, nz+6, ny+6, nx+6)``.
    axis:
        Sweep direction: 0 = z, 1 = y, 2 = x (the last three array axes).
        The *normal velocity* passed to HLLE is ``w``, ``v``, ``u``
        respectively.
    h:
        Grid spacing.
    workspace:
        Optional :class:`SweepWorkspace` kept across calls.

    Returns
    -------
    (div, phi_corr):
        ``div`` -- shape ``(NQ, [B,] nz, ny, nx)`` flux divergence (to be
        subtracted from the state's time derivative); ``phi_corr`` -- the
        non-conservative correction ``phi * div(u)`` for the ``Gamma`` and
        ``Pi`` rows (zero elsewhere), to be *added*.
    """
    if workspace is None:
        workspace = SweepWorkspace()
    batch = _as_batch(Wpad)
    g = STENCIL_WIDTH
    div = np.empty_like(batch[:, :, g:-g, g:-g, g:-g])
    phi_corr = np.zeros_like(div)
    div_rows = _sweep_first(div, axis)
    corr_rows = _sweep_first(phi_corr[_ADVECTED], axis)
    for b0, b1, j0, j1, tile_div, tile_corr, _ in _sweep_tiles(
        batch, axis, h, fused, workspace, order, solver
    ):
        div_rows[:, :, b0:b1, j0:j1] = tile_div
        corr_rows[:, :, b0:b1, j0:j1] = tile_corr
    if Wpad.ndim == 4:
        return div[:, 0], phi_corr[:, 0]
    return div, phi_corr


def native_sweeps(order: int, solver: str, fused: bool):
    """The door to the compiled sweeps for a scheme.

    Returns the loaded library (:data:`repro.native.lib`; reading it is
    what builds it on first use) if it implements the scheme -- WENO5 +
    HLLE, not ``fused`` -- and ``None`` otherwise, or where there is no
    library.
    """
    if order == 5 and solver == "hlle" and not fused:
        return native.lib
    return None


def compute_rhs(
    Upad: np.ndarray,
    h: float,
    fused: bool = False,
    order: int = 5,
    solver: str = "hlle",
    workspace: SweepWorkspace | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Full RHS of the semi-discrete system from padded conserved data.

    Parameters
    ----------
    Upad:
        Conserved SoA field ``(NQ, n+6, n+6, n+6)`` (or anisotropic interior
        extents), ghost cells filled by the node/cluster layers -- or a
        batch of ``B`` such blocks, ``(NQ, B, n+6, n+6, n+6)``.  The blocks
        of a batch are independent: each gets the bytes it gets alone.
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
    out:
        Optional array of the result's shape and dtype to write into.

    Returns
    -------
    Time derivative ``dU/dt`` of shape ``(NQ, nz, ny, nx)``, or
    ``(NQ, B, nz, ny, nx)`` for a batch.

    WENO5 + HLLE in compute precision into a C-contiguous result runs the
    three sweeps in the compiled library where there is one
    (:mod:`repro.native`); everything else, and every host without a
    compiler, runs the tiled NumPy sweeps.  Same bytes either way.
    """
    if Upad.shape[0] != NQ:
        raise ValueError(f"expected leading axis {NQ}, got {Upad.shape}")
    batch = _as_batch(Upad)
    if workspace is None:
        workspace = SweepWorkspace()
    g2 = 2 * STENCIL_WIDTH
    _, nblocks, mz, my, mx = batch.shape
    interior = (mz - g2, my - g2, mx - g2)
    Wpad, _ = workspace.fields(nblocks, interior, batch.dtype)
    conserved_to_primitive(batch, out=Wpad)  # CONV stage
    if out is None:
        out = np.empty(Upad.shape[:-3] + interior, dtype=Upad.dtype)
    rhs = _as_batch(out)
    lib = native_sweeps(order, solver, fused)
    if (lib is not None and native.addressable(Wpad, COMPUTE_DTYPE)
            and native.addressable(rhs, COMPUTE_DTYPE, writeable=True)
            and rhs.shape == (NQ, nblocks) + interior):
        # WENO5 -> HLLE -> difference -> SUM of all three directions,
        # once through registers; the bytes of the tiled sweeps below.
        lib.repro_rhs_sweeps(Wpad.ctypes.data, nblocks, *interior, 1.0 / h,
                             rhs.ctypes.data)
        return out
    for axis in range(3):
        rows = _sweep_first(rhs, axis)
        for b0, b1, j0, j1, div, corr, spare in _sweep_tiles(
            Wpad, axis, h, fused, workspace, order, solver
        ):
            # SUM stage: rhs = (corr_z - div_z) + (corr_y - div_y) + ...
            # Rows without a correction get ``0.0 - div``, which is not
            # ``-div`` where ``div`` is a zero.
            np.subtract(0.0, div[_EULER], out=div[_EULER])
            np.subtract(corr, div[_ADVECTED], out=div[_ADVECTED])
            part = rows[:, :, b0:b1, j0:j1]
            if axis == 0:
                part[...] = div
            else:
                # Added in the memory order of the result, through a
                # reordered copy in dead scratch: for ``part += div`` on
                # the sweep-first view NumPy buffers both operands (two
                # 64 KB allocations a tile, 1.5-4 times the time).
                part = part.transpose(_NATURAL[axis])
                term = spare[:div.size].reshape(part.shape)
                np.copyto(term.transpose(_SWEEP_FIRST[axis]), div)
                np.add(part, term, out=part)
    return out

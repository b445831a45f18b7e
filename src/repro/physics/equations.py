"""Right-hand-side assembly for the two-phase Euler system.

Combines the stages of the paper's RHS pipeline (Fig. 1, right) on SoA
data:

    CONV -> WENO -> HLLE -> SUM

``compute_rhs`` performs the three directional sweeps over one ghost-padded
box of cells -- a block, or the node layer's box of neighbouring blocks --
and returns the time derivative of the conserved state.  The core layer
wraps this with block storage, AoS/SoA conversion and ring buffers; this
module is pure array mathematics and is what integration and property
tests validate directly.

Each direction is one **pencil-tile sweep** (the paper's data reordering
for directional sweeps, Table 3, over cache-resident slices, Fig. 2): the
primitives of the box are viewed with the sweep axis right after the
quantity axis, ``(NQ, cells, rows, width)``, so that every shifted stencil
operand is a long contiguous run, and walked in tiles of as many rows of
pencils as the cache holds.  A tile is copied into a contiguous buffer,
reconstructed, passed through the Riemann solver, differenced and added
into the result while it is still in cache.  The arithmetic per element
does not depend on layout or tiling: results are bit-identical to
whole-box expressions.
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


def _tile_rows(ncells: int, nrows: int, width: int) -> int:
    """Rows one tile of a ``(NQ, ncells, nrows, width)`` sweep holds: as
    many as fit :data:`TILE_ELEMENTS`, at least one."""
    return min(nrows, max(1, TILE_ELEMENTS // (NQ * ncells * width)))


def _full_tiles(interior):
    """Shape ``(NQ, cells, rows, width)`` of the full tile of the z, y and
    x sweep over a box of ``interior`` cells ``(nz, ny, nx)``."""
    nz, ny, nx = interior
    g2 = 2 * STENCIL_WIDTH
    for ncells, nrows, width in ((nz + g2, ny, nx), (ny + g2, nz, nx),
                                 (nx + g2, nz, ny)):
        yield NQ, ncells, _tile_rows(ncells, nrows, width), width


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


def _padded(interior) -> tuple[int, ...]:
    """Shape of the ghost-padded SoA field of a box of ``interior`` cells."""
    return (NQ,) + tuple(n + 2 * STENCIL_WIDTH for n in interior)


class SweepWorkspace:
    """Scratch of the pencil-tile sweeps, held by one thread at a time.

    One flat array, sized once for the full tile of the sweep at hand
    (at most :data:`TILE_ELEMENTS` per buffer, plus one WENO chunk) and
    viewed per tile shape, a second one for the HLLE stage of that tile,
    plus the primitive and result SoA fields of a box -- each a mapping of
    its own (:func:`_mapped_empty`: page aligned, back with the system
    when the workspace goes).  A caller that keeps the workspace across
    calls -- the node layer keeps one per worker thread -- sweeps WENO5 +
    HLLE without allocating an array, whatever mix of box shapes and
    remainder tiles it passes through; :attr:`nbytes` stays what the first
    call made it unless a later box needs more.
    """

    def __init__(self):
        self._flat: np.ndarray | None = None
        self._hlle: np.ndarray | None = None
        #: ``_TileViews`` per tile shape met (a few: the full tile and the
        #: remainder of each box shape); views only, no memory of their own.
        self._views: dict[tuple, _TileViews] = {}
        self._fields: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def nbytes(self) -> int:
        """Bytes held: the two flat scratches and the box fields."""
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
        """The buffers of a ``(NQ, cells, rows, width)`` tile.

        ``full`` is the shape of a full tile of the sweep this one belongs
        to: it sets the WENO chunk, and the scratch is sized for it, so
        that a remainder tile does not make a later full one reallocate.
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
        """Size the scratch for the NumPy sweeps of a box of any of
        ``interiors`` (cells ``(nz, ny, nx)``), staging included: a caller
        that sweeps boxes of several shapes -- the node layer -- holds
        after this what it will hold after any of them."""
        dtype = np.dtype(dtype)
        fulls = [full for cells in interiors for full in _full_tiles(cells)]
        self._reserve(max(
            [_tile_elements(full) for full in fulls]
            + [math.prod(_padded(cells)) for cells in interiors]), dtype)
        self._reserve(max(HlleWorkspace.elements(_face_shape(full), dtype)
                          for full in fulls), dtype, "_hlle")

    def staging(self, interior, dtype) -> np.ndarray:
        """A conserved SoA field ``(NQ, nz+6, ny+6, nx+6)`` to convert
        storage data into and hand to :func:`compute_rhs`.

        It is the memory of the tile scratch: the conserved state is dead
        once the CONV stage has run, which is before the first tile, so
        its contents are valid only until :func:`compute_rhs` is entered
        with this workspace.
        """
        shape = _padded(interior)
        size = math.prod(shape)
        return self._reserve(size, np.dtype(dtype))[:size].reshape(shape)

    def fields(self, interior, dtype):
        """``(Wpad, rhs)`` of a box: the primitive SoA field
        ``(NQ, nz+6, ny+6, nx+6)`` and the result ``(NQ, nz, ny, nx)``,
        views of held memory."""
        dtype = np.dtype(dtype)
        shapes = (_padded(interior), (NQ,) + tuple(interior))
        held = self._fields
        if held is None or any(
            flat.dtype != dtype or flat.size < math.prod(shape)
            for flat, shape in zip(held, shapes)
        ):
            held = self._fields = tuple(
                _mapped_empty(math.prod(shape), dtype) for shape in shapes)
        return tuple(
            flat[:math.prod(shape)].reshape(shape)
            for flat, shape in zip(held, shapes)
        )


#: Axis orders of the sweep-axis-first view ``(NQ, cells, rows, width)``
#: of a ``(NQ, z, y, x)`` field, per sweep axis, and the orders that undo
#: them: z keeps the layout, y swaps whole x rows, x becomes ``(NQ, x, z,
#: y)`` -- a gather, done tile by tile.
_SWEEP_FIRST = ((0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2))
_NATURAL = ((0, 1, 2, 3), (0, 2, 1, 3), (0, 2, 3, 1))


def _sweep_tiles(Wpad, axis, h, fused, workspace, order, solver):
    """Pencil-tile sweep of one direction: WENO -> Riemann flux -> difference.

    Walks the sweep-axis-first view of the primitives of a box
    ``(NQ, nz+6, ny+6, nx+6)`` in tiles of as many rows as keep the
    buffers a tile passes through cache resident (:data:`TILE_ELEMENTS`),
    with WENO5 issued per chunk of whole quantities
    (:data:`WENO_CHUNK_ELEMENTS`), and yields ``(j0, j1, div, corr,
    spare)`` per tile: rows ``j0:j1`` (axis 2) of the sweep-axis-first
    result, ``div`` the flux divergence of all quantities, ``corr`` the
    ``phi * div(u)`` correction of the ``Gamma`` and ``Pi`` rows, and
    ``spare`` a flat buffer longer than ``div`` whose contents are dead.
    The yielded arrays are workspace buffers, valid (and writable) until
    the next tile is requested.
    """
    check_scheme(order, solver)
    flux_fn = RIEMANN_SOLVERS[solver]
    g = STENCIL_WIDTH
    Wd = Wpad.transpose(_SWEEP_FIRST[axis])[:, :, g:-g, g:-g]
    normal = 2 - axis  # z, y, x sweeps see w, v, u as the normal velocity
    inv_h = 1.0 / h
    nq, ncells, nrows, width = Wd.shape
    tile_rows = _tile_rows(ncells, nrows, width)
    full = (nq, ncells, tile_rows, width)
    for j0 in range(0, nrows, tile_rows):
        j1 = min(j0 + tile_rows, nrows)
        t = workspace.tile((nq, ncells, j1 - j0, width), Wd.dtype, full)
        np.copyto(t.W, Wd[:, :, j0:j1])
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
        yield j0, j1, t.div, t.corr, t.W_minus.reshape(-1)


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
        Conserved SoA field of one box ``(NQ, nz+6, ny+6, nx+6)``, ghost
        cells filled by the node/cluster layers.
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
    Time derivative ``dU/dt`` of shape ``(NQ, nz, ny, nx)``.

    WENO5 + HLLE in compute precision into a C-contiguous result runs the
    three sweeps in the compiled library where there is one
    (:mod:`repro.native`); everything else, and every host without a
    compiler, runs the tiled NumPy sweeps.  Same bytes either way.
    """
    if Upad.ndim != 4 or Upad.shape[0] != NQ:
        raise ValueError(
            f"expected ({NQ}, nz+6, ny+6, nx+6), got {Upad.shape}")
    if workspace is None:
        workspace = SweepWorkspace()
    interior = tuple(m - 2 * STENCIL_WIDTH for m in Upad.shape[1:])
    Wpad, _ = workspace.fields(interior, Upad.dtype)
    conserved_to_primitive(Upad, out=Wpad)  # CONV stage
    if out is None:
        out = np.empty((NQ,) + interior, dtype=Upad.dtype)
    lib = native_sweeps(order, solver, fused)
    if (lib is not None and native.addressable(Wpad, COMPUTE_DTYPE)
            and native.addressable(out, COMPUTE_DTYPE, writeable=True)
            and out.shape == (NQ,) + interior):
        # WENO5 -> HLLE -> difference -> SUM of all three directions,
        # once through registers; the bytes of the tiled sweeps below.
        lib.repro_rhs_sweeps(Wpad.ctypes.data, 1, *interior, 1.0 / h,
                             out.ctypes.data)
        return out
    for axis in range(3):
        rows = out.transpose(_SWEEP_FIRST[axis])
        for j0, j1, div, corr, spare in _sweep_tiles(
            Wpad, axis, h, fused, workspace, order, solver
        ):
            # SUM stage: rhs = (corr_z - div_z) + (corr_y - div_y) + ...
            # Rows without a correction get ``0.0 - div``, which is not
            # ``-div`` where ``div`` is a zero.
            np.subtract(0.0, div[_EULER], out=div[_EULER])
            np.subtract(corr, div[_ADVECTED], out=div[_ADVECTED])
            part = rows[:, :, j0:j1]
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

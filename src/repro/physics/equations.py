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

WENO5 + HLLE runs in the compiled library where there is one
(:mod:`repro.native`: a ring of flux rows per sweep, the paper's
cache-resident slices).  Everything else -- the ablation schemes, and
every host without a compiler -- runs the NumPy sweeps here, one
whole-box expression per direction: the primitives are copied with the
sweep axis right after the quantity axis, ``(NQ, cells, rows, width)``,
so that every shifted stencil operand is a long contiguous run, then
reconstructed, passed through the Riemann solver and differenced as a
whole.  They are the oracle the compiled sweeps are held to, bit for bit.
"""

from __future__ import annotations

import math
import mmap

import numpy as np

from .. import native
from .eos import conserved_to_primitive
from .riemann import hllc_flux, hlle_flux
from .state import COMPUTE_DTYPE, GAMMA, NQ
from .weno import weno3, weno5, weno5_fused

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


#: Rows of the state that carry no quasi-conservative correction, and the
#: advected ``Gamma``/``Pi`` rows that do (the trailing two of the layout).
_EULER = slice(0, GAMMA)
_ADVECTED = slice(GAMMA, NQ)


def _mapped_empty(size: int, dtype: np.dtype) -> np.ndarray:
    """``size`` entries of ``dtype`` (zeros no one has touched) in an
    anonymous mapping of their own, which is what the fields of a
    :class:`SweepWorkspace` are, for two reasons NumPy's allocator leaves
    to chance.  *Alignment*: it promises 16 bytes, and which multiple of
    16 an array gets follows from every allocation the process made
    before; a kernel streaming an operand 16 or 32 bytes past a cache
    line (the widest SIMD operand) read up to 17 % slower, which the
    ladder's ``cloud64_b32`` read as 8 % between two orders of the same
    allocations.  A mapping starts at a page.  *Release*: glibc's mmap
    and trim thresholds follow the largest chunk a process has freed, so
    the scratch of a second solver came from the heap and stayed resident
    when it was freed -- the ladder's ``halo2_b8`` (one solver after
    another, two rank threads) read 59 MB for the parent's 51 on the
    NumPy path; a mapping goes back to the system with its array
    (53 MB)."""
    buf = mmap.mmap(-1, max(1, size * dtype.itemsize),
                    flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    return np.frombuffer(buf, dtype=dtype, count=size)


def _padded(interior) -> tuple[int, ...]:
    """Shape of the ghost-padded SoA field of a box of ``interior`` cells."""
    return (NQ,) + tuple(n + 2 * STENCIL_WIDTH for n in interior)


class SweepWorkspace:
    """The SoA fields of the sweeps over a box, held by one thread at a
    time: the primitive and result fields (:meth:`fields`) and the
    conserved field storage data is staged in (:meth:`staging`), each a
    mapping of its own (:func:`_mapped_empty`: page aligned, back with the
    system when the workspace goes).  A caller that keeps the workspace
    across calls -- the node layer keeps one per worker thread -- holds
    after its largest box what it holds after any other; :attr:`nbytes`
    grows only when a later box needs more.  The compiled sweeps need no
    other memory; the NumPy sweeps allocate their scratch per call.
    """

    def __init__(self):
        #: The mappings behind :meth:`fields` and :meth:`staging`.
        self._held: dict[str, tuple[np.ndarray, ...]] = {}

    @property
    def nbytes(self) -> int:
        """Bytes held: the box fields and the staging field."""
        return sum(flat.nbytes for held in self._held.values()
                   for flat in held)

    def _views(self, name: str, shapes, dtype) -> tuple[np.ndarray, ...]:
        """Views of ``shapes`` of the held mappings ``name``, mapped anew
        where one is of another dtype or too small."""
        dtype = np.dtype(dtype)
        held = self._held.get(name)
        if held is None or any(
            flat.dtype != dtype or flat.size < math.prod(shape)
            for flat, shape in zip(held, shapes)
        ):
            held = self._held[name] = tuple(
                _mapped_empty(math.prod(shape), dtype) for shape in shapes)
        return tuple(
            flat[:math.prod(shape)].reshape(shape)
            for flat, shape in zip(held, shapes)
        )

    def staging(self, interior, dtype) -> np.ndarray:
        """A conserved SoA field ``(NQ, nz+6, ny+6, nx+6)`` to convert
        storage data into and hand to :func:`compute_rhs`."""
        return self._views("staging", (_padded(interior),), dtype)[0]

    def fields(self, interior, dtype):
        """``(Wpad, rhs)`` of a box: the primitive SoA field
        ``(NQ, nz+6, ny+6, nx+6)`` and the result ``(NQ, nz, ny, nx)``,
        views of held memory."""
        return self._views(
            "fields", (_padded(interior), (NQ,) + tuple(interior)), dtype)


#: Axis orders of the sweep-axis-first view ``(NQ, cells, rows, width)``
#: of a ``(NQ, z, y, x)`` field, per sweep axis: z keeps the layout, y
#: swaps whole x rows, x becomes ``(NQ, x, z, y)``.
_SWEEP_FIRST = ((0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2))


def _sweep(Wpad, axis, h, fused, order, solver):
    """One direction over a whole box: WENO -> Riemann flux -> difference.

    Takes the primitives of a box ``(NQ, nz+6, ny+6, nx+6)`` and returns
    ``(div, corr)`` in the sweep-axis-first layout of its interior cells:
    ``div`` the flux divergence of all quantities, ``corr`` the
    ``phi * div(u)`` correction of the ``Gamma`` and ``Pi`` rows.
    """
    g = STENCIL_WIDTH
    W = np.ascontiguousarray(
        Wpad.transpose(_SWEEP_FIRST[axis])[:, :, g:-g, g:-g])
    if order == 3:
        W_minus, W_plus = weno3(W, axis=1)
    else:
        W_minus, W_plus = (weno5_fused if fused else weno5)(W, axis=1)
    # z, y, x sweeps see w, v, u as the normal velocity
    flux, ustar = RIEMANN_SOLVERS[solver](W_minus, W_plus, 2 - axis)
    inv_h = 1.0 / h
    div = (flux[:, 1:] - flux[:, :-1]) * inv_h
    corr = W[_ADVECTED, g:-g] * ((ustar[1:] - ustar[:-1]) * inv_h)
    return div, corr


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
    compiler, runs the whole-box NumPy sweeps.  Same bytes either way.
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
        # once through registers; the bytes of the NumPy sweeps below.
        lib.repro_rhs_sweeps(Wpad.ctypes.data, 1, *interior, 1.0 / h,
                             out.ctypes.data)
        return out
    check_scheme(order, solver)
    for axis in range(3):
        div, corr = _sweep(Wpad, axis, h, fused, order, solver)
        # SUM stage: rhs = (corr_z - div_z) + (corr_y - div_y) + ...
        # Rows without a correction get ``0.0 - div``, which is not
        # ``-div`` where ``div`` is a zero.
        np.subtract(0.0, div[_EULER], out=div[_EULER])
        np.subtract(corr, div[_ADVECTED], out=div[_ADVECTED])
        rows = out.transpose(_SWEEP_FIRST[axis])
        if axis == 0:
            rows[...] = div
        else:
            rows += div
    return out

"""Grid blocks: the core layer's unit of data and work.

The paper groups computational elements into 3D blocks of 32^3 cells held
in AoS (array-of-structures) order -- cell-contiguous, quantity-innermost
(Fig. 2, left).  A block is the granularity of

* kernel execution (one thread per block, paper Section 6),
* ghost reconstruction (fractions of surrounding blocks),
* wavelet compression (one block = one independent dataset).

Blocks store single-precision data (mixed-precision scheme); kernels
convert to double-precision SoA scratch on load.
"""

from __future__ import annotations

import numpy as np

from ..physics.state import (
    COMPUTE_DTYPE,
    ENERGY,
    GAMMA,
    NQ,
    RHO,
    STORAGE_DTYPE,
    aos_to_soa,
    soa_to_aos,
)

#: Production block edge in cells (paper: blocks of 32 elements per
#: direction).  Tests and laptop-scale runs use smaller blocks.
DEFAULT_BLOCK_SIZE = 32

#: Ghost width required by the WENO5 stencil.
GHOSTS = 3


class Block:
    """A cubic block of ``n^3`` cells with 7 quantities in AoS order.

    Parameters
    ----------
    n:
        Edge length in cells.
    index:
        The block's integer coordinates ``(bz, by, bx)`` within its rank's
        block grid (used by the node layer for ghost lookup and SFC
        ordering).
    data:
        The block's storage, ``(n, n, n, NQ)`` in storage precision: a
        grid passes the block's slot of its rank array, so that the block
        is a view of it.  A block made alone owns a zeroed array.
    """

    __slots__ = ("n", "index", "_data")

    def __init__(self, n: int = DEFAULT_BLOCK_SIZE, index: tuple[int, int, int] = (0, 0, 0),
                 data: np.ndarray | None = None):
        if n < 2 * GHOSTS:
            raise ValueError(f"block size {n} smaller than twice the ghost width")
        self.n = n
        self.index = tuple(index)
        if data is None:
            data = np.zeros((n, n, n, NQ), dtype=STORAGE_DTYPE)
        elif data.shape != (n, n, n, NQ) or data.dtype != STORAGE_DTYPE:
            raise ValueError(
                f"block data must be {(n, n, n, NQ)} {np.dtype(STORAGE_DTYPE)}, "
                f"got {data.shape} {data.dtype}"
            )
        self._data = data

    # -- data access ----------------------------------------------------

    @property
    def data(self) -> np.ndarray:
        """AoS storage, shape (n, n, n, NQ), axes (z, y, x, quantity).
        Written through, never rebound: the node layer's gather plans and
        a grid's rank array point at this memory."""
        return self._data

    def soa(self, dtype=COMPUTE_DTYPE) -> np.ndarray:
        """Double-precision SoA copy ``(NQ, n, n, n)`` (kernel input)."""
        return aos_to_soa(self.data, dtype=dtype)

    def set_soa(self, soa: np.ndarray) -> None:
        """Store an SoA array back into the block (down-casts to storage)."""
        self.data[...] = soa_to_aos(soa, dtype=STORAGE_DTYPE)

    def quantity(self, q: int) -> np.ndarray:
        """View of one quantity, shape (n, n, n) -- strided, zero-copy."""
        return self.data[..., q]

    def nbytes(self) -> int:
        return self.data.nbytes

    def copy(self) -> "Block":
        b = Block(self.n, self.index)
        b.data[...] = self.data
        return b

    # -- ghost extraction (used by node/cluster ghost reconstruction) ---

    def face_view(self, axis: int, side: int, width: int = GHOSTS) -> np.ndarray:
        """View of the ``width`` cell layers at one face.

        ``axis`` is the spatial axis (0=z, 1=y, 2=x) and ``side`` is -1 for
        the low face or +1 for the high face.  A strided view of the block
        data, for a caller that copies it somewhere at once (a sibling's
        ghost region).
        """
        if side not in (-1, 1):
            raise ValueError("side must be -1 or +1")
        sel = [slice(None)] * 3
        sel[axis] = slice(0, width) if side == -1 else slice(self.n - width, self.n)
        return self.data[tuple(sel)]

    def face_slab(self, axis: int, side: int, width: int = GHOSTS) -> np.ndarray:
        """Return the slab of ``width`` cell layers at one face.

        As :meth:`face_view`, but the returned array is a copy (it is
        about to be shipped into an MPI message).
        """
        return self.face_view(axis, side, width).copy()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Block(n={self.n}, index={self.index})"


def padded_aos(n, dtype=STORAGE_DTYPE) -> np.ndarray:
    """Allocate the per-thread padded work area for a block's RHS.

    Shape ``(n+6, n+6, n+6, NQ)`` -- block data plus the WENO ghosts
    (the gray area of Fig. 2, right) -- or, for ``n`` the cells ``(nz, ny,
    nx)`` of a box of blocks, ``(nz+6, ny+6, nx+6, NQ)``.  The array is
    prefilled with a
    benign unit state: the directional RHS sweeps never read the edge and
    corner ghost regions (only the six face slabs are filled by the ghost
    reconstruction), but the CONV stage converts the whole padded array
    and must not divide by a zero density there.
    """
    cells = (n,) * 3 if np.ndim(n) == 0 else tuple(n)
    pad = np.zeros(tuple(c + 2 * GHOSTS for c in cells) + (NQ,), dtype=dtype)
    pad[..., RHO] = 1.0
    pad[..., ENERGY] = 1.0
    pad[..., GAMMA] = 1.0
    return pad


def fill_interior(pad: np.ndarray, block: Block) -> None:
    """Copy a block's data into the interior of a padded work area."""
    g = GHOSTS
    pad[g:-g, g:-g, g:-g, :] = block.data

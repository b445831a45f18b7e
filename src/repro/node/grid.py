"""Per-rank block grid (node layer).

Each MPI rank owns a cartesian grid of cubic blocks of constant size
(paper Section 6: "the computational domain is decomposed into subdomains
across the ranks ... with a constant subdomain size").  The node layer
coordinates the work within the rank: block iteration follows the Morton
space-filling curve, and kernels receive per-block padded work areas whose
ghosts are reconstructed from sibling blocks (intra-rank) or from the
cluster layer's global ghost buffer (inter-rank).
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator

import numpy as np

from ..physics.state import NQ, STORAGE_DTYPE
from ..core.block import Block
from .sfc import morton_order


class BlockGrid:
    """A dense cartesian collection of blocks owned by one rank.

    Parameters
    ----------
    num_blocks:
        Blocks per direction ``(Bz, By, Bx)``.
    block_size:
        Cells per block edge.
    h:
        Uniform grid spacing.
    origin:
        Physical coordinates of the rank subdomain's low corner.
    """

    def __init__(
        self,
        num_blocks: tuple[int, int, int],
        block_size: int,
        h: float,
        origin: tuple[float, float, float] = (0.0, 0.0, 0.0),
    ):
        self.num_blocks = tuple(int(b) for b in num_blocks)
        if any(b < 1 for b in self.num_blocks):
            raise ValueError(f"invalid block counts {num_blocks}")
        self.block_size = int(block_size)
        self.h = float(h)
        self.origin = tuple(float(o) for o in origin)

        n = self.block_size
        #: The state of every block, ``(B, n, n, n, NQ)``: one slot per
        #: block in ``blocks`` order (z, y, x -- lexicographic, so that
        #: the assembled field is one transposed view away; the kernels
        #: find neighbours by table, not by adjacency in memory).
        self.state = np.zeros((math.prod(self.num_blocks), n, n, n, NQ),
                              dtype=STORAGE_DTYPE)
        #: Blocks by index, each a view of its slot of ``state``.
        self.blocks: dict[tuple[int, int, int], Block] = {
            idx: Block(n, idx, data=slot) for idx, slot in zip(
                itertools.product(*map(range, self.num_blocks)), self.state)
        }
        #: Slot of every block in ``state`` (and in any array shaped
        #: like it: the residual, a solver's RHS).
        self.slots = {idx: k for k, idx in enumerate(self.blocks)}
        #: Low-storage RK residual registers: views of one array like
        #: ``state``, made by the first :meth:`residual`.
        self.residuals: dict[tuple[int, int, int], np.ndarray] = {}
        self._residual: np.ndarray | None = None
        arr = np.array(list(self.blocks))
        self._sfc_indices = [tuple(arr[i]) for i in morton_order(arr)]

    # -- geometry --------------------------------------------------------

    @property
    def cells(self) -> tuple[int, int, int]:
        """Rank-subdomain extent in cells ``(nz, ny, nx)``."""
        n = self.block_size
        return tuple(b * n for b in self.num_blocks)

    @property
    def num_blocks_total(self) -> int:
        return len(self.blocks)

    def block_origin(self, index: tuple[int, int, int]) -> tuple[float, float, float]:
        """Physical low-corner coordinates of one block."""
        n = self.block_size
        return tuple(
            self.origin[d] + index[d] * n * self.h for d in range(3)
        )

    def cell_centers(self, index: tuple[int, int, int]):
        """Cell-center coordinate arrays ``(z, y, x)`` of one block."""
        o = self.block_origin(index)
        n = self.block_size
        return tuple(
            o[d] + (np.arange(n) + 0.5) * self.h for d in range(3)
        )

    # -- traversal -------------------------------------------------------

    def sfc_blocks(self) -> Iterator[Block]:
        """Blocks in Morton order (the kernel-dispatch order)."""
        for idx in self._sfc_indices:
            yield self.blocks[idx]

    def neighbor(self, index: tuple[int, int, int], axis: int, side: int) -> Block | None:
        """Face neighbor of a block, or ``None`` at the rank boundary."""
        coords = list(index)
        coords[axis] += side
        return self.blocks.get(tuple(coords))

    def is_rank_boundary(self, index: tuple[int, int, int], axis: int, side: int) -> bool:
        coords = list(index)
        coords[axis] += side
        return not (0 <= coords[axis] < self.num_blocks[axis])

    # -- residual registers ----------------------------------------------

    def residual_storage(self) -> np.ndarray:
        """The residual of every block, one zeroed array shaped like
        ``state``, allocated on first use."""
        if self._residual is None:
            self._residual = np.zeros_like(self.state)
            self.residuals.update(zip(self.blocks, self._residual))
        return self._residual

    def residual(self, index: tuple[int, int, int]) -> np.ndarray:
        """The block's low-storage RK register (a view of
        :meth:`residual_storage`)."""
        self.residual_storage()
        return self.residuals[index]

    def reset_residuals(self) -> None:
        if self._residual is not None:
            self._residual[...] = 0.0

    # -- whole-field assembly (tests, diagnostics, I/O) --------------------

    def by_cell(self, storage: np.ndarray, box=()) -> np.ndarray:
        """``storage`` (shaped like ``state``) -- or the part ``box`` cuts
        from it, an index of slices into its ``(Bz, By, Bx, nz, ny, nx)``
        axes -- in the axis order of the assembled field, ``(Bz, nz, By,
        ny, Bx, nx, NQ)``: one assignment from or to a field reshaped like
        that moves every cell between the two layouts."""
        blocks = storage.reshape(self.num_blocks + storage.shape[1:])[box]
        return blocks.transpose(0, 3, 1, 4, 2, 5, 6)

    def to_array(self) -> np.ndarray:
        """Assemble the rank's field into one AoS array ``(nz, ny, nx, NQ)``."""
        return self.by_cell(self.state).copy().reshape(self.cells + (NQ,))

    def from_array(self, field: np.ndarray) -> None:
        """Scatter a full AoS array into the blocks."""
        if field.shape != self.cells + (NQ,):
            raise ValueError(
                f"field shape {field.shape} != rank extent {self.cells + (NQ,)}"
            )
        cells = self.by_cell(self.state)
        cells[...] = field.reshape(cells.shape)

    def fill(self, fn) -> None:
        """Initialize every cell from ``fn(z, y, x) -> (NQ,) state``.

        ``fn`` receives broadcastable cell-center coordinate arrays and
        must return an AoS array; used by initial-condition builders.  It
        is called once per run of blocks along x of at most 32^3 cells (a
        row of 8^3 blocks, one 32^3 block: its float64 temporaries stay
        cache sized; two 32^3 blocks a call took 1.24 times as long), with
        the coordinates :meth:`cell_centers` gives every block of the run.
        """
        Bz, By, Bx = self.num_blocks
        n = self.block_size
        run = max(1, 32 ** 3 // n ** 3)
        cells = self.by_cell(self.state)
        for bz, by, bx in itertools.product(range(Bz), range(By),
                                            range(0, Bx, run)):
            z, y, _ = self.cell_centers((bz, by, bx))
            x = np.concatenate([self.cell_centers((bz, by, b))[2]
                                for b in range(bx, min(bx + run, Bx))])
            states = np.broadcast_to(
                fn(z[:, None, None], y[None, :, None], x[None, None, :]),
                (n, n, x.size, NQ))
            cells[bz, :, by, :, bx:bx + run] = states.reshape(n, n, -1, n, NQ)

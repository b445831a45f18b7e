"""Intra-rank ghost reconstruction and physical boundary conditions.

"To evaluate the RHS of a block, the assigned thread loads the block data
and ghosts into a per-thread dedicated buffer.  For a given block, the
intra-rank ghosts are obtained by loading fractions of the surrounding
blocks, whereas for the inter-rank ghosts data is fetched from a global
buffer" (paper Section 6).

Because the RHS consists of *directional* sweeps, only the six face slabs
of the padded work area are ever read -- edge and corner ghosts are not
needed and are not filled.

Boundary kinds
--------------
``extrapolate``
    Zero-gradient (absorbing) boundary: the production far-field condition.
``reflect``
    Solid wall: mirrored state with the normal momentum negated.  Used for
    the wall the paper records the maximum wall pressure on (Fig. 5).
``periodic``
    Wrap around the rank's own grid (single-rank test setups; multi-rank
    periodicity is resolved by the cluster topology instead).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.block import GHOSTS, Block
from ..physics.state import RHOU
from .grid import BlockGrid

#: Valid boundary kinds.
BOUNDARY_KINDS = ("extrapolate", "reflect", "periodic")


@dataclass(frozen=True)
class BoundarySpec:
    """Physical boundary condition for each of the six domain faces.

    ``faces`` maps ``(axis, side)`` -- axis 0/1/2 = z/y/x, side -1/+1 --
    to a boundary kind.  Faces not present default to ``default``.
    """

    default: str = "extrapolate"
    faces: dict = field(default_factory=dict)

    def kind(self, axis: int, side: int) -> str:
        k = self.faces.get((axis, side), self.default)
        if k not in BOUNDARY_KINDS:
            raise ValueError(f"unknown boundary kind {k!r}")
        return k

    @staticmethod
    def all_extrapolate() -> "BoundarySpec":
        return BoundarySpec(default="extrapolate")

    @staticmethod
    def wall_at(axis: int, side: int) -> "BoundarySpec":
        """Far-field everywhere except one reflecting solid wall."""
        return BoundarySpec(default="extrapolate", faces={(axis, side): "reflect"})

    @staticmethod
    def all_periodic() -> "BoundarySpec":
        return BoundarySpec(default="periodic")


def _ghost_region(pad: np.ndarray, axis: int, side: int) -> np.ndarray:
    """View of the face-slab ghost region of a padded work area."""
    g = GHOSTS
    sel = [slice(g, -g)] * 3
    sel[axis] = slice(0, g) if side == -1 else slice(pad.shape[axis] - g, None)
    return pad[tuple(sel)]


def _apply_boundary(pad: np.ndarray, block: Block, axis: int, side: int,
                    kind: str) -> None:
    """Fill one face-slab ghost region from the block's own edge layers.

    They are read from ``block.data`` (which the interior of ``pad``
    holds a copy of): assigned from ``pad`` itself, NumPy cannot rule out
    an overlap with the ghost region and copies the source first.
    """
    g = GHOSTS
    ghost = _ghost_region(pad, axis, side)
    if kind == "extrapolate":
        # Repeat the first interior layer (zero-gradient).
        ghost[...] = block.face_view(axis, side, 1)
    elif kind == "reflect":
        ghost[...] = np.flip(block.face_view(axis, side, g), axis=axis)
        ghost[..., RHOU + (2 - axis)] *= -1.0  # negate normal momentum
    else:  # pragma: no cover - periodic handled by the caller via wrap
        raise ValueError(f"boundary kind {kind!r} must be resolved by caller")


def fill_block_ghosts(
    pad: np.ndarray,
    grid: BlockGrid,
    block: Block,
    boundary: BoundarySpec | None = None,
    remote_provider=None,
) -> None:
    """Fill the six face-slab ghost regions of ``pad`` for ``block``.

    Resolution order per face: sibling block in the rank's grid, then the
    cluster-layer ``remote_provider`` (``provider(index, axis, side) ->
    slab or None``), then the physical boundary condition.  The interior
    of ``pad`` must already contain the block data.
    """
    boundary = boundary or BoundarySpec.all_extrapolate()
    g = GHOSTS
    for axis in range(3):
        for side in (-1, 1):
            neigh = grid.neighbor(block.index, axis, side)
            if neigh is not None:
                _ghost_region(pad, axis, side)[...] = neigh.face_view(axis, -side, g)
                continue
            if remote_provider is not None:
                slab = remote_provider(block.index, axis, side)
                if slab is not None:
                    _ghost_region(pad, axis, side)[...] = slab
                    continue
            kind = boundary.kind(axis, side)
            if kind == "periodic":
                wrap = list(block.index)
                wrap[axis] = grid.num_blocks[axis] - 1 if side == -1 else 0
                neigh = grid.blocks[tuple(wrap)]
                _ghost_region(pad, axis, side)[...] = neigh.face_view(axis, -side, g)
            else:
                _apply_boundary(pad, block, axis, side, kind)

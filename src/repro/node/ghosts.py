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

    def __post_init__(self):
        """``ValueError`` naming the face for a key of ``faces`` that is
        no face and for a kind (of a face, or the default) that is none of
        :data:`BOUNDARY_KINDS` -- here, not inside the first RHS."""
        for face, kind in [("default", self.default), *self.faces.items()]:
            if face != "default" and not (
                isinstance(face, tuple) and len(face) == 2
                and face[0] in (0, 1, 2) and face[1] in (-1, 1)
            ):
                raise ValueError(
                    f"boundary face {face!r} is not (axis, side) with axis "
                    "0, 1 or 2 (z, y, x) and side -1 or +1"
                )
            if kind not in BOUNDARY_KINDS:
                where = "the default" if face == "default" else f"face {face}"
                raise ValueError(
                    f"boundary kind {kind!r} of {where} is not one of "
                    f"{BOUNDARY_KINDS}"
                )

    def kind(self, axis: int, side: int) -> str:
        return self.faces.get((axis, side), self.default)

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


def ghost_source(grid: BlockGrid, block: Block, axis: int, side: int,
                 boundary: BoundarySpec, remote_provider=None):
    """Where the ghosts of one face of ``block`` come from.

    Resolution order: sibling block in the rank's grid, then the
    cluster-layer ``remote_provider`` (``provider(index, axis, side) ->
    slab or None``), then the physical boundary condition.  Returns
    ``(source, flip)``: ``source`` is assigned to the ghost region
    (``GHOSTS`` layers along ``axis``) as it is -- a view of block data
    (zero-gradient: the one edge layer, to broadcast; a wall: the edge
    layers mirrored, step -1) or the provider's slab --, and ``flip`` is
    the momentum row to negate after that, or -1.  The one place that
    order lives: :func:`fill_block_ghosts` executes it for a block, the
    node solver's gather plan for a box.
    """
    g = GHOSTS
    neigh = grid.neighbor(block.index, axis, side)
    if neigh is None and remote_provider is not None:
        slab = remote_provider(block.index, axis, side)
        if slab is not None:
            return slab, -1
    if neigh is None:
        kind = boundary.kind(axis, side)
        if kind == "extrapolate":
            # Repeat the first interior layer (zero-gradient).
            return block.face_view(axis, side, 1), -1
        if kind == "reflect":
            # Solid wall: mirrored state, normal momentum negated.
            mirror = (slice(None),) * axis + (slice(None, None, -1),)
            return block.face_view(axis, side, g)[mirror], RHOU + (2 - axis)
        # periodic: wrap around the rank's own grid
        wrap = list(block.index)
        wrap[axis] = grid.num_blocks[axis] - 1 if side == -1 else 0
        neigh = grid.blocks[tuple(wrap)]
    return neigh.face_view(axis, -side, g), -1


def copy_source(region: np.ndarray, source: np.ndarray, flip: int) -> None:
    """Assign what :func:`ghost_source` returned to the AoS cells
    ``region`` it is for: the copy, then momentum row ``flip`` negated (by
    a multiplication: a NaN keeps its sign), if any."""
    region[...] = source
    if flip >= 0:
        region[..., flip] *= -1.0


def fill_block_ghosts(
    pad: np.ndarray,
    grid: BlockGrid,
    block: Block,
    boundary: BoundarySpec | None = None,
    remote_provider=None,
) -> None:
    """Fill the six face-slab ghost regions of ``pad`` for ``block``, each
    from its :func:`ghost_source`.  The interior of ``pad`` must already
    contain the block data (boundary ghosts are read from ``block.data``,
    which it holds a copy of: assigned from ``pad`` itself, NumPy cannot
    rule out an overlap with the ghost region and copies the source
    first).
    """
    boundary = boundary or BoundarySpec.all_extrapolate()
    for axis in range(3):
        for side in (-1, 1):
            copy_source(_ghost_region(pad, axis, side), *ghost_source(
                grid, block, axis, side, boundary, remote_provider))

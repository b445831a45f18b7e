"""Cartesian domain decomposition (cluster layer).

"The computational domain is decomposed into subdomains across the ranks
in a cartesian topology with a constant subdomain size" (paper Section 6).
:class:`CartTopology` maps ranks to 3D process coordinates, provides face
neighbors (with optional periodicity) and slices the global cell domain
into per-rank subdomains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def balanced_dims(size: int) -> tuple[int, int, int]:
    """Factor ``size`` into three near-equal process-grid dimensions.

    Mirrors ``MPI_Dims_create``: greedy assignment of prime factors to the
    currently smallest dimension, returning ``(Pz, Py, Px)`` sorted
    descending so the z (outer, slowest) direction gets the largest count.
    """
    if size < 1:
        raise ValueError("size must be positive")
    dims = [1, 1, 1]
    n = size
    factors = []
    f = 2
    while f * f <= n:
        while n % f == 0:
            factors.append(f)
            n //= f
        f += 1
    if n > 1:
        factors.append(n)
    for f in sorted(factors, reverse=True):
        dims[int(np.argmin(dims))] *= f
    return tuple(sorted(dims, reverse=True))


@dataclass(frozen=True)
class CartTopology:
    """A 3D process grid over ``Pz * Py * Px`` ranks.

    Rank order is row-major in ``(z, y, x)`` (z slowest), matching the
    block-grid axis convention of the node layer.
    """

    dims: tuple[int, int, int]
    periodic: tuple[bool, bool, bool] = (False, False, False)

    def __post_init__(self):
        if any(d < 1 for d in self.dims):
            raise ValueError(f"invalid dims {self.dims}")

    @property
    def size(self) -> int:
        pz, py, px = self.dims
        return pz * py * px

    def coords(self, rank: int) -> tuple[int, int, int]:
        """Process coordinates ``(cz, cy, cx)`` of ``rank``."""
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} out of range for size {self.size}")
        pz, py, px = self.dims
        cz, rem = divmod(rank, py * px)
        cy, cx = divmod(rem, px)
        return cz, cy, cx

    def rank_of(self, coords: tuple[int, int, int]) -> int:
        pz, py, px = self.dims
        cz, cy, cx = (c % d for c, d in zip(coords, self.dims))
        return (cz * py + cy) * px + cx

    def neighbor(self, rank: int, axis: int, side: int) -> int | None:
        """Face-neighbor rank, or ``None`` at a non-periodic boundary."""
        coords = list(self.coords(rank))
        coords[axis] += side
        if not 0 <= coords[axis] < self.dims[axis]:
            if not self.periodic[axis]:
                return None
            coords[axis] %= self.dims[axis]
        return self.rank_of(tuple(coords))

    def neighbors(self, rank: int) -> dict[tuple[int, int], int | None]:
        """All six face neighbors keyed by ``(axis, side)``."""
        return {
            (axis, side): self.neighbor(rank, axis, side)
            for axis in range(3)
            for side in (-1, 1)
        }

    # -- domain slicing ----------------------------------------------------

    def subdomain_blocks(
        self, rank: int, global_blocks: tuple[int, int, int]
    ) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
        """Per-rank block range of a global block grid.

        Returns ``(start, count)`` in block units per axis.  The global
        block counts must be divisible by the process dims (constant
        subdomain size, as in the paper).
        """
        for d in range(3):
            if global_blocks[d] % self.dims[d] != 0:
                raise ValueError(
                    f"global block count {global_blocks[d]} not divisible by "
                    f"process dim {self.dims[d]} on axis {d}"
                )
        counts = tuple(global_blocks[d] // self.dims[d] for d in range(3))
        c = self.coords(rank)
        starts = tuple(c[d] * counts[d] for d in range(3))
        return starts, counts

    def is_domain_boundary(self, rank: int, axis: int, side: int) -> bool:
        """True if this rank face is a physical domain face."""
        return self.neighbor(rank, axis, side) is None

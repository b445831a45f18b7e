"""The paper's AMR-profitability argument, quantified (Section 7).

"Thresholds considered in wavelet- and AMR-based simulation are usually
set so as to keep the L-inf (or L1) errors below 1e-4 - 1e-7.  Here,
these thresholds lead to an unprofitable compression rate of 1.15:1 at
best, by considering independently each scalar field, and 1.02:1 by
considering the flow quantities as one vector field.  This demonstrates
that AMR techniques would not have provided significant improvements in
terms of time to solution for this flow."

An AMR code coarsens a region only when *every* evolved quantity is
smooth there at solver accuracy; the wavelet detail magnitudes of a block
are exactly the refinement indicator.  :func:`amr_profitability` measures,
per threshold, the fraction of blocks that could be coarsened -- per
scalar quantity (the optimistic per-field bound) and for the 7-quantity
vector field (what an actual AMR mesh must satisfy) -- and converts it to
the equivalent cell-count "compression rate" the paper quotes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..physics.state import NQ
from .wavelet import block_tiles, fwt3d, max_levels


@dataclass(frozen=True)
class AmrProfile:
    """AMR coarsening potential at one threshold."""

    threshold: float
    #: fraction of blocks coarsenable for the *easiest* scalar quantity
    best_scalar_coarsenable: float
    #: fraction of blocks coarsenable for the full vector state
    vector_coarsenable: float

    @property
    def best_scalar_rate(self) -> float:
        """Equivalent cell-count rate if each scalar had its own mesh."""
        return 1.0 / max(1.0 - self.best_scalar_coarsenable * (1.0 - 0.125), 1e-9)

    @property
    def vector_rate(self) -> float:
        """Equivalent cell-count rate of one shared AMR mesh (coarsened
        blocks hold 1/8 of the cells of refined ones)."""
        return 1.0 / max(1.0 - self.vector_coarsenable * (1.0 - 0.125), 1e-9)


def _block_detail_max(field: np.ndarray, block_size: int) -> np.ndarray:
    """Max |detail| per block of one scalar field, normalized to range."""
    scale = float(field.max() - field.min()) or 1.0
    bs = block_size
    counts = tuple(n // bs for n in field.shape)
    levels = max_levels(bs)
    whole = field[: counts[0] * bs, : counts[1] * bs, : counts[2] * bs]
    blocks = block_tiles(whole, bs).reshape(-1, bs, bs, bs)
    details = np.abs(fwt3d(blocks.astype(np.float64), levels))
    corner = bs >> levels
    details[:, :corner, :corner, :corner] = 0.0  # the coarse approximation
    return details.reshape(len(details), -1).max(axis=1).reshape(counts) / scale


def amr_profitability(
    field_aos: np.ndarray,
    thresholds=(1e-4, 1e-5, 1e-6, 1e-7),
    block_size: int = 16,
) -> list[AmrProfile]:
    """Coarsening potential of a 7-quantity AoS field at solver-accuracy
    thresholds (relative to each quantity's range)."""
    if field_aos.shape[-1] != NQ:
        raise ValueError("expected an AoS field with the quantity axis last")
    per_q = [
        _block_detail_max(field_aos[..., q], block_size) for q in range(NQ)
    ]
    profiles = []
    for t in thresholds:
        coarsenable_q = [(d < t).mean() for d in per_q]
        vector = np.ones_like(per_q[0], dtype=bool)
        for d in per_q:
            vector &= d < t
        profiles.append(
            AmrProfile(
                threshold=float(t),
                best_scalar_coarsenable=float(max(coarsenable_q)),
                vector_coarsenable=float(vector.mean()),
            )
        )
    return profiles

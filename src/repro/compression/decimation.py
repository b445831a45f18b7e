"""Lossy decimation of wavelet detail coefficients.

"Lossy compression: detail coefficients are decimated ...  In terms of
accuracy, it is guaranteed that the decimation will not lead to errors
larger than the threshold eps" (paper Section 5).

Zeroing a set of detail coefficients changes the reconstruction by the
inverse transform of the zeroed values.  Since the inverse transform is
linear, the L-infinity reconstruction error of zeroing coefficients each
bounded by ``t`` is bounded *exactly and tightly* by ``t`` times the
inverse transform -- with absolute-valued filter weights -- of the detail
indicator mask (triangle inequality, attained in the worst case when signs
align).  :func:`exact_amplification` computes that factor once per
``(shape, levels)`` and caches it; :func:`decimate` divides the requested
``eps`` by it so the bound is a real guarantee (property-tested).

A closed-form factor would have to assume the worst stencil everywhere
(the one-sided boundary extrapolation has an L1 gain of 6) and would be
orders of magnitude too conservative; the operator-based factor is tight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .. import native
from .wavelet import detail_mask, iwt3d_abs


@lru_cache(maxsize=64)
def exact_amplification(shape: tuple[int, int, int], levels: int) -> float:
    """Worst-case L-infinity error per unit decimation threshold.

    The maximum over output points of the absolute-weight inverse
    transform applied to the detail indicator: a rigorous, tight bound on
    ``|iwt3d(zeroed)|_inf / t``.
    """
    if levels == 0:
        return 0.0
    indicator = detail_mask(shape, levels).astype(np.float64)
    return float(iwt3d_abs(indicator, levels).max())


def guaranteed_threshold(eps: float, shape: tuple[int, int, int], levels: int) -> float:
    """Per-coefficient threshold that guarantees ``|error|_inf <= eps``
    (to the rounding of the threshold itself: see :func:`decimate_batch`)."""
    if levels == 0:
        return 0.0
    return eps / exact_amplification(tuple(shape), levels)


@dataclass
class DecimationStats:
    """Outcome of decimating one coefficient block."""

    total_details: int
    zeroed: int
    threshold: float

    @property
    def survival_fraction(self) -> float:
        """Fraction of detail coefficients kept (data-dependent work --
        the source of the DEC imbalance in Table 4)."""
        if self.total_details == 0:
            return 0.0
        return 1.0 - self.zeroed / self.total_details


def decimate_batch(
    coeffs: np.ndarray,
    levels: int,
    eps: float,
    guaranteed: bool = True,
) -> list[DecimationStats]:
    """Zero the small detail coefficients of every block of a batch, in
    place.

    Parameters
    ----------
    coeffs:
        ``(B, nz, ny, nx)`` output of
        :func:`repro.compression.wavelet.fwt3d` (modified in place -- the
        paper performs "in-place transform, decimation and encoding").
    levels:
        Number of transform levels.
    eps:
        Decimation threshold.  With ``guaranteed=True`` the reconstruction
        error is strictly bounded by ``eps`` in L-infinity; with ``False``
        the raw magnitude threshold is ``eps`` itself (the paper's usage:
        higher compression, error typically a small multiple of ``eps``
        and strictly bounded by ``eps * exact_amplification(...)``).

    The comparison ``|c| < t`` runs in the data's precision: against
    float32 coefficients the threshold is first rounded to the nearest
    float32, so a coefficient in ``[t, float32(t))`` is zeroed too and the
    "strict" bound holds to a relative 6e-8 (half a float32 ulp of
    ``t``), not exactly; a float64 batch is compared in double.  (The
    rounding is part of the dump format: changing it changes bytes.)

    Contiguous float32 / float64 batches are decimated by the compiled
    library where there is one (:mod:`repro.native`): same bytes, same
    counts.  Returns one :class:`DecimationStats` per block.
    """
    if eps < 0:
        raise ValueError("eps must be non-negative")
    shape = coeffs.shape[1:]
    t = guaranteed_threshold(eps, shape, levels) if guaranteed else eps
    # Everything but the coarse corner is detail.
    corner = tuple(n >> levels for n in shape)
    lib = native.lib
    if (lib is not None and coeffs.ndim == 4
            and coeffs.dtype in (np.float32, np.float64)
            and native.addressable(coeffs, coeffs.dtype, writeable=True)):
        zeroed = np.empty(len(coeffs), dtype=np.int64)
        lib.repro_decimate(coeffs.ctypes.data, *coeffs.shape, levels,
                           coeffs.itemsize, t, zeroed.ctypes.data)
    else:
        small = np.abs(coeffs) < t
        small[:, : corner[0], : corner[1], : corner[2]] = False
        np.putmask(coeffs, small, 0.0)
        zeroed = np.count_nonzero(small.reshape(len(small), -1), axis=1)
    total = math.prod(shape) - math.prod(corner)
    return [
        DecimationStats(total_details=total, zeroed=int(z), threshold=float(t))
        for z in zeroed
    ]


def decimate(
    coeffs: np.ndarray,
    levels: int,
    eps: float,
    guaranteed: bool = True,
) -> DecimationStats:
    """:func:`decimate_batch` of one 3D block, in place."""
    return decimate_batch(coeffs[np.newaxis], levels, eps, guaranteed)[0]

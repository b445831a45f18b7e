"""Wavelet-based data compression (paper Section 5, Fig. 3).

The "first of its kind efficient wavelet based compression scheme" that
cuts I/O time and disk footprint by 10-100x: fourth-order interpolating
wavelets on the interval, lossy detail decimation with a guaranteed
L-infinity bound, lossless per-thread zlib streams, and collective file
writes offset by an exclusive prefix sum.
"""

from .decimation import (
    DecimationStats,
    decimate,
    decimate_batch,
    exact_amplification,
    guaranteed_threshold,
)
from .encoder import EncodeStats, StreamEncoder
from .io import (
    HEADER_SIZE,
    WriteStats,
    file_size,
    read_compressed,
    read_field,
    read_header,
    write_compressed_parallel,
)
from .amr_analysis import AmrProfile, amr_profitability
from .scheme import CompressedField, CompressionStats, WaveletCompressor
from . import zerotree
from .wavelet import (
    PREDICT_GAIN,
    detail_mask,
    fwt1d_level,
    fwt3d,
    iwt1d_level,
    iwt3d,
    level_of_coefficient,
    lift_batch,
    max_levels,
)

__all__ = [
    "AmrProfile",
    "CompressedField",
    "CompressionStats",
    "DecimationStats",
    "EncodeStats",
    "HEADER_SIZE",
    "PREDICT_GAIN",
    "StreamEncoder",
    "WaveletCompressor",
    "WriteStats",
    "amr_profitability",
    "decimate",
    "decimate_batch",
    "detail_mask",
    "exact_amplification",
    "file_size",
    "fwt1d_level",
    "fwt3d",
    "guaranteed_threshold",
    "iwt1d_level",
    "iwt3d",
    "level_of_coefficient",
    "lift_batch",
    "max_levels",
    "read_compressed",
    "read_field",
    "read_header",
    "write_compressed_parallel",
    "zerotree",
]

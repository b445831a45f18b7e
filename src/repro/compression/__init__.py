"""Wavelet-based data compression (paper Section 5, Fig. 3).

The "first of its kind efficient wavelet based compression scheme" that
cuts I/O time and disk footprint by 10-100x: fourth-order interpolating
wavelets on the interval, lossy detail decimation with a guaranteed
L-infinity bound, lossless per-thread zlib streams, and collective file
writes offset by an exclusive prefix sum.
"""

from .._exports import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "decimation": (
        "DecimationStats", "decimate", "decimate_batch", "exact_amplification",
        "guaranteed_threshold",
    ),
    "encoder": ("EncodeStats", "StreamEncoder"),
    "io": (
        "WriteStats", "file_size", "read_compressed", "read_field",
        "read_header", "write_compressed_parallel",
    ),
    "amr_analysis": ("AmrProfile", "amr_profitability"),
    "scheme": ("CompressedField", "CompressionStats", "WaveletCompressor"),
    "zerotree": ("zerotree",),
    "wavelet": (
        "PREDICT_GAIN", "detail_mask", "fwt1d_level", "fwt3d", "iwt1d_level",
        "iwt3d", "level_of_coefficient", "lift_batch", "max_levels",
    ),
})

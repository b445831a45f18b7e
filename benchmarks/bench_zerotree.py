"""Zerotree coding vs zlib deflate (paper Section 5's encoder discussion).

"The significant detail coefficients are further compressed by undergoing
a lossless encoding with an external coder, here the ZLIB library.
Alternatively efficient lossy encoders can also be used such as the
zerotree coding scheme and the SPIHT library."

The bench compares the two encoders on identical coefficient data (a real
collapse pressure field): payload size at equal error budget, and
encoding cost -- the trade-off the paper's sentence alludes to.  The
"zlib" row is the shipped coder: the decimated blocks through
:class:`~repro.compression.encoder.StreamEncoder` as one stream.
"""

import time

import numpy as np
import pytest
from _common import collapse_fields, write_result

from repro.compression import zerotree as zt
from repro.compression.decimation import decimate
from repro.compression.encoder import StreamEncoder
from repro.compression.wavelet import fwt3d, max_levels
from repro.perf.report import format_table


@pytest.fixture(scope="module")
def coefficient_blocks():
    p, gamma = collapse_fields(cells=32)
    blocks = []
    bs = 16
    levels = max_levels(bs)
    for field in (p / np.abs(p).max(), gamma):
        for bz in range(2):
            for by in range(2):
                for bx in range(2):
                    blk = field[
                        bz * bs:(bz + 1) * bs,
                        by * bs:(by + 1) * bs,
                        bx * bs:(bx + 1) * bs,
                    ].astype(np.float64)
                    blocks.append(fwt3d(blk, levels))
    return blocks, levels


def compare(blocks, levels, eps=1e-3):
    zt_bytes = zt_time = 0
    decimated = []
    t0 = time.perf_counter()
    for c in blocks:
        c2 = c.copy()
        decimate(c2, levels, eps, guaranteed=False)
        decimated.append(c2.astype(np.float32))
    payload, _ = StreamEncoder().encode(decimated, 1)
    zl_time = time.perf_counter() - t0
    zl_bytes = len(payload)
    for c in blocks:
        t0 = time.perf_counter()
        payload, _ = zt.encode(c, levels, t_stop=eps)
        zt_time += time.perf_counter() - t0
        zt_bytes += len(payload)
    raw = sum(c.size for c in blocks) * 4
    return {
        "zerotree": {"bytes": zt_bytes, "seconds": zt_time,
                     "rate": raw / zt_bytes},
        "zlib": {"bytes": zl_bytes, "seconds": zl_time,
                 "rate": raw / zl_bytes},
    }


def test_zerotree_vs_zlib(benchmark, coefficient_blocks):
    blocks, levels = coefficient_blocks
    result = benchmark.pedantic(
        compare, args=(blocks, levels), rounds=1, iterations=1
    )
    rows = [
        {"encoder": name, "payload [kB]": r["bytes"] / 1e3,
         "rate": r["rate"], "encode [ms]": r["seconds"] * 1e3}
        for name, r in result.items()
    ]
    text = format_table(
        rows,
        "Zerotree vs zlib at equal error budget (eps 1e-3, real collapse\n"
        "coefficients; the paper ships zlib for its speed, citing zerotree\n"
        "as the higher-ratio alternative)",
    )
    write_result("zerotree_vs_zlib", text)
    # Zerotree achieves at least comparable compression...
    assert result["zerotree"]["rate"] > 0.8 * result["zlib"]["rate"]
    # ...while zlib is the cheaper encoder (the paper's engineering pick).
    assert result["zlib"]["seconds"] < result["zerotree"]["seconds"]

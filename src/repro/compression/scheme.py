"""The complete wavelet compression pipeline (paper Section 5, Fig. 3).

Design features reproduced from the paper:

* data dumps of one scalar quantity at a time (p and Gamma in production);
* parallel granularity of one block: every block is FWT'd and decimated
  independently ("on the interval" wavelets make blocks independent
  datasets);
* per-thread buffers: blocks are assigned to threads in SFC order and each
  thread's detail coefficients are encoded as a single zlib stream -- the
  significance map of its slice and the survivors' byte planes, deflated
  together (:mod:`repro.compression.encoder`);
* in-place transform and decimation, and an encoder that reads the
  decimated buffer where it lies;
* full instrumentation of the DEC / ENC stage times, from which the
  Table 4 work-imbalance statistics are computed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..node.dispatcher import simulate_dynamic_schedule
from ..telemetry.clock import now
from ..node.sfc import morton_order
from . import zerotree
from .decimation import DecimationStats, decimate_batch, guaranteed_threshold
from .encoder import EncodeStats, StreamEncoder
from .wavelet import block_tiles, blocks_per_chunk, lift_batch, max_levels


@dataclass
class CompressionStats:
    """Aggregate outcome of compressing one field."""

    raw_bytes: int
    compressed_bytes: int
    #: per-block FWT+decimation times: the wall of the chunk of blocks
    #: transformed and decimated together, shared equally by its blocks
    dec_seconds: np.ndarray
    enc_stats: list[EncodeStats]
    decimation: list[DecimationStats]

    @property
    def rate(self) -> float:
        """Compression rate ``raw : 1`` (paper reports 10-150:1)."""
        return self.raw_bytes / self.compressed_bytes if self.compressed_bytes else 0.0

    def imbalance(self, num_threads: int) -> dict[str, float]:
        """Per-stage work imbalance ``(t_max - t_min)/t_avg`` (Table 4).

        DEC imbalance comes from dynamically scheduling the per-block
        times over ``num_threads``; ENC imbalance directly from the
        per-thread stream times.
        """
        dec = simulate_dynamic_schedule(self.dec_seconds, num_threads).imbalance
        enc_times = np.array([s.seconds for s in self.enc_stats])
        if enc_times.size and enc_times.mean() > 0:
            enc = float((enc_times.max() - enc_times.min()) / enc_times.mean())
        else:
            enc = 0.0
        return {"DEC": dec, "ENC": enc}


@dataclass
class CompressedField:
    """Self-describing compressed representation of one scalar field."""

    payload: bytes
    field_shape: tuple[int, int, int]
    block_size: int
    levels: int
    eps: float
    dtype: str
    stats: CompressionStats = field(repr=False, default=None)

    @property
    def nbytes(self) -> int:
        return len(self.payload)

    def metadata(self) -> dict:
        """JSON-serializable metadata (stored in the file header)."""
        return {
            "field_shape": list(self.field_shape),
            "block_size": self.block_size,
            "levels": self.levels,
            "eps": self.eps,
            "dtype": self.dtype,
        }

    @staticmethod
    def from_metadata(payload: bytes, meta: dict) -> "CompressedField":
        return CompressedField(
            payload=payload,
            field_shape=tuple(meta["field_shape"]),
            block_size=int(meta["block_size"]),
            levels=int(meta["levels"]),
            eps=float(meta["eps"]),
            dtype=meta["dtype"],
        )


class WaveletCompressor:
    """Block-parallel wavelet compressor for scalar fields.

    Parameters
    ----------
    eps:
        L-infinity error bound of the lossy decimation (paper: 1e-2 for
        pressure, 1e-3 for Gamma, relative to the fields' natural units).
    block_size:
        Compression block edge; ``None`` picks the largest power-of-two
        divisor of the field extents up to 32.
    num_threads:
        Number of per-thread encode streams.
    guaranteed:
        Apply the per-level threshold scaling that makes ``eps`` a strict
        L-infinity bound (see :mod:`repro.compression.decimation`).
    encoder_kind:
        Lossless/embedded entropy stage: ``"zlib"`` (the paper's shipped
        coder) or ``"zerotree"`` (the EZW alternative it cites --
        higher compression, slower).
    """

    def __init__(
        self,
        eps: float = 1e-3,
        block_size: int | None = None,
        num_threads: int = 4,
        guaranteed: bool = True,
        encoder_kind: str = "zlib",
    ):
        if encoder_kind not in ("zlib", "zerotree"):
            raise ValueError(f"unknown encoder {encoder_kind!r}")
        self.eps = float(eps)
        self.block_size = block_size
        self.num_threads = int(num_threads)
        self.encoder = StreamEncoder()
        self.guaranteed = guaranteed
        self.encoder_kind = encoder_kind

    # -- helpers -----------------------------------------------------------

    @staticmethod
    def _auto_block_size(shape: tuple[int, int, int]) -> int:
        for candidate in (32, 16, 8):
            if all(n % candidate == 0 for n in shape):
                return candidate
        raise ValueError(
            f"field shape {shape} has no power-of-two block divisor >= 8"
        )

    @staticmethod
    def _morton_tiles(fld: np.ndarray, bs: int) -> tuple[np.ndarray, tuple]:
        """``(tiles, order)``: the :func:`block_tiles` view of a
        C-contiguous field, and the block coordinates in Morton order (SFC
        assignment to threads) as an index into it: ``tiles[order]`` is
        the ``(B, bs, bs, bs)`` batch of all blocks."""
        tiles = block_tiles(fld, bs)
        idx = np.indices(tiles.shape[:3]).reshape(3, -1).T
        return tiles, tuple(idx[morton_order(idx)].T)

    # -- pipeline ------------------------------------------------------------

    def compress(self, fld: np.ndarray) -> CompressedField:
        """Compress one 3D scalar field."""
        if fld.ndim != 3:
            raise ValueError("expected a 3D scalar field")
        fld = np.ascontiguousarray(fld, dtype=np.float32)
        bs = self.block_size or self._auto_block_size(fld.shape)
        if any(n % bs for n in fld.shape):
            raise ValueError(f"field shape {fld.shape} not divisible by block {bs}")
        levels = max_levels(bs)

        # One buffer from here to the file: blocks gathered in Morton order,
        # transformed and decimated in place chunk by chunk, encoded where
        # they lie.
        tiles, order = self._morton_tiles(fld, bs)
        coeffs = tiles[order]
        dec_seconds = np.empty(len(coeffs))
        dec_stats: list[DecimationStats] = []
        step = blocks_per_chunk((bs, bs, bs))
        for start in range(0, len(coeffs), step):
            t0 = now()
            chunk = coeffs[start : start + step]
            lift_batch(chunk, levels)
            if self.encoder_kind == "zlib":
                dec_stats += decimate_batch(
                    chunk, levels, self.eps, guaranteed=self.guaranteed
                )
            dec_seconds[start : start + step] = (now() - t0) / len(chunk)

        if self.encoder_kind == "zerotree":
            payload, enc_stats = self._encode_zerotree(coeffs, levels)
        else:
            payload, enc_stats = self.encoder.encode(coeffs, self.num_threads)
        stats = CompressionStats(
            raw_bytes=fld.nbytes,
            compressed_bytes=len(payload),
            dec_seconds=dec_seconds,
            enc_stats=enc_stats,
            decimation=dec_stats,
        )
        return CompressedField(
            payload=payload,
            field_shape=fld.shape,
            block_size=bs,
            levels=levels,
            eps=self.eps,
            dtype="float32",
            stats=stats,
        )

    def _zerotree_t_stop(self, levels: int) -> float:
        """Embedded-coding stop threshold matching the eps contract."""
        if self.guaranteed:
            bs = self.block_size or 32
            return guaranteed_threshold(self.eps, (bs, bs, bs), levels)
        return self.eps

    def _encode_zerotree(self, blocks, levels):
        """Per-block EZW payloads, length-prefixed and concatenated."""
        import struct

        t_stop = self._zerotree_t_stop(levels)
        chunks = [struct.pack("<I", len(blocks))]
        stats: list[EncodeStats] = []
        for c in blocks:
            t0 = now()
            payload, zst = zerotree.encode(
                np.asarray(c, dtype=np.float64), levels, t_stop=t_stop
            )
            elapsed = now() - t0
            chunks.append(struct.pack("<I", len(payload)))
            chunks.append(payload)
            stats.append(
                EncodeStats(
                    raw_bytes=c.size * 4,
                    compressed_bytes=len(payload),
                    num_blocks=1,
                    seconds=elapsed,
                )
            )
        return b"".join(chunks), stats

    def _decode_zerotree(self, payload: bytes, levels: int) -> np.ndarray:
        import struct

        (count,) = struct.unpack_from("<I", payload, 0)
        offset = 4
        blocks = []
        for _ in range(count):
            (size,) = struct.unpack_from("<I", payload, offset)
            offset += 4
            blocks.append(
                zerotree.decode(payload[offset : offset + size], levels)
            )
            offset += size
        return np.stack(blocks)

    def decompress(self, cf: CompressedField) -> np.ndarray:
        """Exact inverse of the lossless stages (lossy error <= eps)."""
        bs = cf.block_size
        if self.encoder_kind == "zerotree":
            coeffs = self._decode_zerotree(cf.payload, cf.levels)
        else:
            coeffs = self.encoder.decode_batch(cf.payload, (bs, bs, bs))
        out = np.empty(cf.field_shape, dtype=np.dtype(cf.dtype))
        tiles, order = self._morton_tiles(out, bs)
        if len(coeffs) != len(order[0]):
            raise ValueError("payload block count does not match field shape")
        step = blocks_per_chunk((bs, bs, bs))
        for start in range(0, len(coeffs), step):
            lift_batch(coeffs[start : start + step], cf.levels, inverse=True)
        tiles[order] = coeffs
        return out

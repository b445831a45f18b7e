"""Lossless encoding of decimated wavelet coefficients.

"The significant detail coefficients are further compressed by undergoing
a lossless encoding with an external coder, here the ZLIB library.
Instead of encoding the detail coefficients of each block independently,
we concatenate them into small, per-thread buffers and we encode them as a
single stream.  The detail coefficients of adjacent blocks are expected to
assume similar ranges, leading to more efficient data compression."
(paper Section 5)

:class:`StreamEncoder` reproduces that design: blocks are assigned to
per-thread buffers in SFC order, each buffer is zlib-deflated as one
stream, and the per-rank payload is the concatenation of the thread
streams with a compact framing header.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from ..telemetry.clock import now

#: Framing magic for an encoded multi-stream payload.
_MAGIC = b"RPRW"
_HEADER = struct.Struct("<4sIII")  # magic, n_streams, block_elems, dtype code
_STREAM_HEADER = struct.Struct("<II")  # compressed size, n_blocks

_DTYPES = {0: np.float32, 1: np.float64}
_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}


@dataclass
class EncodeStats:
    """Per-stream encoding outcome (feeds the Table 4 imbalance metric)."""

    raw_bytes: int
    compressed_bytes: int
    num_blocks: int
    seconds: float = 0.0  #: wall time deflating this stream

    @property
    def rate(self) -> float:
        return self.raw_bytes / self.compressed_bytes if self.compressed_bytes else 0.0


class StreamEncoder:
    """Encodes equally-shaped coefficient blocks into per-thread streams."""

    def __init__(self, level: int = 6):
        #: zlib compression level (paper uses the ZLIB default).
        self.level = level

    def encode(
        self, blocks: list[np.ndarray] | np.ndarray, num_streams: int
    ) -> tuple[bytes, list[EncodeStats]]:
        """Concatenate blocks round-robin-contiguously into ``num_streams``
        buffers and deflate each as a single stream.

        ``blocks`` is a list of blocks sharing shape and dtype, or the
        same as one C-contiguous ``(B, ...)`` array, whose slices are
        deflated where they lie.  Returns the framed payload and
        per-stream stats.  Block order is preserved (stream ``s`` holds the
        contiguous slice of blocks assigned to thread ``s``), so adjacent
        blocks -- which the SFC made spatial neighbors -- share a stream.
        """
        if len(blocks) == 0:
            raise ValueError("no blocks to encode")
        if not isinstance(blocks, np.ndarray):
            first = blocks[0]
            if any(b.shape != first.shape or b.dtype != first.dtype
                   for b in blocks):
                raise ValueError("all blocks must share shape and dtype")
        batch = np.ascontiguousarray(blocks)
        if batch.dtype not in _DTYPE_CODES:
            raise TypeError(f"unsupported dtype {batch.dtype}")
        num_streams = max(1, min(num_streams, len(batch)))
        block_elems = math.prod(batch.shape[1:])

        # Contiguous partition: thread s gets blocks [bounds[s], bounds[s+1]).
        counts = np.full(num_streams, len(batch) // num_streams)
        counts[: len(batch) % num_streams] += 1
        bounds = np.concatenate([[0], np.cumsum(counts)])

        chunks = [_HEADER.pack(_MAGIC, num_streams, block_elems,
                               _DTYPE_CODES[batch.dtype])]
        stats: list[EncodeStats] = []
        for s in range(num_streams):
            part = batch[bounds[s] : bounds[s + 1]]
            t0 = now()
            comp = zlib.compress(part, self.level)
            elapsed = now() - t0
            chunks.append(_STREAM_HEADER.pack(len(comp), len(part)))
            chunks.append(comp)
            stats.append(
                EncodeStats(
                    raw_bytes=part.nbytes,
                    compressed_bytes=len(comp),
                    num_blocks=len(part),
                    seconds=elapsed,
                )
            )
        return b"".join(chunks), stats

    def decode_batch(
        self, payload: bytes, block_shape: tuple[int, ...]
    ) -> np.ndarray:
        """Inverse of :meth:`encode`: the blocks, in original order, as one
        writable ``(B,) + block_shape`` array.

        A payload that is cut short or corrupt raises ``ValueError`` naming
        the stream and the byte offset at which it stopped making sense.
        """
        view = memoryview(payload)
        if len(view) < _HEADER.size:
            raise ValueError(
                f"payload header cut short: {len(view)} of {_HEADER.size} bytes"
            )
        magic, n_streams, block_elems, dtype_code = _HEADER.unpack_from(view, 0)
        if magic != _MAGIC:
            raise ValueError("bad payload magic")
        if dtype_code not in _DTYPES:
            raise ValueError(f"unknown payload dtype code {dtype_code}")
        dtype = np.dtype(_DTYPES[dtype_code])
        if math.prod(block_shape) != block_elems:
            raise ValueError(
                f"block shape {block_shape} does not match payload "
                f"element count {block_elems}"
            )
        # Walk the framing first: the block count sizes the one array all
        # streams inflate into.
        streams = []  # (offset, compressed size, blocks)
        offset = _HEADER.size
        for s in range(n_streams):
            if len(view) < offset + _STREAM_HEADER.size:
                raise ValueError(
                    f"stream {s}: header cut short at byte {offset} of a "
                    f"{len(view)}-byte payload"
                )
            comp_size, n_blocks = _STREAM_HEADER.unpack_from(view, offset)
            offset += _STREAM_HEADER.size
            if len(view) < offset + comp_size:
                raise ValueError(
                    f"stream {s}: {comp_size} bytes expected at byte {offset}, "
                    f"{len(view) - offset} left"
                )
            streams.append((offset, comp_size, n_blocks))
            offset += comp_size
        block_shape = tuple(block_shape)
        out = np.empty((sum(n for _, _, n in streams),) + block_shape,
                       dtype=dtype)
        first = 0
        for s, (offset, comp_size, n_blocks) in enumerate(streams):
            expected = n_blocks * block_elems * dtype.itemsize
            try:
                raw = zlib.decompress(view[offset : offset + comp_size],
                                      bufsize=max(1, expected))
            except zlib.error as exc:
                raise ValueError(
                    f"stream {s}: inflate failed in the {comp_size} bytes at "
                    f"byte {offset}: {exc}"
                ) from exc
            if len(raw) != expected:
                raise ValueError(
                    f"stream {s} at byte {offset}: inflated to {len(raw)} "
                    f"bytes, {n_blocks} blocks need {expected}"
                )
            out[first : first + n_blocks] = np.frombuffer(
                raw, dtype=dtype
            ).reshape((n_blocks,) + block_shape)
            first += n_blocks
        return out

    def decode(self, payload: bytes, block_shape: tuple[int, ...]) -> list[np.ndarray]:
        """:meth:`decode_batch` as a list of blocks."""
        return list(self.decode_batch(payload, block_shape))

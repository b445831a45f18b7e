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

What a stream deflates is what decimation keeps: after it, most
coefficients are +0.0, so a stream holds a significance map -- one bit
per element in block order, set where the element's bit pattern is not
zero (so -0.0, NaN payloads, +-inf and the coarse corner are kept
exactly) -- followed by the significant elements as byte planes (plane
``k`` is byte ``k`` of every significant element, in memory order).
Both go through one run-length deflate (``Z_RLE``), which runs over the
map's zero bytes and the planes' repeated exponent bytes without a
match search::

    payload = "RPSP" | u32 n_streams | u32 block_elems | u32 dtype code
              | stream 0 | stream 1 | ...
    stream  = u32 deflated size | u32 n_blocks
              | deflate(packbits(map) | plane 0 | ... | plane itemsize-1)
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from ..telemetry.clock import now

#: Framing magic for an encoded multi-stream payload.
_MAGIC = b"RPSP"
#: The magic of the format this one replaced (each stream the raw
#: coefficients, deflated at level 6): read as a typed format error.
_OLD_MAGIC = b"RPRW"
_HEADER = struct.Struct("<4sIII")  # magic, n_streams, block_elems, dtype code
_STREAM_HEADER = struct.Struct("<II")  # compressed size, n_blocks
#: Deflate's largest expansion on inflate: a stream of ``comp_size`` bytes
#: inflates to at most this many times as many (a map of ``n`` elements is
#: ``n / 8`` of them, which bounds a stream's ``n`` before it is allocated).
_INFLATE_RATIO = 1032

_DTYPES = {0: np.float32, 1: np.float64}
_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}


@dataclass
class EncodeStats:
    """Per-stream encoding outcome (feeds the Table 4 imbalance metric)."""

    raw_bytes: int
    compressed_bytes: int
    num_blocks: int
    seconds: float = 0.0  #: wall time encoding this stream

    @property
    def rate(self) -> float:
        return self.raw_bytes / self.compressed_bytes if self.compressed_bytes else 0.0


def _bits(a: np.ndarray) -> np.ndarray:
    """The elements of a C-contiguous float array as one flat unsigned
    integer array of the same width (a view)."""
    return a.reshape(-1).view(f"u{a.dtype.itemsize}")


def _encode_stream(part: np.ndarray) -> bytes:
    """The deflated map and byte planes of one contiguous stream."""
    bits = _bits(part)
    significant = bits != 0
    survivors = bits[significant]
    planes = survivors.view(np.uint8).reshape(-1, bits.itemsize).T
    coder = zlib.compressobj(6, zlib.DEFLATED, 15, 8, zlib.Z_RLE)
    return (coder.compress(np.packbits(significant))
            + coder.compress(np.ascontiguousarray(planes)) + coder.flush())


def _decode_stream(data, n: int, itemsize: int, s: int,
                   offset: int) -> tuple[np.ndarray, np.ndarray]:
    """``(significance mask, survivors)`` of the deflated stream ``s`` at
    byte ``offset`` of its payload: ``n`` elements of ``itemsize`` bytes."""
    where = f"stream {s} at byte {offset}"
    map_size = -(-n // 8)
    most = map_size + n * itemsize
    inflater = zlib.decompressobj()
    try:
        # One byte past the most a stream of n elements holds: a longer
        # one stops there instead of inflating whatever it claims.
        raw = inflater.decompress(data, most + 1)
    except zlib.error as exc:
        raise ValueError(f"stream {s}: inflate failed in the {len(data)} "
                         f"bytes at byte {offset}: {exc}") from exc
    if len(raw) > most:
        raise ValueError(f"{where}: inflates past the {most} bytes "
                         f"{n} elements can hold")
    if not inflater.eof:
        raise ValueError(f"{where}: deflate stream cut short in its "
                         f"{len(data)} bytes")
    if inflater.unused_data:
        raise ValueError(f"{where}: {len(inflater.unused_data)} bytes "
                         f"after the end of its deflate stream")
    if len(raw) < map_size:
        raise ValueError(f"{where}: inflated to {len(raw)} bytes, the map "
                         f"of {n} elements needs {map_size}")
    packed = np.frombuffer(raw, np.uint8, map_size)
    if n % 8 and packed[-1] & (0xFF >> (n % 8)):
        raise ValueError(f"{where}: non-zero pad bits after the map's "
                         f"{n} elements")
    significant = np.unpackbits(packed, count=n).view(bool)
    count = int(np.count_nonzero(significant))
    if len(raw) != map_size + count * itemsize:
        raise ValueError(
            f"{where}: inflated to {len(raw)} bytes, a map of {n} elements "
            f"with {count} significant needs {map_size + count * itemsize}")
    planes = np.frombuffer(raw, np.uint8, offset=map_size).reshape(
        itemsize, count)
    return significant, np.ascontiguousarray(planes.T).view(
        f"u{itemsize}").reshape(count)


class StreamEncoder:
    """Encodes equally-shaped coefficient blocks into per-thread streams."""

    def encode(
        self, blocks: list[np.ndarray] | np.ndarray, num_streams: int
    ) -> tuple[bytes, list[EncodeStats]]:
        """Concatenate blocks round-robin-contiguously into ``num_streams``
        buffers and encode each as a single stream.

        ``blocks`` is a list of blocks sharing shape and dtype, or the
        same as one C-contiguous ``(B, ...)`` array, whose slices are
        encoded where they lie.  Returns the framed payload and
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
            comp = _encode_stream(part)
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
        the stream and the byte offset at which it stopped making sense; a
        payload of the replaced format raises
        :class:`~repro.container.FormatError`.
        """
        view = memoryview(payload)
        if len(view) < _HEADER.size:
            raise ValueError(
                f"payload header cut short: {len(view)} of {_HEADER.size} bytes"
            )
        magic, n_streams, block_elems, dtype_code = _HEADER.unpack_from(view, 0)
        if magic == _OLD_MAGIC:
            from ..container import FormatError

            raise FormatError(f"unsupported format: payload magic {magic!r} "
                              f"(raw deflated streams), not {_MAGIC!r}")
        if magic != _MAGIC:
            raise ValueError(f"bad payload magic {magic!r}")
        if dtype_code not in _DTYPES:
            raise ValueError(f"unknown payload dtype code {dtype_code}")
        dtype = np.dtype(_DTYPES[dtype_code])
        if math.prod(block_shape) != block_elems:
            raise ValueError(
                f"block shape {block_shape} does not match payload "
                f"element count {block_elems}"
            )
        # Walk the framing first: the block count sizes the one array all
        # streams are scattered into, and each stream's deflated size
        # bounds the count it may claim.
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
            if n_blocks * block_elems > 8 * _INFLATE_RATIO * comp_size:
                raise ValueError(
                    f"stream {s} at byte {offset}: {n_blocks} blocks of "
                    f"{block_elems} elements cannot come from {comp_size} "
                    f"deflated bytes"
                )
            streams.append((offset, comp_size, n_blocks))
            offset += comp_size
        if offset != len(view):
            raise ValueError(
                f"{len(view) - offset} bytes after the last of {n_streams} "
                f"streams at byte {offset}"
            )
        out = np.zeros((sum(n for _, _, n in streams),) + tuple(block_shape),
                       dtype=dtype)
        bits = _bits(out)
        first = 0
        for s, (offset, comp_size, n_blocks) in enumerate(streams):
            n = n_blocks * block_elems
            significant, survivors = _decode_stream(
                view[offset : offset + comp_size], n, dtype.itemsize, s,
                offset)
            bits[first : first + n][significant] = survivors
            first += n
        return out

    def decode(self, payload: bytes, block_shape: tuple[int, ...]) -> list[np.ndarray]:
        """:meth:`decode_batch` as a list of blocks."""
        return list(self.decode_batch(payload, block_shape))

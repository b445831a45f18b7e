"""Collective compressed-file I/O.

"MPI parallel file I/O is employed to generate a single compressed file
per quantity.  Since the size of the compressed data changes from rank to
rank, the I/O write collective operation is preceded by an exclusive
prefix sum.  After the scan, each rank acquires a destination offset and,
starting from that offset, writes its compressed buffer in the file."
(paper Section 6)

File format: a fixed-size JSON header (rank offsets, sizes and
per-rank compression metadata) followed by the concatenated rank payloads.
Each rank opens the shared file and writes at its own offset -- the same
collective-write algorithm as the paper's MPI-IO path, expressed with
POSIX positioned writes.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from ..telemetry.clock import now
from .scheme import CompressedField, WaveletCompressor

#: Fixed header size: JSON padded with spaces.  Large enough for hundreds
#: of ranks; the writer fails loudly if the index outgrows it.
HEADER_SIZE = 65536
_MAGIC = "repro-wavelet-dump-v1"


@dataclass
class WriteStats:
    """Per-rank outcome of a collective write (IO row of Table 4)."""

    offset: int
    nbytes: int
    seconds: float


def write_compressed_parallel(
    comm,
    path: str,
    quantity: str,
    cf: CompressedField,
    rank_meta: dict | None = None,
) -> WriteStats:
    """Collectively write one compressed quantity to a shared file.

    Every rank passes its own :class:`CompressedField`; offsets come from
    an exclusive prefix sum over the payload sizes (the paper's exscan).
    Rank 0 writes the header.  Returns this rank's :class:`WriteStats`.
    """
    size = len(cf.payload)
    offset = comm.exscan(size, op="sum") + HEADER_SIZE

    # Rank 0 assembles the index (offsets, sizes, metadata of every rank).
    metas = comm.gather({"offset": offset, "size": size, "meta": cf.metadata(),
                         "extra": rank_meta or {}}, root=0)
    if comm.rank == 0:
        header = {
            "magic": _MAGIC,
            "quantity": quantity,
            "ranks": metas,
        }
        blob = json.dumps(header).encode()
        if len(blob) > HEADER_SIZE:
            raise ValueError(
                f"header of {len(blob)} bytes exceeds HEADER_SIZE={HEADER_SIZE}"
            )
        with open(path, "wb") as f:
            f.write(blob.ljust(HEADER_SIZE))
    comm.barrier()  # header exists before anyone writes payloads

    t0 = now()
    with open(path, "r+b") as f:
        f.seek(offset)
        f.write(cf.payload)
    elapsed = now() - t0
    comm.barrier()  # file complete before anyone proceeds
    return WriteStats(offset=offset, nbytes=size, seconds=elapsed)


def read_header(path: str) -> dict:
    """Read and parse the fixed-size header of a dump file."""
    with open(path, "rb") as f:
        blob = f.read(HEADER_SIZE)
    if len(blob) < HEADER_SIZE:
        raise ValueError(
            f"{path}: header cut short, {len(blob)} of {HEADER_SIZE} bytes"
        )
    try:
        header = json.loads(blob.decode().rstrip())
    except ValueError as exc:  # bad UTF-8 or bad JSON
        raise ValueError(f"{path}: unreadable dump header: {exc}") from exc
    if not isinstance(header, dict) or header.get("magic") != _MAGIC:
        raise ValueError(f"{path} is not a repro wavelet dump")
    return header


def _read_ranks(path: str):
    """``(index entry, CompressedField)`` of every rank in a dump file."""
    header = read_header(path)
    with open(path, "rb") as f:
        for rank, entry in enumerate(header["ranks"]):
            f.seek(entry["offset"])
            payload = f.read(entry["size"])
            if len(payload) != entry["size"]:
                raise ValueError(
                    f"{path}: payload of rank {rank} cut short at byte "
                    f"{entry['offset'] + len(payload)}: {len(payload)} of "
                    f"{entry['size']} bytes"
                )
            yield entry, CompressedField.from_metadata(payload, entry["meta"])


def read_compressed(path: str) -> list[CompressedField]:
    """Read every rank's compressed field from a dump file.

    A file that is cut short raises ``ValueError`` naming the rank and the
    byte offset; so does decompressing a payload whose streams are.
    """
    return [cf for _, cf in _read_ranks(path)]


def read_field(path: str, compressor: WaveletCompressor | None = None) -> np.ndarray:
    """Reassemble the global field of a dump written by ranks laid out
    along the z axis slab-wise (the reader of single-rank dumps and of
    driver dumps, which record each rank's subdomain origin in ``extra``).
    """
    compressor = compressor or WaveletCompressor()
    pieces = []
    for rank, (entry, cf) in enumerate(_read_ranks(path)):
        origin = tuple(entry.get("extra", {}).get("origin_cells", (0, 0, 0)))
        try:
            pieces.append((origin, compressor.decompress(cf)))
        except ValueError as exc:
            raise ValueError(
                f"{path}: rank {rank} (payload at byte {entry['offset']}): {exc}"
            ) from exc
    if len(pieces) == 1:
        return pieces[0][1]
    # Stitch subdomains by cell origin.
    max_corner = [0, 0, 0]
    for origin, fld in pieces:
        for d in range(3):
            max_corner[d] = max(max_corner[d], origin[d] + fld.shape[d])
    out = np.zeros(tuple(max_corner), dtype=pieces[0][1].dtype)
    for origin, fld in pieces:
        sel = tuple(slice(o, o + s) for o, s in zip(origin, fld.shape))
        out[sel] = fld
    return out


def file_size(path: str) -> int:
    """Size of a dump file in bytes (header + payloads)."""
    return os.path.getsize(path)

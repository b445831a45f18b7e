"""Collective compressed-file I/O.

"MPI parallel file I/O is employed to generate a single compressed file
per quantity.  Since the size of the compressed data changes from rank to
rank, the I/O write collective operation is preceded by an exclusive
prefix sum.  After the scan, each rank acquires a destination offset and,
starting from that offset, writes its compressed buffer in the file."
(paper Section 6)

The file is one :mod:`repro.container` of kind ``dump``: the quantity
in its metadata, one section per rank holding that rank's compressed
payload, and the rank's compression metadata in the section's index
entry.  The container's collective writer is the paper's MPI-IO path,
expressed with POSIX positioned writes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from ..container import FormatError, read, write_collective
from ..telemetry.clock import now
from .scheme import CompressedField, WaveletCompressor


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
    injector=None,
    step: int | None = None,
) -> WriteStats:
    """Collectively write one compressed quantity to a shared file.

    Every rank passes its own :class:`CompressedField`; offsets come from
    an exclusive prefix sum over the payload sizes (the paper's exscan).
    ``injector`` and ``step`` address the ``io_fail`` chaos site; a failed
    write raises :class:`~repro.resilience.detect.WriteError` on every
    rank.  Returns this rank's :class:`WriteStats`.
    """
    t0 = now()
    offset = write_collective(
        comm, path, "dump", {"quantity": quantity}, cf.payload,
        {"meta": cf.metadata(), "extra": rank_meta or {}},
        injector=injector, step=step)
    return WriteStats(offset=offset, nbytes=len(cf.payload),
                      seconds=now() - t0)


def read_header(path: str) -> dict:
    """The index of a dump file: ``quantity`` and per-rank ``ranks``."""
    c = read(path, "dump")
    return {**c.meta, "ranks": c.sections}


def _read_ranks(path: str):
    """``(index entry, CompressedField)`` of every rank in a dump file."""
    c = read(path, "dump")
    for entry, payload in zip(c.sections, c.payloads):
        yield entry, CompressedField.from_metadata(bytes(payload),
                                                   entry["meta"])


def read_compressed(path: str) -> list[CompressedField]:
    """Read every rank's compressed field from a dump file (a damaged
    file raises the container's located ``CorruptionError``)."""
    return [cf for _, cf in _read_ranks(path)]


def read_field(path: str, compressor: WaveletCompressor | None = None) -> np.ndarray:
    """Reassemble the global field of a dump written by ranks laid out
    along the z axis slab-wise (the reader of single-rank dumps and of
    driver dumps, which record each rank's subdomain origin in ``extra``).

    A payload that does not decode raises ``ValueError`` -- a payload of
    a replaced format :class:`~repro.container.FormatError` -- naming the
    path, the rank and the payload's byte offset.
    """
    compressor = compressor or WaveletCompressor()
    pieces = []
    for rank, (entry, cf) in enumerate(_read_ranks(path)):
        origin = tuple(entry.get("extra", {}).get("origin_cells", (0, 0, 0)))
        try:
            pieces.append((origin, compressor.decompress(cf)))
        except ValueError as exc:
            error = FormatError if isinstance(exc, FormatError) else ValueError
            raise error(
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
    """Size of a dump file in bytes (framing + payloads)."""
    return os.path.getsize(path)

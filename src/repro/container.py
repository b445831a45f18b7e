"""The one on-disk container: dumps, checkpoints and result-cache entries.

Layout (little-endian)::

    prelude | section 0 | section 1 | ... | index

    prelude = "RPRC" | u16 version | u16 kind | u64 index offset
              | u64 index length | u32 index CRC32              (28 bytes)
    index   = JSON {"meta": {...}, "sections": [{"offset", "size",
              "crc32", ...}, ...]}

``kind`` is the position in :data:`KINDS`; section ``i`` is rank ``i``'s.
The index CRC covers the prelude fields before it and the index, which
goes last so it can be any size (docs/ARCHITECTURE.md, "On-disk
container").

A reader of a kind is pointed only at that kind's files, so bytes there
that are not a container are a damaged file of the kind: the kind's
corruption error at byte 0 -- "damaged magic" when the index CRC
verifies once ``MAGIC`` is put back (one fault in a real container),
"not a container" otherwise -- which recovery skips like any other
(the previous checkpoint, a quarantined cache entry).  Only what is
positively another format -- an older format's magic, another version
or kind -- is a :class:`FormatError`.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import struct
from typing import NamedTuple

from .resilience.detect import (
    CacheCorruptError,
    CheckpointCorruptError,
    CorruptionError,
    WriteError,
    crc32_bytes,
)

MAGIC = b"RPRC"
VERSION = 1
KINDS = ("dump", "checkpoint", "cache")
_HEAD = struct.Struct("<4sHHQQ")  #: magic, version, kind, index at, length
_CRC = struct.Struct("<I")
PRELUDE_SIZE = _HEAD.size + _CRC.size
#: The magic of the formats this one replaced: the JSON-header dumps and
#: checkpoints, and the RSC1 cache entries.
_OLD_MAGIC = re.compile(rb'(RSC1)|\{"magic": "(repro-[\w-]+)"')
#: kind -> the error a damaged file of that kind raises.
CORRUPT = {"dump": CorruptionError, "checkpoint": CheckpointCorruptError,
           "cache": CacheCorruptError}


class FormatError(ValueError):
    """A file of an older format, a later version or another kind:
    invalid input, not corruption."""


class Container(NamedTuple):
    """A verified container: its metadata, each section's index entry
    (``offset``, ``size``, ``crc32``, the writer's fields) and bytes."""

    meta: dict
    sections: list[dict]
    payloads: list[memoryview]


def _seal(kind: str, payload: bytes, injector, rank: int, step):
    """The ``size`` / ``crc32`` entry of ``payload`` and the bytes to
    write: ``ckpt_bitflip`` flips a checkpoint's or cache entry's after
    the CRC is sealed."""
    entry = {"size": len(payload), "crc32": crc32_bytes(payload)}
    if injector is not None and kind != "dump":
        payload = injector.corrupt_checkpoint_payload(rank, step, payload)
    return entry, payload


def _frame(kind: str, meta: dict, entries: list[dict]) -> list[tuple]:
    """``(offset, bytes)`` of the prelude and of the index."""
    end = entries[-1]["offset"] + entries[-1]["size"]
    index = json.dumps({"meta": meta, "sections": entries}).encode()
    head = _HEAD.pack(MAGIC, VERSION, KINDS.index(kind), end, len(index))
    return [(0, head + _CRC.pack(crc32_bytes(head + index))), (end, index)]


def write_atomic(path: str, *chunks: bytes) -> None:
    """Write ``chunks`` to ``path``: tmp, fsync, ``os.replace``."""
    tmp = path + ".tmp"
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(tmp, "wb") as f:
            f.writelines(chunks)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def write_file(path: str, kind: str, meta: dict, payload: bytes,
               injector=None) -> None:
    """Write a one-section container from a single writer."""
    entry, payload = _seal(kind, payload, injector, -1, -1)
    (_, prelude), (_, index) = _frame(kind, meta,
                                      [{"offset": PRELUDE_SIZE, **entry}])
    write_atomic(path, prelude, payload, index)


def write_collective(comm, path: str, kind: str, meta: dict, payload: bytes,
                     fields: dict | None = None, injector=None,
                     step: int | None = None) -> int:
    """Collectively write a container, a section per rank (offsets by
    exscan, ``meta`` and every rank's ``fields`` gathered to rank 0 as the
    index); returns this rank's offset.  A failure on any rank, the
    ``io_fail`` of ``injector`` included, raises :class:`WriteError` on all.
    """
    entry, payload = _seal(kind, payload, injector, comm.rank, step)
    offset = PRELUDE_SIZE + comm.exscan(len(payload), op="sum")
    entries = comm.gather({**(fields or {}), "offset": offset, **entry},
                          root=0)
    pieces = [(offset, payload)]
    if comm.rank == 0:
        pieces += _frame(kind, meta, entries)
    tmp, error = path + ".tmp", None
    try:
        if injector is not None and injector.io_fails(comm.rank, kind, step):
            from .resilience.inject import InjectedIOError

            raise InjectedIOError(f"injected {kind} write on rank {comm.rank}")
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        # No O_TRUNC: ranks open in any order; rank 0 sets the final size.
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            for at, data in pieces:
                if os.pwrite(fd, data, at) != len(data):
                    raise OSError(f"short write to {tmp} at byte {at}")
            if comm.rank == 0:
                os.ftruncate(fd, at + len(data))  # the index is last
            os.fsync(fd)
        finally:
            os.close(fd)
    except OSError as exc:
        error = exc
    failed = comm.allreduce(int(error is not None), op="sum")
    if failed:
        if comm.rank == 0:
            with contextlib.suppress(OSError):
                os.remove(tmp)
            if injector is not None:
                injector.detected("io_fail", failed)
        raise WriteError(f"{kind} write of {path} failed on {failed} "
                         f"rank(s); this rank: {error!r}")
    if comm.rank == 0:
        os.replace(tmp, path)
    comm.barrier()  # the file is in place before any rank returns
    return offset


def _index_verifies(blob: bytes) -> bool:
    """Whether the index the prelude of ``blob`` names ends the file and
    passes its CRC."""
    _, _, _, at, length = _HEAD.unpack_from(blob)
    (crc,) = _CRC.unpack_from(blob, _HEAD.size)
    return (PRELUDE_SIZE <= at and at + length == len(blob)
            and crc32_bytes(blob[:_HEAD.size] + blob[at:]) == crc)


def read(path: str, kind: str) -> Container:
    """Read ``path`` with one ``read`` and verify it as a ``kind`` file."""
    def fail(what: str, offset: int, section: int | None = None):
        where = "" if section is None else f"section {section} "
        return CORRUPT[kind](f"{path}: {where}{what} (byte {offset})",
                             path=path, section=section, offset=offset)

    with open(path, "rb") as f:
        blob = f.read()
    old = _OLD_MAGIC.match(blob)
    if old is not None:
        raise FormatError(f"{path}: unsupported format: magic "
                          f"{old[old.lastindex].decode()!r}")
    if len(blob) < PRELUDE_SIZE:
        raise fail(f"truncated: {len(blob)} bytes, no whole prelude",
                   len(blob))
    magic, version, code, at, length = _HEAD.unpack_from(blob)
    if magic != MAGIC:
        damaged = _index_verifies(MAGIC + blob[len(MAGIC):])
        what = "damaged magic" if damaged else "not a container: magic"
        raise fail(f"{what} {magic!r}", 0)
    if at < PRELUDE_SIZE or at + length != len(blob):
        raise fail(f"truncated or overwritten: {len(blob)} bytes, the index "
                   f"claims bytes {at}..{at + length}", len(blob))
    (crc,) = _CRC.unpack_from(blob, _HEAD.size)
    if crc32_bytes(blob[:_HEAD.size] + blob[at:]) != crc:
        raise fail("index failed CRC32", at)
    if (version, code) != (VERSION, KINDS.index(kind)):
        raise FormatError(f"{path}: unsupported format: version {version} "
                          f"kind {code}, not a version {VERSION} {kind}")
    try:
        doc = json.loads(blob[at:])
        meta, sections = doc["meta"], doc["sections"]
        spans = [(e["offset"], e["size"], e["crc32"]) for e in sections]
    except (ValueError, KeyError, TypeError) as exc:
        raise fail(f"unreadable index ({exc})", at) from exc
    view = memoryview(blob)
    payloads = [view[offset:offset + size] for offset, size, _ in spans]
    for i, (offset, size, crc) in enumerate(spans):
        if crc32_bytes(payloads[i]) != crc:
            raise fail(f"of {size} bytes failed CRC32", offset, i)
    return Container(meta, sections, payloads)

"""Lossless checkpoint/restart of simulation state.

Production runs of 10'000-100'000 steps (paper Section 1) cannot rely on
a single job allocation; CUBISM-MPCF-style campaigns stitch "simulation
units" across restarts (Section 7).  This module provides the collective
state serialization that makes that possible:

* every rank deflates its full AoS subdomain (all seven quantities,
  *losslessly* -- checkpoints must restart bit-exactly, unlike the lossy
  visualization dumps);
* offsets come from the same exclusive prefix sum as the dump writer;
* the reader stitches the global field, so a run may restart on a
  *different* rank count than it was written with.

A checkpoint is one :mod:`repro.container` of kind ``checkpoint``:
atomic, every rank-block and the index CRC-checked by the reader.  On
top of it this module adds:

* the **coverage** check: the rank blocks must tile the global box
  exactly (no gaps, no overlaps) -- the pre-resilience reader silently
  zero-filled gaps;
* generations named ``ckpt_000042.rck`` and rotated
  (:func:`prune_checkpoints` keeps the newest N), so a corrupted newest
  generation can fall back to the previous one.
"""

from __future__ import annotations

import os
import re
import zlib

import numpy as np

from ..container import read, write_collective
from ..physics.state import NQ, STORAGE_DTYPE
from ..resilience.detect import CheckpointCorruptError
from ..telemetry.clock import wall_now

#: Generation file naming: ``ckpt_000042.rck`` (6-digit step).
_CKPT_RE = re.compile(r"^ckpt_(\d{6})\.rck$")


def checkpoint_path(ckpt_dir: str, step: int) -> str:
    """Canonical path of the generation written at ``step`` (str)."""
    return os.path.join(ckpt_dir, f"ckpt_{step:06d}.rck")


def list_checkpoints(ckpt_dir: str) -> list[tuple[int, str]]:
    """All generations in ``ckpt_dir``, oldest first (list of (step, path)).

    Only canonical ``ckpt_NNNNNN.rck`` names are considered; temporaries
    and foreign files are ignored.
    """
    if not os.path.isdir(ckpt_dir):
        return []
    found = []
    for name in sorted(os.listdir(ckpt_dir)):
        m = _CKPT_RE.match(name)
        if m:
            found.append((int(m.group(1)), os.path.join(ckpt_dir, name)))
    found.sort()
    return found


def prune_checkpoints(ckpt_dir: str, keep: int) -> list[str]:
    """Delete all but the newest ``keep`` generations; returns paths removed.

    ``keep <= 0`` disables rotation (nothing is removed).
    """
    if keep <= 0:
        return []
    removed = []
    gens = list_checkpoints(ckpt_dir)
    for _step, path in gens[:-keep] if len(gens) > keep else []:
        try:
            os.remove(path)
            removed.append(path)
        except OSError:
            continue  # a vanished/busy generation is not worth failing over
    return removed


def write_checkpoint(comm, path: str, field: np.ndarray,
                     origin_cells: tuple[int, int, int],
                     t: float, step: int, injector=None) -> int:
    """Collectively write one checkpoint; returns this rank's byte count.

    ``field`` is the rank's AoS subdomain ``(nz, ny, nx, NQ)``, deflated
    into this rank's section.  ``injector``'s ``ckpt_bitflip`` and
    ``io_fail`` sites fire in the container's writer; a failed write
    raises :class:`~repro.resilience.detect.WriteError` on every rank.
    """
    if field.dtype != STORAGE_DTYPE:
        field = field.astype(STORAGE_DTYPE)
    payload = zlib.compress(np.ascontiguousarray(field).tobytes(), 1)
    write_collective(
        comm, path, "checkpoint",
        {"t": t, "step": step, "written_at": wall_now()}, payload,
        {"origin_cells": list(origin_cells), "shape": list(field.shape[:3])},
        injector=injector, step=step)
    if comm.rank == 0 and injector is not None:
        total = os.path.getsize(path)
        injector.count("ckpt_bytes_written", total)
        injector.set_counter("ckpt_generation_bytes", total)
    return len(payload)


def read_checkpoint_meta(path: str) -> dict:
    """Index of a checkpoint: ``t``, ``step``, per-rank layout ``ranks``.

    Raises :class:`~repro.resilience.detect.CheckpointCorruptError` (a
    ``ValueError``) on a damaged file.
    """
    c = read(path, "checkpoint")
    return {**c.meta, "ranks": c.sections}


def _validate_coverage(path: str, entries: list[dict],
                       max_corner: list[int]) -> None:
    """Rank blocks must tile the global box exactly (no gaps/overlaps)."""
    occupancy = np.zeros(tuple(max_corner), dtype=np.uint8)
    for e in entries:
        oz, oy, ox = e["origin_cells"]
        sz, sy, sx = e["shape"]
        if min(oz, oy, ox) < 0 or min(sz, sy, sx) < 1:
            raise CheckpointCorruptError(
                f"{path}: invalid rank-block geometry origin="
                f"{e['origin_cells']} shape={e['shape']}"
            )
        occupancy[oz:oz + sz, oy:oy + sy, ox:ox + sx] += 1
    if (occupancy > 1).any():
        cell = tuple(int(i) for i in np.argwhere(occupancy > 1)[0])
        raise CheckpointCorruptError(
            f"{path}: rank blocks overlap at cell {cell}"
        )
    if (occupancy == 0).any():
        cell = tuple(int(i) for i in np.argwhere(occupancy == 0)[0])
        raise CheckpointCorruptError(
            f"{path}: rank blocks leave a gap at cell {cell} -- refusing "
            f"to zero-fill"
        )


def read_checkpoint_field(path: str) -> tuple[np.ndarray, float, int]:
    """Stitch the global AoS field of a checkpoint.

    Returns ``(field, t, step)``.  Works regardless of how many ranks
    wrote the file.  The container verifies every rank-block's CRC32 and
    the blocks must tile the global box exactly; any violation raises a
    localized :class:`~repro.resilience.detect.CheckpointCorruptError`
    (never a silent zero-fill).
    """
    c = read(path, "checkpoint")
    entries = c.sections
    max_corner = [0, 0, 0]
    for e in entries:
        for d in range(3):
            max_corner[d] = max(max_corner[d], e["origin_cells"][d] + e["shape"][d])
    _validate_coverage(path, entries, max_corner)
    out = np.empty(tuple(max_corner) + (NQ,), dtype=STORAGE_DTYPE)
    for i, e in enumerate(entries):
        shape = tuple(e["shape"]) + (NQ,)
        try:
            sub = np.frombuffer(zlib.decompress(c.payloads[i]),
                                dtype=STORAGE_DTYPE).reshape(shape)
        except (zlib.error, ValueError) as exc:
            raise CheckpointCorruptError(
                f"{path}: rank block {i} does not inflate to shape {shape} "
                f"({exc})", path=path, section=i, offset=e["offset"]
            ) from exc
        oz, oy, ox = e["origin_cells"]
        out[oz : oz + shape[0], oy : oy + shape[1], ox : ox + shape[2]] = sub
    return out, float(c.meta["t"]), int(c.meta["step"])

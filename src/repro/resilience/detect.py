"""Corruption detection: CRC32 framing, header validation, SDC screens.

Silent data corruption is the fault class checkpointing alone cannot
handle -- a bit flip in a halo payload or a stored rank-block restarts
into a *plausible but wrong* field.  This module holds the detection
primitives the cluster layer applies at its trust boundaries:

* :func:`crc32_bytes` / :func:`crc32_array` -- the checksums stamped on
  halo messages, ring frames and container files;
* :class:`HaloFrame` -- the checksummed wire format of the halo
  exchange, verified on receive;
* :class:`CheckpointCorruptError` / :class:`CacheCorruptError` /
  :class:`HaloCorruptionError` -- localized corruption diagnoses (all
  :class:`ValueError` subclasses, matching the pre-resilience reader's
  error contract);
* :func:`screen_restored_state` -- the sanitizer-style SDC screen run
  over a restored checkpoint field before a rank resumes from it.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .. import native
from ..physics.state import GAMMA, NQ, RHO

#: Below this many bytes ``zlib.crc32`` is done before a call into the
#: compiled library would be (a ``ctypes`` call is ~1 us on the build
#: host); both give the same value.
NATIVE_MIN_BYTES = 4096


def crc32_bytes(data, value: int = 0) -> int:
    """CRC32 of the bytes of ``data`` -- bytes, a bytearray, a memoryview
    or an array, C-contiguous -- continued from ``value``, the CRC32 of
    what came before (int in [0, 2**32)): ``crc32_bytes(b,
    crc32_bytes(a)) == crc32_bytes(a + b)``, so a message is checked a
    piece at a time and never joined to be checked.

    ``zlib.crc32``'s value either way: computed by the compiled
    ``repro_crc32`` where this process has loaded the library (a checksum
    never builds it) and the buffer holds :data:`NATIVE_MIN_BYTES` or
    more, by ``zlib`` otherwise.  Raises ``BufferError`` for a buffer that
    is not C-contiguous.
    """
    lib = vars(native).get("lib")
    view = memoryview(data)
    if not view.c_contiguous:
        raise BufferError("crc32 of a buffer that is not C-contiguous")
    if lib is None or view.nbytes < NATIVE_MIN_BYTES:
        return zlib.crc32(view, value)
    # ctypes passes a bytes object as the address of its bytes
    at = data if type(data) is bytes else native.address(view)
    return lib.repro_crc32(value, at, view.nbytes)


def crc32_array(arr: np.ndarray, value: int = 0) -> int:
    """CRC32 over an array's bytes in C order, continued from ``value``
    (int in [0, 2**32)): ``crc32_bytes(arr.tobytes(), value)`` for any
    layout, read in place where ``arr`` is C-contiguous."""
    return crc32_bytes(np.ascontiguousarray(arr), value)


class CorruptionError(ValueError):
    """Detected data corruption (checksum, header or physics screen).

    A damaged file says where: its ``path``, the ``section`` (the writing
    rank's) and the byte ``offset`` -- each None where it does not apply.
    """

    def __init__(self, message: str = "", *, path: str | None = None,
                 section: int | None = None, offset: int | None = None):
        super().__init__(message)
        self.path, self.section, self.offset = path, section, offset


class HaloCorruptionError(CorruptionError):
    """A received halo payload failed its CRC32 check."""

    kind = "msg_corrupt"


class CheckpointCorruptError(CorruptionError):
    """A checkpoint failed magic/CRC/coverage/shape/SDC validation."""

    kind = "ckpt_corrupt"


class CacheCorruptError(CorruptionError):
    """A result-cache entry failed verification (reported after quarantine)."""

    kind = "cache_corrupt"


class WriteError(RuntimeError):
    """A collective dump or checkpoint write failed on at least one rank.

    Raised on *every* rank (the failure flag is allreduced) so the SPMD
    program stays collectively consistent; the temporary file is removed
    and nothing is left under the final name.
    """


@dataclass
class HaloFrame:
    """Checksummed halo message: CRC32 stamped at pack time.

    The CRC is computed over the payload *before* it enters the
    transport, so any in-transit flip (injected or real) is caught by
    :meth:`verify` on the receiving rank.
    """

    crc: int
    payload: np.ndarray

    @property
    def nbytes(self) -> int:
        """Payload bytes (int) -- keeps the communicator's traffic
        accounting identical to sending the bare array."""
        return self.payload.nbytes

    def verify(self, source: int, axis: int, side: int) -> np.ndarray:
        """Returns the payload after checking its CRC (ndarray).

        Raises :class:`HaloCorruptionError` naming the sending rank and
        face on mismatch.
        """
        actual = crc32_array(self.payload)
        if actual != self.crc:
            raise HaloCorruptionError(
                f"halo payload from rank {source} (axis {axis}, side "
                f"{side:+d}) failed CRC32: expected {self.crc:#010x}, "
                f"got {actual:#010x}"
            )
        return self.payload


def screen_restored_state(field: np.ndarray, where: str = "checkpoint") -> None:
    """SDC screen over a restored AoS field; raises on violations.

    A flipped bit that survives the payload CRC (e.g. corruption before
    the checksum was computed) lands here: the restored state must be
    finite everywhere with positive density and positive Gamma -- the
    same invariants :mod:`repro.analysis.sanitizer` enforces at runtime.
    Raises :class:`CheckpointCorruptError` localized to the first
    offending cell.
    """
    if field.ndim != 4 or field.shape[-1] != NQ:
        raise CheckpointCorruptError(
            f"{where}: restored field has shape {field.shape}, expected "
            f"(nz, ny, nx, {NQ})"
        )
    bad = ~np.isfinite(field)
    if bad.any():
        cell = tuple(int(i) for i in np.argwhere(bad)[0])
        raise CheckpointCorruptError(
            f"{where}: non-finite value at cell {cell[:3]} quantity "
            f"{cell[3]}"
        )
    for q, name, floor in ((RHO, "density", 0.0), (GAMMA, "Gamma", 0.0)):
        vals = field[..., q]
        if (vals <= floor).any():
            cell = tuple(int(i) for i in np.argwhere(vals <= floor)[0])
            raise CheckpointCorruptError(
                f"{where}: non-positive {name} at cell {cell} "
                f"(min {float(vals.min()):.6g})"
            )

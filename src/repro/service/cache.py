"""CRC-verified, content-addressed result cache.

One entry per canonical request key (see :mod:`repro.service.request`).
The on-disk record is fully self-verifying::

    MAGIC "RSC1" | u32 meta_len | u64 payload_len | u32 meta_crc
                 | u32 payload_crc | meta (JSON) | payload (pickle)

Reads validate magic, framing lengths against the file size (a truncated
write cannot parse) and both CRC32s before a single payload byte is
unpickled.  Any violation *quarantines* the entry -- it is atomically
renamed aside (``.quarantined``), counted, and reported as a miss so the
engine transparently recomputes; a corrupt entry is never served and
never poisons later lookups.

Writes are atomic (temp file + ``os.replace``) following the checkpoint
writer's discipline, so a crash mid-write leaves either the previous
generation or a sweepable ``.tmp``, never a half entry.
"""

from __future__ import annotations

import io
import os
import pickle
import struct
import threading
import zlib

from ..telemetry.log import get_logger

MAGIC = b"RSC1"
_HEADER = struct.Struct("<4sIQII")  #: magic, meta_len, payload_len, crcs


class CacheCorruptError(RuntimeError):
    """A cache entry failed verification (reported after quarantine)."""

    kind = "cache_corrupt"


def _crc(data: bytes) -> int:
    return zlib.crc32(data) & 0xFFFFFFFF


class ResultCache:
    """Content-addressed result store under one root directory.

    Thread-safe; entries are keyed by the canonical request hash.  An
    optional :class:`~repro.resilience.inject.FaultInjector` lets chaos
    plans flip bits in entries as they are written (``ckpt_bitflip``
    specs -- a cache entry is checkpoint-like payload), which the read
    path must then catch and quarantine.
    """

    def __init__(self, root: str, injector=None):
        self.root = root
        self.injector = injector
        os.makedirs(root, exist_ok=True)
        self._lock = threading.Lock()
        self.counters = {"hits": 0, "misses": 0, "writes": 0,
                         "quarantined": 0}
        self._log = get_logger("service.cache")

    def _count(self, name: str) -> None:
        with self._lock:
            self.counters[name] += 1

    def path(self, key: str) -> str:
        """The entry path of ``key`` (str; the file may not exist)."""
        return os.path.join(self.root, f"{key}.rsc")

    def __contains__(self, key: str) -> bool:
        return os.path.exists(self.path(key))

    def entries(self) -> int:
        """Count of (unquarantined) entries on disk (int)."""
        return sum(1 for n in os.listdir(self.root) if n.endswith(".rsc"))

    # -- write ------------------------------------------------------------

    def put(self, key: str, payload: dict, meta: dict | None = None) -> str:
        """Store ``payload`` (picklable mapping) under ``key``; returns path.

        ``meta`` is a small JSON-able mapping stored alongside (schema,
        attempts, wall seconds, ...) readable without unpickling.
        """
        meta_doc = {"schema": "repro.result_cache/v1", "key": key}
        meta_doc.update(meta or {})
        import json

        meta_bytes = json.dumps(meta_doc, sort_keys=True).encode()
        buf = io.BytesIO()
        pickle.dump(payload, buf, protocol=pickle.HIGHEST_PROTOCOL)
        payload_bytes = buf.getvalue()
        record = _HEADER.pack(MAGIC, len(meta_bytes), len(payload_bytes),
                              _crc(meta_bytes), _crc(payload_bytes))
        if self.injector is not None:
            # Chaos hook: a cache entry is checkpoint-like payload, so
            # plan-driven SDC (``ckpt_bitflip``) applies here too --
            # after the CRCs are sealed, like real bit rot between
            # compute and disk.
            payload_bytes = self.injector.corrupt_checkpoint_payload(
                -1, -1, payload_bytes
            )
        path = self.path(key)
        tmp = path + ".tmp"
        with open(tmp, "wb") as f:
            f.write(record)
            f.write(meta_bytes)
            f.write(payload_bytes)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
        self._count("writes")
        self._log.debug("cache_put", key=key[:16],
                        bytes=len(payload_bytes))
        return path

    # -- read -------------------------------------------------------------

    def _verify(self, path: str) -> tuple[dict, dict]:
        """Parse and fully verify one entry; returns (meta, payload).

        Raises :class:`CacheCorruptError` on any violation.
        """
        import json

        with open(path, "rb") as f:
            blob = f.read()
        if len(blob) < _HEADER.size:
            raise CacheCorruptError(f"{path}: truncated header "
                                    f"({len(blob)} bytes)")
        magic, meta_len, payload_len, meta_crc, payload_crc = \
            _HEADER.unpack_from(blob)
        if magic != MAGIC:
            raise CacheCorruptError(f"{path}: bad magic {magic!r}")
        end = _HEADER.size + meta_len + payload_len
        if len(blob) != end:
            raise CacheCorruptError(
                f"{path}: framing mismatch (file {len(blob)} bytes, "
                f"record claims {end})"
            )
        meta_bytes = blob[_HEADER.size:_HEADER.size + meta_len]
        payload_bytes = blob[_HEADER.size + meta_len:end]
        if _crc(meta_bytes) != meta_crc:
            raise CacheCorruptError(f"{path}: meta CRC mismatch")
        if _crc(payload_bytes) != payload_crc:
            raise CacheCorruptError(f"{path}: payload CRC mismatch")
        try:
            meta = json.loads(meta_bytes)
            payload = pickle.loads(payload_bytes)
        except Exception as exc:
            raise CacheCorruptError(f"{path}: undecodable body: "
                                    f"{exc!r}") from exc
        return meta, payload

    def quarantine(self, key: str, reason: str) -> str | None:
        """Move the entry of ``key`` aside; returns the new path (or None).

        The quarantined file keeps its bytes for post-mortems but can
        never match a lookup again.
        """
        path = self.path(key)
        qpath = path + ".quarantined"
        try:
            os.replace(path, qpath)
        except OSError:
            return None
        self._count("quarantined")
        self._log.warn("cache_quarantined", key=key[:16], reason=reason)
        return qpath

    def get(self, key: str) -> tuple[dict, dict] | None:
        """Verified lookup; returns ``(meta, payload)`` or ``None``.

        A corrupt or truncated entry is quarantined and reported as a
        miss -- the caller recomputes, and the recompute overwrites the
        (now absent) entry.
        """
        path = self.path(key)
        if not os.path.exists(path):
            self._count("misses")
            return None
        try:
            meta, payload = self._verify(path)
        except CacheCorruptError as exc:
            self.quarantine(key, reason=str(exc))
            self._count("misses")
            return None
        except OSError:
            self._count("misses")
            return None
        self._count("hits")
        return meta, payload

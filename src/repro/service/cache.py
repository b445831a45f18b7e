"""CRC-verified, content-addressed result cache.

One entry per canonical request key (see :mod:`repro.service.request`).
An entry is one :mod:`repro.container` of kind ``cache``: the entry's
metadata (schema, key, attempts, ...) in the index, the pickled result
as its one section.  Reads verify the framing and both CRCs before a
single payload byte is unpickled.  Any violation -- or a file of another
format -- *quarantines* the entry: it is atomically renamed aside
(``.quarantined``), counted, and reported as a miss so the engine
transparently recomputes; a corrupt entry is never served and never
poisons later lookups.  Writes are the container's atomic write.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import threading

from ..container import read, write_file
from ..resilience.detect import CacheCorruptError  # noqa: F401 -- re-exported
from ..telemetry.log import get_logger


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
        payload_bytes = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        path = self.path(key)
        write_file(path, "cache", meta_doc, payload_bytes,
                   injector=self.injector)
        self._count("writes")
        self._log.debug("cache_put", key=key[:16],
                        bytes=len(payload_bytes))
        return path

    # -- read -------------------------------------------------------------

    def get(self, key: str) -> tuple[dict, dict] | None:
        """Verified lookup; returns ``(meta, payload)`` or ``None``.

        A corrupt or truncated entry is quarantined -- moved aside to
        ``.quarantined``, its bytes kept for post-mortems -- and reported
        as a miss: the caller recomputes, and the recompute overwrites
        the (now absent) entry.
        """
        path = self.path(key)
        try:
            c = read(path, "cache")
            payload = pickle.loads(c.payloads[0])
        except OSError:
            self._count("misses")
            return None
        except Exception as exc:  # damaged, another format, undecodable
            self._log.warn("cache_quarantined", key=key[:16], reason=repr(exc))
            with contextlib.suppress(OSError):
                os.replace(path, path + ".quarantined")
                self._count("quarantined")
            self._count("misses")
            return None
        self._count("hits")
        return c.meta, payload

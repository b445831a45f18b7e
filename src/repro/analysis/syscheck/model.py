"""Resource vocabulary of the sys-check analysis.

One place answers "what is a resource, what releases it, what blocks":
the RS rules (:mod:`repro.analysis.syscheck.rules`) and the program
builder (:mod:`repro.analysis.syscheck.program`) consume these tables
instead of hard-coding call names, so proving a new resource type is a
table edit plus a fixture test (see ``docs/analysis.md``).
"""

from __future__ import annotations

#: Constructor bare-name -> resource kind.  The name is matched against
#: the called function's last path component (``shared_memory.
#: SharedMemory`` and a bare ``SharedMemory`` both match).
RESOURCE_CTORS: dict[str, str] = {
    "SharedMemory": "segment",
    "Process": "process",
    "Thread": "thread",
    "open": "file",
}

#: Method names that release a handle of each kind.
RELEASERS: dict[str, frozenset] = {
    "segment": frozenset({"close", "unlink"}),
    "process": frozenset({"join", "terminate", "kill"}),
    "thread": frozenset({"join"}),
    "file": frozenset({"close"}),
}

#: Kinds whose handle is an OS resource the moment the constructor
#: returns.  ``Process``/``Thread`` objects only pin OS state after
#: ``.start()`` -- RS001 tracks those lazily (post-start) and the bulk
#: loop check skips them.
EAGER_KINDS = frozenset({"segment", "file"})

#: Kinds released by ``with`` context exit.
WITH_RELEASED_KINDS = frozenset({"file"})

#: Attribute names that block the calling thread unconditionally.
#: ``join`` carries a string/path exclusion in the program builder
#: (``", ".join`` / ``os.path.join`` are not thread joins).
BLOCKING_ATTRS = frozenset({
    "join", "join_thread", "recv", "recv_bytes", "accept", "select",
})

#: Attribute names that block when the receiver is an event/condition;
#: waiting on the *held* lock itself (``with cv: cv.wait()``) releases
#: it and is exempt.
WAIT_ATTRS = frozenset({"wait", "wait_for"})

#: ``.get(...)`` blocks only on queue-like receivers (``get_nowait``
#: never does); the receiver text must end with one of these.
QUEUE_RECEIVER_SUFFIXES = ("q", "queue")

#: Bare/dotted call names that are blocking IO primitives.
BLOCKING_CALLS = frozenset({
    "open", "sleep", "time.sleep", "os.fsync", "os.replace", "os.rename",
    "select.select",
})

#: Attribute names that are file IO on pathlib handles.
BLOCKING_PATH_IO = frozenset({
    "write_text", "write_bytes", "read_text", "read_bytes",
})

#: ``with`` expressions whose source text contains one of these
#: substrings are treated as lock acquisitions (lockset heuristic
#: shared with :mod:`repro.analysis.concurrency.race`).
LOCKLIKE_HINTS = ("lock", "mutex", "_cv", "cond")

#: Method names too generic to resolve through the call graph by name
#: alone -- a call-site edge for one of these additionally needs the
#: receiver text to mention the defining module or class (so
#: ``self.cache.get`` resolves to ``ResultCache.get`` while
#: ``self._jobs.get`` -- a dict -- resolves to nothing).
GENERIC_NAMES = frozenset({
    "get", "put", "read", "write", "close", "join", "open", "send",
    "recv", "pop", "update", "append", "extend", "clear", "flush",
    "wait", "start", "stop", "run", "copy", "add", "remove", "acquire",
    "release", "submit", "result", "info", "warn", "error", "debug",
    "fire", "next", "items", "keys", "values", "format", "drain",
    "key", "snapshot",
})

#: Path patterns (``repro.analysis.program.path_matches`` syntax) the RS
#: rules apply to by default: the multi-process layers.  Files outside
#: the scope still feed the whole-program call graph (cross-file
#: blocking-bearing resolution) but never produce findings.
SYS_SCOPE = (
    "cluster/",
    "service/",
    "resilience/",
    "telemetry/flight.py",
)

#: Modules that persist campaign state and must write atomically
#: (tmp + fsync + ``os.replace``); the RS006 scope.
DURABLE_WRITER_PATHS = (
    "repro/container.py",
    "cluster/checkpoint.py",
    "service/cache.py",
    "perfcheck/manifest.py",
    "validation/baselines.py",
)

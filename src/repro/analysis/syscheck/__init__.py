"""sys-check: resource-lifecycle analysis (RS rules).

Static side: RS001, RS003 and RS006 abstractly interpret the
multi-process layers (``cluster/procs.py``, ``cluster/mpi_sim.py``, the
service layer, resilience, the flight recorder) and prove
acquire/release discipline, lock/blocking separation and atomic durable
writes.  Dynamic side: :class:`ResourceLedger`, the leak sanitizer the
test suite wraps around every cluster/service/chaos test -- it catches
the leaked segments, threads and children at run time.

Entry points: ``analyze`` / ``check_sources`` for the static pass,
``python -m repro.analysis --sys`` on the CLI.
"""

from ..._exports import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "ledger": ("DEFAULT_KINDS", "LeakError", "ResourceLedger"),
    "model": (
        "DURABLE_WRITER_PATHS", "RELEASERS", "RESOURCE_CTORS", "SYS_SCOPE",
    ),
    "program": ("SysProgram",),
    "rules": ("analyze", "check_sources"),
})

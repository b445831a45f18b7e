"""sys-check: resource-lifecycle & process-safety analysis (RS rules).

The fourth analysis family.  Static side: RS001-RS007 abstractly
interpret the multi-process layers (``cluster/procs.py``,
``cluster/mpi_sim.py``, the service layer, resilience, the flight
recorder) and prove acquire/release discipline, shared-memory
ownership, lock/blocking separation, spawn safety, thread joins,
atomic durable writes and SIGKILL-window hygiene.  Dynamic side:
:class:`ResourceLedger`, the leak sanitizer the test suite wraps
around every cluster/service/chaos test.

Entry points mirror comm-check: ``analyze`` / ``check_sources`` for
the static pass, ``python -m repro.analysis --sys`` on the CLI.
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

"""Concurrency analysis of the cluster layer: comm-check + race detection.

Two cooperating passes over the same failure domain:

* :mod:`~repro.analysis.concurrency.commcheck` **statically** verifies
  the MPI protocol structure -- halo send/recv symmetry, uniform
  collective ordering, endpoint tag/dtype consistency (rules
  CC001..CC004);
* :mod:`~repro.analysis.concurrency.race` **dynamically** checks the
  thread-based runtime's shared state with a vector-clock
  happens-before tracker plus lockset fallback (CC101), and records
  watchdog-diagnosed deadlocks (CC102).

Both report plain :class:`~repro.analysis.report.Violation` records in
one :class:`~repro.analysis.report.Report`, shown by
``python -m repro.analysis --concurrency`` and on the run scorecard.
"""

from ..._exports import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "commcheck": (
        "CommProgram",
        "CommSite",
        "build_program",
        "check_sources",
    ),
    "race": (
        "DEADLOCK_RULE",
        "POLICIES",
        "RACE_RULE",
        "ConcurrencyViolationError",
        "ConcurrencyWarning",
        "RaceTracker",
        "make_tracker",
    ),
})

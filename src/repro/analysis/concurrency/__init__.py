"""Dynamic concurrency checking of the thread-based cluster runtime.

:mod:`~repro.analysis.concurrency.race` checks the runtime's shared
state with a vector-clock happens-before tracker plus lockset fallback
(CC101), and records watchdog-diagnosed deadlocks (CC102), as plain
:class:`~repro.analysis.report.Violation` records in one
:class:`~repro.analysis.report.Report`, shown on the run scorecard
(``--concurrency-check`` on ``python -m repro.cli run``).
"""

from ..._exports import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
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

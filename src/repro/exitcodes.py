"""The failure taxonomy: one classifier, one table, documented exit codes.

Every recovering caller -- the in-process supervised run, campaigns, the
job service -- and every supervisor of a ``repro`` process (CI jobs,
shell scripts, batch schedulers) classifies a failure the same way:
:func:`classify` maps an exception to a *kind* of :data:`TAXONOMY`,
whose row says whether another attempt may succeed, which exit code the
CLI returns, and which injected fault kind a recovery from it credits.
A failure type names its kind in a ``kind`` class attribute (a
:class:`JobFailedError` carries it per instance); any other
``ValueError`` is ``invalid``, anything else ``error``.  A recovering
caller that spends its attempts raises one :class:`JobFailedError` of
kind ``exhausted``.

=====  ==================  ==========================================
code   name                meaning
=====  ==================  ==========================================
0      ok                  success
1      failure             generic / unclassified failure
2      usage               command-line usage error (argparse)
64     invalid             invalid configuration or request
65     data-corrupt        data failed verification (checkpoint,
                           cache entry, message in flight)
66     deadlock            communication deadlock (watchdog report)
67     rank-lost           a rank process/thread died mid-run
68     exhausted           recovery / retry attempts exhausted
69     poisoned            config quarantined by the circuit breaker
70     numerics            numerics sanitizer violation
75     overload            request shed by admission control
=====  ==================  ==========================================

Codes 64-75 deliberately avoid 126+ (shell/signal range) and stay
stable: scripts may hard-code them.
"""

from __future__ import annotations

from typing import NamedTuple

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_INVALID = 64
EXIT_DATA_CORRUPT = 65
EXIT_DEADLOCK = 66
EXIT_RANK_LOST = 67
EXIT_EXHAUSTED = 68
EXIT_POISONED = 69
EXIT_NUMERICS = 70
EXIT_OVERLOAD = 75

#: code -> stable name (the CLI prints ``error[<name>] ...``).
NAMES = {
    EXIT_OK: "ok",
    EXIT_FAILURE: "failure",
    EXIT_USAGE: "usage",
    EXIT_INVALID: "invalid",
    EXIT_DATA_CORRUPT: "data-corrupt",
    EXIT_DEADLOCK: "deadlock",
    EXIT_RANK_LOST: "rank-lost",
    EXIT_EXHAUSTED: "exhausted",
    EXIT_POISONED: "poisoned",
    EXIT_NUMERICS: "numerics",
    EXIT_OVERLOAD: "overload",
}


class Kind(NamedTuple):
    """One row of the taxonomy."""

    exit: int
    #: another attempt of the same run may succeed
    retryable: bool
    #: the injected fault kind (``repro.resilience.plan.KINDS``) a
    #: recovery from this failure credits in the fault ledger
    credits: str | None = None


#: kind -> row.  Row order is specificity: a failed SPMD world is
#: classified by its most specific primary failure.
TAXONOMY = {
    "rank_crash": Kind(EXIT_RANK_LOST, True, "rank_crash"),
    "worker_lost": Kind(EXIT_RANK_LOST, True),
    "msg_corrupt": Kind(EXIT_DATA_CORRUPT, True, "msg_corrupt"),
    "ckpt_corrupt": Kind(EXIT_DATA_CORRUPT, True, "ckpt_bitflip"),
    "cache_corrupt": Kind(EXIT_DATA_CORRUPT, True),
    "numerics": Kind(EXIT_NUMERICS, False),
    "invalid": Kind(EXIT_INVALID, False),
    "deadlock": Kind(EXIT_DEADLOCK, True, "msg_drop"),
    "comm_timeout": Kind(EXIT_FAILURE, True, "msg_drop"),
    #: the job service's wall-clock and heartbeat kills
    "timeout": Kind(EXIT_FAILURE, True),
    "worker_hung": Kind(EXIT_FAILURE, True),
    "exhausted": Kind(EXIT_EXHAUSTED, False),
    "poisoned": Kind(EXIT_POISONED, False),
    "shed": Kind(EXIT_OVERLOAD, True),
    "cancelled": Kind(EXIT_FAILURE, False),
    "error": Kind(EXIT_FAILURE, True),
}

#: kind -> exit code.
KIND_EXIT = {kind: row.exit for kind, row in TAXONOMY.items()}


class JobFailedError(RuntimeError):
    """A job or run reached a terminal failure; ``kind`` names the
    taxonomy row, ``attempts`` the attempts it made."""

    def __init__(self, kind: str, cause: str = "", attempts: int = 0):
        self.kind = kind
        self.cause = cause
        self.attempts = attempts
        msg = f"job failed [{kind}] after {attempts} attempt(s)"
        if cause:
            msg += f": {cause}"
        super().__init__(msg)

    @classmethod
    def exhausted(cls, kind: str, cause: str,
                  attempts: int) -> "JobFailedError":
        """The retry budget is spent; the last failure was of ``kind``."""
        return cls("exhausted",
                   f"retry budget spent; last failure [{kind}] {cause}",
                   attempts)


_ORDER = {kind: i for i, kind in enumerate(TAXONOMY)}


def _kind(exc: BaseException) -> str:
    kind = getattr(exc, "kind", None)
    if kind in TAXONOMY:
        return kind
    return "invalid" if isinstance(exc, ValueError) else "error"


def classify(exc: BaseException) -> tuple[str, bool]:
    """Map an exception to ``(kind, retryable)``.

    A :class:`~repro.cluster.mpi_sim.WorldError` is unwrapped once, to
    its most specific primary failure.
    """
    from .cluster.mpi_sim import WorldError

    if isinstance(exc, WorldError):
        failures = (exc.primary_failures or exc.failures).values()
        kind = min(map(_kind, failures), key=_ORDER.__getitem__,
                   default="error")
    else:
        kind = _kind(exc)
    return kind, TAXONOMY[kind].retryable

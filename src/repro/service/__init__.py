"""repro.service: fault-tolerant simulation-as-a-service.

An async job engine over a supervised pool of worker processes, with a
CRC-verified content-addressed result cache, bounded retry with
decorrelated-jitter backoff, per-job timeouts, heartbeat liveness, a
circuit breaker for poison configs, and admission control that degrades
gracefully under overload.  See ``docs/service.md``.
"""

from .._exports import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "cache": ("CacheCorruptError", "ResultCache"),
    "engine": (
        "JobCancelledError", "JobEngine", "JobFailedError", "JobHandle",
        "JobResult", "JobShedError", "ServiceClosedError", "ServiceConfig",
    ),
    "health": ("format_service_scorecard", "health_snapshot"),
    "queue": ("AdmissionQueue",),
    "request": ("ICSpec", "JobRequest", "RequestError", "canonical_key"),
    "retry": ("BackoffPolicy", "CircuitBreaker", "PoisonedConfigError"),
})

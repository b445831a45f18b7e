"""Service health snapshots and the operator scorecard.

:func:`health_snapshot` is the machine-readable view (stable JSON-able
schema ``repro.service_health/v1``) that ``repro serve --health-out``
persists and CI uploads as an artifact; :func:`format_service_scorecard`
is the human view printed at the end of a batch -- retries, cache hits,
shed counts, breaker state, per-worker throughput.
"""

from __future__ import annotations

import numpy as np

from ..perf.report import format_table
from .engine import STAGES

SCHEMA = "repro.service_health/v1"


def health_snapshot(engine) -> dict:
    """One self-describing health snapshot of a :class:`JobEngine` (dict)."""
    with engine._lock:
        # Ended jobs are a tally (the engine keeps open jobs only).
        jobs_by_status = dict(engine._ended)
        for job in engine._jobs.values():
            jobs_by_status[job.status] = \
                jobs_by_status.get(job.status, 0) + 1
        stage_log = list(engine._stage_log)
        waiting_retry = len(engine._waiting)
        open_jobs = engine._open_jobs
    running = sum(1 for w in engine.pool.workers.values()
                  if w.busy_seq is not None)
    counters = dict(engine.counters)
    counters["worker_restarts"] = engine.pool.restarts
    return {
        "schema": SCHEMA,
        "state": engine.state,
        "workers": engine.pool.snapshot(),
        "queue": {
            "ready": engine.queue.ready_count(),
            "parked": engine.queue.parked_count(),
            "waiting_retry": waiting_retry,
            "running": running,
            "open_jobs": open_jobs,
            "parked_total": engine.queue.parked_total,
            "shed_total": engine.queue.shed_total,
        },
        "jobs": {"by_status": jobs_by_status},
        # Where a computed request's time went: ms per stage over the
        # last ``jobs`` (<= 256) of them; see ``JobResult.stages``.
        "latency": {"jobs": len(stage_log),
                    **_stage_percentiles(stage_log)},
        "counters": counters,
        "failures_by_kind": dict(engine.failures_by_kind),
        "breaker": {
            "threshold": engine.breaker.threshold,
            "open_keys": engine.breaker.open_keys(),
        },
        "cache": {
            "root": engine.cache.root,
            "entries": engine.cache.entries(),
            **engine.cache.counters,
        },
        "faults": dict(engine.injector.counters),
    }


def _stage_percentiles(stage_log: list) -> dict:
    """``{stage: {"p50", "p90"}}`` in ms; empty without a computed job."""
    if not stage_log:
        return {}
    out = {}
    for name in STAGES:
        p50, p90 = np.percentile([s[name] for s in stage_log], [50, 90])
        out[name] = {"p50": float(p50), "p90": float(p90)}
    return out


def format_service_scorecard(snapshot: dict) -> str:
    """Render a health snapshot as the operator scorecard (str)."""
    c = snapshot["counters"]
    cache = snapshot["cache"]
    rows = [
        {"metric": "submitted", "value": c.get("submitted", 0)},
        {"metric": "computed", "value": c.get("computed", 0)},
        {"metric": "cache hits", "value": c.get("cache_hits", 0)},
        {"metric": "dedup joined", "value": c.get("dedup_joined", 0)},
        {"metric": "retries", "value": c.get("retries", 0)},
        {"metric": "shed", "value": c.get("shed", 0)},
        {"metric": "poisoned", "value": c.get("poisoned", 0)},
        {"metric": "timeouts", "value": c.get("timeouts", 0)},
        {"metric": "kills delivered", "value": c.get("kills_delivered", 0)},
        {"metric": "worker restarts", "value": c.get("worker_restarts", 0)},
        {"metric": "cache entries", "value": cache.get("entries", 0)},
        {"metric": "cache quarantined", "value": cache.get("quarantined", 0)},
    ]
    lines = [format_table(rows, title="service scorecard")]
    by_status = snapshot["jobs"]["by_status"]
    if by_status:
        lines.append(format_table(
            [{"status": k, "jobs": v}
             for k, v in sorted(by_status.items())],
            title="jobs by status",
        ))
    latency = snapshot.get("latency") or {}
    if latency.get("jobs"):
        lines.append(format_table(
            [{"jobs": latency["jobs"],
              **{name: "{p50:.2f} | {p90:.2f}".format(**latency[name])
                 for name in STAGES}}],
            title="computed request, ms per stage (p50 | p90)",
        ))
    by_kind = snapshot.get("failures_by_kind") or {}
    if by_kind:
        lines.append(format_table(
            [{"kind": k, "attempt failures": v}
             for k, v in sorted(by_kind.items())],
            title="attempt failures by kind",
        ))
    open_keys = snapshot["breaker"]["open_keys"]
    if open_keys:
        lines.append("open circuits: "
                     + ", ".join(k[:16] for k in open_keys))
    return "\n\n".join(lines)

"""Resilience scorecard: faults injected/detected/recovered, overhead.

Extends the paper-style run scorecard (:mod:`repro.telemetry.scorecard`)
with the durability section a long campaign needs reviewed after every
chaos run: per-kind fault accounting (did every injected fault get
detected?  recovered?), the recovery ledger (rollbacks, attempts,
wall-clock overhead) and the checkpoint cost model (generations kept,
write amplification).
"""

from __future__ import annotations

from ..perf.report import format_table
from .plan import KINDS
from .recover import ResilientRunResult

#: Acceptance bound: recovery overhead must stay below this fraction of
#: total campaign wall time for the chaos smoke to pass.
MAX_RECOVERY_OVERHEAD = 0.20


def fault_accounting(rres: ResilientRunResult) -> list[dict]:
    """Per-kind injected/detected/recovered rows (list[dict]).

    A kind is ``ok`` when every injected fault was both detected and
    recovered; kinds never injected are omitted.  Detection can exceed
    injection (a corrupt generation may be re-inspected by later
    rollbacks), so the check is ``detected >= injected``.
    """
    c = rres.counters
    rows = []
    for kind in KINDS:
        injected = c.get(f"injected_{kind}", 0)
        if not injected:
            continue
        detected = c.get(f"detected_{kind}", 0)
        recovered = c.get(f"recovered_{kind}", 0)
        ok = detected >= injected and recovered >= injected
        rows.append({
            "fault": kind,
            "injected": int(injected),
            "detected": int(detected),
            "recovered": int(recovered),
            "status": "ok" if ok else "MISSED",
        })
    return rows


def checkpoint_write_amplification(rres: ResilientRunResult) -> float:
    """Physical checkpoint bytes over one retained generation (float).

    ``ckpt_bytes_written`` counts every byte that hit storage (headers,
    failed/abandoned temporaries, superseded generations, rewrites after
    rollback); ``ckpt_generation_bytes`` is the size of the newest
    successful generation.  The ratio is the write amplification of the
    durability scheme; 0.0 when no checkpoint was ever written.
    """
    c = rres.counters
    gen = c.get("ckpt_generation_bytes", 0)
    if not gen:
        return 0.0
    return c.get("ckpt_bytes_written", 0) / gen


def resilience_scorecard_rows(rres: ResilientRunResult) -> list[dict]:
    """All scorecard rows of one supervised run (list[dict]).

    Fault-accounting rows first, then summary rows (attempts, rollbacks,
    skipped dumps, recovery overhead vs the acceptance bound, checkpoint
    write amplification), whose counts go in a ``count`` column of their
    own, not under ``injected``; render with
    :func:`repro.perf.report.format_table`.
    """
    c = rres.counters
    rows = fault_accounting(rres)
    rows.append({
        "fault": "attempts",
        "count": rres.attempts,
        "status": f"{int(c.get('rollbacks', 0))} rollback(s)",
    })
    for counter, name, status in (
        ("comm_retries", "comm retries", "backoff"),
        ("dumps_skipped", "dumps skipped", "degraded"),
        ("checkpoints_failed", "ckpt writes failed", "degraded"),
    ):
        if c.get(counter):
            rows.append({"fault": name, "count": int(c[counter]),
                         "status": status})
    overhead = rres.recovery_overhead
    rows.append({
        "fault": "recovery overhead",
        "share [%]": 100.0 * overhead,
        "status": (f"<= {100 * MAX_RECOVERY_OVERHEAD:.0f}% ok"
                   if overhead <= MAX_RECOVERY_OVERHEAD
                   else f"EXCEEDS {100 * MAX_RECOVERY_OVERHEAD:.0f}% bound"),
    })
    amp = checkpoint_write_amplification(rres)
    if amp:
        # checkpoint_keep=0 prunes nothing: every generation is kept
        kept = (f"{int(c.get('ckpt_generations_kept', 0))} gen kept"
                if rres.result.config.checkpoint_keep else "all kept")
        rows.append({
            "fault": "ckpt write amplification",
            "ratio": amp,
            "status": kept,
        })
    return rows


def format_resilience_scorecard(rres: ResilientRunResult) -> str:
    """Human-readable resilience scorecard of one supervised run (str)."""
    title = ("Resilience scorecard (faults, recovery, checkpoint "
             "durability)")
    body = format_table(resilience_scorecard_rows(rres), title,
                        floatfmt="{:.4g}")
    if rres.events:
        lines = [body, "", "recovery ledger:"]
        for ev in rres.events:
            where = (f"rolled back to step {ev.checkpoint_step}"
                     if ev.action == "rollback" else "restarted")
            lines.append(f"  attempt {ev.attempt}: {ev.kind} -> {where} "
                         f"({ev.wall_seconds_lost:.2f} s lost)")
        return "\n".join(lines)
    return body


def all_faults_recovered(rres: ResilientRunResult) -> bool:
    """Whether every injected fault was detected and recovered (bool)."""
    return all(r["status"] == "ok" for r in fault_accounting(rres))

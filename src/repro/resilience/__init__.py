"""Fault injection, corruption detection and automatic recovery.

The durability layer of the reproduction (see ``docs/resilience.md``):

* :class:`FaultPlan` / :class:`FaultSpec` -- declarative, seeded,
  step/rank-addressable chaos specs (JSON round-trippable for
  ``repro.cli --fault-plan``);
* :class:`FaultInjector` -- arms a plan at the cluster-layer injection
  sites and doubles as the thread-safe resilience monitor;
* :mod:`repro.resilience.detect` -- CRC32 halo framing, checkpoint
  validation errors and the SDC screen on restored state;
* :class:`ResilientSimulation` -- the supervised driver loop: retry
  with bounded jittered backoff, degrade failed writes to counted
  skips, roll back to the newest verified checkpoint generation and
  relaunch (optionally on a shrunk rank count);
* :func:`format_resilience_scorecard` -- the chaos-run scorecard
  (faults injected/detected/recovered, recovery overhead, checkpoint
  write amplification).
"""

from .._exports import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "detect": (
        "CheckpointCorruptError", "CheckpointWriteError", "CorruptionError",
        "HaloCorruptionError", "HaloFrame", "crc32_array", "crc32_bytes",
        "screen_restored_state",
    ),
    "inject": (
        "DROPPED", "FaultInjector", "InjectedFault", "InjectedIOError",
        "InjectedRankCrash", "KillNotDeliveredError", "TransientCommError",
    ),
    "plan": ("KINDS", "FaultPlan", "FaultSpec"),
    "recover": (
        "RecoveryEvent", "ResilienceExhaustedError", "ResilientRunResult",
        "ResilientSimulation", "RetryPolicy",
        "find_latest_verified_checkpoint", "prune_stale_tmp",
        "retry_transient", "verify_checkpoint",
    ),
    "report": (
        "MAX_RECOVERY_OVERHEAD", "all_faults_recovered",
        "checkpoint_write_amplification", "fault_accounting",
        "format_resilience_scorecard", "resilience_scorecard_rows",
    ),
})

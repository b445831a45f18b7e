"""Fault injection, corruption detection and automatic recovery.

The durability layer of the reproduction (see ``docs/resilience.md``):

* :class:`FaultPlan` / :class:`FaultSpec` -- declarative, seeded,
  step/rank-addressable chaos specs (JSON round-trippable for
  ``repro.cli --fault-plan``);
* :class:`FaultInjector` -- arms a plan at the cluster-layer injection
  sites and doubles as the thread-safe resilience monitor;
* :mod:`repro.resilience.detect` -- CRC32 halo framing, checkpoint
  validation errors and the SDC screen on restored state;
* :class:`ResilientSimulation` -- the attempt loop run in-process:
  classify a failure, decide on another attempt, resume it from the
  newest verified checkpoint generation the run wrote;
* :func:`format_resilience_scorecard` -- the chaos-run scorecard
  (faults injected/detected/recovered, recovery overhead, checkpoint
  write amplification).
"""

from .._exports import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "detect": (
        "CacheCorruptError", "CheckpointCorruptError", "CorruptionError",
        "HaloCorruptionError", "HaloFrame", "WriteError", "crc32_array",
        "crc32_bytes", "screen_restored_state",
    ),
    "inject": (
        "DROPPED", "FaultInjector", "InjectedFault", "InjectedIOError",
        "InjectedRankCrash", "TransientCommError",
    ),
    "plan": ("KINDS", "FaultPlan", "FaultSpec"),
    "recover": (
        "RecoveryEvent", "ResilientRunResult", "ResilientSimulation",
        "checkpoint_generations", "find_latest_verified_checkpoint",
        "prune_stale_tmp", "resume",
    ),
    "report": (
        "MAX_RECOVERY_OVERHEAD", "all_faults_recovered",
        "checkpoint_write_amplification", "fault_accounting",
        "format_resilience_scorecard", "resilience_scorecard_rows",
    ),
})

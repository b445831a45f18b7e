"""Recovery: one attempt loop -- run, classify, decide, resume.

Every caller that fails and comes back does it the same way:

1. **Classify** (:func:`repro.exitcodes.classify`): the failure becomes
   a kind of the one taxonomy, which says whether it is retryable.
2. **Decide** (:class:`repro.service.retry.BackoffPolicy`): another
   attempt if the kind is retryable and the attempt budget allows, after
   the policy's delay.
3. **Resume** (:func:`resume`): the next attempt restarts from the
   newest *verified* checkpoint generation its own lineage wrote -- else
   from the run's own ``restart_from``, else from scratch -- under a
   clone of the lineage's fault injector, re-seeded from attempt 2 on.
   Verified means: magic ok, every rank-block CRC ok, blocks tile the
   global box exactly, SDC screen clean -- a generation failing any
   check falls back to the previous one.

:class:`ResilientSimulation` is that loop run in-process; an inline
:class:`~repro.sim.campaign.Campaign` runs each segment through it, and
the job service's supervisor calls the same decide and resume steps per
job.  Because the solver is deterministic, a recovered run is
*bit-exact*: it ends in the identical field an unfaulted run produces
(asserted by the chaos tests).
"""

from __future__ import annotations

import contextlib
import os
import time
from dataclasses import dataclass, field

from ..exitcodes import TAXONOMY, JobFailedError, classify
from ..service.retry import BackoffPolicy
from ..telemetry.clock import wall_now
from .detect import CheckpointCorruptError
from .inject import FaultInjector
from .plan import FaultPlan

# NOTE: repro.cluster imports happen inside functions: the cluster layer
# imports repro.resilience.detect at module scope, so a module-level
# import here would be circular during package initialization.


def _generation(path: str) -> tuple:
    """A generation's identity: its path, and the inode and mtime of the
    file there -- one rewritten under the same name is a new one."""
    st = os.stat(path)
    return path, st.st_ino, st.st_mtime_ns


def checkpoint_generations(ckpt_dir: str | None) -> frozenset:
    """The generations in ``ckpt_dir`` now (frozenset; empty for None)."""
    if ckpt_dir is None:
        return frozenset()
    from ..cluster.checkpoint import list_checkpoints

    found = set()
    for _, path in list_checkpoints(ckpt_dir):
        with contextlib.suppress(OSError):
            found.add(_generation(path))
    return frozenset(found)


def find_latest_verified_checkpoint(
    ckpt_dir: str, injector: FaultInjector, before: frozenset = frozenset(),
) -> tuple[int, str] | None:
    """Newest generation in ``ckpt_dir`` that passes full verification
    and is not one of ``before`` (:func:`checkpoint_generations`).

    Verification is the reader's magic/CRC/coverage/shape checks plus
    the SDC screen on the restored state.  Returns ``(step, path)`` or
    ``None`` when no generation survives.  Rejected generations are
    counted on the injector (``detected_ckpt_bitflip`` /
    ``checkpoints_rejected``) -- corrupted generations *fall back* to
    the previous one rather than aborting.
    """
    from ..cluster.checkpoint import list_checkpoints, read_checkpoint_field
    from .detect import screen_restored_state

    for step, path in reversed(list_checkpoints(ckpt_dir)):
        try:
            if _generation(path) in before:
                continue
            screen_restored_state(read_checkpoint_field(path)[0], where=path)
        except (CheckpointCorruptError, OSError, EOFError):
            # Falling back to the previous generation IS the recovery
            # from a corrupt checkpoint.
            injector.detected("ckpt_bitflip")
            injector.recovered("ckpt_bitflip")
            injector.count("checkpoints_rejected")
            injector.set_counter("last_rejected_step", step)
            continue
        return step, path
    return None


def resume(injector: FaultInjector, attempt: int,
           restart_from: str | None = None, ckpt_dir: str | None = None,
           before: frozenset = frozenset()
           ) -> tuple[str | None, int | None, FaultInjector]:
    """Where attempt ``attempt`` (1-based) of a lineage starts, and the
    fault injector it runs under.

    The restart point of a retry is the newest verified generation the
    lineage wrote into ``ckpt_dir`` (None: it writes none) -- never one
    of ``before``, the generations there before its first attempt --
    else ``restart_from``, else scratch (None).  The injector is a clone
    of the lineage's (consumed hits stay consumed), re-seeded from
    attempt 2 on so a probabilistic fault consumed by luck does not
    refire by the same luck.  Returns ``(restart path, its step or None,
    injector)``.
    """
    clone = injector.child_clone()
    if attempt > 1:
        clone.reseed(attempt)
        if ckpt_dir is not None:
            found = find_latest_verified_checkpoint(ckpt_dir, injector,
                                                    before)
            if found is not None:
                return found[1], found[0], clone
    return restart_from, None, clone


@dataclass
class RecoveryEvent:
    """One supervised recovery: a failed attempt and where the next
    one resumed."""

    attempt: int              #: 1-based failed attempt number
    kind: str                 #: taxonomy kind (repro.exitcodes.TAXONOMY)
    cause: str                #: repr of the failure
    checkpoint_step: int | None  #: generation resumed from (None = start)
    wall_seconds_lost: float  #: wall time of the failed attempt

    @property
    def action(self) -> str:
        """``"rollback"`` to a generation, or ``"restart"``."""
        return "restart" if self.checkpoint_step is None else "rollback"


@dataclass
class ResilientRunResult:
    """Outcome of a supervised campaign: final result + recovery ledger."""

    result: object            #: the successful RunResult
    attempts: int             #: total attempts (1 = no recovery needed)
    events: list[RecoveryEvent] = field(default_factory=list)
    injector: FaultInjector | None = None
    total_wall_seconds: float = 0.0
    final_wall_seconds: float = 0.0

    @property
    def recovery_overhead(self) -> float:
        """Wall-clock fraction spent on failed attempts (float in [0, 1))."""
        if self.total_wall_seconds <= 0.0:
            return 0.0
        lost = self.total_wall_seconds - self.final_wall_seconds
        return max(0.0, lost / self.total_wall_seconds)

    @property
    def counters(self) -> dict[str, float]:
        """The injector's resilience counters (dict; empty if no injector)."""
        return dict(self.injector.counters) if self.injector else {}


class ResilientSimulation:
    """The attempt loop, run in-process over
    :class:`repro.cluster.driver.Simulation`.

    A failed attempt is classified and credited in the fault ledger
    (``detected_<fault>`` / ``recovered_<fault>`` for the fault kind its
    taxonomy row credits).  A retryable one is retried, resumed as
    :func:`resume` says, until ``config.max_recoveries`` recoveries are
    spent (:class:`~repro.exitcodes.JobFailedError` of kind
    ``exhausted``, raised from the last failure); any other failure -- a
    numerics violation, an invalid configuration -- would simply recur
    and propagates at once.  An in-process relaunch has no pool of
    workers to spread its retries over: it waits for nothing.
    ``attempts`` counts the attempts made so far and ``events`` the
    recoveries made (:class:`RecoveryEvent`), an exhausted run's too.
    """

    def __init__(self, config, ic_fn, restart_from: str | None = None,
                 injector: FaultInjector | None = None):
        self.config = config
        self.ic_fn = ic_fn
        self.restart_from = restart_from
        plan = config.fault_plan if isinstance(config.fault_plan, FaultPlan) \
            else None
        self.injector = injector or FaultInjector(plan)
        self.attempts = 0
        self.events: list[RecoveryEvent] = []

    def run(self) -> ResilientRunResult:
        """Execute the run to completion; returns the ledger.

        Returns a :class:`ResilientRunResult` whose ``result`` is the
        final successful ``RunResult``.
        """
        from ..cluster.driver import Simulation

        cfg, lineage = self.config, self.injector
        policy = BackoffPolicy(max_attempts=cfg.max_recoveries + 1,
                               base_delay=0.0, max_delay=0.0)
        delays = policy.delays(lineage.plan.seed)
        ckpt_dir = cfg.checkpoint_dir if cfg.checkpoint_interval > 0 else None
        before = checkpoint_generations(ckpt_dir)
        self.events = []
        failed = None  #: (kind, cause, seconds lost) of the last attempt
        self.attempts = 0
        t_run = wall_now()
        while True:
            self.attempts += 1
            restart, step, inj = resume(lineage, self.attempts,
                                        self.restart_from, ckpt_dir, before)
            if failed is not None:
                kind, cause, lost = failed
                self.events.append(RecoveryEvent(self.attempts - 1, kind,
                                                 cause, step, lost))
                if TAXONOMY[kind].credits:
                    lineage.recovered(TAXONOMY[kind].credits)
                lineage.count("rollbacks")
            t_attempt = wall_now()
            try:
                result = Simulation(cfg, self.ic_fn, restart_from=restart,
                                    injector=inj).run()
            except Exception as exc:
                kind, retryable = classify(exc)
                if TAXONOMY[kind].credits:
                    lineage.detected(TAXONOMY[kind].credits)
                delay = policy.decide(self.attempts, retryable, delays)
                if delay is None:
                    if retryable:
                        raise JobFailedError.exhausted(
                            kind, repr(exc), self.attempts) from exc
                    raise
                failed = (kind, repr(exc), wall_now() - t_attempt)
                time.sleep(delay)
                continue
            finally:
                lineage.merge_child(inj.counters, inj.hit_state())
            lineage.set_counter("recovery_attempts", self.attempts - 1)
            return ResilientRunResult(
                result=result,
                attempts=self.attempts,
                events=self.events,
                injector=lineage,
                total_wall_seconds=wall_now() - t_run,
                final_wall_seconds=wall_now() - t_attempt,
            )


def prune_stale_tmp(ckpt_dir: str) -> int:
    """Remove abandoned ``*.tmp`` checkpoint files; returns count removed.

    A crash between the temporary write and the atomic rename leaves a
    ``.tmp`` behind; it is never a valid generation, so the supervisor
    (or an operator) can sweep it safely.
    """
    removed = 0
    if not os.path.isdir(ckpt_dir):
        return 0
    for name in os.listdir(ckpt_dir):
        if name.endswith(".tmp"):
            try:
                os.remove(os.path.join(ckpt_dir, name))
                removed += 1
            except OSError as exc:
                import warnings

                warnings.warn(f"could not remove {name}: {exc}", stacklevel=2)
    return removed

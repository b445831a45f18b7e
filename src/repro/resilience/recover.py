"""Recovery: bounded retries, checkpoint rollback, supervised relaunch.

Three recovery tiers, matched to the fault taxonomy:

1. **Retry with backoff** (:func:`retry_transient`): transient
   point-to-point failures are retried in place with bounded, jittered
   exponential backoff -- the cheapest tier, invisible above the halo
   exchange.
2. **Degrade** (driver-level): a failed collective dump or checkpoint
   write becomes a counted skip; the campaign keeps computing.
3. **Rollback and relaunch** (:class:`ResilientSimulation`): anything
   that kills the SPMD world -- rank loss, corrupted halo payload, recv
   timeout -- rolls the campaign back to the newest *verified*
   checkpoint generation and relaunches, optionally on a shrunk rank
   count (graceful degradation).  Verified means: magic ok, every
   rank-block CRC ok, blocks tile the global box exactly, SDC screen
   clean -- a generation failing any check falls back to the previous
   one.

Because the solver is deterministic, a rollback recovery is *bit-exact*:
the recovered campaign ends in the identical field an unfaulted run
produces (asserted by the chaos tests).
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field, replace

from ..telemetry.clock import wall_now
from .detect import CheckpointCorruptError
from .inject import FaultInjector, InjectedRankCrash, TransientCommError
from .plan import FaultPlan

# NOTE: repro.cluster imports happen inside functions: the cluster layer
# imports repro.resilience.detect at module scope, so a module-level
# import here would be circular during package initialization.


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded, jittered exponential backoff for transient comm faults.

    ``max_attempts`` bounds total tries (the final failure re-raises);
    sleep before retry ``k`` is ``base_delay * factor**k``, capped at
    ``max_delay``, times a seeded jitter in ``[1, 1 + jitter]`` --
    deterministic per policy instance, desynchronized across sites via
    ``seed``.
    """

    max_attempts: int = 3
    base_delay: float = 0.01
    factor: float = 2.0
    max_delay: float = 0.5
    jitter: float = 0.5
    seed: int = 2013

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")


def retry_transient(fn, policy: RetryPolicy, on_retry=None):
    """Call ``fn`` under ``policy``; returns its result.

    Retries only :class:`TransientCommError` (anything else propagates
    immediately); re-raises the last transient error once the attempt
    bound is exhausted.  ``on_retry(attempt, exc)`` is called before
    each backoff sleep.  The jitter generator is seeded on the first
    retry: a call that succeeds at once builds none.
    """
    import time

    rng = None
    delay = policy.base_delay
    for attempt in range(policy.max_attempts):
        try:
            return fn()
        except TransientCommError as exc:
            if attempt == policy.max_attempts - 1:
                raise
            if on_retry is not None:
                on_retry(attempt, exc)
            if rng is None:
                rng = random.Random(policy.seed)
            time.sleep(min(policy.max_delay, delay) *
                       (1.0 + policy.jitter * rng.random()))
            delay *= policy.factor


def verify_checkpoint(path: str):
    """Fully validate one checkpoint generation.

    Returns ``(field, t, step)`` -- the stitched global field -- after
    magic/CRC/coverage/shape validation (the reader's checks) plus the
    SDC screen on the restored state.  Raises
    :class:`~repro.resilience.detect.CheckpointCorruptError` (or
    ``OSError`` for unreadable files) otherwise.
    """
    from ..cluster.checkpoint import read_checkpoint_field
    from .detect import screen_restored_state

    field_, t, step = read_checkpoint_field(path)
    screen_restored_state(field_, where=path)
    return field_, t, step


def find_latest_verified_checkpoint(
    ckpt_dir: str, injector: FaultInjector | None = None
) -> tuple[int, str] | None:
    """Newest generation in ``ckpt_dir`` that passes full verification.

    Returns ``(step, path)`` or ``None`` when no generation survives.
    Rejected generations are counted on the injector
    (``detected_ckpt_bitflip`` / ``checkpoints_rejected``) -- corrupted
    generations *fall back* to the previous one rather than aborting.
    """
    from ..cluster.checkpoint import list_checkpoints

    for step, path in reversed(list_checkpoints(ckpt_dir)):
        try:
            verify_checkpoint(path)
        except (CheckpointCorruptError, OSError, EOFError) as exc:
            if injector is not None:
                # Falling back to the previous generation IS the
                # recovery from a corrupt checkpoint.
                injector.detected("ckpt_bitflip")
                injector.recovered("ckpt_bitflip")
                injector.count("checkpoints_rejected")
                injector.set_counter("last_rejected_step", step)
            else:
                import warnings

                warnings.warn(f"skipping corrupt checkpoint {path}: {exc}",
                              stacklevel=2)
            continue
        return step, path
    return None


@dataclass
class RecoveryEvent:
    """One supervised recovery action (rollback / shrink / restart)."""

    attempt: int              #: 1-based failed attempt number
    kind: str                 #: classified fault kind (taxonomy or "unknown")
    cause: str                #: repr of the primary failure
    action: str               #: "rollback" | "restart_scratch"
    checkpoint_step: int | None  #: generation resumed from (None = scratch)
    ranks: int                #: rank count of the relaunch
    wall_seconds_lost: float  #: wall time of the failed attempt


class ResilienceExhaustedError(RuntimeError):
    """The supervised driver ran out of recovery attempts."""

    def __init__(self, events: list[RecoveryEvent], last: BaseException):
        self.events = events
        self.last_failure = last
        super().__init__(
            f"recovery exhausted after {len(events)} attempt(s); "
            f"last failure: {last!r}"
        )


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


def _classify_failure(exc: BaseException, plan: FaultPlan) -> tuple[str, BaseException]:
    """Map a world failure to a taxonomy kind; returns (kind, primary)."""
    from ..cluster.mpi_sim import CommTimeoutError, WorldError

    primary = exc
    if isinstance(exc, WorldError):
        prim = exc.primary_failures or exc.failures
        primary = next(iter(prim.values()))
        for e in prim.values():  # the most specific cause wins
            if isinstance(e, InjectedRankCrash):
                return "rank_crash", e
        # Real process loss on the procs backend (e.g. an injected
        # SIGKILL): the rank is gone, same recovery path as a crash.
        from ..cluster.procs import RankLostError

        for e in prim.values():
            if isinstance(e, RankLostError):
                return "rank_crash", e
        from .detect import HaloCorruptionError

        for e in prim.values():
            if isinstance(e, HaloCorruptionError):
                return "msg_corrupt", e
        for e in prim.values():
            if isinstance(e, CommTimeoutError):
                kind = "msg_drop" if "msg_drop" in plan.kinds() else "timeout"
                return kind, e
    if isinstance(primary, CheckpointCorruptError):
        return "ckpt_bitflip", primary
    return "unknown", primary


class ResilientSimulation:
    """Supervised driver loop: run, and on world failure roll back.

    Wraps :class:`repro.cluster.driver.Simulation`.  On a
    :class:`~repro.cluster.mpi_sim.WorldError` the supervisor

    1. classifies and counts the failure (``detected_<kind>``),
    2. locates the newest *verified* checkpoint generation in
       ``config.checkpoint_dir`` (corrupt generations fall back),
    3. relaunches from it -- optionally on a shrunk, still-feasible rank
       count when ``config.recovery_shrink`` is set and the failure was
       a rank loss,
    4. gives up with :class:`ResilienceExhaustedError` after
       ``config.max_recoveries`` recoveries.

    Numerics violations (a deterministic divergence would simply recur)
    propagate immediately.
    """

    def __init__(self, config, ic_fn, restart_from: str | None = None,
                 injector: FaultInjector | None = None):
        self.config = config
        self.ic_fn = ic_fn
        self.restart_from = restart_from
        plan = config.fault_plan if isinstance(config.fault_plan, FaultPlan) \
            else None
        self.injector = injector or FaultInjector(plan)

    def _shrunk_ranks(self, current: int) -> int:
        """Largest feasible rank count below ``current`` (int >= 1)."""
        from ..cluster.topology import feasible_rank_counts

        feasible = [
            n for n in feasible_rank_counts(self.config.global_blocks, current)
            if n < current
        ]
        return feasible[-1] if feasible else current

    def run(self) -> ResilientRunResult:
        """Execute the campaign to completion; returns the ledger.

        Returns a :class:`ResilientRunResult` whose ``result`` is the
        final successful ``RunResult``.
        """
        from ..cluster.driver import Simulation
        from ..cluster.mpi_sim import WorldError

        inj = self.injector
        events: list[RecoveryEvent] = []
        restart = self.restart_from
        ranks = self.config.ranks
        attempt = 0
        t_campaign = wall_now()
        while True:
            attempt += 1
            cfg = replace(self.config, ranks=ranks) \
                if ranks != self.config.ranks else self.config
            sim = Simulation(cfg, self.ic_fn, restart_from=restart,
                             injector=inj)
            t_attempt = wall_now()
            try:
                result = sim.run()
                total = wall_now() - t_campaign
                final = wall_now() - t_attempt
                inj.set_counter("recovery_attempts", attempt - 1)
                return ResilientRunResult(
                    result=result,
                    attempts=attempt,
                    events=events,
                    injector=inj,
                    total_wall_seconds=total,
                    final_wall_seconds=final,
                )
            except WorldError as we:
                lost = wall_now() - t_attempt
                kind, primary = _classify_failure(we, inj.plan)
                inj.detected(kind)
                if len(events) >= self.config.max_recoveries:
                    raise ResilienceExhaustedError(events, we) from we

                found = find_latest_verified_checkpoint(
                    cfg.checkpoint_dir, injector=inj
                )
                if found is None:
                    restart, ckpt_step, action = None, None, "restart_scratch"
                else:
                    ckpt_step, restart = found
                    action = "rollback"
                if (self.config.recovery_shrink and kind == "rank_crash"
                        and ranks > 1):
                    ranks = self._shrunk_ranks(ranks)
                events.append(RecoveryEvent(
                    attempt=attempt,
                    kind=kind,
                    cause=repr(primary),
                    action=action,
                    checkpoint_step=ckpt_step,
                    ranks=ranks,
                    wall_seconds_lost=lost,
                ))
                inj.recovered(kind)
                inj.count("rollbacks")


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

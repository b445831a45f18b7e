"""Multi-segment production campaigns over checkpoints.

A production collapse run needs 10'000-100'000 steps (paper Section 1) --
far beyond one job allocation; "a single simulation unit requires around
30 hours of wall-clock time on one BGQ rack" (Section 7).  The
:class:`Campaign` runner splits a long run into segments, writes a
lossless checkpoint at each segment boundary, and resumes the next
segment from it -- optionally on a different rank count (re-balancing
between allocations).  Segmented execution is bit-exact with respect to
an uninterrupted run, which the tests assert.

Each segment is one config submitted to the one attempt loop
(docs/resilience.md): inline, to
:class:`~repro.resilience.recover.ResilientSimulation`, whose budget is
the config's ``max_recoveries``; or, with ``engine``, to the
fault-tolerant job service (:class:`~repro.service.JobEngine`), whose
supervisor retries it under its own policy and adds result caching.  A
failed segment resumes from its boundary checkpoint.  Per-segment
outcomes are recorded on :class:`SegmentRecord` (``ok`` / ``retried`` /
``failed``), and a campaign whose segment fails returns the *partial*
result (``ok=False``) instead of losing the completed segments.
"""

from __future__ import annotations

import copy
import os
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .config import SimulationConfig


@dataclass
class SegmentRecord:
    """Outcome of one campaign segment."""

    index: int
    first_step: int
    last_step: int
    checkpoint: str | None
    ranks: int
    #: "ok" (first try), "retried" (succeeded after >= 1 retry) or
    #: "failed" (the campaign stopped here).
    status: str = "ok"
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.status != "failed"


@dataclass
class CampaignResult:
    """Stitched outcome of all segments (possibly partial)."""

    records: list = field(default_factory=list)  #: all StepRecords, in order
    segments: list[SegmentRecord] = field(default_factory=list)
    final_field: np.ndarray | None = None
    #: False when a segment failed; the result then holds every
    #: *completed* segment (partial results, not nothing).
    ok: bool = True
    error: str | None = None

    @property
    def completed_steps(self) -> int:
        """Steps covered by successfully completed segments (int)."""
        done = [s.last_step for s in self.segments if s.ok]
        return max(done) if done else 0

    def series(self, name: str) -> np.ndarray:
        vals = [
            getattr(r.diagnostics, name)
            for r in self.records
            if r.diagnostics is not None
        ]
        return np.asarray(vals)


class Campaign:
    """Runs a simulation in checkpointed segments.

    Parameters
    ----------
    config:
        Base configuration.  ``max_steps`` is ignored (the campaign's
        ``total_steps`` governs); checkpoint settings are managed by the
        campaign.  ``max_recoveries`` is each inline segment's budget.
    ic_fn:
        Initial condition for the first segment -- a driver callable, or
        an :class:`~repro.service.ICSpec` (required for ``engine`` runs,
        where the IC must cross a process boundary).
    workdir:
        Directory for the segment checkpoints.
    fault_plan:
        Optional chaos plan armed across the whole campaign: consumed
        hits persist across segments and their retries (a
        ``max_hits``-bounded crash stays spent).
    engine:
        Optional running :class:`~repro.service.JobEngine`; segments are
        then submitted as service jobs (cached, supervised) instead of
        computed inline.
    """

    def __init__(self, config: SimulationConfig, ic_fn, workdir: str,
                 fault_plan=None, engine=None):
        self.config = config
        self.ic_fn = ic_fn
        self.workdir = workdir
        self.fault_plan = fault_plan
        self.engine = engine
        if engine is not None:
            from ..service.request import ICSpec

            if not isinstance(ic_fn, ICSpec):
                raise ValueError(
                    "engine campaigns need a declarative ICSpec initial "
                    "condition (callables cannot cross the service "
                    "boundary)"
                )
        os.makedirs(workdir, exist_ok=True)

    def _segment_config(self, last_step: int, ranks: int) -> SimulationConfig:
        cfg = copy.copy(self.config)
        cfg.max_steps = last_step
        cfg.ranks = ranks
        cfg.checkpoint_interval = 0  # the campaign writes its own
        cfg.collect_final_field = True
        return cfg

    def run(
        self,
        total_steps: int,
        segment_steps: int,
        ranks_per_segment: list[int] | None = None,
    ) -> CampaignResult:
        """Execute ``total_steps`` in segments of ``segment_steps``.

        ``ranks_per_segment`` optionally reassigns the rank count per
        segment (default: the base config's ``ranks`` throughout).
        Returns a partial result (``ok=False``) if a segment fails;
        completed segments are never lost.
        """
        from ..cluster.checkpoint import write_checkpoint
        from ..cluster.mpi_sim import SimWorld

        if total_steps < 1 or segment_steps < 1:
            raise ValueError("step counts must be positive")
        boundaries = list(range(segment_steps, total_steps, segment_steps))
        boundaries.append(total_steps)

        injector = None
        if self.fault_plan is not None:
            from ..resilience.inject import FaultInjector

            injector = FaultInjector(self.fault_plan)

        out = CampaignResult()
        restart: str | None = None
        for i, last_step in enumerate(boundaries):
            ranks = (
                ranks_per_segment[i]
                if ranks_per_segment is not None
                else self.config.ranks
            )
            cfg = self._segment_config(last_step, ranks)
            result, attempts, error = self._run_segment(cfg, restart,
                                                        injector)
            if error is not None:
                # Record the failure, keep what we have.
                out.segments.append(SegmentRecord(
                    index=i, first_step=0, last_step=last_step,
                    checkpoint=None, ranks=ranks, status="failed",
                    attempts=attempts,
                ))
                out.ok = False
                out.error = (f"segment {i} failed after {attempts} "
                             f"attempt(s): {error!r}")
                return out
            out.records.extend(result.records)
            out.final_field = result.final_field

            checkpoint = None
            if last_step < total_steps:
                checkpoint = os.path.join(
                    self.workdir, f"campaign_step{last_step:06d}.rck"
                )
                t = result.records[-1].time if result.records else 0.0
                # Single-writer checkpoint of the stitched global field
                # (rank counts may change next segment).
                world = SimWorld(1)
                world.run(
                    lambda comm: write_checkpoint(
                        comm, checkpoint, result.final_field, (0, 0, 0),
                        t=t, step=last_step,
                    )
                )
                restart = checkpoint

            first = out.records[-len(result.records)].step if result.records else 0
            out.segments.append(
                SegmentRecord(
                    index=i,
                    first_step=first,
                    last_step=last_step,
                    checkpoint=checkpoint,
                    ranks=ranks,
                    status="ok" if attempts == 1 else "retried",
                    attempts=attempts,
                )
            )
        return out

    # -- one segment ------------------------------------------------------

    def _run_segment(self, cfg: SimulationConfig, restart: str | None,
                     injector):
        """One segment through the attempt loop; returns ``(result,
        attempts, None)``, or ``(None, attempts, error)`` once it gave
        up."""
        from ..telemetry.log import get_logger

        if self.engine is None:
            from ..resilience.recover import ResilientSimulation

            loop = ResilientSimulation(cfg, self.ic_fn, restart_from=restart,
                                       injector=injector)
        else:
            from ..service.request import JobRequest

            loop = self.engine.submit(
                JobRequest(config=cfg, ic=self.ic_fn, restart_from=restart),
                fault_plan=self.fault_plan)
        try:
            if self.engine is None:
                result = loop.run().result
            else:
                result = _payload_result(cfg, loop.result().payload)
        except Exception as exc:
            get_logger("sim.campaign").warn(
                "segment_failed", last_step=cfg.max_steps,
                attempts=loop.attempts, err=repr(exc)[:200])
            return None, loop.attempts, exc
        return result, loop.attempts, None


def _payload_result(cfg: SimulationConfig, payload: dict):
    """The records and final field of a service job's result payload."""
    from ..cluster.driver import StepRecord
    from .diagnostics import Diagnostics

    diag = {name: payload["series"][name]
            for name in ("max_pressure", "wall_max_pressure",
                         "kinetic_energy", "vapor_volume")}
    records = []
    di = 0
    for j, step in enumerate(payload["steps"]):
        d = None
        if cfg.diag_interval and step % cfg.diag_interval == 0:
            d = Diagnostics(**{k: float(v[di]) for k, v in diag.items()})
            di += 1
        records.append(StepRecord(
            step=int(step), time=float(payload["times"][j]),
            dt=float(payload["dts"][j]), diagnostics=d,
        ))
    return SimpleNamespace(records=records,
                           final_field=payload["final_field"])

"""Production simulation driver (cluster layer, paper Fig. 1 & Section 6).

Each simulation step executes

    DT   -- rank-local SOS kernel + global max-allreduce, CFL time step;
    3 x (RHS + UP) -- per RK stage: post the non-blocking halo exchange,
            evaluate interior blocks while messages are in flight, finish
            the exchange, evaluate halo blocks, apply the low-storage
            update;
    IO   -- every ``dump_interval`` steps, wavelet-compress p and Gamma
            and write them collectively (exscan offsets).

The driver runs as an SPMD program over the simulated communicator; the
:class:`Simulation` facade hides the world setup and stitches per-rank
results for single-process callers (examples, tests, benchmarks).

Per-phase wall-clock timers reproduce the time-distribution measurements
of paper Fig. 7.  With ``config.telemetry`` enabled the same spans also
feed :mod:`repro.telemetry`: counters, a JSON metrics snapshot on
``RankResult``/``RunResult`` and (mode ``"trace"``) per-rank span events
exportable as a Perfetto timeline.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .. import native
from ..core.kernels import dt_from_sos
from ..core.timestepper import make_stepper
from ..node.dispatcher import Dispatcher
from ..node.grid import BlockGrid
from ..node.solver import NodeSolver
from ..physics.state import ENERGY, GAMMA, NQ, RHO, STORAGE_DTYPE
from ..resilience.detect import WriteError, screen_restored_state
from ..sim.config import SimulationConfig
from ..sim.diagnostics import (
    Diagnostics,
    pressure_field,
    rank_diagnostics,
    reduce_diagnostics,
)
from ..telemetry.clock import now
from ..telemetry.tracer import (
    MetricsSnapshot,
    PhaseTimers,
    SpanEvent,
    Tracer,
    make_tracer,
)
from .halo import HaloExchange, extract_face_slab
from .mpi_sim import Communicator, SimWorld, WorldError
from .topology import CartTopology, balanced_dims

# A plain run -- no sanitizer, checkpoint or flight recording -- imports
# none of these: each is imported in the set-up of the runs that use it
# (docs/ARCHITECTURE.md, "What a process imports").
if TYPE_CHECKING:
    from ..analysis.sanitizer import ViolationReport


@dataclass
class StepRecord:
    """Diagnostics and timings of one completed step."""

    step: int
    time: float
    dt: float
    diagnostics: Diagnostics | None
    timers: dict[str, float] = field(default_factory=dict)


@dataclass
class RankResult:
    """Everything one rank returns from an SPMD run."""

    rank: int
    records: list[StepRecord]
    field: np.ndarray | None  #: final AoS subdomain (if collected)
    origin_cells: tuple[int, int, int]
    timers: dict[str, float]
    bytes_sent: int
    messages_sent: int
    compression_stats: list[dict]
    #: wall damage map of this rank's wall patch (if erosion is enabled
    #: and the subdomain touches the wall)
    wall_damage: np.ndarray | None = None
    #: per-rank numerics-sanitizer findings (None when sanitize="off")
    sanitizer_report: ViolationReport | None = None
    #: wall-clock seconds of this rank's whole SPMD program
    wall_seconds: float = 0.0
    #: per-rank metrics snapshot (None when telemetry="off")
    telemetry: MetricsSnapshot | None = None
    #: per-rank span events (only when telemetry="trace")
    trace_events: list[SpanEvent] | None = None
    #: which kernels ran in this rank's process when it finished
    #: (:func:`repro.native.status`)
    kernels: dict = field(default_factory=dict)
    #: ``(what, step)`` of every dump or checkpoint write that failed and
    #: was skipped (the same on every rank)
    skipped_writes: list[tuple[str, int]] = field(default_factory=list)


@dataclass
class RunResult:
    """Assembled outcome of a simulation run."""

    records: list[StepRecord]
    final_field: np.ndarray | None  #: global AoS field (if collected)
    timers: dict[str, float]  #: mean per-rank phase seconds
    rank_results: list[RankResult]
    config: SimulationConfig
    #: merged sanitizer findings over all ranks (None when sanitize="off")
    sanitizer_report: ViolationReport | None = None
    #: run wall-clock seconds (maximum over ranks)
    wall_seconds: float = 0.0
    #: merged metrics snapshot over all ranks (None when telemetry="off")
    telemetry: MetricsSnapshot | None = None

    @property
    def kernels(self) -> dict:
        """Which kernels produced the result: rank 0's
        :func:`repro.native.status` (``backend`` ``"c"`` or ``"numpy"``,
        and why) -- every rank runs the same checkout on the same host."""
        return self.rank_results[0].kernels

    @property
    def skipped_writes(self) -> list[tuple[str, int]]:
        """``(what, step)`` of every dump or checkpoint write that failed
        and was skipped -- the writer raises on every rank, so rank 0's
        list is the run's."""
        return self.rank_results[0].skipped_writes

    @property
    def cells_per_second(self) -> float:
        """Achieved throughput in cell updates per second.

        Completed steps times global cells over run wall time -- the
        quantity the paper reports as Gcells/s (721 Gcells/s on 96
        racks).  Available for every run, telemetry on or off; runs with
        a degenerate (zero/near-zero) wall clock report 0.0 -- never
        inf/NaN -- and bump ``telemetry.DEGENERATE_COUNTS``.
        """
        from ..telemetry.scorecard import safe_rate

        cells = 1
        for c in self.config.cells:
            cells *= c
        return safe_rate(len(self.records) * cells, self.wall_seconds,
                         "throughput_degenerate_wall")

    @property
    def wall_damage(self) -> np.ndarray | None:
        """Global wall damage map stitched from the wall ranks."""
        pieces = [
            (rr.origin_cells, rr.wall_damage)
            for rr in self.rank_results
            if rr.wall_damage is not None
        ]
        if not pieces:
            return None
        axis = self.config.wall[0]
        plane_axes = [d for d in range(3) if d != axis]
        extent = tuple(self.config.cells[d] for d in plane_axes)
        out = np.zeros(extent)
        for origin, dmg in pieces:
            o = tuple(origin[d] for d in plane_axes)
            out[o[0] : o[0] + dmg.shape[0], o[1] : o[1] + dmg.shape[1]] = dmg
        return out

    def series(self, name: str) -> np.ndarray:
        """Time series of a diagnostic attribute (e.g. ``max_pressure``)."""
        vals = [
            getattr(r.diagnostics, name)
            for r in self.records
            if r.diagnostics is not None
        ]
        return np.asarray(vals)

    @property
    def times(self) -> np.ndarray:
        return np.asarray(
            [r.time for r in self.records if r.diagnostics is not None]
        )


def rank_main(comm: Communicator, config: SimulationConfig, ic_fn,
              restart_from: str | None = None,
              injector=None) -> RankResult:
    """The SPMD program executed by every rank: set-up, then each step
    followed by the work this run asked for, then the rank's result.

    ``restart_from`` resumes a run from a checkpoint written by
    :func:`repro.cluster.checkpoint.write_checkpoint` (any rank count);
    ``max_steps`` counts total steps including the restarted ones.

    ``injector`` is an optional
    :class:`~repro.resilience.inject.FaultInjector`: the chaos engine's
    step hook (rank crashes, stragglers) plus the resilience monitor the
    dump/checkpoint degradation paths count on.
    """
    wall_t0 = now()
    rank, step, t = _set_up(comm, config, ic_fn, restart_from, injector)
    try:
        while step < config.max_steps and t < config.t_end:
            rec = _advance(rank, step, t)
            for work in rank.work:
                work(rank, rec)
            step, t = rec.step, rec.time
    finally:
        # Chaos runs crash ranks mid-loop; the flight recorder must
        # release (flushing its part file) regardless.
        rank.close()
    return _result(rank, now() - wall_t0)


@dataclass
class _Rank:
    """One rank as :func:`_set_up` built it, and what its steps leave."""

    comm: Communicator
    config: SimulationConfig
    injector: object
    grid: BlockGrid
    origin_cells: tuple[int, int, int]
    timers: PhaseTimers  #: the rank's Tracer, or a bare PhaseTimers
    solver: NodeSolver
    halo: HaloExchange
    interior: list
    halo_blocks: list
    stages: tuple
    sanitizer: object
    #: the per-step work this run asked for, in order
    work: list = field(default_factory=list)
    records: list[StepRecord] = field(default_factory=list)
    compression_stats: list[dict] = field(default_factory=list)
    skipped_writes: list[tuple[str, int]] = field(default_factory=list)
    damage: object = None  #: the wall patch's damage accumulator
    close: object = lambda: None  #: releases the flight recorder


def _set_up(comm: Communicator, config: SimulationConfig, ic_fn,
            restart_from: str | None, injector) -> tuple[_Rank, int, float]:
    """Build one rank and choose, once, the per-step work this run does.

    Builds the topology, the grid with its initial condition or restart
    (SDC-screened), the tracer, solver, halo split, stepper and
    sanitizer.  The work, in order: erosion, diagnostics, dump,
    checkpoint, the step record, flight record and progress, each only
    when its config field is on, the step record always.  Returns the
    rank and the ``(step, t)`` it starts from.
    """
    topo = CartTopology(balanced_dims(comm.size), config.periodic)
    if topo.size != comm.size:
        raise ValueError(f"topology size {topo.size} != world size {comm.size}")
    starts, counts = topo.subdomain_blocks(comm.rank, config.global_blocks)
    h = config.h
    origin_cells = tuple(s * config.block_size for s in starts)
    grid = BlockGrid(counts, config.block_size, h,
                     origin=tuple(o * h for o in origin_cells))
    t, step = 0.0, 0
    if restart_from is None:
        grid.fill(ic_fn)
    else:
        from .checkpoint import read_checkpoint_field

        global_field, t, step = read_checkpoint_field(restart_from)
        # SDC screen before any cell enters the stencil: a corruption
        # that slipped past the block CRCs must not restart silently.
        screen_restored_state(global_field, where=restart_from)
        oz, oy, ox = origin_cells
        nz, ny, nx = grid.cells
        grid.from_array(global_field[oz:oz + nz, oy:oy + ny, ox:ox + nx])

    tracer = make_tracer(config.telemetry, rank=comm.rank)
    solver = NodeSolver(
        grid, boundary=config.boundary_spec(),
        dispatcher=Dispatcher(num_workers=config.num_workers),
        fused=config.fused_weno, use_slices=config.use_slices,
        order=config.weno_order, solver=config.riemann_solver,
        tracer=tracer,
    )
    halo = HaloExchange(comm, topo, grid, tracer=tracer, injector=injector)
    sanitizer = None
    if config.sanitize != "off":
        from ..analysis.sanitizer import make_sanitizer

        sanitizer = make_sanitizer(config.sanitize,
                                   p_min=config.sanitize_p_min)
        sanitizer.set_context("initial condition")
        for idx, block in grid.blocks.items():
            sanitizer.check_state(block.data, block=idx)
    # The tracer doubles as the phase-timer dict; with telemetry off a
    # bare PhaseTimers keeps the legacy ``StepRecord.timers`` payload
    # without constructing any telemetry state.
    timers = tracer if tracer is not None else PhaseTimers()
    rank = _Rank(comm, config, injector, grid, origin_cells, timers, solver,
                 halo, *halo.halo_split(), make_stepper(config.stepper).stages,
                 sanitizer)
    work = rank.work

    # The wall diagnostic is recorded only by ranks whose subdomain
    # touches the wall face.
    wall = config.wall
    if wall is not None and not topo.is_domain_boundary(comm.rank, *wall):
        wall = None

    # Each piece of work is called with the rank and the step's record.
    # Erosion accumulated on the wall patch (paper Section 9's
    # "coupling material erosion models with the flow solver").
    if config.erosion is not None and wall is not None:
        from ..sim.erosion import WallDamageAccumulator

        patch = tuple(c for d, c in enumerate(grid.cells) if d != wall[0])
        rank.damage = WallDamageAccumulator(patch, h, config.erosion)

        def erode(rank: _Rank, rec: StepRecord) -> None:
            with rank.timers.span("EROSION"):
                layer = extract_face_slab(rank.grid, wall[0], wall[1],
                                          width=1)
                p_wall = pressure_field(np.squeeze(layer, axis=wall[0]))
                rank.damage.update(p_wall, rec.dt)

        work.append(erode)

    if config.diag_interval:
        def diagnose(rank: _Rank, rec: StepRecord) -> None:
            if rec.step % config.diag_interval == 0:
                with rank.timers.span("DIAG"):
                    local = rank_diagnostics(rank.grid.to_array(), h, wall)
                    rec.diagnostics = reduce_diagnostics(rank.comm, local)

        work.append(diagnose)

    # Compressed data dumps: p and Gamma only, as in the paper.
    if config.dump_interval:
        # The wavelet / I/O stack _dump runs loads here, before step 1; a
        # run that does not dump never loads it.
        from ..compression import io  # noqa: F401

        def dump_fields(rank: _Rank, rec: StepRecord) -> None:
            if rec.step % config.dump_interval == 0:
                with rank.timers.span("IO_WAVELET"):
                    try:
                        rank.compression_stats.extend(_dump(rank, rec.step))
                    except WriteError:
                        _skip_write(rank, "dump", rec.step)

        work.append(dump_fields)

    # Lossless checkpoints: atomic, rotated generations.
    if config.checkpoint_interval:
        from .checkpoint import (checkpoint_path, prune_checkpoints,
                                 write_checkpoint)

        def checkpoint_state(rank: _Rank, rec: StepRecord) -> None:
            if rec.step % config.checkpoint_interval:
                return
            with rank.timers.span("CHECKPOINT"):
                path = checkpoint_path(config.checkpoint_dir, rec.step)
                try:
                    write_checkpoint(rank.comm, path, rank.grid.to_array(),
                                     rank.origin_cells, rec.time, rec.step,
                                     injector=injector)
                except WriteError:
                    _skip_write(rank, "checkpoint", rec.step)
                    return
                if rank.comm.rank == 0 and config.checkpoint_keep:
                    pruned = prune_checkpoints(config.checkpoint_dir,
                                               config.checkpoint_keep)
                    if injector is not None:
                        injector.count("ckpt_generations_pruned", len(pruned))
                        injector.set_counter(
                            "ckpt_generations_kept",
                            min(config.checkpoint_keep,
                                rec.step // config.checkpoint_interval))

        work.append(checkpoint_state)

    def record_step(rank: _Rank, rec: StepRecord) -> None:
        rec.timers = dict(rank.timers)
        rank.records.append(rec)

    work.append(record_step)
    if config.flight_out:
        work.append(_flight_work(rank))
    if config.progress_interval and comm.rank == 0:
        from ..telemetry.log import ProgressReporter

        progress = ProgressReporter(total_steps=config.max_steps,
                                    cells=int(np.prod(config.cells)),
                                    interval=config.progress_interval)

        def report_progress(rank: _Rank, rec: StepRecord) -> None:
            sched = rank.solver.last_schedule
            progress.step(rec.step, sim_time=rec.time, dt=rec.dt,
                          imbalance=getattr(sched, "imbalance", None))

        work.append(report_progress)
    return rank, step, t


def _advance(rank: _Rank, step: int, t: float) -> StepRecord:
    """One step from ``(step, t)``: the chaos hook, DT (SOS allreduce,
    divergence check, ``t_end`` clamp) and the RK stages -- the interior
    blocks' RHS while the halo messages travel, the halo blocks' RHS,
    UP.  Returns the step's record; the work fills in the rest."""
    comm, config, solver, halo = rank.comm, rank.config, rank.solver, rank.halo
    timers, sanitizer = rank.timers, rank.sanitizer
    if rank.injector is not None:  # injected rank crashes / stragglers
        rank.injector.at_step(comm.rank, step + 1)

    if sanitizer is not None:
        sanitizer.set_context(f"step {step + 1} DT")
    with timers.span("DT"):
        sos = comm.allreduce(solver.max_sos(sanitizer=sanitizer), op="max")
        if not np.isfinite(sos):
            raise RuntimeError(
                f"solution diverged at step {step}: non-finite "
                "characteristic velocity (check resolution/CFL)"
            )
        dt = dt_from_sos(sos, config.h, config.cfl)
        if t + dt > config.t_end:
            dt = config.t_end - t

    for si, stage in enumerate(rank.stages):
        if sanitizer is not None:
            sanitizer.set_context(f"step {step + 1} stage {si + 1}")
        with timers.span("RHS"):
            pending = halo.start()
            rhs_map = solver.evaluate_rhs(rank.interior, sanitizer=sanitizer)
        with timers.span("COMM_WAIT"):
            provider = halo.finish(pending)
        with timers.span("RHS"):
            rhs_map.update(solver.evaluate_rhs(rank.halo_blocks, provider,
                                               sanitizer=sanitizer))
        with timers.span("UP"):
            solver.update(rhs_map, stage.a, stage.b, dt, sanitizer=sanitizer)
    return StepRecord(step=step + 1, time=t + dt, dt=dt, diagnostics=None)


def _result(rank: _Rank, wall_seconds: float) -> RankResult:
    """The rank's :class:`RankResult`.  The counters every step adds
    alike -- ``steps``, ``cell_steps`` and DT's ``allreduce_calls`` --
    are set here, from the records."""
    comm, records = rank.comm, rank.records
    tracer = rank.timers if isinstance(rank.timers, Tracer) else None
    if tracer is not None and records:
        steps = len(records)
        tracer.count("allreduce_calls", steps)
        tracer.count("steps", steps)
        tracer.count("cell_steps", steps * int(np.prod(rank.grid.cells)))
    traced = tracer is not None and tracer.mode == "trace"
    return RankResult(
        rank=comm.rank,
        records=records,
        field=(rank.grid.to_array() if rank.config.collect_final_field
               else None),
        origin_cells=rank.origin_cells,
        timers=dict(rank.timers),
        bytes_sent=comm.bytes_sent,
        messages_sent=comm.messages_sent,
        compression_stats=rank.compression_stats,
        wall_damage=getattr(rank.damage, "damage", None),
        sanitizer_report=getattr(rank.sanitizer, "report", None),
        wall_seconds=wall_seconds,
        telemetry=(tracer.snapshot(wall_seconds) if tracer is not None
                   else None),
        trace_events=list(tracer.events) if traced else None,
        kernels=native.status(),
        skipped_writes=rank.skipped_writes,
    )


#: The resilience counter a skipped write of each kind bumps.
_SKIP_COUNTERS = {"dump": "dumps_skipped", "checkpoint": "checkpoints_failed"}


def _skip_write(rank: _Rank, what: str, step: int) -> None:
    """Degrade a failed dump or checkpoint write to a recorded skip.

    The writer raised on every rank and left no file behind (previous
    checkpoint generations are intact), so every rank records the skip
    and keeps computing; rank 0 credits the recovery.
    """
    rank.skipped_writes.append((what, step))
    if rank.comm.rank == 0 and rank.injector is not None:
        rank.injector.recovered("io_fail")
        rank.injector.count(_SKIP_COUNTERS[what])


def _dump(rank: _Rank, step: int) -> list[dict]:
    """Compress and collectively write p and Gamma (one file each).

    Spans nested in the caller's ``IO_WAVELET``: ``IO_COLLECT`` (the
    field, p, the Gamma cast, the screen), then per quantity ``IO_FWT``
    and ``IO_WRITE``.  The rank's sanitizer, if any, checks the FWT
    input fields for NaN/Inf before they reach the wavelet transform,
    labelling findings with the dumped quantity name.  The injector's
    ``io_fail`` site fires in the writer; a failed write raises
    :class:`~repro.resilience.detect.WriteError` on every rank.
    """
    # Loaded by _set_up: only a run that dumps pays for them.
    from ..compression.io import write_compressed_parallel
    from ..compression.scheme import WaveletCompressor

    config, timers, sanitizer = rank.config, rank.timers, rank.sanitizer
    with timers.span("IO_COLLECT"):
        fld = rank.grid.to_array()
        quantities = {
            "p": (pressure_field(fld).astype(STORAGE_DTYPE),
                  config.eps_pressure),
            "Gamma": (fld[..., GAMMA].astype(STORAGE_DTYPE), config.eps_gamma),
        }
        if sanitizer is not None:
            for name, (data, _) in quantities.items():
                sanitizer.check_finite(
                    data, where=f"FWT ({sanitizer.context})", field=name
                )
    out = []
    for name, (data, eps) in quantities.items():
        compressor = WaveletCompressor(
            eps=eps,
            block_size=min(config.block_size, 32),
            num_threads=config.num_workers,
            guaranteed=config.dump_guaranteed,
        )
        with timers.span("IO_FWT"):
            cf = compressor.compress(data)
        path = os.path.join(config.dump_dir, f"dump_step{step:06d}_{name}.rwz")
        with timers.span("IO_WRITE"):
            ws = write_compressed_parallel(
                rank.comm, path, name, cf,
                rank_meta={"origin_cells": list(rank.origin_cells)},
                injector=rank.injector, step=step,
            )
        if isinstance(timers, Tracer):
            timers.count("fwt_cells", data.size)
            timers.count("io_raw_bytes", cf.stats.raw_bytes)
            timers.count("io_compressed_bytes", cf.stats.compressed_bytes)
        out.append(
            {
                "step": step,
                "quantity": name,
                "rate": cf.stats.rate,
                "raw_bytes": cf.stats.raw_bytes,
                "compressed_bytes": cf.stats.compressed_bytes,
                "write_seconds": ws.seconds,
                "dec_seconds": float(cf.stats.dec_seconds.sum()),
                "enc_seconds": float(
                    sum(s.seconds for s in cf.stats.enc_stats)
                ),
            }
        )
    return out


def _conservation_sums(grid: BlockGrid) -> tuple[float, float]:
    """Rank-local (mass, energy) sums of the grid (tuple of floats).

    Summed block-wise -- never through ``grid.to_array()``, whose full
    assembly would blow the flight recorder's < 5 % overhead budget.
    """
    mass = 0.0
    energy = 0.0
    for block in grid.blocks.values():
        mass += float(block.data[..., RHO].sum())
        energy += float(block.data[..., ENERGY].sum())
    return mass, energy


def _flight_work(rank: _Rank):
    """The flight recorder's per-step work: one ``(step, rank)`` record
    to ``config.flight_out`` after each step.

    Phase timers and event tallies are running totals; the work keeps
    the previous ones, and the initial conservation sums, so that every
    record stands alone: the step's per-phase seconds, its wall time
    since the previous record and throughput, sanitizer and resilience
    events, conservation drift against the initial state and the node
    schedule summary.
    """
    from ..telemetry.flight import FlightRecorder
    from ..telemetry.scorecard import safe_rate

    comm, config = rank.comm, rank.config
    mass0, energy0 = _conservation_sums(rank.grid)
    flight = FlightRecorder(
        config.flight_out, rank=comm.rank,
        meta={"ranks": comm.size, "cells": list(config.cells),
              "block_size": config.block_size,
              "max_steps": config.max_steps, "telemetry": config.telemetry,
              "sanitize": config.sanitize},
    )
    rank.close = flight.close
    ncells = int(np.prod(rank.grid.cells))
    last_timers: dict = {}
    last_findings = last_events = 0
    clock = now()

    def record_flight(rank: _Rank, rec: StepRecord) -> None:
        nonlocal last_timers, last_findings, last_events, clock
        wall = now() - clock
        phases = {}
        for name, total in rec.timers.items():
            delta = total - last_timers.get(name, 0.0)
            if delta > 0.0:
                phases[name] = delta
        last_timers = rec.timers
        mass, energy = _conservation_sums(rank.grid)
        fields: dict = {
            "t": rec.time, "dt": rec.dt, "wall": wall, "phases": phases,
            "gcells_per_s": safe_rate(
                ncells, wall, "flight_degenerate_step_wall") / 1e9,
            "drift": {
                "mass": safe_rate(mass - mass0, abs(mass0),
                                  "flight_degenerate_drift"),
                "energy": safe_rate(energy - energy0, abs(energy0),
                                    "flight_degenerate_drift"),
            },
        }
        if rank.sanitizer is not None:
            seen = len(rank.sanitizer.report)
            fields["sanitizer_events"] = seen - last_findings
            last_findings = seen
        if rank.injector is not None:
            seen = int(sum(rank.injector.counters.values()))
            fields["resilience_events"] = seen - last_events
            last_events = seen
        schedule = rank.solver.last_schedule
        if schedule is not None:
            fields["schedule"] = schedule.to_dict()
        flight.record(rec.step, **fields)
        clock = now()

    return record_flight


class Simulation:
    """Single-process facade over the SPMD driver.

    Example::

        from repro.sim import SimulationConfig
        from repro.cluster import Simulation
        from repro.sim.ic import uniform

        sim = Simulation(SimulationConfig(cells=32, block_size=16,
                                          max_steps=10), uniform())
        result = sim.run()
        print(result.series("max_pressure"))
    """

    def __init__(self, config: SimulationConfig, ic_fn,
                 restart_from: str | None = None, injector=None):
        self.config = config
        self.ic_fn = ic_fn
        self.restart_from = restart_from
        self.injector = injector

    def run(self) -> RunResult:
        from .mpi_sim import DEFAULT_TIMEOUT

        timeout = (self.config.comm_timeout
                   if self.config.comm_timeout is not None
                   else DEFAULT_TIMEOUT)
        procs = self.config.cluster_backend == "procs"
        if procs:
            from .procs import ProcsWorld

            # Built here, once, not by every rank process starting cold.
            native.ensure_loaded()
        world = (ProcsWorld if procs else SimWorld)(
            self.config.ranks, timeout=timeout, injector=self.injector)
        try:
            rank_results: list[RankResult] = world.run(
                rank_main, self.config, self.ic_fn, self.restart_from,
                self.injector
            )
        except WorldError as we:
            from ..analysis.sanitizer import NumericsViolationError

            # Unwrap sanitizer aborts: when every failed rank raised a
            # NumericsViolationError, re-raise one merged error so
            # callers see the findings directly instead of the SPMD
            # wrapper.  Teardown aborts of surviving ranks are not
            # primary causes and do not block the unwrap.
            failures = list(we.primary_failures.values())
            if failures and all(isinstance(f, NumericsViolationError)
                                for f in failures):
                raise NumericsViolationError(
                    [v for f in failures for v in f.violations]) from we
            raise
        finally:
            # Every rank records into its own part file; merge them into
            # the final single-header stream even when the run failed (a
            # chaos attempt's flushed prefix must stay readable).
            if self.config.flight_out:
                from ..telemetry.flight import merge_flight_parts

                merge_flight_parts(self.config.flight_out)

        final = None
        if self.config.collect_final_field:
            cells = tuple(self.config.cells)
            final = np.zeros(cells + (NQ,), dtype=STORAGE_DTYPE)
            for rr in rank_results:
                oz, oy, ox = rr.origin_cells
                sz, sy, sx = rr.field.shape[:3]
                final[oz : oz + sz, oy : oy + sy, ox : ox + sx] = rr.field

        # Phase timers: mean over ranks.
        keys = set().union(*(rr.timers for rr in rank_results))
        timers = {
            k: float(np.mean([rr.timers.get(k, 0.0) for rr in rank_results]))
            for k in keys
        }
        reports = [
            rr.sanitizer_report
            for rr in rank_results
            if rr.sanitizer_report is not None
        ]
        snapshots = [
            rr.telemetry for rr in rank_results if rr.telemetry is not None
        ]
        sanitizer_report = None
        if reports:
            from ..analysis.sanitizer import ViolationReport

            sanitizer_report = ViolationReport.merged(reports)
        return RunResult(
            records=rank_results[0].records,
            final_field=final,
            timers=timers,
            rank_results=rank_results,
            config=self.config,
            sanitizer_report=sanitizer_report,
            wall_seconds=max(rr.wall_seconds for rr in rank_results),
            telemetry=(
                MetricsSnapshot.merged(snapshots) if snapshots else None
            ),
        )

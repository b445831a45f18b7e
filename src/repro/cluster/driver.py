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
    make_tracer,
)
from .halo import HaloExchange, extract_face_slab
from .mpi_sim import Communicator, SimWorld, WorldError
from .topology import CartTopology, balanced_dims

# A plain run -- no sanitizer, race tracker, checkpoint or flight
# recording -- imports none of these: each is imported in the set-up of
# the runs that use it (docs/ARCHITECTURE.md, "What a process imports").
if TYPE_CHECKING:
    from ..analysis.report import Report
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
    #: runtime concurrency findings -- races and watchdog-diagnosed
    #: deadlocks (None when concurrency_check="off")
    concurrency_report: Report | None = None

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
    """The SPMD program executed by every rank.

    ``restart_from`` resumes a run from a checkpoint written by
    :func:`repro.cluster.checkpoint.write_checkpoint` (any rank count);
    ``max_steps`` counts total steps including the restarted ones.

    ``injector`` is an optional
    :class:`~repro.resilience.inject.FaultInjector`: the chaos engine's
    step hook (rank crashes, stragglers) plus the resilience monitor the
    dump/checkpoint degradation paths count on.
    """
    wall_t0 = now()
    topo = CartTopology(balanced_dims(comm.size), config.periodic)
    if topo.size != comm.size:
        raise ValueError(f"topology size {topo.size} != world size {comm.size}")
    starts, counts = topo.subdomain_blocks(comm.rank, config.global_blocks)
    n = config.block_size
    h = config.h
    origin_cells = tuple(s * n for s in starts)
    grid = BlockGrid(counts, n, h, origin=tuple(o * h for o in origin_cells))
    t = 0.0
    step = 0
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

    tracer = make_tracer(config.telemetry, rank=comm.rank,
                         max_events=config.telemetry_max_events)
    solver = NodeSolver(
        grid,
        boundary=config.boundary_spec(),
        dispatcher=Dispatcher(num_workers=config.num_workers),
        fused=config.fused_weno,
        use_slices=config.use_slices,
        order=config.weno_order,
        solver=config.riemann_solver,
        tracer=tracer,
    )
    halo = HaloExchange(comm, topo, grid, tracer=tracer, injector=injector)
    interior, halo_blocks = halo.halo_split()
    stepper = make_stepper(config.stepper)

    sanitizer = None
    if config.sanitize != "off":
        from ..analysis.sanitizer import make_sanitizer

        sanitizer = make_sanitizer(config.sanitize,
                                   p_min=config.sanitize_p_min)
        sanitizer.set_context("initial condition")
        for idx, block in grid.blocks.items():
            sanitizer.check_state(block.data, block=idx)

    # The wall diagnostic is recorded only by ranks whose subdomain
    # touches the wall face.
    wall = None
    if config.wall is not None and topo.is_domain_boundary(
        comm.rank, *config.wall
    ):
        wall = config.wall

    # Optional erosion accumulation on the wall patch (paper Section 9's
    # "coupling material erosion models with the flow solver").
    damage = None
    if config.erosion is not None and wall is not None:
        from ..sim.erosion import WallDamageAccumulator

        patch_shape = tuple(
            c for d, c in enumerate(grid.cells) if d != wall[0]
        )
        damage = WallDamageAccumulator(patch_shape, h, config.erosion)

    # The tracer doubles as the phase-timer dict; with telemetry off a
    # bare PhaseTimers keeps the legacy ``StepRecord.timers`` payload
    # without constructing any telemetry state.
    timers = tracer if tracer is not None else PhaseTimers()
    ncells = int(np.prod(grid.cells))
    records: list[StepRecord] = []
    compression_stats: list[dict] = []
    skipped_writes: list[tuple[str, int]] = []
    if config.dump_interval:
        # The wavelet / I/O stack _dump runs loads here, before step 1; a
        # run that does not dump never loads it.
        from ..compression import io  # noqa: F401
    if config.checkpoint_interval:
        from .checkpoint import (
            checkpoint_path,
            prune_checkpoints,
            write_checkpoint,
        )

    # -- flight recorder / live progress (opt-in observability) ----------
    flight = None
    flight_state: dict = {"timers": {}, "sanitizer": 0, "resilience": 0}
    conservation0 = (0.0, 0.0)
    if config.flight_out:
        from ..telemetry import scorecard  # noqa: F401 -- _flight_step's
        from ..telemetry.flight import FlightRecorder

        conservation0 = _conservation_sums(grid)
        flight = FlightRecorder(
            config.flight_out,
            rank=comm.rank,
            meta={
                "ranks": comm.size,
                "cells": list(config.cells),
                "block_size": config.block_size,
                "max_steps": config.max_steps,
                "telemetry": config.telemetry,
                "sanitize": config.sanitize,
            },
            flush_every=config.flight_flush_every,
            # Rank processes share no memory: each writes a private
            # part file the parent merges once the world finishes.
            per_rank=getattr(comm, "process_parallel", False),
        )
    progress = None
    if config.progress_interval and comm.rank == 0:
        from ..telemetry.log import ProgressReporter

        progress = ProgressReporter(
            total_steps=config.max_steps,
            cells=int(np.prod(config.cells)),
            interval=config.progress_interval,
        )

    try:
        while step < config.max_steps and t < config.t_end:
            step_t0 = now() if flight is not None else 0.0
            # -- chaos hook: injected rank crashes / stragglers --------------
            if injector is not None:
                injector.at_step(comm.rank, step + 1)

            # -- DT kernel: SOS reduction -> CFL time step -------------------
            if sanitizer is not None:
                sanitizer.set_context(f"step {step + 1} DT")
            with timers.span("DT"):
                sos = comm.allreduce(solver.max_sos(sanitizer=sanitizer),
                                     op="max")
                if not np.isfinite(sos):
                    raise RuntimeError(
                        f"solution diverged at step {step}: non-finite "
                        "characteristic velocity (check resolution/CFL)"
                    )
                dt = dt_from_sos(sos, h, config.cfl)
                if t + dt > config.t_end:
                    dt = config.t_end - t
            if tracer is not None:
                tracer.count("allreduce_calls")

            # -- RK stages: RHS (overlapped halo exchange) + UP ---------------
            for si, stage in enumerate(stepper.stages):
                if sanitizer is not None:
                    sanitizer.set_context(f"step {step + 1} stage {si + 1}")
                with timers.span("RHS"):
                    pending = halo.start()
                    rhs_map = solver.evaluate_rhs(interior, sanitizer=sanitizer)
                with timers.span("COMM_WAIT"):
                    provider = halo.finish(pending)
                with timers.span("RHS"):
                    rhs_map.update(
                        solver.evaluate_rhs(halo_blocks, provider,
                                            sanitizer=sanitizer)
                    )
                with timers.span("UP"):
                    solver.update(rhs_map, stage.a, stage.b, dt,
                                  sanitizer=sanitizer)

            t += dt
            step += 1
            if tracer is not None:
                tracer.count("steps")
                tracer.count("cell_steps", ncells)

            # -- erosion accumulation on the wall layer ----------------------
            if damage is not None:
                with timers.span("EROSION"):
                    layer = extract_face_slab(grid, wall[0], wall[1], width=1)
                    p_wall = pressure_field(np.squeeze(layer, axis=wall[0]))
                    damage.update(p_wall, dt)

            # -- diagnostics ---------------------------------------------------
            diag = None
            if config.diag_interval and step % config.diag_interval == 0:
                with timers.span("DIAG"):
                    local = rank_diagnostics(grid.to_array(), h, wall)
                    diag = reduce_diagnostics(comm, local)

            # -- compressed data dumps (p and Gamma only, as in the paper) ----
            if config.dump_interval and step % config.dump_interval == 0:
                with timers.span("IO_WAVELET"):
                    try:
                        compression_stats.extend(_dump(
                            comm, config, grid, origin_cells, step, timers,
                            tracer, sanitizer=sanitizer, injector=injector))
                    except WriteError:
                        _skip_write(comm, injector, skipped_writes, "dump",
                                    step)

            # -- lossless checkpoints (atomic, rotated generations) ----------
            if config.checkpoint_interval and step % config.checkpoint_interval == 0:
                with timers.span("CHECKPOINT"):
                    ck_path = checkpoint_path(config.checkpoint_dir, step)
                    try:
                        write_checkpoint(
                            comm, ck_path, grid.to_array(), origin_cells, t,
                            step, injector=injector,
                        )
                    except WriteError:
                        _skip_write(comm, injector, skipped_writes,
                                    "checkpoint", step)
                    else:
                        if comm.rank == 0 and config.checkpoint_keep:
                            pruned = prune_checkpoints(
                                config.checkpoint_dir, config.checkpoint_keep
                            )
                            if injector is not None:
                                injector.count("ckpt_generations_pruned",
                                               len(pruned))
                                injector.set_counter(
                                    "ckpt_generations_kept",
                                    min(config.checkpoint_keep,
                                        step // config.checkpoint_interval),
                                )

            records.append(
                StepRecord(step=step, time=t, dt=dt, diagnostics=diag,
                           timers=dict(timers))
            )

            # -- step-level observability ----------------------------
            if flight is not None:
                _flight_step(
                    flight, step, t, dt, now() - step_t0, dict(timers),
                    flight_state, grid, ncells, conservation0,
                    sanitizer, injector, solver.last_schedule,
                )
            if progress is not None:
                sched = solver.last_schedule
                progress.step(
                    step, sim_time=t, dt=dt,
                    imbalance=(sched.imbalance if sched is not None
                               else None),
                )

    finally:
        # Chaos runs crash ranks mid-loop; the recorder handle must
        # release (flushing the shared sink on last close) regardless.
        if flight is not None:
            flight.close()

    wall_seconds = now() - wall_t0
    return RankResult(
        rank=comm.rank,
        records=records,
        field=grid.to_array() if config.collect_final_field else None,
        origin_cells=origin_cells,
        timers=dict(timers),
        bytes_sent=comm.bytes_sent,
        messages_sent=comm.messages_sent,
        compression_stats=compression_stats,
        wall_damage=damage.damage if damage is not None else None,
        sanitizer_report=sanitizer.report if sanitizer is not None else None,
        wall_seconds=wall_seconds,
        telemetry=tracer.snapshot(wall_seconds) if tracer is not None else None,
        trace_events=(
            list(tracer.events)
            if tracer is not None and tracer.mode == "trace" else None
        ),
        kernels=native.status(),
        skipped_writes=skipped_writes,
    )


#: The resilience counter a skipped write of each kind bumps.
_SKIP_COUNTERS = {"dump": "dumps_skipped", "checkpoint": "checkpoints_failed"}


def _skip_write(comm: Communicator, injector, skipped: list, what: str,
                step: int) -> None:
    """Degrade a failed dump or checkpoint write to a recorded skip.

    The writer raised on every rank and left no file behind (previous
    checkpoint generations are intact), so every rank records the skip
    and keeps computing; rank 0 credits the recovery.
    """
    skipped.append((what, step))
    if comm.rank == 0 and injector is not None:
        injector.recovered("io_fail")
        injector.count(_SKIP_COUNTERS[what])


def _dump(
    comm: Communicator,
    config: SimulationConfig,
    grid: BlockGrid,
    origin_cells: tuple[int, int, int],
    step: int,
    timers: PhaseTimers,
    tracer=None,
    sanitizer=None,
    injector=None,
) -> list[dict]:
    """Compress and collectively write p and Gamma (one file each).

    Spans nested in the caller's ``IO_WAVELET``: ``IO_COLLECT`` (the
    field, p, the Gamma cast, the screen), then per quantity ``IO_FWT``
    and ``IO_WRITE``.  ``sanitizer`` (an optional
    :class:`repro.analysis.sanitizer.NumericsSanitizer`) checks the FWT
    input fields for NaN/Inf before they reach the wavelet transform,
    labelling findings with the dumped quantity name.  ``injector``'s
    ``io_fail`` site fires in the writer; a failed write raises
    :class:`~repro.resilience.detect.WriteError` on every rank.
    """
    # Loaded by rank_main's set-up: only a run that dumps pays for them.
    from ..compression.io import write_compressed_parallel
    from ..compression.scheme import WaveletCompressor

    with timers.span("IO_COLLECT"):
        fld = grid.to_array()
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
                comm, path, name, cf,
                rank_meta={"origin_cells": list(origin_cells)},
                injector=injector, step=step,
            )
        if tracer is not None:
            tracer.count("fwt_cells", data.size)
            tracer.count("io_raw_bytes", cf.stats.raw_bytes)
            tracer.count("io_compressed_bytes", cf.stats.compressed_bytes)
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


def _flight_step(flight, step, t, dt, step_wall, cum_timers, state, grid,
                 ncells, conservation0, sanitizer, injector,
                 schedule) -> None:
    """Append one ``(step, rank)`` record to the flight stream.

    The driver accumulates phase timers and event tallies cumulatively;
    this converts them into per-step deltas (previous totals tracked in
    ``state``) so every record is self-contained: per-phase wall times,
    instantaneous throughput, sanitizer/resilience event counts,
    conservation drift vs the initial state and the node-level schedule
    summary.
    """
    from ..telemetry.scorecard import safe_rate

    phases = {}
    prev = state["timers"]
    for name, total in cum_timers.items():
        delta = total - prev.get(name, 0.0)
        if delta > 0.0:
            phases[name] = delta
    state["timers"] = cum_timers

    fields: dict = {
        "t": t,
        "dt": dt,
        "wall": step_wall,
        "phases": phases,
        "gcells_per_s": safe_rate(
            ncells, step_wall, "flight_degenerate_step_wall") / 1e9,
    }
    mass0, energy0 = conservation0
    mass, energy = _conservation_sums(grid)
    fields["drift"] = {
        "mass": safe_rate(mass - mass0, abs(mass0),
                          "flight_degenerate_drift"),
        "energy": safe_rate(energy - energy0, abs(energy0),
                            "flight_degenerate_drift"),
    }
    if sanitizer is not None:
        seen = len(sanitizer.report)
        fields["sanitizer_events"] = seen - state["sanitizer"]
        state["sanitizer"] = seen
    if injector is not None:
        seen = int(sum(injector.counters.values()))
        fields["resilience_events"] = seen - state["resilience"]
        state["resilience"] = seen
    if schedule is not None:
        fields["schedule"] = schedule.to_dict()
    flight.record(step, **fields)


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

        tracker = None
        if self.config.concurrency_check != "off":
            from ..analysis.concurrency.race import make_tracker

            tracker = make_tracker(self.config.concurrency_check)
        timeout = (self.config.comm_timeout
                   if self.config.comm_timeout is not None
                   else DEFAULT_TIMEOUT)
        if self.config.cluster_backend == "procs":
            from .procs import ProcsWorld

            # Built here, once, not by every rank process starting cold.
            native.ensure_loaded()
            world = ProcsWorld(
                self.config.ranks,
                timeout=timeout,
                injector=self.injector,
                tracker=tracker,
            )
        else:
            world = SimWorld(
                self.config.ranks,
                timeout=timeout,
                injector=self.injector,
                tracker=tracker,
            )
        try:
            rank_results: list[RankResult] = world.run(
                rank_main, self.config, self.ic_fn, self.restart_from,
                self.injector
            )
        except WorldError as we:
            from ..analysis.concurrency.race import ConcurrencyViolationError
            from ..analysis.sanitizer import NumericsViolationError

            # Unwrap sanitizer/concurrency aborts: when every failed rank
            # raised the same violation-carrying error, re-raise one
            # merged error so callers see the findings directly instead
            # of the SPMD wrapper.  Teardown aborts of surviving ranks
            # are not primary causes and do not block the unwrap.
            failures = list(we.primary_failures.values())
            if failures and all(
                isinstance(f, NumericsViolationError) for f in failures
            ):
                merged: list = []
                for f in failures:
                    merged.extend(f.violations)
                raise NumericsViolationError(merged) from we
            if failures and all(
                isinstance(f, ConcurrencyViolationError) for f in failures
            ):
                merged = []
                for f in failures:
                    merged.extend(f.violations)
                raise ConcurrencyViolationError(merged) from we
            raise
        finally:
            # Multi-process flight recordings land as per-rank part
            # files; merge them into the final single-header stream
            # even when the run failed (a chaos attempt's flushed
            # prefix must stay readable).
            if (self.config.cluster_backend == "procs"
                    and self.config.flight_out):
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
            concurrency_report=tracker.report if tracker is not None else None,
        )

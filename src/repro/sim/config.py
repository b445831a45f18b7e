"""Simulation configuration (the public entry point's parameter object)."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..node.ghosts import BoundarySpec


@dataclass
class SimulationConfig:
    """Parameters of a cloud-cavitation-collapse (or related) run.

    Defaults follow the paper's production setup scaled to laptop size:
    CFL 0.3, third-order low-storage RK, WENO5/HLLE kernels, mixed
    precision, compressed dumps of p and Gamma.
    """

    # -- discretization ------------------------------------------------
    #: global cells: an int for a cubic domain or a (nz, ny, nx) triple.
    cells: int | tuple[int, int, int] = 64
    block_size: int = 16  #: cells per block edge (paper: 32)
    #: physical length of the x edge; spacing is uniform in all directions.
    extent: float = 1.0

    # -- numerics ---------------------------------------------------------
    cfl: float = 0.3  #: paper Section 7
    stepper: str = "rk3"  #: "rk3" (production) or "euler" (ablation)
    fused_weno: bool = False  #: re-associated WENO5 variant (round-off equal)
    use_slices: bool = False  #: ring-buffer streaming RHS
    weno_order: int = 5  #: spatial order: 5 (production) or 3 (ablation)
    riemann_solver: str = "hlle"  #: "hlle" (paper) or "hllc"
    #: runtime numerics sanitizer policy: "off" (production default; zero
    #: overhead), "warn" (record violations, emit warnings, keep running)
    #: or "raise" (abort on the first violation).  See
    #: :mod:`repro.analysis.sanitizer`.
    sanitize: str = "off"
    sanitize_p_min: float = 0.0  #: pressure floor used by the sanitizer
    #: run telemetry policy: "off" (production default; the step loop
    #: carries no telemetry objects), "metrics" (phase/counter snapshot
    #: on the results) or "trace" (metrics + per-rank span events
    #: exportable as a Perfetto timeline).  See :mod:`repro.telemetry`.
    telemetry: str = "off"
    #: bound of the per-rank span-event buffer in trace mode
    telemetry_max_events: int = 65536
    #: runtime concurrency-check policy for the thread-based cluster
    #: runtime: "off" (production default; zero overhead), "warn"
    #: (record races/deadlocks on the run report, keep running) or
    #: "raise" (abort the offending rank on the first race).  See
    #: :mod:`repro.analysis.concurrency`.
    concurrency_check: str = "off"
    #: step-level flight recorder output path (JSONL, schema
    #: ``repro.flight/v1``; see :mod:`repro.telemetry.flight`), or None
    #: (off, the production default; the step loop carries no recorder).
    flight_out: str | None = None
    #: flight records buffered between flushes of the shared sink
    flight_flush_every: int = 32
    #: steps between live progress heartbeats emitted by rank 0 through
    #: :class:`repro.telemetry.ProgressReporter` (0 = silent, default)
    progress_interval: int = 0

    # -- parallelization ---------------------------------------------------
    ranks: int = 1  #: simulated MPI ranks
    num_workers: int = 4  #: threads per rank (dispatch simulation)
    periodic: tuple[bool, bool, bool] = (False, False, False)
    #: cluster runtime: "sim" (rank threads in one interpreter, the
    #: default -- deterministic, debuggable, race-trackable) or "procs"
    #: (each rank a real OS process exchanging halos through
    #: shared-memory rings -- real multi-core scaling).  Both backends
    #: are bit-identical on the same config; see docs/cluster.md.
    cluster_backend: str = "sim"

    # -- boundaries ----------------------------------------------------------
    wall: tuple[int, int] | None = None  #: (axis, side) of a solid wall
    boundary_default: str = "extrapolate"
    #: optional erosion model accumulated on the wall (requires ``wall``);
    #: an :class:`repro.sim.erosion.ErosionModel` instance.
    erosion: object | None = None

    # -- termination --------------------------------------------------------
    max_steps: int = 100
    t_end: float = float("inf")

    # -- diagnostics & I/O --------------------------------------------------
    diag_interval: int = 1  #: steps between diagnostic records
    dump_interval: int = 0  #: steps between compressed dumps (0 = never)
    dump_dir: str = "."  #: directory of dump files
    eps_pressure: float = 1e-2  #: decimation threshold for p (paper)
    eps_gamma: float = 1e-3  #: decimation threshold for Gamma (paper)
    dump_guaranteed: bool = False  #: strict L-inf bound vs paper thresholds
    collect_final_field: bool = True  #: return the assembled final field
    checkpoint_interval: int = 0  #: steps between checkpoints (0 = never)
    checkpoint_dir: str = "."
    #: checkpoint generations retained by rotation (0 = keep everything)
    checkpoint_keep: int = 0

    # -- resilience ---------------------------------------------------------
    #: point-to-point receive / collective wait timeout in seconds
    #: (None = the communicator default; lower it for chaos tests so a
    #: dropped message is diagnosed quickly)
    comm_timeout: float | None = None
    #: declarative chaos spec: a :class:`repro.resilience.FaultPlan`,
    #: a dict/JSON-compatible mapping, or None (no injection)
    fault_plan: object | None = None
    #: recovery attempts the supervised driver may spend before giving up
    max_recoveries: int = 3
    #: after a rank loss, relaunch on a smaller feasible rank count
    recovery_shrink: bool = False

    def __post_init__(self):
        if isinstance(self.cells, int):
            self.cells = (self.cells, self.cells, self.cells)
        else:
            self.cells = tuple(int(c) for c in self.cells)
        if self.block_size < 6:
            raise ValueError("block_size must be at least 6 (WENO ghosts)")
        for c in self.cells:
            if c % self.block_size:
                raise ValueError(
                    f"cells={self.cells} not divisible by "
                    f"block_size={self.block_size}"
                )
        from ..node.solver import check_scheme

        check_scheme(self.weno_order, self.riemann_solver, self.fused_weno,
                     self.use_slices)
        if self.cfl <= 0 or self.cfl > 1:
            raise ValueError("cfl must be in (0, 1]")
        if self.ranks < 1:
            raise ValueError("ranks must be >= 1")
        if self.erosion is not None and self.wall is None:
            raise ValueError("erosion accumulation requires a wall")
        # A mistyped boundary fails here, with its field named -- not
        # from inside the first RHS of some rank.
        if isinstance(self.wall, list):  # a decoded request
            self.wall = tuple(self.wall)
        for name, spec in (
            ("boundary_default", {"default": self.boundary_default}),
            ("wall", {"faces": {} if self.wall is None
                      else {self.wall: "reflect"}}),
        ):
            try:
                BoundarySpec(**spec)
            except ValueError as exc:
                raise ValueError(
                    f"{name}={getattr(self, name)!r}: {exc}") from None
        from ..analysis.sanitizer import POLICIES

        if self.sanitize not in POLICIES:
            raise ValueError(
                f"sanitize={self.sanitize!r} not in {POLICIES}"
            )
        from ..telemetry import MODES

        if self.telemetry not in MODES:
            raise ValueError(
                f"telemetry={self.telemetry!r} not in {MODES}"
            )
        if self.telemetry_max_events < 0:
            raise ValueError("telemetry_max_events must be >= 0")
        if self.flight_flush_every < 1:
            raise ValueError("flight_flush_every must be >= 1")
        if self.progress_interval < 0:
            raise ValueError("progress_interval must be >= 0")
        from ..analysis.concurrency import POLICIES as CONCURRENCY_POLICIES

        if self.concurrency_check not in CONCURRENCY_POLICIES:
            raise ValueError(
                f"concurrency_check={self.concurrency_check!r} not in "
                f"{CONCURRENCY_POLICIES}"
            )
        if self.cluster_backend not in ("sim", "procs"):
            raise ValueError(
                f"cluster_backend={self.cluster_backend!r} not in "
                f"('sim', 'procs')"
            )
        if self.cluster_backend == "procs" and self.concurrency_check != "off":
            raise ValueError(
                "concurrency_check requires the thread-based 'sim' "
                "backend: the runtime race tracker cannot observe "
                "separate rank processes"
            )
        if self.checkpoint_keep < 0:
            raise ValueError("checkpoint_keep must be >= 0")
        if self.comm_timeout is not None and self.comm_timeout <= 0:
            raise ValueError("comm_timeout must be positive")
        if self.max_recoveries < 0:
            raise ValueError("max_recoveries must be >= 0")
        if self.fault_plan is not None:
            from ..resilience.plan import FaultPlan

            if isinstance(self.fault_plan, dict):
                self.fault_plan = FaultPlan.from_dict(self.fault_plan)
            elif not isinstance(self.fault_plan, FaultPlan):
                raise ValueError(
                    "fault_plan must be a FaultPlan, a mapping, or None"
                )

    @property
    def h(self) -> float:
        """Uniform grid spacing (set by the x extent)."""
        return self.extent / self.cells[2]

    @property
    def global_blocks(self) -> tuple[int, int, int]:
        return tuple(c // self.block_size for c in self.cells)

    def boundary_spec(self) -> BoundarySpec:
        """Node-layer boundary specification implied by this config.

        Periodicity is *not* expressed here: the cluster topology resolves
        periodic faces through the halo exchange (even on a single rank,
        whose provider serves the wrapped faces from its own grid), so the
        node layer only ever applies physical boundary conditions at true
        domain faces.
        """
        faces = {}
        if self.wall is not None:
            faces[self.wall] = "reflect"
        return BoundarySpec(default=self.boundary_default, faces=faces)

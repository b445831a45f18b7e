"""Cluster layer: domain decomposition and inter-rank exchange.

"The cluster layer is responsible for the domain decomposition and the
inter-rank information exchange." (paper Section 6)

One communicator protocol (:class:`~repro.cluster.mpi_sim.Communicator`:
point-to-point API, collectives, deadlock watchdog, fault hook) carries
the paper's control flow (non-blocking halo exchange overlapped with
interior-block computation, max-allreduce for the time step, and an
exclusive prefix sum ahead of collective compressed writes) over two
interchangeable transports:

* :mod:`repro.cluster.mpi_sim` -- ranks as threads of one interpreter,
  frames in mailboxes (deterministic, debuggable, race-trackable); the
  default.
* :mod:`repro.cluster.procs` -- ranks as real OS processes exchanging
  CRC-framed messages through shared-memory rings (real multi-core
  scaling; bit-identical results).

Select per run with ``SimulationConfig.cluster_backend``; see
``docs/cluster.md`` for the backend matrix.
"""

from .._exports import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "checkpoint": (
        "checkpoint_path", "list_checkpoints", "prune_checkpoints",
        "read_checkpoint_field", "read_checkpoint_meta", "write_checkpoint",
    ),
    "driver": (
        "RankResult", "RunResult", "Simulation", "StepRecord", "rank_main",
    ),
    "halo": ("HaloExchange", "RemoteGhostProvider", "extract_face_slab"),
    "mpi_sim": (
        "ANY_SOURCE", "ANY_TAG", "CommTimeoutError", "Communicator", "Request",
        "SimComm", "SimWorld", "WorldAbortError", "WorldError",
    ),
    "procs": (
        "ProcsComm", "ProcsWorld", "RankLostError", "RingCorruptionError",
    ),
    "topology": ("CartTopology", "balanced_dims", "feasible_rank_counts"),
})

"""Cross-backend differential suite: ``procs`` must equal ``sim`` bitwise.

The process-parallel backend (:mod:`repro.cluster.procs`) is only
admissible if it is *indistinguishable* from the thread-based reference
backend on the same seeded configuration: identical final fields,
identical dt sequence, identical diagnostics series, identical
conservation sums.  Bit-identity is achievable (and therefore required)
because both backends run the protocol's one collective code (the same
dissemination exchange, the same rank-ordered fold) -- any difference is
a bug, not noise.

Every SPMD ingredient here is module-level / a plain dataclass so the
spawn context can pickle it into the rank processes.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.cluster import Simulation
from repro.cluster.mpi_sim import WorldError
from repro.cluster.procs import ProcsWorld, RankLostError
from repro.sim.cloud import Bubble
from repro.sim.config import SimulationConfig
from repro.sim.ic import cloud_collapse
from repro.telemetry import read_flight

BASE = dict(cells=16, block_size=8)


@pytest.fixture(autouse=True)
def _no_leaked_resources(resource_ledger):
    """Every cross-backend test must wind down to zero leaked
    segments, rank processes and threads (enforced at runtime by
    :class:`repro.analysis.ledger.ResourceLedger`)."""
    yield

#: Diagnostics attributes compared series-wise across backends.
DIAG_SERIES = ("max_pressure", "kinetic_energy", "vapor_volume",
               "equivalent_radius")


def collapse_ic():
    """An asymmetric two-bubble collapse: every rank owns moving flow."""
    return cloud_collapse(
        [Bubble((0.42, 0.55, 0.47), 0.18), Bubble((0.65, 0.4, 0.62), 0.12)],
        p_liquid=500.0,
    )


def _run(backend, ranks, steps=3, ic=None, **overrides):
    cfg = SimulationConfig(
        **BASE, max_steps=steps, ranks=ranks, cluster_backend=backend,
        comm_timeout=60.0, **overrides,
    )
    return Simulation(cfg, ic if ic is not None else collapse_ic()).run()


def _assert_equivalent(res_sim, res_procs):
    """The full differential contract between two RunResults."""
    # Final fields: bit-identical.
    np.testing.assert_array_equal(res_sim.final_field, res_procs.final_field)
    # Time stepping: identical dt sequence (the DT allreduce agreed).
    assert [r.dt for r in res_sim.records] == \
        [r.dt for r in res_procs.records]
    assert [r.time for r in res_sim.records] == \
        [r.time for r in res_procs.records]
    # Diagnostics series: identical reductions.
    for name in DIAG_SERIES:
        np.testing.assert_array_equal(res_sim.series(name),
                                      res_procs.series(name))
    # Conservation: identical global mass/energy sums of the final state.
    for q in (0, 4):  # RHO, ENERGY
        assert (res_sim.final_field[..., q].sum()
                == res_procs.final_field[..., q].sum())
    # Traffic accounting: same halo messages, same bytes, per rank.
    for rs, rp in zip(res_sim.rank_results, res_procs.rank_results):
        assert rs.messages_sent == rp.messages_sent
        assert rs.bytes_sent == rp.bytes_sent


@pytest.mark.parametrize("riemann_solver", ["hlle", "hllc"])
@pytest.mark.parametrize("ranks", [1, 2, 4])
def test_differential(ranks, riemann_solver):
    """Same seeded config, both backends: bit-identical outcomes."""
    res_sim = _run("sim", ranks, riemann_solver=riemann_solver)
    res_procs = _run("procs", ranks, riemann_solver=riemann_solver)
    _assert_equivalent(res_sim, res_procs)


def test_differential_restart_from_checkpoint(tmp_path):
    """A checkpoint written by one backend restarts bit-exact on both."""
    ck = tmp_path / "ck"
    ck.mkdir()
    # Write the checkpoint with the reference backend at step 2.
    _run("sim", 2, steps=2, checkpoint_interval=2,
         checkpoint_dir=str(ck))
    ckpt = str(ck / "ckpt_000002.rck")
    assert os.path.exists(ckpt)

    def restarted(backend):
        cfg = SimulationConfig(
            **BASE, max_steps=4, ranks=2, cluster_backend=backend,
            comm_timeout=60.0,
        )
        return Simulation(cfg, collapse_ic(), restart_from=ckpt).run()

    res_sim = restarted("sim")
    res_procs = restarted("procs")
    _assert_equivalent(res_sim, res_procs)
    # And both match the uninterrupted reference run.
    full = _run("sim", 2, steps=4)
    np.testing.assert_array_equal(res_procs.final_field, full.final_field)


def test_periodic_self_exchange():
    """Single-rank periodic topology: both backends serve the wrapped
    faces from the rank's own grid, with the same bytes and no traffic."""
    res_sim = _run("sim", 1, periodic=(True, True, True))
    res_procs = _run("procs", 1, periodic=(True, True, True))
    _assert_equivalent(res_sim, res_procs)


def test_procs_flight_stream_valid(tmp_path):
    """A 2-rank procs run yields one complete ``repro.flight/v1`` stream.

    Rank processes write per-rank part files; the driver merges them on
    completion into a single-header stream ordered by (step, rank) and
    removes the parts -- the regression this guards is the thread-only
    refcounted sink silently splitting or clobbering the stream.
    """
    out = tmp_path / "flight.jsonl"
    res = _run("procs", 2, steps=4, flight_out=str(out))
    assert len(res.records) == 4
    header, steps = read_flight(str(out))
    assert header["schema"] == "repro.flight/v1"
    assert header["ranks"] == 2
    assert [(s["step"], s["rank"]) for s in steps] == [
        (step, rank) for step in range(1, 5) for rank in range(2)
    ]
    for s in steps:
        assert s["dt"] > 0 and "phases" in s and "drift" in s
    # Parts were merged and removed.
    assert not list(tmp_path.glob("flight.jsonl.rank*"))


def test_procs_rejects_runtime_race_tracker():
    """The runtime race tracker is thread-only; procs must refuse it."""
    with pytest.raises(ValueError, match="concurrency_check"):
        SimulationConfig(**BASE, ranks=2, cluster_backend="procs",
                         concurrency_check="warn")


def test_config_validates_backend_name():
    with pytest.raises(ValueError, match="cluster_backend"):
        SimulationConfig(**BASE, cluster_backend="mpi")


# -- the procs supervisor waits on result pipes, not on a clock -----------


def _report_and_exit(comm):
    return comm.rank


def _stamp_then_die(comm, stamp_path):
    """Rank 1 records the host-wide clock and SIGKILLs itself; its peer
    waits in a barrier the world abort must wake."""
    if comm.rank == 1:
        with open(stamp_path, "w") as f:
            f.write(repr(time.monotonic()))
        os.kill(os.getpid(), signal.SIGKILL)
    comm.barrier()
    return comm.rank


class TestProcsSupervisor:
    def test_killed_rank_is_lost_at_eof_not_after_a_grace(self, tmp_path):
        stamp = tmp_path / "killed_at"
        with pytest.raises(WorldError) as err:
            ProcsWorld(2, timeout=60.0).run(_stamp_then_die, str(stamp))
        surfaced = time.monotonic()
        lost = err.value.failures[1]
        assert isinstance(lost, RankLostError)
        assert f"exitcode {-signal.SIGKILL}" in str(lost)
        assert surfaced - float(stamp.read_text()) < 0.3

    @pytest.mark.parametrize(
        "worlds", [2, pytest.param(13, marks=pytest.mark.slow)])
    def test_rank_that_reports_and_exits_is_never_lost(self, worlds):
        # EOF follows every byte a rank sent: a result is never overtaken
        # by its sender's death (13 worlds of 4: 52 such exits).
        for _ in range(worlds):
            assert ProcsWorld(4, timeout=60.0).run(_report_and_exit) \
                == [0, 1, 2, 3]

"""Tests of the communicator protocol (repro.cluster.mpi_sim) on both
transports: the thread world and the process world (repro.cluster.procs).

Mains run by :class:`ProcsWorld` are module-level: spawn pickles them.
"""

import importlib
import math
import os
import signal
import sys
import time

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.cluster.mpi_sim import (
    ANY_SOURCE,
    ANY_TAG,
    CommTimeoutError,
    DeadlockError,
    Request,
    SimWorld,
    WorldAbortError,
    WorldError,
)
from repro.cluster.procs import ProcsComm, ProcsWorld, RankLostError
from repro.sim.config import SimulationConfig


class TestWorldBasics:
    def test_invalid_size(self):
        with pytest.raises(ValueError):
            SimWorld(0)

    def test_single_rank_fast_path(self):
        world = SimWorld(1)
        out = world.run(lambda comm: comm.rank)
        assert out == [0]

    def test_rank_and_size(self):
        world = SimWorld(4)
        out = world.run(lambda comm: (comm.rank, comm.size))
        assert out == [(r, 4) for r in range(4)]

    def test_exception_propagates(self):
        world = SimWorld(2, timeout=5.0)

        def main(comm):
            if comm.rank == 1:
                raise RuntimeError("boom")
            return "ok"

        with pytest.raises(WorldError) as exc:
            world.run(main)
        assert 1 in exc.value.failures

    def test_extra_args(self):
        world = SimWorld(2)
        out = world.run(lambda comm, a, b: a + b + comm.rank, 10, 20)
        assert out == [30, 31]


class TestPointToPoint:
    def test_send_recv_object(self):
        world = SimWorld(2)

        def main(comm):
            if comm.rank == 0:
                comm.send({"a": 7}, dest=1, tag=11)
                return None
            return comm.recv(source=0, tag=11)

        assert world.run(main)[1] == {"a": 7}

    def test_send_recv_array_copies(self):
        world = SimWorld(2)

        def main(comm):
            if comm.rank == 0:
                data = np.arange(10.0)
                comm.send(data, dest=1)
                data[:] = -1  # must not affect the delivered message
                return None
            got = comm.recv(source=0)
            return got.sum()

        assert world.run(main)[1] == pytest.approx(45.0)

    def test_selective_receive_by_tag(self):
        world = SimWorld(2)

        def main(comm):
            if comm.rank == 0:
                comm.send("first", dest=1, tag=1)
                comm.send("second", dest=1, tag=2)
                return None
            second = comm.recv(source=0, tag=2)
            first = comm.recv(source=0, tag=1)
            return (first, second)

        assert world.run(main)[1] == ("first", "second")

    def test_any_source_any_tag(self):
        world = SimWorld(3)

        def main(comm):
            if comm.rank != 0:
                comm.send(comm.rank, dest=0, tag=comm.rank)
                return None
            got = {comm.recv(ANY_SOURCE, ANY_TAG) for _ in range(2)}
            return got

        assert world.run(main)[0] == {1, 2}

    @pytest.mark.parametrize("size", [3, 8])
    def test_concurrent_senders_reach_one_mailbox_in_order(self, size):
        """Every other rank sends rank 0 a run of messages at once: rank
        0 receives each exactly once, and each sender's in send order."""
        world = SimWorld(size, timeout=30.0)
        count = 200

        def main(comm):
            if comm.rank != 0:
                for i in range(count):
                    comm.send((comm.rank, i), dest=0, tag=7)
                return None
            got = {source: [] for source in range(1, size)}
            for _ in range(count * (size - 1)):
                source, i = comm.recv(ANY_SOURCE, tag=7)
                got[source].append(i)
            return got

        got = world.run(main)[0]
        assert got == {source: list(range(count))
                       for source in range(1, size)}

    def test_isend_irecv(self):
        world = SimWorld(2)

        def main(comm):
            if comm.rank == 0:
                req = comm.isend(np.ones(4), dest=1, tag=5)
                req.wait()
                return None
            req = comm.irecv(source=0, tag=5)
            return float(req.wait().sum())

        assert world.run(main)[1] == pytest.approx(4.0)

    def test_self_message(self):
        world = SimWorld(1)

        def main(comm):
            comm.send("loop", dest=0, tag=3)
            return comm.recv(source=0, tag=3)

        assert world.run(main) == ["loop"]

    def test_invalid_dest(self):
        world = SimWorld(1)
        with pytest.raises(WorldError):
            world.run(lambda comm: comm.send(1, dest=5))

    def test_recv_timeout(self):
        world = SimWorld(1, timeout=0.1)
        with pytest.raises(WorldError) as exc:
            world.run(lambda comm: comm.recv(source=0, timeout=0.1))
        assert isinstance(exc.value.failures[0], CommTimeoutError)

    def test_traffic_accounting(self):
        world = SimWorld(2)

        def main(comm):
            if comm.rank == 0:
                comm.send(np.zeros(100, dtype=np.float32), dest=1)
                return (comm.bytes_sent, comm.messages_sent)
            comm.recv(source=0)
            return (comm.bytes_sent, comm.messages_sent)

        out = world.run(main)
        assert out[0] == (400, 1)
        assert out[1] == (0, 0)


class TestCollectives:
    def test_allreduce_sum(self):
        world = SimWorld(4)
        out = world.run(lambda comm: comm.allreduce(comm.rank + 1, op="sum"))
        assert out == [10] * 4

    def test_allreduce_max_min(self):
        world = SimWorld(3)
        assert world.run(lambda c: c.allreduce(c.rank, op="max")) == [2] * 3
        assert world.run(lambda c: c.allreduce(c.rank, op="min")) == [0] * 3

    def test_allreduce_arrays(self):
        world = SimWorld(3)
        out = world.run(lambda c: c.allreduce(np.full(3, float(c.rank)), op="sum"))
        for arr in out:
            np.testing.assert_allclose(arr, 3.0)

    def test_bcast(self):
        world = SimWorld(3)
        out = world.run(
            lambda c: c.bcast("payload" if c.rank == 1 else None, root=1)
        )
        assert out == ["payload"] * 3

    def test_gather(self):
        world = SimWorld(3)
        out = world.run(lambda c: c.gather(c.rank * 2, root=0))
        assert out[0] == [0, 2, 4]
        assert out[1] is None and out[2] is None

    def test_allgather(self):
        world = SimWorld(3)
        out = world.run(lambda c: c.allgather(c.rank))
        assert out == [[0, 1, 2]] * 3

    def test_exscan(self):
        """The paper's exclusive prefix sum for I/O offsets."""
        world = SimWorld(4)
        out = world.run(lambda c: c.exscan(10 * (c.rank + 1), op="sum"))
        assert out == [0, 10, 30, 60]

    def test_exscan_matches_numpy(self, rng):
        sizes = rng.integers(1, 100, size=5).tolist()
        world = SimWorld(5)
        out = world.run(lambda c: c.exscan(sizes[c.rank]))
        expected = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        assert out == expected.tolist()

    def test_barrier(self):
        world = SimWorld(4)
        order = []

        def main(comm):
            order.append(("pre", comm.rank))
            comm.barrier()
            order.append(("post", comm.rank))

        world.run(main)
        pres = [i for i, (p, _) in enumerate(order) if p == "pre"]
        posts = [i for i, (p, _) in enumerate(order) if p == "post"]
        assert max(pres) < min(posts)

    def test_repeated_collectives_in_order(self):
        """Collective generations must not cross-talk across calls."""
        world = SimWorld(3)

        def main(comm):
            a = comm.allreduce(comm.rank, op="sum")
            b = comm.allreduce(comm.rank * 10, op="sum")
            c = comm.exscan(1)
            return (a, b, c)

        out = world.run(main)
        assert out == [(3, 30, r) for r in range(3)]


class TestRequest:
    def test_wait_is_idempotent(self):
        calls = []
        req = Request(lambda t: calls.append(1) or "x")
        assert req.wait() == "x"
        assert req.wait() == "x"
        assert len(calls) == 1


# -- one API suite for both transports ---------------------------------------


def _timed_out(fn) -> bool:
    try:
        fn()
    except CommTimeoutError:
        return True
    return False


def _api_main(comm):
    """Every point-to-point and collective case in one SPMD program
    (size >= 3); returns this rank's observations."""
    rank, size = comm.rank, comm.size
    out = {}
    # Collectives first: their frames must not count as traffic.
    comm.barrier()
    out["sum"] = comm.allreduce(rank + 1)
    out["max_min"] = (comm.allreduce(rank, op="max"),
                      comm.allreduce(rank, op="min"))
    out["array_sum"] = comm.allreduce(np.full(3, float(rank)))
    out["bcast"] = comm.bcast("payload" if rank == 1 else None, root=1)
    out["gather"] = comm.gather(rank * 2, root=0)
    out["allgather"] = comm.allgather(rank)
    out["exscan"] = comm.exscan(10 * (rank + 1))
    out["exscan_identity"] = (comm.exscan(5), comm.exscan(2.5),
                              comm.exscan(np.ones(3)))
    out["collective_traffic"] = (comm.messages_sent, comm.bytes_sent)
    out["nan"] = [
        math.isnan(comm.allreduce(math.nan if rank == r else float(rank),
                                  op=op))
        for op in ("max", "min") for r in range(size)]

    # Point to point: rank 0 -> rank 1.
    if rank == 0:
        comm.send(np.zeros(100, dtype=np.float32), dest=1, tag=20)
        out["traffic"] = (comm.messages_sent, comm.bytes_sent)
        comm.send({"a": 7}, dest=1, tag=11)
        data = np.arange(10.0)
        comm.send(data, dest=1, tag=12)
        data[:] = -1  # must not affect the delivered message
        comm.send("first", dest=1, tag=1)
        comm.send("second", dest=1, tag=2)
        comm.isend(np.ones(4), dest=1, tag=5).wait()
    elif rank == 1:
        comm.recv(source=0, tag=20)
        out["traffic"] = (comm.messages_sent, comm.bytes_sent)
        out["object"] = comm.recv(source=0, tag=11)
        out["array_copy"] = float(comm.recv(source=0, tag=12).sum())
        second = comm.recv(source=0, tag=2)
        out["by_tag"] = (comm.recv(source=0, tag=1), second)
        out["irecv"] = float(comm.irecv(source=0, tag=5).wait().sum())
    comm.send("loop", dest=rank, tag=3)
    out["self"] = comm.recv(source=rank, tag=3)
    try:
        comm.send(1, dest=size)
    except ValueError:
        out["invalid_dest"] = True
    out["recv_timeout"] = _timed_out(
        lambda: comm.recv(source=rank, tag=99, timeout=0.05))

    # A wildcard receive posted while collective frames are buffered:
    # rank size-1 sends its first allreduce round to rank 0 right after
    # "ready", and the wildcard must leave that frame to the allreduce.
    if rank == size - 1:
        comm.send("ready", dest=0, tag=9)
    if rank == 0:
        comm.recv(source=size - 1, tag=9)
        out["wildcard_skips_collective"] = _timed_out(
            lambda: comm.recv(ANY_SOURCE, ANY_TAG, timeout=0.1))
    out["after_wildcard"] = comm.allreduce(1)
    if rank:
        comm.send(rank, dest=0, tag=rank)
    else:
        out["any_source"] = {comm.recv(ANY_SOURCE, ANY_TAG)
                             for _ in range(size - 1)}
    return out


@pytest.fixture(scope="module", params=[
    ("sim", 3), ("sim", 5), ("procs", 3),
    # Five rank processes cost ~3 s of spawning on a 2-core host; the
    # procs-smoke CI job runs this case on every push.
    pytest.param(("procs", 5), marks=pytest.mark.slow),
], ids=lambda p: f"{p[0]}{p[1]}")
def api_run(request):
    """``(size, per-rank observations)`` of one run of :func:`_api_main`."""
    backend, size = request.param
    world = (ProcsWorld if backend == "procs" else SimWorld)(size, timeout=30.0)
    return size, world.run(_api_main)


class TestBothBackends:
    def test_collectives(self, api_run):
        size, out = api_run
        for rank, o in enumerate(out):
            assert o["sum"] == size * (size + 1) // 2
            assert o["max_min"] == (size - 1, 0)
            np.testing.assert_array_equal(o["array_sum"],
                                          np.full(3, size * (size - 1) / 2))
            assert o["bcast"] == "payload"
            assert o["gather"] == ([2 * r for r in range(size)]
                                   if rank == 0 else None)
            assert o["allgather"] == list(range(size))
            assert o["exscan"] == 5 * rank * (rank + 1)
            assert o["after_wildcard"] == size

    def test_exscan_identity(self, api_run):
        size, out = api_run
        scalar, real, array = out[0]["exscan_identity"]
        assert (scalar, type(scalar)) == (0, int)
        assert (real, type(real)) == (0.0, float)
        np.testing.assert_array_equal(array, np.zeros(3))
        assert out[2]["exscan_identity"][:2] == (10, 5.0)
        np.testing.assert_array_equal(out[2]["exscan_identity"][2],
                                      np.full(3, 2.0))

    def test_collectives_are_not_traffic(self, api_run):
        _, out = api_run
        assert all(o["collective_traffic"] == (0, 0) for o in out)

    def test_nan_reaches_max_and_min_from_any_rank(self, api_run):
        size, out = api_run
        assert all(o["nan"] == [True] * (2 * size) for o in out)

    def test_point_to_point(self, api_run):
        size, out = api_run
        assert out[0]["traffic"] == (1, 400)
        assert out[1]["traffic"] == (0, 0)
        assert out[1]["object"] == {"a": 7}
        assert out[1]["array_copy"] == 45.0
        assert out[1]["by_tag"] == ("first", "second")
        assert out[1]["irecv"] == 4.0
        for o in out:
            assert o["self"] == "loop"
            assert o["invalid_dest"] and o["recv_timeout"]
        assert out[0]["any_source"] == set(range(1, size))

    def test_wildcard_receive_leaves_collective_frames(self, api_run):
        _, out = api_run
        assert out[0]["wildcard_skips_collective"]


def _die_during_allreduce(comm):
    """Rank 1 dies -- a real SIGKILL on the procs transport -- and so
    never joins the allreduce its peers wait in."""
    if comm.rank == 1:
        if isinstance(comm, ProcsComm):
            os.kill(os.getpid(), signal.SIGKILL)
        raise RuntimeError("rank 1 died")
    return comm.allreduce(1.0)


@pytest.mark.parametrize("world_cls", [SimWorld, ProcsWorld])
def test_dead_rank_wakes_allreduce_peers(world_cls, resource_ledger):
    start = time.monotonic()
    with pytest.raises(WorldError) as err:
        world_cls(3, timeout=60.0).run(_die_during_allreduce)
    assert time.monotonic() - start < 10.0
    failures = err.value.failures
    assert type(failures[1]) is (RankLostError if world_cls is ProcsWorld
                                 else RuntimeError)
    assert all(isinstance(failures[r], WorldAbortError) for r in (0, 2))


def test_contribution_sets_survive_thread_interleaving():
    """Sim ranks share their contribution sets between threads: more rank
    threads than cores, switching every microsecond, still see every
    contribution of every collective."""
    def main(comm):
        return [comm.allgather((i, comm.rank)) for i in range(20)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        start = time.monotonic()
        out = SimWorld(7, timeout=30.0).run(main)
    finally:
        sys.setswitchinterval(interval)
    assert time.monotonic() - start < 30.0
    expected = [[(i, r) for r in range(7)] for i in range(20)]
    assert out == [expected] * 7


# -- the deadlock watchdog --------------------------------------------------


class TestDeadlockWatchdog:
    def test_seeded_deadlock_produces_localized_report(self):
        world = SimWorld(2, timeout=1.0)

        def main(comm):
            if comm.rank == 0:
                comm.send(b"x", dest=1, tag=5)
                comm.recv(source=1, tag=6)  # never sent
            else:
                comm.recv(source=0, tag=9)  # wrong tag: never matches

        start = time.monotonic()
        with pytest.raises(WorldError) as exc:
            world.run(main)
        # The watchdog fired instead of hanging for the default 120 s.
        assert time.monotonic() - start < 30
        deadlocks = [
            e for e in exc.value.failures.values()
            if isinstance(e, DeadlockError)
        ]
        assert deadlocks, exc.value.failures
        report = deadlocks[0].report
        assert "pending operation per rank" in report
        assert "recv" in report
        # The unmatched edge set names rank 0's orphaned tag-5 send.
        assert "tag=5" in report

    def test_deadlock_report_without_pending_sends(self):
        world = SimWorld(2, timeout=0.5)

        def main(comm):
            comm.recv(source=1 - comm.rank, tag=0)  # nobody sends

        with pytest.raises(WorldError) as exc:
            world.run(main)
        (err,) = [e for e in exc.value.failures.values()
                  if isinstance(e, DeadlockError)][:1]
        assert "the matching send was never posted" in err.report


# -- the runtime race tracker is gone --------------------------------------


class TestNoRaceTracker:
    """The race tracker could not fire on the runtime it watched (every
    access it saw came with a fixed lock token); it is gone, and no
    way to ask for it is left."""

    def test_config_has_no_concurrency_check(self):
        with pytest.raises(TypeError, match="concurrency_check"):
            SimulationConfig(cells=16, block_size=8, concurrency_check="warn")

    @pytest.mark.parametrize("world_cls", [SimWorld, ProcsWorld])
    def test_worlds_take_no_tracker(self, world_cls):
        with pytest.raises(TypeError, match="tracker"):
            world_cls(2, tracker=object())

    def test_run_has_no_concurrency_check_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["run", "--cells", "16", "--steps", "1",
                      "--concurrency-check", "raise"])
        assert exc.value.code == 2
        assert "--concurrency-check" in capsys.readouterr().err

    def test_the_module_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.analysis.concurrency")

"""Tests for the inter-rank halo exchange (repro.cluster.halo)."""

import hashlib
import threading
from collections import Counter

import numpy as np
import pytest

from repro.cluster import Simulation
from repro.cluster.halo import HaloExchange, _face_tag, extract_face_slab
from repro.cluster.mpi_sim import SimWorld
from repro.cluster.procs import ProcsWorld
from repro.cluster.topology import CartTopology, balanced_dims
from repro.core.block import GHOSTS
from repro.node import Dispatcher, NodeSolver
from repro.node.grid import BlockGrid
from repro.physics.state import NQ
from repro.resilience import FaultInjector, FaultPlan, FaultSpec
from repro.resilience.detect import HaloCorruptionError, crc32_array
from repro.sim.cloud import Bubble
from repro.sim.config import SimulationConfig
from repro.sim.ic import cloud_collapse

from .conftest import bytes_equal, make_rng, make_smooth_aos


def coordinate_field(cells, origin=(0, 0, 0)):
    """AoS field encoding global cell coordinates (for exact checks)."""
    nz, ny, nx = cells
    out = np.zeros((nz, ny, nx, NQ), dtype=np.float32)
    z, y, x = np.meshgrid(
        np.arange(nz) + origin[0],
        np.arange(ny) + origin[1],
        np.arange(nx) + origin[2],
        indexing="ij",
    )
    out[..., 0] = z + 1
    out[..., 1] = y
    out[..., 2] = x
    out[..., 4] = z * 10000 + y * 100 + x
    out[..., 5] = 1.0
    return out


class TestExtractFaceSlab:
    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("side", [-1, 1])
    def test_matches_assembled_field(self, axis, side):
        g = BlockGrid((2, 2, 2), 8, h=1.0)
        field = coordinate_field(g.cells)
        g.from_array(field)
        slab = extract_face_slab(g, axis, side)
        sel = [slice(None)] * 3
        sel[axis] = slice(0, GHOSTS) if side == -1 else slice(-GHOSTS, None)
        np.testing.assert_array_equal(slab, field[tuple(sel)])


class TestHaloSplit:
    def test_no_neighbors_all_interior(self):
        world = SimWorld(1)

        def main(comm):
            topo = CartTopology((1, 1, 1))
            g = BlockGrid((2, 2, 2), 8, h=1.0)
            halo = HaloExchange(comm, topo, g)
            interior, halo_blocks = halo.halo_split()
            return len(interior), len(halo_blocks)

        assert world.run(main)[0] == (8, 0)

    def test_two_ranks_split(self):
        world = SimWorld(2)

        def main(comm):
            topo = CartTopology((2, 1, 1))
            g = BlockGrid((2, 2, 2), 8, h=1.0)
            halo = HaloExchange(comm, topo, g)
            interior, halo_blocks = halo.halo_split()
            # Blocks at the shared z-face are halo: 4 of 8.
            return sorted(b.index for b in halo_blocks)

        out = world.run(main)
        assert len(out[0]) == 4
        # rank 0's halo face is z-high (side +1) => bz == 1.
        assert all(idx[0] == 1 for idx in out[0])
        assert all(idx[0] == 0 for idx in out[1])

    def test_fully_periodic_all_halo(self):
        world = SimWorld(1)

        def main(comm):
            topo = CartTopology((1, 1, 1), periodic=(True, True, True))
            g = BlockGrid((2, 2, 2), 8, h=1.0)
            interior, halo_blocks = HaloExchange(comm, topo, g).halo_split()
            return len(interior), len(halo_blocks)

        assert world.run(main)[0] == (0, 8)


class TestExchange:
    def test_two_rank_ghosts_match_global_field(self):
        """After the exchange, the provider must serve exactly the global
        field data across the rank boundary."""
        global_field = coordinate_field((32, 16, 16))
        world = SimWorld(2)

        def main(comm):
            topo = CartTopology((2, 1, 1))
            g = BlockGrid((2, 2, 2), 8, h=1.0)
            z0 = comm.rank * 16
            g.from_array(global_field[z0 : z0 + 16])
            halo = HaloExchange(comm, topo, g)
            provider = halo.exchange()
            # rank 0 asks for its high-z ghosts of block (1, 0, 1):
            if comm.rank == 0:
                slab = provider((1, 0, 1), axis=0, side=1)
                expected = global_field[16 : 16 + GHOSTS, 0:8, 8:16]
                np.testing.assert_array_equal(slab, expected)
                assert provider((0, 0, 0), axis=1, side=-1) is None
            else:
                slab = provider((0, 1, 0), axis=0, side=-1)
                expected = global_field[16 - GHOSTS : 16, 8:16, 0:8]
                np.testing.assert_array_equal(slab, expected)
            return True

        assert world.run(main) == [True, True]

    def test_periodic_self_exchange(self):
        """A single periodic rank's wrapped faces are served locally, from
        its own grid: the provider has them, no message carried them."""
        field = coordinate_field((16, 16, 16))
        world = SimWorld(1)

        def main(comm):
            topo = CartTopology((1, 1, 1), periodic=(True, True, True))
            g = BlockGrid((2, 2, 2), 8, h=1.0)
            g.from_array(field)
            provider = HaloExchange(comm, topo, g).exchange()
            slab = provider((0, 0, 0), axis=2, side=-1)  # low-x wraps
            expected = field[0:8, 0:8, -GHOSTS:]
            np.testing.assert_array_equal(slab, expected)
            assert comm.messages_sent == 0
            return True

        assert world.run(main) == [True]

    def test_a_periodic_face_with_a_live_neighbour_is_the_topologys(self):
        """A node-layer ``periodic`` boundary wraps around the rank's own
        grid only where no message fills the face: with two ranks along a
        periodic z, both z faces of a rank are its neighbour's cells."""
        from repro.node import BoundarySpec

        field = make_smooth_aos((32, 16, 16), make_rng()).astype(np.float32)
        periodic = BoundarySpec.all_periodic()

        def rank_rhs(grid, provider=None):
            solver = NodeSolver(grid, boundary=periodic,
                                dispatcher=Dispatcher(num_workers=1))
            return {idx: rhs.copy() for idx, rhs in
                    solver.evaluate_rhs(None, provider).items()}

        whole = BlockGrid((4, 2, 2), 8, h=0.1)
        whole.from_array(field)
        want = rank_rhs(whole)  # one rank: the wrap is the domain's

        def main(comm):
            topo = CartTopology((2, 1, 1), periodic=(True, True, True))
            g = BlockGrid((2, 2, 2), 8, h=0.1)
            g.from_array(field[comm.rank * 16:(comm.rank + 1) * 16])
            halo = HaloExchange(comm, topo, g)
            assert len(halo.halo_split()[1]) == 8
            return rank_rhs(g, halo.exchange()), rank_rhs(g)

        for rank, (got, wrapped) in enumerate(SimWorld(2).run(main)):
            for (bz, by, bx), rhs in got.items():
                assert bytes_equal(rhs, want[bz + 2 * rank, by, bx])
                assert not bytes_equal(rhs, wrapped[bz, by, bx])

    def test_message_sizes(self):
        world = SimWorld(2)

        def main(comm):
            topo = CartTopology((2, 1, 1))
            g = BlockGrid((2, 2, 2), 8, h=1.0)
            return HaloExchange(comm, topo, g).message_bytes()

        sizes = world.run(main)[0]
        # Only the shared z-face has a neighbor; slab = 3*16*16 cells.
        assert list(sizes) == [(0, 1)]
        assert sizes[(0, 1)] == GHOSTS * 16 * 16 * NQ * 4


# -- an unframed slab is corruption ---------------------------------------


def _bare_slab_peer(comm, injector, payload=None):
    """Rank 1 sends rank 0 ``payload(slab)`` -- the bare ndarray when
    None -- on the tag of its low z face instead of a framed slab; rank
    0's exchange must refuse it."""
    topo = CartTopology((2, 1, 1))
    g = BlockGrid((1, 1, 1), 8, h=1.0)
    halo = HaloExchange(comm, topo, g, injector=injector)
    if comm.rank == 1:
        slab = extract_face_slab(g, 0, -1)
        comm.send(slab if payload is None else payload(slab), dest=0,
                  tag=_face_tag(0, -1))
        comm.recv(source=0, tag=_face_tag(0, 1))  # rank 0's framed slab
        return None
    with pytest.raises(HaloCorruptionError) as exc:
        halo.exchange()
    return str(exc.value)


@pytest.mark.parametrize("world_cls", [SimWorld, ProcsWorld])
def test_an_unframed_halo_slab_is_corruption(world_cls):
    injector = FaultInjector()
    message, _ = world_cls(2, timeout=30.0, injector=injector).run(
        _bare_slab_peer, injector)
    assert "rank 1 (axis 0, side +1)" in message
    assert "unframed ndarray" in message
    assert injector.counters["detected_msg_corrupt"] == 1


#: payload name -> how the peer builds it from its slab: anything that
#: is not a HaloFrame, however close to one, is refused.
_UNFRAMED = {
    "bytes": lambda slab: slab.tobytes(),
    "NoneType": lambda slab: None,
    "tuple": lambda slab: (crc32_array(slab), slab),
    "dict": lambda slab: {"crc": crc32_array(slab), "payload": slab},
    "memoryview": lambda slab: memoryview(slab.tobytes()),
}


@pytest.mark.parametrize("kind", list(_UNFRAMED))
def test_any_unframed_payload_is_corruption(kind):
    injector = FaultInjector()
    message, _ = SimWorld(2, timeout=30.0, injector=injector).run(
        _bare_slab_peer, injector, _UNFRAMED[kind])
    assert "rank 1 (axis 0, side +1)" in message
    assert f"unframed {kind}, not a HaloFrame" in message
    assert injector.counters["detected_msg_corrupt"] == 1


# -- a rank is not its own neighbour --------------------------------------


def periodic_ic():
    """Two bubbles off every symmetry plane: no two faces of a rank hold
    the same cells."""
    return cloud_collapse([Bubble((1.2, 0.55, 0.4), 0.3),
                           Bubble((0.5, 0.3, 0.75), 0.15)], p_liquid=500.0)


#: ``halo2_b8``'s problem -- (32, 16, 16) cells in 8^3 blocks, periodic
#: -- for two steps.
PERIODIC = dict(cells=(32, 16, 16), block_size=8, periodic=(True,) * 3,
                max_steps=2, num_workers=1, diag_interval=0,
                comm_timeout=60.0, telemetry="metrics")
#: SHA-256 of the final fields, recorded when every periodic face was a
#: message, the faces a rank shares with itself included.
PERIODIC_SHA = "608fb989d5f63f287c34084b402e7ecf93ad3aa41a01f8f284e47d0d0fc622c3"
MIXED_SHA = "2da89c9b90e8a39d351ddf33895ac7bb44da82364db882faf3b2083b10ac21f0"
#: case -> (digest, config overrides).  Two ranks are dims (2, 1, 1):
#: z received, y and x the rank's own; four are (2, 2, 1): x its own.
#: The mixed case is periodic in x only, with a wall at z-low.
CASES = {
    "rank1_sim": (PERIODIC_SHA, dict(ranks=1)),
    "rank1_procs": (PERIODIC_SHA, dict(ranks=1, cluster_backend="procs")),
    "rank2_sim": (PERIODIC_SHA, dict(ranks=2)),
    "rank2_procs": (PERIODIC_SHA, dict(ranks=2, cluster_backend="procs")),
    "rank4_procs": (PERIODIC_SHA, dict(ranks=4, cluster_backend="procs")),
    "mixed2_sim": (MIXED_SHA, dict(ranks=2, periodic=(False, False, True),
                                   wall=(0, -1))),
}


@pytest.fixture(scope="module")
def periodic_run():
    """``periodic_run(case)``: the case's RunResult, run once a module."""
    runs = {}

    def run(case):
        if case not in runs:
            config = SimulationConfig(**{**PERIODIC, **CASES[case][1]})
            runs[case] = Simulation(config, periodic_ic()).run()
        return runs[case]

    return run


def _message_bytes(comm):
    """``message_bytes()`` of a rank of the periodic problem."""
    topo = CartTopology(balanced_dims(comm.size), (True,) * 3)
    _, counts = topo.subdomain_blocks(comm.rank, (4, 2, 2))
    return HaloExchange(comm, topo, BlockGrid(counts, 8, h=1.0)).message_bytes()


def _beyond(field, origin, index, axis, side, n=8):
    """The ``GHOSTS`` cells of periodic ``field`` beyond one block face."""
    cells = []
    for d in range(3):
        lo = origin[d] + index[d] * n
        span = (np.arange(lo - GHOSTS, lo) if side == -1 else
                np.arange(lo + n, lo + n + GHOSTS)) if d == axis else \
            np.arange(lo, lo + n)
        cells.append(span % field.shape[d])
    return field[np.ix_(*cells)]


class TestSelfFaces:
    @pytest.mark.parametrize("case", [
        "rank1_sim", "rank1_procs", "rank2_sim", "rank2_procs",
        pytest.param("rank4_procs", marks=pytest.mark.slow), "mixed2_sim"])
    def test_final_field_is_the_recorded_one(self, periodic_run, case):
        field = np.ascontiguousarray(periodic_run(case).final_field)
        assert hashlib.sha256(field.tobytes()).hexdigest() == CASES[case][0]

    @pytest.mark.parametrize("backend", ["sim", "procs"])
    def test_one_periodic_rank_sends_nothing(self, periodic_run, backend):
        result = periodic_run(f"rank1_{backend}")
        assert [(rr.messages_sent, rr.bytes_sent)
                for rr in result.rank_results] == [(0, 0)]
        assert result.telemetry.counters.get("halo_messages", 0) == 0

    @pytest.mark.parametrize("backend", ["sim", "procs"])
    def test_two_ranks_send_their_remote_faces_only(self, periodic_run,
                                                    backend):
        result = periodic_run(f"rank2_{backend}")
        steps = PERIODIC["max_steps"]
        sizes = SimWorld(2).run(_message_bytes)
        for rr, size in zip(result.rank_results, sizes):
            assert list(size) == [(0, -1), (0, 1)]
            assert rr.messages_sent == 6 * steps
            assert rr.bytes_sent == 3 * sum(size.values()) * steps
        counters = result.telemetry.counters
        assert counters["halo_messages"] == 2 * 6 * steps
        assert counters["halo_bytes"] == sum(
            rr.bytes_sent for rr in result.rank_results)

    def test_a_self_face_is_no_message_to_fault(self, periodic_run):
        """A message fault never addresses a face the rank shares with
        itself: corrupt every message of a 1-rank periodic run, and there
        are none to corrupt."""
        plan = FaultPlan(faults=[
            FaultSpec(kind="msg_corrupt", rank=0, max_hits=0)])
        injector = FaultInjector(plan)
        config = SimulationConfig(**PERIODIC, ranks=1, fault_plan=plan)
        result = Simulation(config, periodic_ic(), injector=injector).run()
        assert not [k for k in injector.counters if k.startswith("detected")]
        assert bytes_equal(result.final_field,
                           periodic_run("rank1_sim").final_field)


class TestPersistentProvider:
    """Two ranks along a periodic z: z faces received, y and x faces the
    rank's own -- both kinds of face in one exchange."""

    def test_box_plans_are_pointed_once(self, monkeypatch):
        """Over four stages of one exchange, ``plan_table`` is called in
        the first only: no box plan row is re-pointed after it."""
        from repro.node import solver as node_solver

        calls = Counter()
        plan_table = node_solver.plan_table

        def counted(*args, **kwargs):
            calls[threading.get_ident()] += 1
            return plan_table(*args, **kwargs)

        monkeypatch.setattr(node_solver, "plan_table", counted)
        field = make_smooth_aos((32, 16, 16), make_rng()).astype(np.float32)

        def main(comm):
            topo = CartTopology((2, 1, 1), periodic=(True,) * 3)
            grid = BlockGrid((2, 2, 2), 8, h=0.1)
            grid.from_array(field[comm.rank * 16:(comm.rank + 1) * 16])
            solver = NodeSolver(grid, dispatcher=Dispatcher(num_workers=1))
            halo = HaloExchange(comm, topo, grid)
            interior, halo_blocks = halo.halo_split()
            per_stage = []
            for _ in range(4):
                before = calls[threading.get_ident()]
                pending = halo.start()
                rhs = solver.evaluate_rhs(interior)
                rhs.update(solver.evaluate_rhs(halo_blocks,
                                               halo.finish(pending)))
                solver.update(rhs, 0.0, 1.0, 1e-4)
                per_stage.append(calls[threading.get_ident()] - before)
            return per_stage

        for per_stage in SimWorld(2).run(main):
            assert per_stage[0] > 0 and per_stage[1:] == [0, 0, 0]

    def test_views_are_kept_and_show_the_new_stage(self):
        """The provider hands out one view per block face for good, and
        each shows the cells beyond the face as they are now."""
        field = coordinate_field((32, 16, 16))

        def main(comm):
            topo = CartTopology((2, 1, 1), periodic=(True,) * 3)
            grid = BlockGrid((2, 2, 2), 8, h=1.0)
            halo = HaloExchange(comm, topo, grid)
            faces = [(b.index, axis, side) for b in halo.halo_split()[1]
                     for axis in range(3) for side in (-1, 1)
                     if grid.neighbor(b.index, axis, side) is None]
            origin = (comm.rank * 16, 0, 0)
            kept = None
            for stage in range(3):
                now = field + 1000 * stage
                grid.from_array(now[origin[0]:origin[0] + 16])
                provider = halo.exchange()
                views = [provider(*face) for face in faces]
                assert kept is None or all(
                    v is k for v, k in zip(views, kept))
                kept = views
                for face, view in zip(faces, views):
                    np.testing.assert_array_equal(
                        view, _beyond(now, origin, *face))
            return len(faces)

        assert SimWorld(2).run(main) == [24, 24]

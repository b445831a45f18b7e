"""Tests for the inter-rank halo exchange (repro.cluster.halo)."""

import numpy as np
import pytest

from repro.cluster.halo import HaloExchange, extract_face_slab
from repro.cluster.mpi_sim import SimWorld
from repro.cluster.topology import CartTopology
from repro.core.block import GHOSTS
from repro.node.grid import BlockGrid
from repro.physics.state import NQ


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
        """A single periodic rank exchanges with itself through messages."""
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
            return True

        assert world.run(main) == [True]

    def test_a_periodic_face_with_a_live_neighbour_is_the_topologys(self):
        """A node-layer ``periodic`` boundary wraps around the rank's own
        grid only where no message fills the face: with two ranks along a
        periodic z, both z faces of a rank are its neighbour's cells."""
        from repro.node import BoundarySpec, Dispatcher, NodeSolver

        from .conftest import bytes_equal, make_rng, make_smooth_aos

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

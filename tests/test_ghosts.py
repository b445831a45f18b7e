"""Tests for ghost reconstruction and boundary conditions (repro.node.ghosts)."""

import numpy as np
import pytest

from repro.core.block import GHOSTS, padded_aos
from repro.node.ghosts import BoundarySpec, fill_block_ghosts
from repro.node.grid import BlockGrid
from repro.physics.state import NQ, RHOU, RHOV, RHOW


def make_grid_with_pattern(num_blocks=(2, 2, 2), n=8, rng=None):
    """Grid whose cells encode their global (z, y, x) coordinates."""
    g = BlockGrid(num_blocks, n, h=1.0)

    def fn(z, y, x):
        shape = np.broadcast_shapes(z.shape, y.shape, x.shape)
        out = np.zeros(shape + (NQ,))
        out[..., 0] = z + 1.0
        out[..., 1] = y
        out[..., 2] = x
        out[..., 4] = z * 100 + y * 10 + x
        out[..., 5] = 1.0
        return out

    g.fill(fn)
    return g


def interior(pad):
    g = GHOSTS
    return pad[g:-g, g:-g, g:-g]


class TestSpec:
    def test_default(self):
        spec = BoundarySpec.all_extrapolate()
        assert spec.kind(0, -1) == "extrapolate"

    def test_wall_at(self):
        spec = BoundarySpec.wall_at(0, -1)
        assert spec.kind(0, -1) == "reflect"
        assert spec.kind(0, 1) == "extrapolate"

    def test_unknown_kind_fails_at_construction(self):
        """... with the face and the allowed kinds named, not from
        ``kind()`` inside the first RHS (a worker thread, in ``threads``
        mode)."""
        with pytest.raises(ValueError, match="'reflct' of the default.*"
                                             "extrapolate.*reflect.*periodic"):
            BoundarySpec(default="reflct")
        with pytest.raises(ValueError, match=r"'wall' of face \(0, -1\)"):
            BoundarySpec(faces={(0, -1): "wall"})

    @pytest.mark.parametrize("face", [(3, 0), (0, 2), (0, 0), (-1, 1),
                                      "z-", (0,), (0, -1, 1)])
    def test_a_face_that_is_none_is_rejected(self, face):
        """A ``faces`` key no face has was silently never looked up."""
        with pytest.raises(ValueError, match="is not \\(axis, side\\)"):
            BoundarySpec(faces={face: "reflect"})


    def test_the_config_names_its_field(self):
        """``SimulationConfig`` -- and so a decoded service request --
        rejects what its ``boundary_spec()`` would, field first."""
        from repro.service import JobRequest
        from repro.sim import SimulationConfig

        with pytest.raises(ValueError, match="^boundary_default='reflct': "
                                             ".*of the default"):
            SimulationConfig(cells=16, block_size=8,
                             boundary_default="reflct")
        for wall in ((0, 2), (3, -1), 5, "z-"):
            with pytest.raises(ValueError, match="^wall="):
                SimulationConfig(cells=16, block_size=8, wall=wall)
        payload = {"semantic": {"config": {"cells": [16, 16, 16],
                                           "block_size": 8,
                                           "wall": [0, 0]}, "ic": {}}}
        with pytest.raises(ValueError, match=r"^wall=\(0, 0\): .*side"):
            JobRequest.from_payload(payload)
        config = SimulationConfig(cells=16, block_size=8, wall=[2, 1],
                                  boundary_default="periodic")
        assert config.boundary_spec() == BoundarySpec(
            default="periodic", faces={(2, 1): "reflect"})


class TestSiblingGhosts:
    def test_neighbor_slab_loaded(self):
        g = make_grid_with_pattern()
        block = g.blocks[(0, 0, 0)]
        pad = padded_aos(8).astype(np.float64)
        pad[GHOSTS:-GHOSTS, GHOSTS:-GHOSTS, GHOSTS:-GHOSTS] = block.data
        fill_block_ghosts(pad, g, block)
        # High-x ghosts must equal the first 3 x-layers of block (0,0,1):
        neighbor = g.blocks[(0, 0, 1)]
        got = pad[GHOSTS:-GHOSTS, GHOSTS:-GHOSTS, -GHOSTS:]
        np.testing.assert_array_equal(got, neighbor.data[:, :, :GHOSTS])

    def test_continuity_of_coordinates(self):
        """Ghost cells must continue the global coordinate pattern."""
        g = make_grid_with_pattern()
        block = g.blocks[(1, 0, 0)]
        pad = padded_aos(8).astype(np.float64)
        pad[GHOSTS:-GHOSTS, GHOSTS:-GHOSTS, GHOSTS:-GHOSTS] = block.data
        fill_block_ghosts(pad, g, block)
        # Low-z ghosts are global z-coords 5, 6, 7 (block starts at 8).
        zc = pad[:GHOSTS, GHOSTS:-GHOSTS, GHOSTS:-GHOSTS, 0]
        np.testing.assert_allclose(zc[0], 5.5 + 1.0, rtol=1e-6)
        np.testing.assert_allclose(zc[2], 7.5 + 1.0, rtol=1e-6)


class TestExtrapolate:
    def test_zero_gradient(self):
        g = make_grid_with_pattern((1, 1, 1))
        block = g.blocks[(0, 0, 0)]
        pad = padded_aos(8).astype(np.float64)
        pad[GHOSTS:-GHOSTS, GHOSTS:-GHOSTS, GHOSTS:-GHOSTS] = block.data
        fill_block_ghosts(pad, g, block, BoundarySpec.all_extrapolate())
        # Each low-x ghost layer equals the first interior layer.
        first = pad[GHOSTS:-GHOSTS, GHOSTS:-GHOSTS, GHOSTS]
        for k in range(GHOSTS):
            np.testing.assert_array_equal(
                pad[GHOSTS:-GHOSTS, GHOSTS:-GHOSTS, k], first
            )


class TestReflect:
    @pytest.mark.parametrize("axis,momentum", [(0, RHOW), (1, RHOV), (2, RHOU)])
    def test_mirror_and_momentum_flip(self, axis, momentum):
        g = make_grid_with_pattern((1, 1, 1))
        block = g.blocks[(0, 0, 0)]
        pad = padded_aos(8).astype(np.float64)
        pad[GHOSTS:-GHOSTS, GHOSTS:-GHOSTS, GHOSTS:-GHOSTS] = block.data
        spec = BoundarySpec.wall_at(axis, -1)
        fill_block_ghosts(pad, g, block, spec)
        sel_ghost = [slice(GHOSTS, -GHOSTS)] * 3
        sel_ghost[axis] = 0  # outermost ghost layer
        sel_int = [slice(GHOSTS, -GHOSTS)] * 3
        sel_int[axis] = GHOSTS + 2  # third interior layer (mirror image)
        ghost = pad[tuple(sel_ghost)]
        mirror = pad[tuple(sel_int)]
        for q in range(NQ):
            if q == momentum:
                np.testing.assert_allclose(ghost[..., q], -mirror[..., q])
            else:
                np.testing.assert_allclose(ghost[..., q], mirror[..., q])


class TestPeriodic:
    def test_wraps_to_far_block(self):
        g = make_grid_with_pattern((2, 1, 1))
        block = g.blocks[(0, 0, 0)]
        pad = padded_aos(8).astype(np.float64)
        pad[GHOSTS:-GHOSTS, GHOSTS:-GHOSTS, GHOSTS:-GHOSTS] = block.data
        fill_block_ghosts(pad, g, block, BoundarySpec.all_periodic())
        far = g.blocks[(1, 0, 0)]
        np.testing.assert_array_equal(
            pad[:GHOSTS, GHOSTS:-GHOSTS, GHOSTS:-GHOSTS],
            far.data[-GHOSTS:, :, :],
        )


class TestRemoteProvider:
    def test_provider_consulted_at_rank_boundary(self):
        g = make_grid_with_pattern((1, 1, 1))
        block = g.blocks[(0, 0, 0)]
        pad = padded_aos(8).astype(np.float64)
        pad[GHOSTS:-GHOSTS, GHOSTS:-GHOSTS, GHOSTS:-GHOSTS] = block.data
        marker = np.full((8, 8, GHOSTS, NQ), 7.5)

        def provider(index, axis, side):
            if axis == 2 and side == 1:
                return marker
            return None

        fill_block_ghosts(pad, g, block, remote_provider=provider)
        np.testing.assert_array_equal(
            pad[GHOSTS:-GHOSTS, GHOSTS:-GHOSTS, -GHOSTS:], marker
        )
        # Faces the provider declined fall back to the BC (extrapolate).
        first = pad[GHOSTS:-GHOSTS, GHOSTS:-GHOSTS, GHOSTS]
        np.testing.assert_array_equal(
            pad[GHOSTS:-GHOSTS, GHOSTS:-GHOSTS, 0], first
        )

    def test_sibling_wins_over_provider(self):
        g = make_grid_with_pattern((1, 1, 2))
        block = g.blocks[(0, 0, 0)]
        pad = padded_aos(8).astype(np.float64)
        pad[GHOSTS:-GHOSTS, GHOSTS:-GHOSTS, GHOSTS:-GHOSTS] = block.data
        called = []

        def provider(index, axis, side):
            called.append((axis, side))
            return None

        fill_block_ghosts(pad, g, block, remote_provider=provider)
        assert (2, 1) not in called  # that face has a sibling block

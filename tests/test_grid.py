"""Tests for the per-rank block grid (repro.node.grid)."""

import numpy as np
import pytest

from repro.node.grid import BlockGrid
from repro.physics.state import NQ


class TestConstruction:
    def test_block_count(self):
        g = BlockGrid((2, 3, 4), block_size=8, h=0.1)
        assert len(g.blocks) == 24
        assert g.cells == (16, 24, 32)

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            BlockGrid((0, 1, 1), 8, 0.1)

    def test_block_indices_complete(self):
        g = BlockGrid((2, 2, 2), 8, 0.1)
        assert set(g.blocks) == {
            (z, y, x) for z in range(2) for y in range(2) for x in range(2)
        }


class TestGeometry:
    def test_block_origin(self):
        g = BlockGrid((2, 2, 2), 8, h=0.5, origin=(10.0, 20.0, 30.0))
        assert g.block_origin((1, 0, 1)) == (14.0, 20.0, 34.0)

    def test_cell_centers(self):
        g = BlockGrid((1, 1, 1), 8, h=1.0)
        z, y, x = g.cell_centers((0, 0, 0))
        np.testing.assert_allclose(x, np.arange(8) + 0.5)

    def test_cell_centers_offset_block(self):
        g = BlockGrid((2, 1, 1), 8, h=1.0)
        z, _, _ = g.cell_centers((1, 0, 0))
        np.testing.assert_allclose(z, np.arange(8, 16) + 0.5)


class TestTraversal:
    def test_sfc_visits_all(self):
        g = BlockGrid((2, 2, 2), 8, 0.1)
        seen = [b.index for b in g.sfc_blocks()]
        assert sorted(seen) == sorted(g.blocks)

    def test_neighbor(self):
        g = BlockGrid((2, 2, 2), 8, 0.1)
        n = g.neighbor((0, 0, 0), axis=2, side=1)
        assert n is not None and n.index == (0, 0, 1)
        assert g.neighbor((0, 0, 0), axis=2, side=-1) is None


class TestFieldAssembly:
    def test_roundtrip(self, rng):
        g = BlockGrid((2, 2, 2), 8, 0.1)
        field = rng.normal(size=(16, 16, 16, NQ)).astype(np.float32)
        g.from_array(field)
        np.testing.assert_array_equal(g.to_array(), field)

    def test_from_array_wrong_shape(self):
        g = BlockGrid((2, 2, 2), 8, 0.1)
        with pytest.raises(ValueError):
            g.from_array(np.zeros((8, 8, 8, NQ), dtype=np.float32))

    def test_block_placement(self, rng):
        g = BlockGrid((2, 1, 1), 8, 0.1)
        field = rng.normal(size=(16, 8, 8, NQ)).astype(np.float32)
        g.from_array(field)
        np.testing.assert_array_equal(g.blocks[(1, 0, 0)].data, field[8:16])

    def test_fill_coordinates(self):
        """fill() must evaluate at true physical cell centers."""
        g = BlockGrid((1, 1, 2), 8, h=0.25, origin=(0.0, 0.0, 1.0))

        def fn(z, y, x):
            out = np.zeros(np.broadcast_shapes(z.shape, y.shape, x.shape) + (NQ,))
            out[..., 0] = x  # store x coordinate in the density slot
            return out

        g.fill(fn)
        field = g.to_array()
        np.testing.assert_allclose(field[0, 0, :, 0],
                                   1.0 + (np.arange(16) + 0.5) * 0.25,
                                   rtol=1e-6)


class TestResiduals:
    def test_lazy_allocation(self):
        g = BlockGrid((1, 1, 1), 8, 0.1)
        assert not g.residuals
        r = g.residual((0, 0, 0))
        assert r.shape == (8, 8, 8, NQ)
        assert g.residual((0, 0, 0)) is r

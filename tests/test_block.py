"""Tests for the core-layer block storage (repro.core.block)."""

import numpy as np
import pytest

from repro.core.block import GHOSTS, Block, fill_interior, padded_aos
from repro.physics.state import NQ


class TestBlock:
    def test_shape_and_dtype(self):
        b = Block(16, (1, 2, 3))
        assert b.data.shape == (16, 16, 16, NQ)
        assert b.data.dtype == np.float32
        assert b.index == (1, 2, 3)

    def test_too_small_raises(self):
        with pytest.raises(ValueError):
            Block(4)

    def test_soa_roundtrip(self, rng):
        b = Block(8)
        b.data[...] = rng.normal(size=b.data.shape).astype(np.float32)
        soa = b.soa()
        assert soa.shape == (NQ, 8, 8, 8)
        assert soa.dtype == np.float64
        np.testing.assert_array_equal(
            np.moveaxis(soa, 0, -1).astype(np.float32), b.data)

    def test_quantity_view_is_view(self):
        b = Block(8)
        q = b.quantity(0)
        q[0, 0, 0] = 42.0
        assert b.data[0, 0, 0, 0] == 42.0

    def test_copy_is_deep(self):
        b = Block(8)
        c = b.copy()
        c.data[0, 0, 0, 0] = 1.0
        assert b.data[0, 0, 0, 0] == 0.0

    def test_nbytes(self):
        assert Block(8).nbytes() == 8**3 * NQ * 4


class TestFaceView:
    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("side", [-1, 1])
    def test_view_contents(self, rng, axis, side):
        b = Block(8)
        b.data[...] = rng.normal(size=b.data.shape).astype(np.float32)
        view = b.face_view(axis, side)
        sel = [slice(None)] * 3
        sel[axis] = slice(0, GHOSTS) if side == -1 else slice(8 - GHOSTS, 8)
        np.testing.assert_array_equal(view, b.data[tuple(sel)])
        assert np.shares_memory(view, b.data)

    def test_invalid_side(self):
        with pytest.raises(ValueError):
            Block(8).face_view(0, 0)


class TestPaddedArea:
    def test_shape(self):
        pad = padded_aos(8)
        assert pad.shape == (14, 14, 14, NQ)

    def test_benign_corners(self):
        """The prefilled state must be physically valid (rho > 0)."""
        pad = padded_aos(8)
        assert (pad[..., 0] > 0).all()
        assert (pad[..., 5] > 0).all()

    def test_fill_interior(self, rng):
        b = Block(8)
        b.data[...] = rng.normal(size=b.data.shape).astype(np.float32)
        pad = padded_aos(8)
        fill_interior(pad, b)
        g = GHOSTS
        np.testing.assert_array_equal(pad[g:-g, g:-g, g:-g], b.data)

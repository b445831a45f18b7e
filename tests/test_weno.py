"""Unit tests for the WENO5 reconstruction (repro.physics.weno)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.physics.weno import (
    Weno5Workspace,
    weno3,
    weno5,
    weno5_faces_scalar,
    weno5_fused,
)

from .conftest import bytes_equal, make_rng


def _faces_count(m):
    return m - 5


class TestBasics:
    def test_output_shape(self, rng):
        v = rng.normal(size=(3, 4, 20))
        minus, plus = weno5(v)
        assert minus.shape == (3, 4, 15)
        assert plus.shape == (3, 4, 15)

    def test_too_short_raises(self):
        with pytest.raises(ValueError, match="at least 6"):
            weno5(np.zeros(5))

    def test_constant_reproduced_exactly(self):
        v = np.full(20, 3.7)
        minus, plus = weno5(v)
        np.testing.assert_allclose(minus, 3.7, rtol=1e-14)
        np.testing.assert_allclose(plus, 3.7, rtol=1e-14)

    def test_scalar_crosscheck(self, rng):
        v = rng.normal(size=11)
        minus, _ = weno5(v)
        for j in range(_faces_count(11)):
            assert minus[j] == pytest.approx(weno5_faces_scalar(v[j : j + 5]))

    def test_minus_plus_mirror_symmetry(self, rng):
        """Reversing the data swaps the roles of minus and plus."""
        v = rng.normal(size=16)
        minus, plus = weno5(v)
        minus_r, plus_r = weno5(v[::-1].copy())
        np.testing.assert_allclose(minus, plus_r[::-1], rtol=1e-13)
        np.testing.assert_allclose(plus, minus_r[::-1], rtol=1e-13)


class TestWorkspaceKey:
    """A caller's workspace is used only when shape, dtype *and* stencil
    axis match the call; anything else is replaced, never reinterpreted."""

    @pytest.mark.parametrize("fn", [weno5, weno5_fused])
    def test_dtype_mismatch_recovers(self, fn, rng):
        # A float64 workspace under a float32 input used to compute in
        # mixed precision and cast down on the last out=.
        v = (rng.normal(size=(3, 14)) * 4.0).astype(np.float32)
        ws = Weno5Workspace((3, 9), dtype=np.float64)
        minus, plus = fn(v, ws)
        ref_minus, ref_plus = fn(v)
        assert minus.dtype == np.float32 and plus.dtype == np.float32
        assert bytes_equal(minus, ref_minus)
        assert bytes_equal(plus, ref_plus)

    def test_axis_mismatch_recovers(self, rng):
        v = rng.normal(size=(11, 11))
        ws = Weno5Workspace((6, 11), axis=0)
        minus, plus = weno5(v, ws, axis=1)
        ref_minus, ref_plus = weno5(v)
        assert bytes_equal(minus, ref_minus)
        assert bytes_equal(plus, ref_plus)


class TestStencilAxis:
    """``axis`` selects the stencil direction; the arithmetic per element
    is the last-axis one, so results agree to the bit."""

    @pytest.mark.parametrize("fn", [weno5, weno5_fused, weno3])
    @pytest.mark.parametrize("axis", [0, 1, -2])
    def test_matches_last_axis(self, fn, axis, rng):
        v = rng.normal(size=(12, 13, 14)) * 3.0
        minus, plus = fn(v, axis=axis)
        ref_minus, ref_plus = fn(np.ascontiguousarray(np.moveaxis(v, axis, -1)))
        assert bytes_equal(np.moveaxis(minus, axis, -1), ref_minus)
        assert bytes_equal(np.moveaxis(plus, axis, -1), ref_plus)

    def test_held_workspace_along_axis(self, rng):
        v = rng.normal(size=(7, 14, 4, 8))
        ws = Weno5Workspace((7, 9, 4, 8), axis=1)
        out_m, out_p = np.empty((7, 9, 4, 8)), np.empty((7, 9, 4, 8))
        weno5(v + 3.0, ws, out_m, out_p, axis=1)  # dirty every buffer
        minus, plus = weno5(v, ws, out_m, out_p, axis=1)
        assert minus is out_m and plus is out_p
        ref_minus, ref_plus = weno5(v, axis=1)
        assert bytes_equal(minus, ref_minus)
        assert bytes_equal(plus, ref_plus)

    def test_too_short_along_axis_raises(self):
        with pytest.raises(ValueError, match="at least 6"):
            weno5(np.zeros((5, 20)), axis=0)


class TestAccuracy:
    def test_smooth_fifth_order(self):
        """Face reconstruction error of sin(x) shrinks ~2^5 per refinement."""
        errs = []
        for n in (16, 32, 64):
            x = np.linspace(0.0, 1.0, n, endpoint=False)
            h = x[1] - x[0]
            # cell averages of sin(2 pi x) over [x, x+h]
            a = (np.cos(2 * np.pi * x) - np.cos(2 * np.pi * (x + h))) / (2 * np.pi * h)
            minus, _ = weno5(a)
            faces = x[2:-3] + h  # face right of cell j+2
            exact = np.sin(2 * np.pi * faces)
            errs.append(np.abs(minus - exact).max())
        order1 = np.log2(errs[0] / errs[1])
        order2 = np.log2(errs[1] / errs[2])
        assert order1 > 4.0
        assert order2 > 4.0

    def test_essentially_non_oscillatory(self):
        """Across a step, reconstructed values stay within data bounds."""
        v = np.where(np.arange(30) < 15, 1.0, 10.0)
        minus, plus = weno5(v.astype(float))
        eps = 1e-6
        assert minus.min() >= 1.0 - eps and minus.max() <= 10.0 + eps
        assert plus.min() >= 1.0 - eps and plus.max() <= 10.0 + eps


class TestFused:
    def test_matches_baseline(self, rng):
        v = rng.normal(size=(5, 18)) * 100.0
        m0, p0 = weno5(v)
        m1, p1 = weno5_fused(v)
        np.testing.assert_allclose(m1, m0, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(p1, p0, rtol=1e-12, atol=1e-12)

    def test_workspace_reuse(self, rng):
        v = rng.normal(size=(4, 4, 12))
        ws = Weno5Workspace((4, 4, 7), dtype=v.dtype)
        out_m = np.empty((4, 4, 7))
        out_p = np.empty((4, 4, 7))
        m1, p1 = weno5_fused(v, ws, out_m, out_p)
        assert m1 is out_m and p1 is out_p
        m0, p0 = weno5(v)
        np.testing.assert_allclose(m1, m0, rtol=1e-12)
        # Second call with different data must not leak state.
        v2 = rng.normal(size=(4, 4, 12))
        m2, _ = weno5_fused(v2, ws, out_m, out_p)
        np.testing.assert_allclose(m2, weno5(v2)[0], rtol=1e-12)

    def test_wrong_workspace_shape_recovers(self, rng):
        v = rng.normal(size=(2, 14))
        ws = Weno5Workspace((99,))
        m1, _ = weno5_fused(v, ws)
        np.testing.assert_allclose(m1, weno5(v)[0], rtol=1e-12)

    def test_too_short_raises(self):
        with pytest.raises(ValueError):
            weno5_fused(np.zeros(4))

    @given(seed=st.integers(0, 2**31), m=st.integers(6, 40))
    @settings(max_examples=40, deadline=None)
    def test_agreement_property(self, seed, m):
        v = make_rng(seed).normal(size=m) * 10.0
        m0, p0 = weno5(v)
        m1, p1 = weno5_fused(v)
        np.testing.assert_allclose(m1, m0, rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(p1, p0, rtol=1e-10, atol=1e-10)


class TestBoundsProperty:
    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_reconstruction_bounded_by_data_range(self, seed):
        """WENO5 face values stay within a modest inflation of the local
        stencil range (convex combination of three parabolas)."""
        v = make_rng(seed).uniform(-5, 5, size=20)
        minus, plus = weno5(v)
        # Candidate polynomials can overshoot the cell range by at most
        # the extrapolation factor of the parabola coefficients (~2.4x).
        span = v.max() - v.min()
        lo, hi = v.min() - 2.5 * span, v.max() + 2.5 * span
        assert (minus >= lo).all() and (minus <= hi).all()
        assert (plus >= lo).all() and (plus <= hi).all()

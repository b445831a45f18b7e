"""Tests for the core compute kernels (repro.core.kernels)."""

import numpy as np
import pytest

from repro import native
from repro.core.kernels import (
    dt_from_sos,
    gather_conv,
    plan_table,
    rhs_kernel,
    rhs_kernel_slices,
    scatter_aos,
    sos_kernel,
    stream_scratch,
    update_stage,
)
from repro.physics.equations import compute_rhs
from repro.physics.eos import LIQUID, conserved_to_primitive, sound_speed
from repro.physics.state import NQ

from .conftest import (
    bytes_equal,
    make_interface_aos,
    make_smooth_aos,
    make_uniform_aos,
)


class TestRhsEquivalence:
    """The ring-buffer streaming RHS is the paper's cache-aware variant of
    the vectorized whole-block RHS; both must agree to round-off."""

    def test_smooth_field_identical(self, rng):
        pad = make_smooth_aos((16, 16, 16), rng).astype(np.float32)
        r_vec = rhs_kernel(pad, 0.02)
        r_sl = rhs_kernel_slices(pad, 0.02)
        scale = np.abs(r_vec).max()
        np.testing.assert_allclose(r_sl, r_vec, rtol=1e-13, atol=1e-12 * scale)

    def test_interface_identical(self):
        pad = make_interface_aos((14, 14, 14), axis=0).astype(np.float32)
        r_vec = rhs_kernel(pad, 0.05)
        scale = max(np.abs(r_vec).max(), 1.0)
        np.testing.assert_allclose(
            rhs_kernel_slices(pad, 0.05), r_vec, rtol=1e-13, atol=1e-12 * scale
        )

    def test_output_shape(self, rng):
        pad = make_smooth_aos((12, 12, 12), rng)
        r = rhs_kernel(pad, 0.1)
        assert r.shape == (6, 6, 6, NQ)
        assert r.dtype == np.float64

    def test_fused_close_to_baseline(self, rng):
        pad = make_smooth_aos((12, 12, 12), rng)
        r0 = rhs_kernel(pad, 0.1)
        r1 = rhs_kernel(pad, 0.1, fused=True)
        scale = np.abs(r0).max()
        np.testing.assert_allclose(r1, r0, atol=1e-10 * max(scale, 1.0))


class TestPlanTable:
    """The table the compiled gather and scatter execute: what the library
    cannot check is refused where the table is built or handed over."""

    def test_rows_are_cell_extents_address_steps_and_flip(self, rng):
        cells = make_smooth_aos((4, 5, 6), rng).astype(np.float32)
        wall = np.flip(cells[:, :3], axis=1)
        far = np.broadcast_to(cells[:1], (3, 5, 6, NQ))
        table = plan_table((10, 8, 9), [((3, 3, 3), cells, -1),
                                        ((3, 0, 3), wall, 2),
                                        ((0, 3, 3), far, -1)])
        assert table.dtype == np.int64 and table.shape == (3, 9)
        assert table[0].tolist() == [
            (3 * 8 + 3) * 9 + 3, 4, 5, 6, cells.ctypes.data,
            5 * 6 * NQ, 6 * NQ, NQ, -1]
        assert table[1, 1:4].tolist() == [4, 3, 6]
        assert table[1, 4] == cells[:, 2].ctypes.data
        assert table[1, 5:].tolist() == [5 * 6 * NQ, -6 * NQ, NQ, 2]
        assert table[2, 5:].tolist() == [0, 6 * NQ, NQ, -1]

    @pytest.mark.parametrize("at, aos", [
        ((7, 0, 0), np.zeros((4, 5, 6, NQ), np.float32)),   # leaves in z
        ((0, 0, -1), np.zeros((4, 5, 6, NQ), np.float32)),  # ... and in x
        ((0, 0, 0), np.zeros((4, 5, 6, NQ), np.float64)),   # another dtype
        ((0, 0, 0), np.zeros((4, 5, 6, 2 * NQ), np.float32)[..., ::2]),
        ((0, 0, 0), np.zeros((5, 6, NQ), np.float32)),      # not 3-D cells
        ((0, 0, 0), np.zeros((4, 5, 6, NQ - 1), np.float32)),
    ])
    def test_a_row_the_library_would_trust_blindly(self, at, aos):
        with pytest.raises(ValueError, match="cells"):
            plan_table((10, 8, 9), [(at, aos, -1)])

    @pytest.mark.skipif(native.lib is None, reason="no compiled kernels")
    def test_gather_and_scatter_what_the_rows_say(self, rng):
        cells = make_smooth_aos((4, 5, 6), rng).astype(np.float32)
        rows = [((3, 3, 2), cells, -1),
                ((3, 0, 2), np.flip(cells[:, :3], axis=1), 2),
                ((0, 3, 2), np.broadcast_to(cells[:1], (3, 5, 6, NQ)), -1)]
        pad = np.ones((10, 8, 9, NQ), dtype=np.float32)
        for (z, y, x), aos, flip in rows:
            pad[z:z + aos.shape[0], y:y + aos.shape[1], x:x + 6] = aos
        pad[3:7, 0:3, 2:8, 2] *= -1.0
        want = conserved_to_primitive(
            np.moveaxis(pad, -1, 0).astype(np.float64))
        W = np.full((NQ, 1, 10, 8, 9), -7.0)
        gather_conv(native.lib, plan_table((10, 8, 9), rows), W)
        named = np.zeros((10, 8, 9), dtype=bool)
        named[3:7, 0:8, 2:8] = named[0:3, 3:8, 2:8] = True
        assert bytes_equal(W[:, 0][:, named], want[:, named])
        assert (W[:, 0][:, ~named] == -7.0).all()
        # ... and back: the interior of the result into two arrays
        R = rng.normal(size=(NQ, 1, 4, 5, 6))
        low, high = np.empty((2, 5, 6, NQ)), np.empty((2, 5, 6, NQ))
        scatter_aos(native.lib, R, plan_table(
            (4, 5, 6), [((0, 0, 0), low, -1), ((2, 0, 0), high, -1)],
            np.float64))
        assert bytes_equal(np.concatenate([low, high]),
                           np.moveaxis(R[:, 0], 0, -1))
        for bad in (W.astype(np.float32), W[..., ::2], W[:3]):
            with pytest.raises(ValueError, match="float64 field"):
                gather_conv(native.lib, plan_table((1, 1, 1), []), bad)
        with pytest.raises(ValueError, match="int64 table"):
            gather_conv(native.lib, np.zeros((2, 8), dtype=np.int64), W)


class TestSosKernel:
    def test_uniform_at_rest(self):
        aos = make_uniform_aos((8, 8, 8)).astype(np.float32)
        c = float(sound_speed(1000.0, 100.0, LIQUID.G, LIQUID.P))
        assert sos_kernel(aos) == pytest.approx(c, rel=1e-5)

    def test_moving_flow(self):
        aos = make_uniform_aos((8, 8, 8), u=(0.0, 0.0, 10.0)).astype(np.float32)
        c = float(sound_speed(1000.0, 100.0, LIQUID.G, LIQUID.P))
        assert sos_kernel(aos) == pytest.approx(c + 10.0, rel=1e-5)

    def test_local_hotspot_found(self, rng):
        aos = make_uniform_aos((8, 8, 8)).astype(np.float32)
        hot = make_uniform_aos((1, 1, 1), u=(0.0, 0.0, 50.0)).astype(np.float32)
        aos[4, 4, 4] = hot[0, 0, 0]
        c = float(sound_speed(1000.0, 100.0, LIQUID.G, LIQUID.P))
        assert sos_kernel(aos) == pytest.approx(c + 50.0, rel=1e-5)


    def test_blocks_of_a_rank_and_scratch_that_cannot_hold_a_cell(self):
        slow = make_uniform_aos((8, 8, 8)).astype(np.float32)
        fast = make_uniform_aos((8, 8, 8), u=(0.0, 0.0, 10.0)).astype(
            np.float32)
        assert sos_kernel(np.stack([slow, fast, slow])) == sos_kernel(fast)
        with pytest.raises(ValueError, match="scratch must hold"):
            sos_kernel(slow, stream_scratch(NQ + 1))


class TestDtKernel:
    def test_formula(self):
        assert dt_from_sos(10.0, h=0.1, cfl=0.3) == pytest.approx(0.003)

    def test_invalid_sos(self):
        with pytest.raises(ValueError):
            dt_from_sos(0.0, 0.1, 0.3)


class TestUpdateStage:
    def test_first_stage_forward_euler_like(self, rng):
        """With a=0, b=1 the stage is exactly U += dt * RHS."""
        u = rng.normal(size=(4, 4, 4, NQ)).astype(np.float32)
        u0 = u.copy()
        res = np.zeros_like(u)
        rhs = rng.normal(size=u.shape)
        update_stage(u, res, rhs, a=0.0, b=1.0, dt=0.5)
        np.testing.assert_allclose(
            u, (u0.astype(np.float64) + 0.5 * rhs).astype(np.float32), rtol=1e-6
        )
        np.testing.assert_allclose(res, (0.5 * rhs).astype(np.float32), rtol=1e-6)

    def test_register_accumulation(self, rng):
        """S <- a S + dt RHS must accumulate across stages."""
        u = np.zeros((2, 2, 2, NQ), dtype=np.float32)
        res = np.ones_like(u)
        rhs = np.ones((2, 2, 2, NQ))
        update_stage(u, res, rhs, a=-0.5, b=2.0, dt=1.0)
        # S = -0.5 * 1 + 1 = 0.5; U = 0 + 2 * 0.5 = 1.
        np.testing.assert_allclose(res, 0.5)
        np.testing.assert_allclose(u, 1.0)

    def test_inplace(self, rng):
        u = rng.normal(size=(2, 2, 2, NQ)).astype(np.float32)
        res = np.zeros_like(u)
        rhs = rng.normal(size=u.shape)
        u_id, res_id = id(u), id(res)
        update_stage(u, res, rhs, 0.0, 1.0, 0.1)
        assert id(u) == u_id and id(res) == res_id

    def test_scratch_without_two_entries_is_rejected(self, rng):
        u = rng.normal(size=(2, 2, 2, NQ)).astype(np.float32)
        with pytest.raises(ValueError, match="scratch must hold"):
            update_stage(u, np.zeros_like(u), np.zeros(u.shape), 0.0, 1.0,
                         0.1, scratch=stream_scratch(1))

    def test_rhs_that_would_broadcast_is_rejected(self, rng):
        u = rng.normal(size=(4, 4, 4, NQ)).astype(np.float32)
        before = u.copy()
        with pytest.raises(ValueError, match="rhs_aos"):
            update_stage(u, np.zeros_like(u), np.ones(NQ), 0.0, 1.0, 0.1)
        assert bytes_equal(u, before)

    def test_residual_of_another_shape_is_rejected(self, rng):
        u = rng.normal(size=(4, 4, 4, NQ)).astype(np.float32)
        with pytest.raises(ValueError, match="residual_aos"):
            update_stage(u, np.zeros((4, 4, NQ), dtype=np.float32),
                         np.zeros(u.shape), 0.0, 1.0, 0.1)

    def test_state_in_compute_precision_is_rejected(self, rng):
        u = rng.normal(size=(4, 4, 4, NQ))
        with pytest.raises(ValueError, match="u_aos"):
            update_stage(u, np.zeros(u.shape, dtype=np.float32),
                         np.zeros(u.shape), 0.0, 1.0, 0.1)

    def test_residual_in_compute_precision_is_rejected(self, rng):
        u = rng.normal(size=(4, 4, 4, NQ)).astype(np.float32)
        with pytest.raises(ValueError, match="residual_aos"):
            update_stage(u, np.zeros(u.shape), np.zeros(u.shape),
                         0.0, 1.0, 0.1)


@pytest.mark.usefixtures("kernel_path")
class TestOneBoxOneArray:
    """The entry points take one box (RHS) or one array per operand (UP,
    SOS): anything else fails typed on either kernel path, before a
    write."""

    @pytest.mark.parametrize("name", ["u_aos", "residual_aos", "rhs_aos"])
    def test_update_stage_rejects_an_operand_that_is_not_contiguous(
            self, rng, name):
        shape = (6, 8, 8, NQ)
        operands = {"u_aos": rng.normal(size=shape).astype(np.float32),
                    "residual_aos": rng.normal(size=shape).astype(np.float32),
                    "rhs_aos": rng.normal(size=shape)}
        # the same values, every other entry of a wider array
        strided = np.repeat(operands[name], 2, axis=2)[:, :, ::2]
        assert bytes_equal(strided, operands[name])
        operands[name] = strided
        before = {key: a.copy() for key, a in operands.items()}
        with pytest.raises(ValueError, match=f"^{name} must be C-contiguous"):
            update_stage(*operands.values(), -0.5, 0.9, 0.1)
        for key in ("u_aos", "residual_aos"):
            assert bytes_equal(operands[key], before[key])

    def test_sos_kernel_takes_one_array(self):
        block = make_uniform_aos((8, 8, 8)).astype(np.float32)
        for blocks in ([block, block], (block,)):
            with pytest.raises(TypeError, match="one array"):
                sos_kernel(blocks)

    def test_rhs_entry_points_take_one_box(self):
        batch = np.ones((2, 14, 14, 14, NQ), dtype=np.float32)
        with pytest.raises(ValueError, match="expected"):
            rhs_kernel(batch, 0.1)
        with pytest.raises(ValueError, match="expected"):
            compute_rhs(np.moveaxis(batch, -1, 0).astype(np.float64), 0.1)
        with pytest.raises(ValueError, match="expected"):
            compute_rhs(np.ones((NQ, 14, 14)), 0.1)

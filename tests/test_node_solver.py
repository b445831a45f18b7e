"""Tests for the node-layer solver (repro.node.solver)."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sanitizer import NumericsWarning, make_sanitizer
from repro.core.kernels import rhs_kernel
from repro.core.timestepper import LowStorageRK3
from repro.node.dispatcher import Dispatcher
from repro.node.ghosts import BoundarySpec
from repro.node.grid import BlockGrid
from repro.node.solver import (
    BOX_CELLS,
    NUMPY_BOX_CELLS,
    NodeSolver,
    cut_into_boxes,
)
from repro.physics.eos import LIQUID, sound_speed
from repro.physics.equations import SweepWorkspace, native_sweeps
from repro.physics.state import NQ

from .conftest import (
    bytes_equal,
    make_rng,
    make_smooth_aos,
    make_uniform_aos,
)


def copied(rhs_map):
    """An ``evaluate_rhs`` result that outlives the solver's next call:
    the arrays of the map are the solver's own buffers."""
    return {idx: rhs.copy() for idx, rhs in rhs_map.items()}


def uniform_grid(num_blocks=(2, 2, 2), n=8, **kw):
    g = BlockGrid(num_blocks, n, h=0.1)
    field = make_uniform_aos(g.cells, **kw).astype(np.float32)
    g.from_array(field)
    return g


class TestRhsEvaluation:
    def test_uniform_zero_rhs(self):
        g = uniform_grid(u=(1.0, 2.0, 3.0))
        solver = NodeSolver(g)
        rhs = solver.evaluate_rhs()
        assert set(rhs) == set(g.blocks)
        for r in rhs.values():
            assert np.abs(r).max() < 1e-8

    def test_block_independence_of_decomposition(self, rng):
        """One 16^3 block and eight 8^3 blocks must give identical RHS for
        the same global field (intra-rank ghosts are exact)."""
        field = make_smooth_aos((16, 16, 16), rng).astype(np.float32)

        g1 = BlockGrid((1, 1, 1), 16, h=0.1)
        g1.from_array(field)
        r1 = NodeSolver(g1).evaluate_rhs()[(0, 0, 0)]

        g2 = BlockGrid((2, 2, 2), 8, h=0.1)
        g2.from_array(field)
        rhs2 = NodeSolver(g2).evaluate_rhs()
        assembled = np.empty((16, 16, 16, NQ))
        for (bz, by, bx), r in rhs2.items():
            assembled[bz * 8:(bz + 1) * 8, by * 8:(by + 1) * 8,
                      bx * 8:(bx + 1) * 8] = r
        np.testing.assert_allclose(assembled, r1, rtol=1e-6, atol=1e-7)

    def test_slices_equals_vectorized(self, rng):
        field = make_smooth_aos((16, 16, 16), rng).astype(np.float32)
        g = BlockGrid((2, 2, 2), 8, h=0.1)
        g.from_array(field)
        r_vec = NodeSolver(g).evaluate_rhs()
        r_sl = NodeSolver(g, use_slices=True).evaluate_rhs()
        for idx in r_vec:
            scale = max(np.abs(r_vec[idx]).max(), 1.0)
            np.testing.assert_allclose(
                r_sl[idx], r_vec[idx], rtol=1e-13, atol=1e-12 * scale
            )

    def test_threads_dispatcher_matches_sequential_bytes(self, rng):
        """Each worker thread sweeps its boxes in its own padded buffer
        and sweep workspace; sharing either would corrupt a neighbour's
        box."""
        field = make_smooth_aos((16, 16, 32), rng).astype(np.float32)
        g = BlockGrid((2, 2, 4), 8, h=0.1)
        g.from_array(field)
        sequential = NodeSolver(g, dispatcher=Dispatcher(num_workers=1))
        threaded = NodeSolver(
            g, dispatcher=Dispatcher(mode="threads", num_workers=2)
        )
        expected = copied(sequential.evaluate_rhs())
        for _ in range(3):  # workspaces are reused from the second round on
            got = threaded.evaluate_rhs()
            assert threaded.last_schedule.item_durations.size == 2  # boxes
            assert got.keys() == expected.keys() and len(got) == 16
            for idx, rhs in expected.items():
                assert bytes_equal(got[idx], rhs), idx

    def test_schedule_recorded(self):
        g = uniform_grid()
        solver = NodeSolver(g, dispatcher=Dispatcher(num_workers=3))
        solver.evaluate_rhs()
        assert solver.last_schedule is not None
        assert solver.last_schedule.busy.size == 3


def compiled() -> bool:
    """Whether a solver of the default scheme runs the compiled executor
    (boxes within ``BOX_CELLS``) or the NumPy one (``NUMPY_BOX_CELLS``)."""
    return native_sweeps(5, "hlle", False) is not None


def smooth_grid(num_blocks, n, rng):
    g = BlockGrid(num_blocks, n, h=0.1)
    cells = tuple(b * n for b in num_blocks)
    g.from_array(make_smooth_aos(cells, rng).astype(np.float32))
    return g


class TestBlockRuns:
    """``evaluate_rhs`` sweeps boxes of neighbouring blocks through one
    kernel call each: same bytes per block as ``rhs_for_block`` (a box of
    one), a bounded work area, and a schedule whose items --
    ``last_schedule.item_durations``, ``to_dict()["items"]`` -- are boxes,
    not blocks."""

    @pytest.mark.parametrize("boundary", [
        BoundarySpec.all_periodic(),
        BoundarySpec.wall_at(0, -1),
        BoundarySpec.all_extrapolate(),
    ])
    def test_equals_rhs_for_block_per_block(self, rng, boundary):
        g = smooth_grid((2, 2, 3), 8, rng)
        solver = NodeSolver(g, boundary=boundary,
                            dispatcher=Dispatcher(num_workers=1))
        rhs = copied(solver.evaluate_rhs())
        # 2 x 2 x 3 blocks: one box, or two of at most 2 x 2 x 2
        boxes = 1 if compiled() else 2
        assert solver.last_schedule.item_durations.size == boxes
        for block in g.sfc_blocks():
            assert bytes_equal(rhs[block.index], solver.rhs_for_block(block))

    def test_halo_list_with_remote_provider(self, rng):
        """The cluster layer's second call: a sublist, ghosts from a
        provider where the rank has no sibling."""
        g = smooth_grid((2, 2, 2), 8, rng)
        slabs = {}

        def provider(index, axis, side):
            key = (index, axis, side)
            if axis == 1:
                return None  # falls through to the boundary condition
            if key not in slabs:
                shape = [8, 8, 8, NQ]
                shape[axis] = 3
                slab = np.ones(shape, dtype=np.float32)
                slab[..., 0] += 0.01 * len(slabs)
                slabs[key] = slab
            return slabs[key]

        solver = NodeSolver(g, dispatcher=Dispatcher(num_workers=1))
        halo = list(g.sfc_blocks())[1:8]
        rhs = copied(solver.evaluate_rhs(halo, provider))
        assert list(rhs) == [b.index for b in halo]
        assert slabs
        for block in halo:
            assert bytes_equal(
                rhs[block.index], solver.rhs_for_block(block, provider)
            )
        # The same list without the provider: the rows of the plan point
        # back at the boundary condition.
        plain = NodeSolver(g, dispatcher=Dispatcher(num_workers=1))
        assert not bytes_equal(rhs[(0, 0, 1)],
                               plain.evaluate_rhs(halo)[(0, 0, 1)])
        for idx, want in plain.evaluate_rhs(halo).items():
            assert bytes_equal(solver.evaluate_rhs(halo)[idx], want)
        assert solver.evaluate_rhs([]) == {}

    @pytest.mark.parametrize("opts", [
        dict(solver="hllc"), dict(order=3), dict(fused=True),
        dict(use_slices=True),
    ])
    def test_every_scheme_goes_through_boxes(self, rng, opts):
        g = smooth_grid((2, 2, 2), 8, rng)
        solver = NodeSolver(g, dispatcher=Dispatcher(num_workers=1), **opts)
        rhs = copied(solver.evaluate_rhs())
        boxes = 8 if "use_slices" in opts else 1
        assert solver.last_schedule.item_durations.size == boxes
        for block in g.sfc_blocks():
            assert bytes_equal(rhs[block.index], solver.rhs_for_block(block))

    def test_work_area_is_sized_by_the_first_call(self, rng, kernel_path):
        """Sized once, for the largest box, on either kernel path (the
        compiled one never touches a staging field or an AoS pad, and
        holds none), whatever lists follow -- and by the box, not by the
        grid: twice the blocks hold the same."""
        sizes = []
        for num_blocks, first in (((4, 4, 4), 1), ((4, 4, 4), 64),
                                  ((4, 4, 4), 11), ((4, 4, 8), 128)):
            g = smooth_grid(num_blocks, 8, rng)
            blocks = list(g.sfc_blocks())
            solver = NodeSolver(g, dispatcher=Dispatcher(num_workers=1))
            for count in (first, 1, 3, 8, 10, 11, 64):
                rhs = solver.evaluate_rhs(blocks[:count])
                assert len(rhs) == count
                (area,) = solver._areas
                sizes.append(area.nbytes)
                assert (solver.work_area_nbytes
                        == area.nbytes + len(blocks) * 8 ** 3 * NQ * 8)
            assert (area.pad is None) == (kernel_path == "c")
        assert len(set(sizes)) == 1, sizes

    def test_plans_are_kept_least_recently_used_last(self, rng):
        """The lists a step alternates between keep their plans through
        any number of ``rhs_for_block`` calls (lists of one block are kept
        besides) and through other lists, as long as they stay in use."""
        g = smooth_grid((2, 2, 4), 8, rng)
        solver = NodeSolver(g, dispatcher=Dispatcher(num_workers=1))
        blocks = list(g.sfc_blocks())
        hot = solver._box_plans(blocks)
        for block in blocks:
            solver.rhs_for_block(block)
        assert solver._box_plans(blocks) is hot
        assert solver._box_plans(blocks[:1]) is solver._box_plans(blocks[:1])
        for count in range(2, 12):  # more lists than are kept
            solver.evaluate_rhs(blocks[:count])
            assert solver._box_plans(blocks) is hot
        kept = [len(key) for key in solver._plans if len(key) > 1]
        assert sorted(kept) == [5, 6, 7, 8, 9, 10, 11, 16]

    @pytest.mark.parametrize("n, num_blocks, workers, boxes, numpy_boxes", [
        (8, (4, 4, 4), 1, 4, 8),    # 64 blocks, 2 x 2 x 4 | 2 x 2 x 2 a box
        (8, (4, 4, 4), 4, 4, 8),    # ... one per worker as it is
        (8, (4, 4, 4), 8, 8, 8),    # ... halved along z for eight
        (8, (2, 2, 2), 4, 4, 4),    # 8 blocks: no worker left without a box
        (8, (1, 1, 3), 4, 3, 3),    # fewer blocks than workers: one each
        (8, (3, 3, 3), 1, 4, 8),    # remainders are boxes too
        (16, (2, 2, 2), 2, 4, 8),   # two 16^3 blocks along x | one
        (32, (1, 1, 2), 2, 2, 2),   # the paper's granularity: one block
    ])
    def test_schedule_counts_boxes(self, n, num_blocks, workers, boxes,
                                   numpy_boxes):
        g = uniform_grid(num_blocks, n)
        solver = NodeSolver(g, dispatcher=Dispatcher(num_workers=workers))
        rhs = solver.evaluate_rhs()
        stats = solver.last_schedule
        boxes = boxes if compiled() else numpy_boxes
        assert len(rhs) == len(g.blocks)
        assert stats.item_durations.size == boxes
        assert stats.to_dict()["items"] == boxes
        if len(g.blocks) >= workers:
            assert (stats.busy > 0).all()

    @pytest.mark.parametrize("opts", [
        dict(order=3), dict(solver="hllc"), dict(fused=True),
    ])
    def test_use_slices_rejects_what_it_would_ignore(self, opts):
        with pytest.raises(ValueError, match="use_slices"):
            NodeSolver(uniform_grid(), use_slices=True, **opts)

    def test_unknown_scheme_is_rejected_at_construction(self):
        with pytest.raises(ValueError, match="WENO order"):
            NodeSolver(uniform_grid(), order=7)
        with pytest.raises(ValueError, match="Riemann solver"):
            NodeSolver(uniform_grid(), solver="roe")


class TestSolverOwnedResults:
    """``evaluate_rhs`` hands out the solver's per-block buffers: valid
    until the RHS of that block is next evaluated, and not a moment
    longer."""

    def test_interior_map_survives_the_halo_call(self, rng):
        g = smooth_grid((2, 2, 2), 8, rng)
        solver = NodeSolver(g, dispatcher=Dispatcher(num_workers=1))
        blocks = list(g.sfc_blocks())
        interior, halo = blocks[:3], blocks[3:]
        rhs_map = solver.evaluate_rhs(interior)
        kept = copied(rhs_map)
        rhs_map.update(solver.evaluate_rhs(halo))
        assert set(rhs_map) == set(g.blocks)
        for idx, rhs in kept.items():
            assert bytes_equal(rhs_map[idx], rhs)
        # Every block has an array of its own.
        arrays = list(rhs_map.values())
        for k, a in enumerate(arrays):
            assert a.shape == (8, 8, 8, NQ) and a.dtype == np.float64
            assert not any(np.shares_memory(a, b) for b in arrays[k + 1:])

    def test_next_evaluation_of_a_block_reuses_its_array(self, rng):
        g = smooth_grid((1, 1, 2), 8, rng)
        solver = NodeSolver(g, dispatcher=Dispatcher(num_workers=1))
        first = solver.evaluate_rhs()
        kept = copied(first)
        g.blocks[(0, 0, 0)].data[..., 0] *= 1.5
        second = solver.evaluate_rhs()
        for idx in first:
            assert np.shares_memory(second[idx], first[idx])
        # The old map now reads the new RHS: what was kept does not.
        assert not bytes_equal(first[(0, 0, 0)], kept[(0, 0, 0)])
        assert np.shares_memory(solver.rhs_for_block(g.blocks[(0, 0, 1)]),
                                first[(0, 0, 1)])

    def test_no_rhs_buffer_before_the_first_evaluation(self, rng):
        """The dump and checkpoint paths build grids (and solvers) that
        never evaluate an RHS: they hold no float64 copy of the field."""
        g = smooth_grid((2, 2, 2), 8, rng)
        solver = NodeSolver(g)
        solver.max_sos()
        g.to_array()
        assert solver._rhs is None
        (area,) = solver._areas
        assert solver.work_area_nbytes == area.stream.nbytes > 0
        solver.evaluate_rhs(list(g.sfc_blocks())[:1])
        assert solver._rhs.nbytes == 8 * 8 ** 3 * NQ * 8

    def test_work_area_does_not_depend_on_the_block_list(self, rng):
        g = smooth_grid((2, 2, 2), 16, rng)
        blocks = list(g.sfc_blocks())
        sizes = []
        for count in (1, 3, 8):
            solver = NodeSolver(g, dispatcher=Dispatcher(num_workers=1))
            rhs = solver.evaluate_rhs(blocks[:count])
            solver.update(rhs, 0.0, 1.0, 0.0)
            solver.max_sos()
            sizes.append(solver.work_area_nbytes)
            # ... and another list leaves it what the first one made it.
            solver.evaluate_rhs(blocks)
            assert solver.work_area_nbytes == sizes[-1]
        assert len(set(sizes)) == 1, sizes


class TestBoxDecomposition:
    @settings(max_examples=200, deadline=None)
    @given(
        indices=st.lists(st.tuples(*[st.integers(0, 4)] * 3), max_size=60),
        cap=st.tuples(*[st.integers(1, 4)] * 3),
        want=st.integers(1, 9),
        seed=st.integers(0, 2 ** 16),
    )
    def test_every_block_once_within_the_cap_whatever_the_order(
            self, indices, cap, want, seed):
        boxes = cut_into_boxes(indices, cap, want)
        covered = [tuple(o + d for o, d in zip(origin, offset))
                   for origin, extent in boxes
                   for offset in np.ndindex(*extent)]
        assert sorted(covered) == sorted(set(indices))
        assert all(e <= c for _, extent in boxes
                   for e, c in zip(extent, cap))
        # as many boxes as workers where the list allows
        assert len(boxes) >= min(want, len(set(indices)))
        shuffled = list(indices) + indices[:3]
        np.random.default_rng(seed).shuffle(shuffled)
        assert cut_into_boxes(shuffled, cap, want) == boxes

    def test_the_cluster_layers_lists(self):
        """A whole rank in cap-sized boxes; its halo shell in slabs."""
        blocks = list(np.ndindex(4, 4, 4))
        assert cut_into_boxes(blocks, (2, 2, 4)) == [
            ((z, y, 0), (2, 2, 4)) for z in (0, 2) for y in (0, 2)]
        shell = [b for b in blocks if not all(0 < i < 3 for i in b)]
        boxes = cut_into_boxes(shell, (2, 2, 4))
        assert boxes[0] == ((0, 0, 0), (1, 2, 4))
        assert sum(np.prod(extent) for _, extent in boxes) == 56
        assert cut_into_boxes([], (2, 2, 4), 3) == []


def traced_peak(fn) -> int:
    """Peak of traced memory while ``fn()`` runs, above its start."""
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - start


class TestSteadyStateAllocation:
    """After its first stage a rank's stage on the compiled executor
    allocates no array: the box plans, the primitive and result fields of
    the largest box, the UP/SOS scratch and the RHS array are all held --
    per work area of the solver, so also under the ``threads``
    dispatcher, whose threads last one round -- and the rows that point
    into this stage's halo slabs are patched in place.  The NumPy
    executor, the oracle and fallback, holds the same and allocates only
    the scratch of the box it sweeps, which it frees per box."""

    #: Peak of traced memory over a stage, above its start.  One RHS result
    #: at 16^3 is 229 KB and the padded primitives of a box 1 MB; what
    #: remains are python objects (views, the result dicts, the schedule
    #: arrays).
    CEILING = 32 * 1024

    @pytest.mark.parametrize("workers, mode", [
        (1, "instrumented"), (2, "threads"),
    ])
    @pytest.mark.parametrize("sanitize, remote", [
        ("off", False), ("warn", False), ("off", True),
    ])
    @pytest.mark.parametrize("kernel_path", ["c"], indirect=True)
    def test_a_warm_stage_allocates_no_array(self, rng, sanitize, remote,
                                             workers, mode, kernel_path):
        peak, ceiling = self._warm_stage_peak(rng, sanitize, remote,
                                              workers, mode)
        assert peak < ceiling

    @pytest.mark.parametrize("workers, mode", [
        (1, "instrumented"), (2, "threads"),
    ])
    @pytest.mark.parametrize("sanitize, remote", [
        ("off", False), ("warn", False), ("off", True),
    ])
    @pytest.mark.parametrize("kernel_path", ["numpy"], indirect=True)
    def test_a_warm_numpy_stage_allocates_only_its_sweeps(
            self, rng, sanitize, remote, workers, mode, kernel_path):
        # Each worker sweeps one box at a time, and what a sweep allocates
        # it frees before it returns: on top of the compiled executor's
        # ceiling, a stage may add what the executor's kernel call on a
        # warm workspace allocates for one 16^3 box, per worker, and the
        # python objects of the per-box WENO and HLLE workspaces (their
        # views, ~4 KB a box), which stay in the interpreter's free lists
        # until a full collection: a second ceiling.  No array outlives
        # its box; the smallest, a 16^3 field of one quantity, is 32 KB.
        pad = make_smooth_aos((22, 22, 22), rng).astype(np.float32)
        workspace = SweepWorkspace()
        out = rhs_kernel(pad, 0.01, workspace=workspace)
        sweeps = traced_peak(
            lambda: rhs_kernel(pad, 0.01, workspace=workspace, out=out))
        assert sweeps > self.CEILING
        peak, ceiling = self._warm_stage_peak(rng, sanitize, remote,
                                              workers, mode)
        assert peak < ceiling + self.CEILING + workers * sweeps

    def _warm_stage_peak(self, rng, sanitize, remote, workers, mode):
        """The peak of traced memory over a warm stage of a rank of eight
        16^3 blocks and the ceiling it is held to, apart from the sweeps;
        the stage holds no more than the stages before it."""
        g = smooth_grid((2, 2, 2), 16, rng)
        solver = NodeSolver(g, dispatcher=Dispatcher(num_workers=workers,
                                                     mode=mode))
        sanitizer = make_sanitizer(sanitize)
        blocks = list(g.sfc_blocks())
        interior, halo = blocks[:5], blocks[5:]
        stage = LowStorageRK3.stages[1]
        # Fresh face buffers every stage, a view of one per block face:
        # every row at the rank face re-pointed (the cluster layer's
        # provider keeps its buffers and views, and re-points none).
        face = make_smooth_aos((3, 32, 32), rng).astype(np.float32)

        def provider(index, axis, side):
            if axis != 0:
                return None
            return buffers[side][:, index[1] * 16:(index[1] + 1) * 16,
                                 index[2] * 16:(index[2] + 1) * 16]

        def one_stage():
            sos = solver.max_sos(sanitizer=sanitizer)
            rhs_map = solver.evaluate_rhs(interior, sanitizer=sanitizer)
            rhs_map.update(solver.evaluate_rhs(
                halo, provider if remote else None, sanitizer=sanitizer))
            solver.update(rhs_map, stage.a, stage.b, 1e-4 / sos,
                          sanitizer=sanitizer)

        buffers = {-1: face.copy(), 1: face.copy()}
        one_stage()  # warm: everything held is allocated here
        for _ in range(20):
            # ... once every worker has had a box (the first round's
            # second thread may find the queue already empty)
            if len(solver._areas) == workers:
                break
            one_stage()
        assert len(solver._areas) == workers
        held = solver.work_area_nbytes
        ceiling = self.CEILING
        if sanitizer is not None:
            # The checks convert the block they look at (a float64 copy,
            # masks, the pressure expression): what they allocate for one
            # block is theirs, and is all a stage under them may add.
            data = blocks[0].data
            rhs = solver.rhs_for_block(blocks[0])
            ceiling += max(
                traced_peak(lambda: sanitizer.check_state(data)),
                traced_peak(lambda: sanitizer.check_finite(rhs)),
            )
        buffers = {-1: face.copy(), 1: face.copy()}
        peak = traced_peak(one_stage)
        assert solver.work_area_nbytes == held
        assert sanitizer is None or not sanitizer.report.violations
        return peak, ceiling


class TestSos:
    def test_uniform(self):
        g = uniform_grid()
        c = float(sound_speed(1000.0, 100.0, LIQUID.G, LIQUID.P))
        assert NodeSolver(g).max_sos() == pytest.approx(c, rel=1e-5)

    @pytest.mark.parametrize("sanitize", ["off", "warn"])
    def test_nan_in_any_block_is_carried_to_the_result(self, sanitize):
        """python's ``max`` keeps a NaN only where it comes first: a block
        diverged in any position must reach the divergence check."""
        g = uniform_grid((1, 2, 2))
        solver = NodeSolver(g)
        for idx, block in g.blocks.items():
            saved = block.data[3, 4, 5].copy()
            block.data[3, 4, 5, 4] = np.nan
            sanitizer = make_sanitizer(sanitize)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", NumericsWarning)
                assert np.isnan(solver.max_sos(sanitizer=sanitizer)), idx
            if sanitizer is not None:
                assert [v.block for v in sanitizer.report.violations] == [idx]
            block.data[3, 4, 5] = saved
        assert np.isfinite(solver.max_sos())


class TestUpdate:
    def test_euler_stage_applies_rhs(self):
        g = uniform_grid()
        solver = NodeSolver(g)
        rhs = {idx: np.ones((8, 8, 8, NQ)) for idx in g.blocks}
        before = g.to_array().astype(np.float64)
        solver.update(rhs, a=0.0, b=1.0, dt=0.5)
        after = g.to_array().astype(np.float64)
        np.testing.assert_allclose(after - before, 0.5, atol=1e-3)

    def test_update_before_any_rhs_and_of_a_partial_map(self, monkeypatch):
        """One ``update_stage`` over the rank arrays where the map is the
        solver's own RHS of every block; anything else -- arrays of the
        caller's, a solver that has evaluated none, some of the blocks --
        block by block.  Same bytes."""
        import repro.node.solver as solver_module

        stage = LowStorageRK3.stages[1]
        grids = [smooth_grid((2, 2, 2), 8, make_rng()) for _ in range(3)]
        untouched = grids[0].to_array()
        whole, foreign, partial = (
            NodeSolver(g, dispatcher=Dispatcher(num_workers=1))
            for g in grids)
        rhs = whole.evaluate_rhs()
        calls = []
        orig = solver_module.update_stage

        def counted(u, *args, **kw):
            calls.append(u.shape)
            return orig(u, *args, **kw)

        monkeypatch.setattr(solver_module, "update_stage", counted)
        foreign.update(copied(rhs), stage.a, stage.b, 1e-3)
        assert foreign._rhs is None and len(calls) == 8
        first = dict(list(partial.evaluate_rhs().items())[:3])
        rest = {idx: r for idx, r in partial.evaluate_rhs().items()
                if idx not in first}
        partial.update(first, stage.a, stage.b, 1e-3)
        assert len(calls) == 8 + 3
        for idx in rest:
            assert bytes_equal(grids[2].blocks[idx].data,
                               untouched[tuple(
                                   slice(8 * i, 8 * i + 8) for i in idx)])
        partial.update(rest, stage.a, stage.b, 1e-3)
        del calls[:]
        whole.update(rhs, stage.a, stage.b, 1e-3)
        assert calls == [(8, 8, 8, 8, NQ)]
        assert not bytes_equal(grids[0].to_array(), untouched)
        for g in grids[1:]:
            assert bytes_equal(g.to_array(), grids[0].to_array())
            assert bytes_equal(g.residual_storage(),
                               grids[0].residual_storage())

    def test_wall_boundary_produces_reflection_pressure(self):
        """A flow toward a reflecting wall must raise wall pressure."""
        g = uniform_grid((1, 1, 1), 16, u=(-5.0, 0.0, 0.0))  # w < 0: toward z=0
        solver = NodeSolver(g, boundary=BoundarySpec.wall_at(0, -1))
        rhs = solver.evaluate_rhs()
        # The RHS at the wall layer must oppose the incoming momentum.
        r = rhs[(0, 0, 0)]
        assert np.abs(r[0]).max() > np.abs(r[8]).max()

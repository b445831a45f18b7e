"""Node-layer solver: per-rank kernel orchestration.

Coordinates the work within a rank (paper Section 6, node layer): cut the
blocks to evaluate into boxes of neighbouring blocks, and for each box
load data + ghosts into a per-thread padded buffer, run the core kernel
once over the box, and store the result.  Supports the halo/interior
block split used by the cluster layer to overlap communication with
computation.

Everything a step needs is held: the gather plans of the boxes, the padded
buffer of the largest box, the sweep fields and the UP/SOS scratch per
worker, one RHS array per solver.  After its first step a rank's step
on the compiled executor allocates no array (the NumPy sweeps, the
oracle and fallback, allocate their scratch per box).
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager

import numpy as np

from ..core.block import GHOSTS, Block, padded_aos
from ..core.kernels import (
    gather_conv,
    nan_max,
    plan_table,
    rhs_kernel,
    rhs_kernel_slices,
    scatter_aos,
    sos_kernel,
    stream_scratch,
    update_stage,
)
from ..physics.equations import SweepWorkspace, native_sweeps
from ..physics.equations import check_scheme as check_sweep_scheme
from ..physics.state import COMPUTE_DTYPE, NQ, STORAGE_DTYPE
from .dispatcher import Dispatcher, ScheduleStats
from .ghosts import BoundarySpec, copy_source, ghost_source
from .grid import BlockGrid

#: Cells per axis (z, y, x) one box may span: as many whole blocks as fit
#: (at least one), so a block of 32^3 is a box by itself, as in the paper.
#: A box is gathered, swept and scattered as one block: the larger it is
#: the fewer ghost cells are converted and the fewer faces computed per
#: cell (padded / interior cells 5.36 at 8^3, 1.94 here).  Measured on the
#: build host, ladder seed 11, one untraced and one traced 20 s run each:
#: mcells_per_s | peak_rss_mb | node.evaluate_rhs_ms of
#:               cloud32_b8           halo2_b8              cloud64_b32
#: parent      0.96 | 55.0 | 10.8   1.21 |  99.9 | 3.83   1.61 | 109.9 | 58.1
#: (16,16,16)  1.38 | 55.1 | 7.94   1.36 |  99.9 | 2.08   1.55 | 107.8 | 54.4
#: (16,16,32)  1.44 | 56.0 | 7.35   1.50 |  99.5 | 2.20   1.51 | 107.7 | 62.3
#: (16,32,32)  1.49 | 57.0 | 6.98   1.42 |  97.2 | 1.99   1.56 | 107.9 | 53.9
#: (32,32,32)  1.52 | 59.0 | 6.87   1.65 | 103.6 | 1.94   1.57 | 107.9 | 55.2
#: (a 32^3 block is one box under every candidate: the last column is the
#: spread of one measurement; so is 3 % of any peak RSS of halo2_b8, which
#: adds that of a spawned rank to the process's own).  The two candidates
#: next to the choice against the parent in four rotating triplets of
#: runs on the final code (seeds 2041-2044, medians, RSS with its range):
#:               cloud32_b8           halo2_b8
#: parent      0.941 | 51.9         1.18 | 97.7 (96.9 - 99.9)
#: (16,16,16)  1.44  | 52.4         1.39 | 99.2 (97.6 - 99.4)
#: (16,16,32)  1.57  | 53.0         1.48 | 98.9 (98.8 - 99.1)
#: Memory picks, not speed: the padded primitives and the result of the
#: largest box are held per worker -- 1.5 MB here, 4.9 MB at 32^3 -- and
#: the peak RSS of cloud32_b8 is to stay within 3 % of the parent's (here
#: + 2.2 %).  halo2_b8 reads + 1.1 % to + 1.5 % under either candidate,
#: inside the parent's own range: not the box's doing, and not resolved.
BOX_CELLS = (16, 16, 32)

#: The same for the NumPy executor of a box -- no compiled library, or a
#: scheme it does not implement -- whose whole-box sweeps allocate scratch
#: in proportion to the box (WENO5's tables and buffers: 5 MB at 16^3,
#: 10 MB at 16 x 16 x 32).  Compiler hidden, four alternating pairs
#: against :data:`BOX_CELLS` (seeds 3-6, medians): cloud32_b8 0.195 vs
#: 0.206 Mcells/s, peak RSS 57.9 vs 64.9 MB (+ 12 %); halo2_b8 0.436 vs
#: 0.427 Mcells/s, 148.4 vs 154.0 MB (+ 3.8 %).  The larger box is 5 %
#: faster on one and level on the other, and adds more than the 3 % of
#: peak RSS a box may.
NUMPY_BOX_CELLS = (16, 16, 16)

#: Block lists of more than one block whose boxes and plans a solver keeps
#: (the cluster layer alternates between two; the least recently used
#: goes first).
_PLAN_LISTS = 8


def check_scheme(order: int, solver: str, fused: bool,
                 use_slices: bool) -> None:
    """Reject a numerical scheme no RHS path implements (``ValueError``).

    ``order`` and ``solver`` must be ones the sweeps implement
    (:func:`repro.physics.equations.check_scheme`); the streaming RHS
    (``use_slices``) is WENO5 + HLLE only and would silently ignore any
    other choice.
    """
    check_sweep_scheme(order, solver)
    if use_slices and (order != 5 or solver != "hlle" or fused):
        raise ValueError(
            "use_slices runs WENO5 + HLLE only: it cannot be combined with "
            f"order={order}, solver={solver!r}, fused={fused}"
        )


def _cells_of(origin, extent):
    """Every index of the box of ``extent`` blocks at ``origin``."""
    return itertools.product(*(range(o, o + e)
                               for o, e in zip(origin, extent)))


def cut_into_boxes(indices, cap, want: int = 1):
    """Cut block indices into boxes ``(origin, extent)`` of neighbours.

    One greedy pass over the indices in (z, y, x) order: the first one
    no box has taken yet is the low corner of the next, which grows along
    x, then y, then z while every block of the new layer is in the set
    and untaken and the box spans at most ``cap`` blocks ``(z, y, x)``.
    Every index ends up in exactly one box, whatever the order (or
    repetitions) they come in.  Where that gives fewer than ``want``
    boxes -- the workers to keep busy -- the cap is halved along z, y, x
    in turn until it does, or every box is one block.
    """
    indices = sorted(set(indices))
    cap = list(cap)
    halve = itertools.cycle(range(3))
    while True:
        left = set(indices)
        boxes = []
        for origin in indices:
            if origin not in left:
                continue
            extent = [1, 1, 1]
            for axis in (2, 1, 0):
                while extent[axis] < cap[axis]:
                    layer = list(extent)
                    layer[axis] = 1
                    start = list(origin)
                    start[axis] += extent[axis]
                    if not left.issuperset(_cells_of(start, layer)):
                        break
                    extent[axis] += 1
            left.difference_update(_cells_of(origin, extent))
            boxes.append((origin, tuple(extent)))
        if len(boxes) >= min(want, len(indices)):
            return boxes
        axis = next(a for a in halve if cap[a] > 1)
        cap[axis] = -(-cap[axis] // 2)


class _BoxPlan:
    """How one box is gathered and scattered: what both executors run.

    ``rows`` are ``[at, source, flip]``: where in the box's padded buffer
    the AoS cells ``source`` go -- one row per member block, one per block
    face on the surface of the box, from
    :func:`~repro.node.ghosts.ghost_source` -- and the momentum row negated
    after that, or -1.  Edge and corner ghosts are in no row: no sweep
    reads them.  ``table`` is the same rows for the compiled gather
    (:func:`~repro.core.kernels.plan_table`), ``scatter`` the table that
    takes the unpadded result to the RHS slots of the member blocks, and
    ``rhs`` those slots as one view shaped like the result split by block.
    ``edges`` are the rows at a face of the rank, with what the boundary
    condition makes of them: :meth:`resolve` points them at the cluster
    layer's slabs for the calls that bring some.
    """

    def __init__(self, grid: BlockGrid, boundary: BoundarySpec, origin,
                 extent, rhs: np.ndarray):
        n, g = grid.block_size, GHOSTS
        self.interior = tuple(e * n for e in extent)
        self.rows, self.edges, scatter = [], [], []
        for offset in _cells_of((0, 0, 0), extent):
            block = grid.blocks[tuple(o + d for o, d in zip(origin, offset))]
            low = [g + d * n for d in offset]
            self.rows.append([low, block.data, -1])
            scatter.append(([d * n for d in offset],
                            rhs[grid.slots[block.index]], -1))
            for axis, side in itertools.product(range(3), (-1, 1)):
                if 0 <= offset[axis] + side < extent[axis]:
                    continue  # a member block: no ghosts inside a box
                at, shape = list(low), list(block.data.shape)
                at[axis] += n if side == 1 else -g
                shape[axis] = g
                source, flip = ghost_source(grid, block, axis, side, boundary)
                if source.shape[axis] != g:  # one layer, repeated
                    source = np.broadcast_to(source, shape)
                if grid.neighbor(block.index, axis, side) is None:
                    self.edges.append(
                        (len(self.rows), block.index, axis, side, source, flip))
                self.rows.append([at, source, flip])
        self.padded = [c + 2 * g for c in self.interior]
        self.table = plan_table(self.padded, self.rows)
        self.scatter = plan_table(self.interior, scatter, COMPUTE_DTYPE)
        box = tuple(slice(o, o + e) for o, e in zip(origin, extent))
        self.rhs = grid.by_cell(rhs, box)

    def resolve(self, remote_provider) -> None:
        """Point every row at a face of the rank to ``remote_provider``'s
        slab for it, or back to the boundary condition where there is
        none -- in place: the plan is patched, not rebuilt."""
        for k, index, axis, side, source, flip in self.edges:
            slab = (None if remote_provider is None else
                    remote_provider(index, axis, side))
            if slab is not None:
                if (slab.shape != source.shape
                        or slab.dtype != STORAGE_DTYPE
                        or slab.strides[-1] != slab.itemsize):
                    slab = np.ascontiguousarray(
                        np.broadcast_to(slab, source.shape),
                        dtype=STORAGE_DTYPE)
                source, flip = slab, -1
            if source is not self.rows[k][1]:
                self.rows[k][1:] = source, flip
                self.table[k] = plan_table(self.padded, [self.rows[k]])[0]


class _WorkArea:
    """What one worker's kernels keep across calls (paper Section 6, the
    per-thread dedicated buffers): the fields of the RHS sweeps -- the
    padded primitives and the result of a box, and where the NumPy
    executor runs the conserved state staged for it -- the scratch UP and
    SOS stream block data through and, where the NumPy executor runs, the
    AoS pad of a box.  The first RHS sizes them for ``shapes``,
    the cells of every box the solver can cut (largest first); the stream
    scratch is made at once, so that whichever area UP or SOS is handed
    has one (memory no kernel has touched is not resident)."""

    def __init__(self):
        self.sweep = SweepWorkspace()
        self.stream = stream_scratch()
        self.pad: np.ndarray | None = None

    def fields(self, interior, shapes):
        """``(W, R)``: the padded primitive SoA field and the SoA result
        of a box of ``interior`` cells."""
        if self.sweep.nbytes == 0:
            self.sweep.fields(shapes[0], COMPUTE_DTYPE)
        return self.sweep.fields(interior, COMPUTE_DTYPE)

    def aos_pad(self, interior, shapes) -> np.ndarray:
        """The AoS pad ``(nz+6, ny+6, nx+6, NQ)`` of a box of ``interior``
        cells, for the NumPy executor.  Every cell no gather row writes
        holds some state: the benign one, or what an earlier box left."""
        if self.pad is None:
            self.pad = padded_aos(shapes[0]).reshape(-1)
            self.fields(shapes[0], shapes)
            self.sweep.staging(shapes[0], COMPUTE_DTYPE)
        shape = tuple(c + 2 * GHOSTS for c in interior) + (NQ,)
        return self.pad[:np.prod(shape)].reshape(shape)

    @property
    def nbytes(self) -> int:
        pad = 0 if self.pad is None else self.pad.nbytes
        return pad + self.sweep.nbytes + self.stream.nbytes


class NodeSolver:
    """Executes RHS / UP / SOS over a rank's block grid.

    Parameters
    ----------
    grid:
        The rank's :class:`BlockGrid`.
    boundary:
        Physical boundary conditions at rank-subdomain faces that are also
        domain faces.  Faces adjacent to other ranks are filled by the
        ``remote_provider`` passed to :meth:`evaluate_rhs`.
    dispatcher:
        Work dispatcher (defaults to a 4-worker instrumented dispatcher).
        Its work item is a *box* of neighbouring blocks of the list given
        to :meth:`evaluate_rhs` (:func:`cut_into_boxes`, at most
        :data:`BOX_CELLS` cells per axis, :data:`NUMPY_BOX_CELLS` where
        the NumPy executor runs them): the paper hands out work "at a
        granularity of one block" (Section 6), which is one box at its
        32^3; smaller blocks go several to a box -- sixteen at 8^3, two
        at 16^3 (eight and one) -- and fewer where that is what gives
        every worker one.  ``last_schedule`` therefore counts boxes, not
        blocks.
    fused:
        Use the re-associated WENO variant (equal to round-off only).
    use_slices:
        Use the ring-buffer streaming RHS instead of the whole-box
        vectorized one (identical numerics, different memory behaviour),
        block by block: every box is one block.  WENO5 + HLLE only: any
        other ``order``, ``solver`` or ``fused`` raises ``ValueError``.
        It stays, though the compiled sweep's ring of flux rows is the
        ring that runs, as the readable form of the paper's six-slice
        ring (Fig. 2) and because the benchmark ladder's step loop passes
        it.
    tracer:
        Optional :class:`repro.telemetry.Tracer`; when set, the solver
        counts kernel work (``rhs_cell_updates``, ``up_cell_updates``,
        ``dt_cell_evals``, ``rhs_block_evals``) that the metrics snapshot
        prices with the analytic FLOP model.
    """

    def __init__(
        self,
        grid: BlockGrid,
        boundary: BoundarySpec | None = None,
        dispatcher: Dispatcher | None = None,
        fused: bool = False,
        use_slices: bool = False,
        order: int = 5,
        solver: str = "hlle",
        tracer=None,
    ):
        check_scheme(order, solver, fused, use_slices)
        if use_slices:
            # rhs_kernel_slices' ring, loaded here rather than in a step.
            from ..core import ringbuffer  # noqa: F401
        self.grid = grid
        self.boundary = boundary or BoundarySpec.all_extrapolate()
        self.dispatcher = dispatcher or Dispatcher(num_workers=4)
        self.fused = fused
        self.use_slices = use_slices
        self.order = order
        self.solver = solver
        self.tracer = tracer
        #: Every work area made, and the ones no kernel is using.  A
        #: kernel call takes a free one (the last returned first, so one
        #: thread keeps meeting the same) or makes one: there are as many
        #: as calls ever overlapped -- one under the ``instrumented``
        #: dispatcher, one per worker under ``threads``, whose threads
        #: last one round each -- and they live as long as the solver.
        self._areas: list[_WorkArea] = []
        self._free: list[_WorkArea] = []
        #: The RHS of every block, shaped like ``grid.state`` in compute
        #: precision, and its per-block views: made by the first RHS; a
        #: solver that never evaluates one (dumps, checkpoint readers)
        #: holds none.
        self._rhs: np.ndarray | None = None
        self._rhs_of: dict[tuple[int, int, int], np.ndarray] = {}
        #: Blocks per axis of the largest box, and the cells of every box
        #: within it (largest first): set with the RHS array, by the
        #: executor there is then.
        self._cap = (1, 1, 1)
        self._shapes: list[tuple[int, int, int]] = []
        #: The box plans of the block lists last evaluated, by the indices
        #: of the list, least recently used first.
        self._plans: dict[tuple, list[_BoxPlan]] = {}
        self.last_schedule: ScheduleStats | None = None

    # -- work areas ------------------------------------------------------

    @contextmanager
    def _work_area(self):
        """A work area no other call is using, for the ``with`` block."""
        try:
            area = self._free.pop()
        except IndexError:
            area = _WorkArea()
            self._areas.append(area)
        try:
            yield area
        finally:
            self._free.append(area)

    @property
    def work_area_nbytes(self) -> int:
        """Bytes held for the kernels: the buffers and scratch of every
        work area, plus the RHS array."""
        rhs = 0 if self._rhs is None else self._rhs.nbytes
        return rhs + sum(area.nbytes for area in self._areas)

    # -- kernels ----------------------------------------------------------

    def _library(self):
        """The compiled library if it runs this solver's boxes, or None."""
        return (None if self.use_slices else
                native_sweeps(self.order, self.solver, self.fused))

    def _box_plans(self, block_list: list[Block]) -> list[_BoxPlan]:
        """The plans of the boxes ``block_list`` is cut into, kept per
        distinct list (every list of one block, ``rhs_for_block``'s, and
        the last few longer ones); the first call makes the RHS array they
        scatter into and picks the cap of a box -- before the boxes are
        dispatched, not by whichever worker thread is first."""
        n = self.grid.block_size
        if self._rhs is None:
            self._rhs = np.empty(self.grid.state.shape, dtype=COMPUTE_DTYPE)
            self._rhs_of = dict(zip(self.grid.blocks, self._rhs))
            cells = ((n,) * 3 if self.use_slices else
                     NUMPY_BOX_CELLS if self._library() is None else BOX_CELLS)
            self._cap = tuple(min(count, max(1, c // n)) for count, c in
                              zip(self.grid.num_blocks, cells))
            self._shapes = [tuple(e * n for e in extent) for extent in
                            _cells_of((1, 1, 1), self._cap)][::-1]
        key = tuple(block.index for block in block_list)
        plans = self._plans.pop(key, None)
        if plans is None:
            lists = [k for k in self._plans if len(k) > 1]
            if len(key) > 1 and len(lists) >= _PLAN_LISTS:
                del self._plans[lists[0]]
            plans = [
                _BoxPlan(self.grid, self.boundary, origin, extent, self._rhs)
                for origin, extent in cut_into_boxes(
                    key, self._cap, self.dispatcher.num_workers)
            ]
        self._plans[key] = plans  # the most recently used: last
        return plans

    def _rhs_for_box(self, plan: _BoxPlan, remote_provider=None) -> None:
        """RHS of one box into the RHS slots of its blocks: gather the
        blocks and the ghosts of the box's faces into one padded buffer,
        one core-kernel call, scatter.  The compiled executor of the plan
        where the library implements the scheme (gather fused with the
        CONV stage, straight into the primitive SoA field), else the NumPy
        one: the same rows as slice assignments, the same bytes."""
        plan.resolve(remote_provider)
        h = self.grid.h
        lib = self._library()
        with self._work_area() as area:
            if lib is not None:
                W, R = area.fields(plan.interior, self._shapes)
                gather_conv(lib, plan.table, W)
                lib.repro_rhs_sweeps(W.ctypes.data, 1, *plan.interior,
                                     1.0 / h, R.ctypes.data)
                scatter_aos(lib, R, plan.scatter)
                return
            pad = area.aos_pad(plan.interior, self._shapes)
            for (z, y, x), source, flip in plan.rows:
                ez, ey, ex, _ = source.shape
                copy_source(pad[z:z + ez, y:y + ey, x:x + ex], source, flip)
            if self.use_slices:  # a box of one block
                rhs_kernel_slices(pad, h, out=plan.rhs[0, :, 0, :, 0])
            else:
                rhs_kernel(pad, h, fused=self.fused, order=self.order,
                           solver=self.solver, workspace=area.sweep,
                           out=plan.rhs)

    def rhs_for_block(self, block: Block, remote_provider=None) -> np.ndarray:
        """Evaluate the RHS of one block (ghost load + core kernel): a box
        of one.  The result is the solver's, see :meth:`evaluate_rhs`."""
        (plan,) = self._box_plans([block])
        self._rhs_for_box(plan, remote_provider)
        return self._rhs_of[block.index]

    def evaluate_rhs(
        self,
        blocks=None,
        remote_provider=None,
        sanitizer=None,
    ) -> dict[tuple[int, int, int], np.ndarray]:
        """RHS of many blocks through the dispatcher; returns per-index map.

        ``blocks`` defaults to all blocks in SFC order (the paper's
        dispatch order); the cluster layer passes the interior subset
        first and the halo subset after the ghost messages arrive.  The
        list is cut into boxes (see the class docstring), whatever its
        order; one box is one work item of the dispatcher and one call of
        the core kernel, so ``last_schedule.item_durations`` has one
        entry per box.

        The arrays of the result are the solver's own, one per block
        (views of one array shaped like ``grid.state``): each is valid
        until an RHS of *that block* is next evaluated (the interior map
        stays valid while the halo subset is evaluated).  Copy what has to
        outlive that.
        ``sanitizer`` (an optional
        :class:`repro.analysis.sanitizer.NumericsSanitizer`) checks every
        block's time derivative for NaN/Inf, localizing findings to the
        block index and the offending quantity.
        """
        block_list = list(blocks) if blocks is not None else list(self.grid.sfc_blocks())
        _, stats = self.dispatcher.run(
            self._box_plans(block_list),
            lambda plan: self._rhs_for_box(plan, remote_provider),
        )
        self.last_schedule = stats
        results = {b.index: self._rhs_of[b.index] for b in block_list}
        if sanitizer is not None:
            where = f"RHS ({sanitizer.context})"
            for index, rhs in results.items():
                sanitizer.check_finite(rhs, where=where, block=index)
        if self.tracer is not None:
            self.tracer.count("rhs_block_evals", len(block_list))
            self.tracer.count(
                "rhs_cell_updates", len(block_list) * self.grid.block_size ** 3
            )
        return results

    def update(
        self,
        rhs_map: dict[tuple[int, int, int], np.ndarray],
        a: float,
        b: float,
        dt: float,
        sanitizer=None,
    ) -> None:
        """UP kernel over all blocks with RHS entries (one RK stage).

        ``sanitizer`` (an optional
        :class:`repro.analysis.sanitizer.NumericsSanitizer`) is forwarded
        to the UP kernel so every post-stage block write is checked.
        """
        grid = self.grid
        whole_rank = (
            sanitizer is None and self._rhs is not None
            and len(rhs_map) == len(self._rhs_of)
            and all(rhs_map.get(idx) is rhs
                    for idx, rhs in self._rhs_of.items()))
        with self._work_area() as area:
            if whole_rank:
                # The solver's own RHS of every block: one pass over the
                # rank arrays, the bytes of the block-by-block loop below.
                update_stage(grid.state, grid.residual_storage(), self._rhs,
                             a, b, dt, scratch=area.stream)
            else:
                for idx, rhs in rhs_map.items():
                    update_stage(grid.blocks[idx].data, grid.residual(idx),
                                 rhs, a, b, dt, sanitizer=sanitizer,
                                 block=idx, scratch=area.stream)
        if self.tracer is not None:
            self.tracer.count(
                "up_cell_updates", len(rhs_map) * self.grid.block_size ** 3
            )

    def max_sos(self, sanitizer=None) -> float:
        """Rank-local SOS reduction (maximum characteristic velocity).

        The cells of all blocks are streamed through the SOS kernel as
        one sequence; a NaN anywhere makes the result NaN.  ``sanitizer``
        (an optional :class:`repro.analysis.sanitizer.NumericsSanitizer`)
        checks each block's reduction for NaN/Inf so a diverged block is
        reported by index before the global allreduce collapses it to a
        single value: the kernel then runs block by block.
        """
        if self.tracer is not None:
            self.tracer.count(
                "dt_cell_evals",
                len(self.grid.blocks) * self.grid.block_size ** 3,
            )
        with self._work_area() as area:
            scratch = area.stream
            if sanitizer is None:
                return sos_kernel(self.grid.state, scratch)
            where = f"SOS ({sanitizer.context})"
            peak = -np.inf
            for idx, block in self.grid.blocks.items():
                s = sos_kernel(block.data, scratch)
                sanitizer.check_finite(
                    np.asarray(s), where=where, block=idx, field="sos"
                )
                peak = nan_max(peak, s)
            return peak

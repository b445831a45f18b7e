"""Node-layer solver: per-rank kernel orchestration.

Coordinates the work within a rank (paper Section 6, node layer): for each
run of blocks, load data + ghosts into per-thread padded buffers, run the
core kernel once over the run, and store results.  Supports the
halo/interior block split used by the cluster layer to overlap
communication with computation.

Everything a step needs is held: the pads, the sweep scratch and the
UP/SOS scratch per worker, one RHS buffer per block per solver.  After
its first step a rank's step allocates no array.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from ..core.block import GHOSTS, Block, padded_aos
from ..core.kernels import (
    nan_max,
    rhs_kernel,
    rhs_kernel_slices,
    sos_kernel,
    stream_scratch,
    update_stage,
)
from ..physics.equations import SweepWorkspace, blocks_per_tile
from ..physics.equations import check_scheme as check_sweep_scheme
from ..physics.state import COMPUTE_DTYPE, NQ
from .dispatcher import Dispatcher, ScheduleStats
from .ghosts import BoundarySpec, fill_block_ghosts
from .grid import BlockGrid


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


class _WorkArea:
    """What one worker's kernels keep across calls (paper Section 6, the
    per-thread dedicated buffers): the padded blocks of the longest run,
    the scratch of the RHS sweeps and the scratch UP and SOS stream block
    data through.  The pads are made by the first RHS; the stream scratch
    at once, so that whichever area UP or SOS is handed has one (memory
    no kernel has touched is not resident)."""

    def __init__(self):
        self.pads: np.ndarray | None = None
        self.sweep = SweepWorkspace()
        self.stream = stream_scratch()

    def pad_buffer(self, block_size: int, run_blocks: int) -> np.ndarray:
        """One pad per block of the longest run,
        ``(run, n+6, n+6, n+6, NQ)``."""
        if self.pads is None:
            single = padded_aos(block_size)
            self.pads = np.repeat(single[np.newaxis], run_blocks, axis=0)
        return self.pads

    @property
    def nbytes(self) -> int:
        pads = 0 if self.pads is None else self.pads.nbytes
        return pads + self.sweep.nbytes + self.stream.nbytes


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
        Its work item is a *run* of consecutive blocks of the list given
        to :meth:`evaluate_rhs`: the paper hands out work "at a
        granularity of one block" (Section 6), which is one run where a
        block fills a sweep tile (the paper's 32^3, and 16^3).  Smaller
        blocks go several to a run, at most
        :func:`~repro.physics.equations.blocks_per_tile` (five at 8^3),
        so that they share one core-kernel call -- fewer when that makes
        the number of runs a multiple of the workers.  ``last_schedule``
        therefore counts runs, not blocks.
    fused:
        Use the re-associated WENO variant (equal to round-off only).
    use_slices:
        Use the ring-buffer streaming RHS instead of the whole-block
        vectorized one (identical numerics, different memory behaviour),
        block by block within a run.  WENO5 + HLLE only: any other
        ``order``, ``solver`` or ``fused`` raises ``ValueError``.
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
        #: Blocks of the longest run.
        self._run_blocks = blocks_per_tile((grid.block_size,) * 3)
        #: The RHS of every block, ``(blocks, n, n, n, NQ)`` in compute
        #: precision, allocated by the first :meth:`evaluate_rhs`; a
        #: solver that never evaluates one (dumps, checkpoint readers)
        #: holds none.
        self._rhs: np.ndarray | None = None
        self._rhs_slot = {idx: k for k, idx in enumerate(grid.blocks)}
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

    def _hold_rhs(self) -> None:
        """Make the RHS buffers on their first use -- before the runs are
        dispatched, not by whichever worker thread is first."""
        if self._rhs is None:
            n = self.grid.block_size
            self._rhs = np.empty((len(self._rhs_slot), n, n, n, NQ),
                                 dtype=COMPUTE_DTYPE)

    def _rhs_buffers(self, run: list[Block]) -> list[np.ndarray]:
        """The held RHS arrays ``(n, n, n, NQ)`` of the blocks of ``run``."""
        return [self._rhs[self._rhs_slot[b.index]] for b in run]

    @property
    def work_area_nbytes(self) -> int:
        """Bytes held for the kernels: pads, sweep scratch and UP/SOS
        scratch of every work area, plus the RHS buffers."""
        rhs = 0 if self._rhs is None else self._rhs.nbytes
        return rhs + sum(area.nbytes for area in self._areas)

    # -- kernels ----------------------------------------------------------

    def _block_runs(self, block_list: list[Block]) -> list[list[Block]]:
        """Split ``block_list``, in order, into the runs the dispatcher
        hands out: the fewest runs of even length that fit one sweep tile
        each, rounded up to a whole number of runs per worker (of equal
        cost the dynamic schedule then gives every worker as many)."""
        count = len(block_list)
        if count == 0:
            return []
        workers = self.dispatcher.num_workers
        nruns = -(-count // self._run_blocks)
        nruns = min(count, -(-nruns // workers) * workers)
        bounds = [k * count // nruns for k in range(nruns + 1)]
        return [block_list[a:b] for a, b in zip(bounds, bounds[1:])]

    def _rhs_for_run(self, run: list[Block], remote_provider=None):
        """RHS of a run of blocks: ghost loads, then one core-kernel call.

        Returns one AoS array ``(n, n, n, NQ)`` per block, in run order:
        the buffers held for those blocks.
        """
        g = GHOSTS
        out = self._rhs_buffers(run)
        with self._work_area() as area:
            pads = area.pad_buffer(self.grid.block_size,
                                   self._run_blocks)[:len(run)]
            for pad, block in zip(pads, run):
                pad[g:-g, g:-g, g:-g, :] = block.data
                fill_block_ghosts(pad, self.grid, block, self.boundary,
                                  remote_provider)
            if self.use_slices:
                return [rhs_kernel_slices(pad, self.grid.h, out=rhs)
                        for pad, rhs in zip(pads, out)]
            return rhs_kernel(pads, self.grid.h, fused=self.fused,
                              order=self.order, solver=self.solver,
                              workspace=area.sweep, out=out)

    def rhs_for_block(self, block: Block, remote_provider=None) -> np.ndarray:
        """Evaluate the RHS of one block (ghost load + core kernel): a run
        of one.  The result is the solver's, see :meth:`evaluate_rhs`."""
        self._hold_rhs()
        return self._rhs_for_run([block], remote_provider)[0]

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
        list is cut, in order, into runs of blocks (see the class
        docstring); one run is one work item of the dispatcher and one
        call of the core kernel, so ``last_schedule.item_durations`` has
        one entry per run.

        The arrays of the result are the solver's own, one per block: each
        is valid until an RHS of *that block* is next evaluated (the
        interior map stays valid while the halo subset is evaluated).
        Copy what has to outlive that.
        ``sanitizer`` (an optional
        :class:`repro.analysis.sanitizer.NumericsSanitizer`) checks every
        block's time derivative for NaN/Inf, localizing findings to the
        block index and the offending quantity.
        """
        block_list = list(blocks) if blocks is not None else list(self.grid.sfc_blocks())
        runs = self._block_runs(block_list)
        self._hold_rhs()
        per_run, stats = self.dispatcher.run(
            runs, lambda run: self._rhs_for_run(run, remote_provider)
        )
        self.last_schedule = stats
        results = [rhs for out in per_run for rhs in out]
        if sanitizer is not None:
            where = f"RHS ({sanitizer.context})"
            for blk, rhs in zip(block_list, results):
                sanitizer.check_finite(rhs, where=where, block=blk.index)
        if self.tracer is not None:
            self.tracer.count("rhs_block_evals", len(block_list))
            self.tracer.count(
                "rhs_cell_updates", len(block_list) * self.grid.block_size ** 3
            )
        return {b.index: r for b, r in zip(block_list, results)}

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
        with self._work_area() as area:
            scratch = area.stream
            for idx, rhs in rhs_map.items():
                block = self.grid.blocks[idx]
                update_stage(block.data, self.grid.residual(idx), rhs, a, b,
                             dt, sanitizer=sanitizer, block=idx,
                             scratch=scratch)
        if self.tracer is not None:
            self.tracer.count(
                "up_cell_updates", len(rhs_map) * self.grid.block_size ** 3
            )

    def state_crc(self) -> dict[tuple[int, int, int], int]:
        """CRC32 digest of every block's state (dict block index -> crc).

        A cheap integrity fingerprint of the rank subdomain: comparing
        digests across a checkpoint/restore round trip (or between
        decompositions of the same field) localizes silent corruption to
        a block without a field-sized diff.
        """
        from ..resilience.detect import crc32_array

        return {
            idx: crc32_array(block.data)
            for idx, block in self.grid.blocks.items()
        }

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
                return sos_kernel(
                    [b.data for b in self.grid.blocks.values()], scratch)
            where = f"SOS ({sanitizer.context})"
            peak = -np.inf
            for idx, block in self.grid.blocks.items():
                s = sos_kernel(block.data, scratch)
                sanitizer.check_finite(
                    np.asarray(s), where=where, block=idx, field="sos"
                )
                peak = nan_max(peak, s)
            return peak

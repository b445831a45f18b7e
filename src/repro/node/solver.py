"""Node-layer solver: per-rank kernel orchestration.

Coordinates the work within a rank (paper Section 6, node layer): for each
block, load data + ghosts into a per-thread padded buffer, run the core
kernels, and store results.  Supports the halo/interior block split used
by the cluster layer to overlap communication with computation.
"""

from __future__ import annotations

import threading

import numpy as np

from ..core.block import GHOSTS, Block, padded_aos
from ..core.kernels import rhs_kernel, rhs_kernel_slices, sos_kernel, update_stage
from ..physics.equations import SweepWorkspace
from .dispatcher import Dispatcher, ScheduleStats
from .ghosts import BoundarySpec, fill_block_ghosts
from .grid import BlockGrid


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
    fused:
        Use the re-associated WENO variant (equal to round-off only).
    use_slices:
        Use the ring-buffer streaming RHS instead of the whole-block
        vectorized one (identical numerics, different memory behaviour).
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
        self.grid = grid
        self.boundary = boundary or BoundarySpec.all_extrapolate()
        self.dispatcher = dispatcher or Dispatcher(num_workers=4)
        self.fused = fused
        self.use_slices = use_slices
        self.order = order
        self.solver = solver
        self.tracer = tracer
        self._tls = threading.local()
        self.last_schedule: ScheduleStats | None = None

    # -- per-thread work area ------------------------------------------

    def _pad_buffer(self) -> np.ndarray:
        """The per-thread dedicated padded buffer (paper Section 6)."""
        pad = getattr(self._tls, "pad", None)
        if pad is None or pad.shape[0] != self.grid.block_size + 2 * GHOSTS:
            pad = padded_aos(self.grid.block_size)
            self._tls.pad = pad
        return pad

    def _sweep_workspace(self) -> SweepWorkspace:
        """The per-thread scratch of the RHS sweeps, next to the pad buffer.

        Thread-local like the pad: ``sim`` ranks and the ``threads``
        dispatcher run solvers on several threads of one process.
        """
        sweep = getattr(self._tls, "sweep", None)
        if sweep is None:
            sweep = self._tls.sweep = SweepWorkspace()
        return sweep

    # -- kernels ----------------------------------------------------------

    def rhs_for_block(self, block: Block, remote_provider=None) -> np.ndarray:
        """Evaluate the RHS of one block (ghost load + core kernel)."""
        g = GHOSTS
        pad = self._pad_buffer()
        pad[g:-g, g:-g, g:-g, :] = block.data
        fill_block_ghosts(pad, self.grid, block, self.boundary, remote_provider)
        if self.use_slices:
            return rhs_kernel_slices(pad, self.grid.h)
        return rhs_kernel(pad, self.grid.h, fused=self.fused,
                          order=self.order, solver=self.solver,
                          workspace=self._sweep_workspace())

    def evaluate_rhs(
        self,
        blocks=None,
        remote_provider=None,
        sanitizer=None,
    ) -> dict[tuple[int, int, int], np.ndarray]:
        """RHS of many blocks through the dispatcher; returns per-index map.

        ``blocks`` defaults to all blocks in SFC order (the paper's
        dispatch order); the cluster layer passes the interior subset
        first and the halo subset after the ghost messages arrive.
        ``sanitizer`` (an optional
        :class:`repro.analysis.sanitizer.NumericsSanitizer`) checks every
        block's time derivative for NaN/Inf, localizing findings to the
        block index and the offending quantity.
        """
        block_list = list(blocks) if blocks is not None else list(self.grid.sfc_blocks())
        results, stats = self.dispatcher.run(
            block_list, lambda b: self.rhs_for_block(b, remote_provider)
        )
        self.last_schedule = stats
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
        for idx, rhs in rhs_map.items():
            block = self.grid.blocks[idx]
            update_stage(block.data, self.grid.residual(idx), rhs, a, b, dt,
                         sanitizer=sanitizer, block=idx)
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

        ``sanitizer`` (an optional
        :class:`repro.analysis.sanitizer.NumericsSanitizer`) checks each
        block's reduction for NaN/Inf so a diverged block is reported by
        index before the global allreduce collapses it to a single value.
        """
        if self.tracer is not None:
            self.tracer.count(
                "dt_cell_evals",
                len(self.grid.blocks) * self.grid.block_size ** 3,
            )
        if sanitizer is None:
            return max(sos_kernel(b.data) for b in self.grid.blocks.values())
        where = f"SOS ({sanitizer.context})"
        values = []
        for idx, block in self.grid.blocks.items():
            s = sos_kernel(block.data)
            sanitizer.check_finite(
                np.asarray(s), where=where, block=idx, field="sos"
            )
            values.append(s)
        return max(values)

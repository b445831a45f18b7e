"""Inter-rank ghost (halo) exchange.

"During the evaluation of the RHS, blocks are divided in two parts: halo
and interior.  Non-blocking point-to-point communications are performed to
exchange ghost information for the halo blocks.  Every rank sends 6
messages to its adjacent neighbors ...  While waiting for the messages,
the rank dispatches the interior blocks to the node layer." (paper
Section 6)

:class:`HaloExchange` implements that protocol on the simulated
communicator: :meth:`start` packs the face slabs and posts the
non-blocking sends/receives, :meth:`finish` waits and returns the ghost
provider the node layer consults for rank-boundary blocks.

Only a face whose neighbour is another rank is a message.  A face a rank
shares with itself -- a periodic axis the rank spans alone -- is read from
its own grid: the provider serves the wrapped block faces as views of the
rank's state, the cells a message to itself would carry, read at the same
point of the stage, so the bytes are the same.  A received face lands in
the receive buffer of its face, allocated once; the exchange owns one
provider, whose view of a block face is made once, so the node layer's
box plans are pointed at their sources in the first stage and stay so.
That provider is valid until the next :meth:`~HaloExchange.finish`, which
overwrites its buffers.

Every slab travels as a checksummed :class:`~repro.resilience.detect.HaloFrame`
(CRC32 computed before transport), so an in-transit bit flip is caught on
receive as a :class:`~repro.resilience.detect.HaloCorruptionError` rather
than silently entering the stencil.  Transient send failures (injected or
real) are retried in place with bounded jittered backoff.
"""

from __future__ import annotations

import numpy as np

from ..core.block import GHOSTS
from ..node.grid import BlockGrid
from ..physics.state import NQ, STORAGE_DTYPE
from ..resilience.detect import HaloFrame, crc32_array
from .mpi_sim import Communicator, Request
from .topology import CartTopology


def _face_tag(axis: int, side: int) -> int:
    """Message tag identifying the *sending* face."""
    return axis * 2 + (0 if side == -1 else 1)


def _slab_shape(grid: BlockGrid, axis: int, width: int) -> list[int]:
    """Shape of a slab spanning one face of the rank subdomain."""
    shape = list(grid.cells) + [NQ]
    shape[axis] = width
    return shape


def _face_cells(grid: BlockGrid, axis: int, side: int, width: int) -> np.ndarray:
    """The ``width`` cell layers at one face of the rank subdomain: the
    edge layer of blocks and the edge layers of their cells, a view of
    the rank array in :meth:`~repro.node.grid.BlockGrid.by_cell` order."""
    n = grid.block_size
    cut = [slice(None)] * 6
    cut[axis], cut[3 + axis] = (
        (slice(0, 1), slice(0, width)) if side == -1 else
        (slice(grid.num_blocks[axis] - 1, None), slice(n - width, n)))
    return grid.by_cell(grid.state, tuple(cut))


def extract_face_slab(grid: BlockGrid, axis: int, side: int, width: int = GHOSTS) -> np.ndarray:
    """Assemble the ``width``-cell slab at one face of the rank subdomain.

    The slab spans the full subdomain face; shape is the subdomain cell
    extent with ``axis`` replaced by ``width`` (plus the quantity axis).
    """
    return _face_cells(grid, axis, side, width).copy().reshape(
        _slab_shape(grid, axis, width))


class RemoteGhostProvider:
    """Serves per-block ghost slabs out of the face buffers.

    Implements the node layer's ghost-provider protocol:
    ``provider(block_index, axis, side) -> slab or None``.  ``None`` means
    the face is a physical domain boundary and the node layer should apply
    the boundary condition.

    ``face_buffers`` holds, per face ``(axis, side)``, the cells beyond
    it: a slab shaped like the subdomain face (a received one), or the
    same cells in :meth:`~repro.node.grid.BlockGrid.by_cell` axis order
    (a view of the rank's own state, for a face it shares with itself).
    The slab of a block face is a view of its buffer, made by the first
    call and the same object on every later one: it always shows what
    the buffer holds now.
    """

    def __init__(self, grid: BlockGrid, face_buffers: dict[tuple[int, int], np.ndarray]):
        n = grid.block_size
        self._buffers = {}
        for (axis, side), buf in face_buffers.items():
            if buf.ndim == 4:  # a slab: split the blocks off every axis
                shape = []
                for d, cells in enumerate(buf.shape[:3]):
                    shape += (1, cells) if d == axis else (grid.num_blocks[d], n)
                buf = buf.reshape(shape + [NQ])
            self._buffers[(axis, side)] = buf
        self._views: dict[tuple, np.ndarray] = {}

    def __call__(self, block_index: tuple[int, int, int], axis: int, side: int):
        key = (block_index, axis, side)
        view = self._views.get(key)
        if view is None:
            buf = self._buffers.get((axis, side))
            if buf is None:
                return None
            bz, by, bx = (0 if d == axis else b for d, b in enumerate(block_index))
            view = self._views[key] = buf[bz, :, by, :, bx]
        return view


class HaloExchange:
    """Non-blocking halo exchange for one rank: one message per face whose
    neighbour is another rank (six in the paper's runs), none for a face
    the rank shares with itself (see the module docstring).

    ``tracer`` is an optional :class:`repro.telemetry.Tracer`; when set,
    :meth:`start` counts the posted messages and ghost bytes
    (``halo_messages`` / ``halo_bytes``) for the run metrics snapshot.

    ``injector`` is an optional
    :class:`~repro.resilience.inject.FaultInjector` used as the
    resilience monitor (CRC detections, comm retries).  Transient send
    failures back off under the default
    :class:`~repro.resilience.recover.RetryPolicy`, seeded per rank.
    """

    def __init__(self, comm: Communicator, topo: CartTopology, grid: BlockGrid,
                 tracer=None, injector=None):
        from ..resilience.recover import RetryPolicy

        self.comm = comm
        self.topo = topo
        self.grid = grid
        self.tracer = tracer
        self.injector = injector
        # Desynchronize backoff jitter across ranks via the seed.
        self.retry = RetryPolicy(seed=2013 + comm.rank)
        self._neighbors = topo.neighbors(comm.rank)
        #: The receive buffer of every face whose neighbour is another
        #: rank, rewritten by every :meth:`finish`; a face the rank shares
        #: with itself is the rank's own opposite face, read in place.
        self._received = {
            (axis, side): np.empty(_slab_shape(grid, axis, GHOSTS), STORAGE_DTYPE)
            for (axis, side), nbr in self._neighbors.items()
            if nbr not in (None, comm.rank)}
        wrapped = {(axis, side): _face_cells(grid, axis, -side, GHOSTS)
                   for (axis, side), nbr in self._neighbors.items()
                   if nbr == comm.rank}
        self._provider = RemoteGhostProvider(grid, {**self._received, **wrapped})

    def halo_split(self) -> tuple[list, list]:
        """Split the rank's blocks into (interior, halo) lists.

        A block is *halo* if any of its faces touches a rank face with a
        live neighbor (another rank, or the rank itself across a periodic
        axis); all other blocks are interior and can be computed while
        messages are in flight.  Both lists preserve SFC dispatch order.
        """
        interior, halo = [], []
        B = self.grid.num_blocks
        for block in self.grid.sfc_blocks():
            is_halo = False
            for axis in range(3):
                for side in (-1, 1):
                    edge = 0 if side == -1 else B[axis] - 1
                    if block.index[axis] == edge and self._neighbors[(axis, side)] is not None:
                        is_halo = True
            (halo if is_halo else interior).append(block)
        return interior, halo

    def _send_frame(self, frame: HaloFrame, nbr: int, tag: int) -> None:
        """Post one checksummed face send, retrying transient failures."""
        from ..resilience.inject import TransientCommError
        from ..resilience.recover import retry_transient

        def on_retry(attempt: int, exc: TransientCommError) -> None:
            if self.injector is not None:
                self.injector.count("comm_retries")
                self.injector.detected("comm_transient")
                self.injector.recovered("comm_transient")

        retry_transient(lambda: self.comm.isend(frame, nbr, tag=tag),
                        self.retry, on_retry=on_retry)

    def start(self) -> dict[tuple[int, int], Request]:
        """Pack and post the sends/receives of the faces whose neighbour
        is another rank; returns pending receives."""
        pending: dict[tuple[int, int], Request] = {}
        for axis in range(3):
            for side in (-1, 1):
                if (axis, side) not in self._received:
                    continue
                nbr = self._neighbors[(axis, side)]
                slab = extract_face_slab(self.grid, axis, side)
                # Checksum before transport so receive-side verification
                # catches any in-transit corruption.
                frame = HaloFrame(crc=crc32_array(slab), payload=slab)
                # Tag with *our* sending face; the receiver matches on the
                # opposite face of the same axis.
                self._send_frame(frame, nbr, tag=_face_tag(axis, side))
                pending[(axis, side)] = self.comm.irecv(
                    source=nbr, tag=_face_tag(axis, -side)
                )
                if self.tracer is not None:
                    self.tracer.count("halo_messages")
                    self.tracer.count("halo_bytes", slab.nbytes)
        return pending

    def finish(self, pending: dict[tuple[int, int], Request]) -> RemoteGhostProvider:
        """Wait for all receives, verify CRCs, return the ghost provider.

        Every frame is verified before any of its bytes is used, then
        copied into the receive buffer of its face.  The provider is the
        exchange's one: it serves those buffers and, for a face the rank
        shares with itself, the rank's own cells; it is valid until the
        next ``finish``, which overwrites its buffers.

        Raises :class:`~repro.resilience.detect.HaloCorruptionError` when
        a received frame fails its checksum (counted as a
        ``msg_corrupt`` detection on the injector first).
        """
        from ..resilience.detect import HaloCorruptionError

        for (axis, side), req in pending.items():
            frame = req.wait()
            if isinstance(frame, HaloFrame):
                try:
                    frame.verify(source=self._neighbors[(axis, side)],
                                 axis=axis, side=side)
                except HaloCorruptionError:
                    if self.injector is not None:
                        self.injector.detected("msg_corrupt")
                    raise
                frame = frame.payload
            # (a pre-framing peer sends a plain slab: accepted unchecked)
            self._received[(axis, side)][...] = frame
        return self._provider

    def exchange(self) -> RemoteGhostProvider:
        """Blocking convenience: start + finish."""
        return self.finish(self.start())

    def message_bytes(self) -> dict[tuple[int, int], int]:
        """Per-message sizes by sending face: the faces whose neighbour is
        another rank (the paper quotes 3--30 MB per message)."""
        return {face: buf.nbytes for face, buf in self._received.items()}

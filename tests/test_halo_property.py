"""Property tests of the halo exchange over random fields and layouts.

The second half targets the process-parallel transport
(:mod:`repro.cluster.procs`): random block shapes/dtypes must
round-trip through the shared-memory CRC frames bit-exact, and *any*
single corrupted byte must be detected -- either a
:class:`~repro.cluster.procs.RingCorruptionError` at the transport
layer or an app-level :class:`HaloCorruptionError` at frame
verification -- never a silently delivered wrong payload.  The frame
and ring layers are exercised in-process (no spawning): the byte
format is identical either way.
"""

import itertools
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.halo import HaloExchange
from repro.cluster.mpi_sim import SimWorld
from repro.cluster.procs import (
    KIND_ARRAY,
    KIND_COLL,
    KIND_HALO,
    KIND_PICKLE,
    Ring,
    RingCorruptionError,
    encode_frame,
    parse_frames,
)
from repro.cluster.topology import CartTopology, balanced_dims
from repro.core.block import GHOSTS
from repro.node.grid import BlockGrid
from repro.physics.state import NQ
from repro.resilience.detect import HaloCorruptionError, HaloFrame, crc32_array

from .conftest import make_rng


@given(
    seed=st.integers(0, 2**31),
    ranks=st.sampled_from([2, 4, 8]),
    periodic=st.booleans(),
)
@settings(max_examples=10, deadline=None)
def test_ghosts_match_global_field(seed, ranks, periodic):
    """For every rank-boundary block face, the provider must serve exactly
    the corresponding slab of the global field (wrapping if periodic)."""
    n = 8  # block size
    gb = (2, 2, 2)  # global blocks
    cells = tuple(g * n for g in gb)
    rng = make_rng(seed)
    global_field = rng.normal(size=cells + (NQ,)).astype(np.float32)
    dims = balanced_dims(ranks)
    per = (periodic,) * 3

    world = SimWorld(ranks)

    def main(comm):
        topo = CartTopology(dims, per)
        starts, counts = topo.subdomain_blocks(comm.rank, gb)
        origin = tuple(s * n for s in starts)
        grid = BlockGrid(counts, n, h=1.0)
        nz, ny, nx = grid.cells
        grid.from_array(
            global_field[
                origin[0] : origin[0] + nz,
                origin[1] : origin[1] + ny,
                origin[2] : origin[2] + nx,
            ]
        )
        halo = HaloExchange(comm, topo, grid)
        provider = halo.exchange()

        # Check every rank-boundary face of every boundary block.
        B = grid.num_blocks
        for block in grid.blocks.values():
            for axis in range(3):
                for side in (-1, 1):
                    edge = 0 if side == -1 else B[axis] - 1
                    if block.index[axis] != edge:
                        continue
                    if topo.neighbor(comm.rank, axis, side) is None:
                        assert provider(block.index, axis, side) is None
                        continue
                    slab = provider(block.index, axis, side)
                    # Expected: the global-field slab adjacent to this
                    # block face, wrapped modulo the domain.
                    lo = [
                        origin[d] + block.index[d] * n for d in range(3)
                    ]
                    idx = []
                    for d in range(3):
                        if d == axis:
                            if side == -1:
                                rng_d = np.arange(lo[d] - GHOSTS, lo[d])
                            else:
                                rng_d = np.arange(lo[d] + n, lo[d] + n + GHOSTS)
                            idx.append(rng_d % cells[d])
                        else:
                            idx.append(np.arange(lo[d], lo[d] + n))
                    expected = global_field[np.ix_(*idx)]
                    np.testing.assert_array_equal(slab, expected)
        return True

    assert all(world.run(main))


@given(seed=st.integers(0, 2**31))
@settings(max_examples=5, deadline=None)
def test_exchange_idempotent(seed):
    """Repeating the exchange (no state change) returns identical slabs."""
    rng = make_rng(seed)
    world = SimWorld(2)
    field = rng.normal(size=(16, 8, 8, NQ)).astype(np.float32)

    def main(comm):
        topo = CartTopology((2, 1, 1))
        grid = BlockGrid((1, 1, 1), 8, h=1.0)
        grid.from_array(field[comm.rank * 8 : (comm.rank + 1) * 8])
        halo = HaloExchange(comm, topo, grid)
        p1 = halo.exchange()
        p2 = halo.exchange()
        axis_side = (0, 1) if comm.rank == 0 else (0, -1)
        a = p1((0, 0, 0), *axis_side)
        b = p2((0, 0, 0), *axis_side)
        np.testing.assert_array_equal(a, b)
        return True

    assert all(world.run(main))


# -- shared-memory frame layer (procs backend) ---------------------------


class _FakeSegment:
    """Segment stand-in exposing the same ``buf`` memoryview API."""

    def __init__(self, nbytes):
        self.buf = memoryview(bytearray(nbytes))


def _make_ring(capacity):
    return Ring(_FakeSegment(16 + capacity), threading.Lock(), capacity)


_DTYPES = st.sampled_from(["<f4", "<f8", "<i4", "<i8", "|u1"])
_SHAPES = st.lists(st.integers(1, 9), min_size=1, max_size=4)


@given(seed=st.integers(0, 2**31), dtype=_DTYPES, shape=_SHAPES)
@settings(max_examples=40, deadline=None)
def test_frame_roundtrip_random_blocks(seed, dtype, shape):
    """Random shapes/dtypes survive the wire frame bit-exact, and a
    HaloFrame keeps its resilience-layer CRC valid end to end."""
    rng = make_rng(seed)
    arr = (rng.normal(size=shape) * 100).astype(np.dtype(dtype))

    wire = encode_frame(3, 17, KIND_ARRAY, arr)
    frames = parse_frames(bytearray(wire))
    assert len(frames) == 1
    f = frames[0]
    assert (f.source, f.tag, f.kind) == (3, 17, KIND_ARRAY)
    assert f.payload.dtype == arr.dtype and f.payload.shape == arr.shape
    np.testing.assert_array_equal(f.payload, arr)

    halo = HaloFrame(crc=crc32_array(arr), payload=arr)
    frames = parse_frames(bytearray(encode_frame(1, 5, KIND_HALO, halo)))
    assert frames[0].kind == KIND_HALO
    frames[0].payload.verify(source=1, axis=0, side=1)  # must not raise
    np.testing.assert_array_equal(frames[0].payload.payload, arr)


@given(seed=st.integers(0, 2**31), offset_frac=st.floats(0.0, 1.0))
@settings(max_examples=60, deadline=None)
def test_corrupt_byte_never_delivers(seed, offset_frac):
    """Flipping ANY single byte of a framed message must never yield a
    silently delivered frame: the parser raises (CRC/framing) or holds
    the bytes back as incomplete (watchdog territory), and a length
    corruption can only defer -- not forge -- a valid record."""
    rng = make_rng(seed)
    arr = rng.normal(size=(4, 5)).astype(np.float64)
    wire = bytearray(encode_frame(2, 9, KIND_ARRAY, arr))
    pos = min(len(wire) - 1, int(offset_frac * len(wire)))
    wire[pos] ^= 1 << int(rng.integers(8))
    try:
        frames = parse_frames(wire)
    except RingCorruptionError:
        return  # detected at the transport layer: correct
    # The only non-raising outcome: a corrupted length field made the
    # frame look longer than the stream -- nothing may be delivered.
    assert frames == []


def _same_frame(a, b) -> bool:
    """Whether two decoded frames carry the same message."""
    if (a.source, a.tag, a.kind) != (b.source, b.tag, b.kind):
        return False
    pa, pb = a.payload, b.payload
    if isinstance(pa, HaloFrame):
        if pa.crc != pb.crc:
            return False
        pa, pb = pa.payload, pb.payload
    if isinstance(pa, np.ndarray):
        return (pa.dtype == pb.dtype and pa.shape == pb.shape
                and pa.tobytes() == pb.tobytes())
    return pa == pb


@given(seed=st.integers(0, 2**31), mask=st.integers(1, 255),
       split=st.floats(0.05, 0.95))
@settings(max_examples=15, deadline=None)
def test_any_cut_or_flip_of_a_mixed_stream_parses_a_prefix_or_raises(
        seed, mask, split):
    """The in-place ingress over every cut and every single-byte flip of a
    stream of halo, array, pickle and collective frames with one more
    frame split across its end: each case raises RingCorruptionError or
    returns a prefix of the clean parse and leaves the bytes after that
    prefix buffered -- in bounded time, and never a ``BufferError`` (the
    stream stays resizable after either ending).  A cut only defers: it
    returns exactly the frames it holds whole."""
    rng = make_rng(seed)
    arr = rng.normal(size=(2, 3, 4)).astype(np.float32)
    records = [
        encode_frame(1, 11, KIND_HALO,
                     HaloFrame(crc=crc32_array(arr), payload=arr)),
        encode_frame(1, 12, KIND_ARRAY, rng.integers(0, 9, size=5)),
        encode_frame(1, 13, KIND_PICKLE, {"step": seed % 97, "dt": 0.5}),
        encode_frame(1, 14, KIND_COLL, {0: ("allreduce", float(seed % 7))}),
    ]
    tail = encode_frame(1, 15, KIND_ARRAY, arr)
    wire = b"".join(records) + tail[:max(1, int(split * len(tail)))]
    ends = [0, *itertools.accumulate(map(len, records))]
    clean = parse_frames(bytearray(wire))
    assert len(clean) == len(records)

    def parsed(stream: bytes) -> int | None:
        """Frames parsed from ``stream``, None where it raised."""
        buf = bytearray(stream)
        t0 = time.perf_counter()
        try:
            frames = parse_frames(buf)
        except RingCorruptionError:
            frames = None
        assert time.perf_counter() - t0 < 1.0
        buf.append(0)  # no view of the stream is left behind
        if frames is None:
            return None
        n = len(frames)
        assert all(map(_same_frame, frames, clean))
        assert bytes(buf[:-1]) == stream[ends[n]:]
        return n

    for cut in range(len(wire) + 1):
        assert parsed(wire[:cut]) == sum(end <= cut for end in ends[1:])
    for pos in range(len(wire)):
        flipped = bytearray(wire)
        flipped[pos] ^= mask
        parsed(bytes(flipped))


def test_corrupt_payload_byte_raises():
    """Deterministic spot check: a payload flip always raises."""
    arr = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
    wire = bytearray(encode_frame(0, 1, KIND_ARRAY, arr))
    wire[-5] ^= 0x10
    with pytest.raises(RingCorruptionError, match="CRC32"):
        parse_frames(wire)


def test_halo_frame_app_crc_survives_transport():
    """A payload corrupted *before* framing (the msg_corrupt injection
    site) passes the wire CRC but fails HaloFrame verification -- the
    resilience-layer detection semantics are preserved across the
    shared-memory transport."""
    arr = np.arange(30, dtype=np.float64).reshape(5, 6)
    halo = HaloFrame(crc=crc32_array(arr), payload=arr)
    corrupted = arr.copy()
    corrupted[2, 3] += 1.0  # injected in transit, CRC stamped before
    tampered = HaloFrame(crc=halo.crc, payload=corrupted)
    frames = parse_frames(bytearray(encode_frame(0, 3, KIND_HALO, tampered)))
    with pytest.raises(HaloCorruptionError):
        frames[0].payload.verify(source=0, axis=1, side=-1)


@given(
    seed=st.integers(0, 2**31),
    sizes=st.lists(st.integers(1, 30000), min_size=1, max_size=12),
)
@settings(max_examples=25, deadline=None)
def test_ring_stream_roundtrip_with_wraparound(seed, sizes):
    """Random frame bursts through a small ring: byte-stream reassembly
    across wraparound and partial drains is lossless and ordered."""
    capacity = 1 << 16
    ring = _make_ring(capacity)
    rng = make_rng(seed)
    sent = []
    stream = bytearray()
    received = []
    deadline = 10.0
    for i, size in enumerate(sizes):
        payload = rng.integers(0, 255, size=size, dtype=np.uint8)
        sent.append(payload)
        wire = encode_frame(0, i, KIND_ARRAY, payload)
        # Frames can exceed the ring: drain concurrently like a reader
        # process would.  A thread stands in for the peer rank.
        reader_done = threading.Event()

        def pump():
            while not reader_done.is_set():
                chunk = ring.drain()
                if chunk:
                    stream.extend(chunk)
                    received.extend(parse_frames(stream))

        t = threading.Thread(target=pump)
        t.start()
        try:
            ring.write(wire, deadline=time.monotonic() + deadline)
        finally:
            reader_done.set()
            t.join()
        chunk = ring.drain()
        if chunk:
            stream.extend(chunk)
            received.extend(parse_frames(stream))
    assert len(received) == len(sent)
    for i, (frame, payload) in enumerate(zip(received, sent)):
        assert frame.tag == i
        np.testing.assert_array_equal(frame.payload, payload)


def test_ring_write_times_out_when_full():
    """A writer with no reader must fail with the comm timeout, not
    hang (the deadlock watchdog upgrades this in the communicator)."""
    from repro.cluster.mpi_sim import CommTimeoutError

    ring = _make_ring(1 << 16)
    big = encode_frame(0, 0, KIND_PICKLE, b"x" * (1 << 17))
    with pytest.raises(CommTimeoutError):
        ring.write(big, deadline=time.monotonic() + 0.2)


def test_ring_drain_across_the_wrap_appends_the_unread_bytes():
    """A drain appends exactly the unread bytes, in order, onto the
    stream it is given -- the part before the wrap and the part after --
    and advances ``head`` to ``tail``."""
    ring = _make_ring(64)
    first = bytes(range(40))
    ring.write(first, deadline=time.monotonic() + 1.0)
    assert ring.drain() == first
    wrapped = bytes(range(100, 150))  # 24 bytes to the end, 26 after
    ring.write(wrapped, deadline=time.monotonic() + 1.0)
    assert ring._cursors() == (40, 90)
    stream = bytearray(b"held")
    assert ring.drain(stream) is stream
    assert stream == b"held" + wrapped
    assert ring._cursors() == (90, 90)
    assert ring.drain(stream) == b"held" + wrapped  # idle: nothing added


#: ``(bytes consumed before, unread length)`` on a 64-byte ring: empty,
#: no wrap, full from 0, ending on the boundary, one byte past it, full
#: across it, and after two laps.
_DRAIN_CASES = {
    "empty": (40, 0),
    "no_wrap": (0, 10),
    "full_from_0": (0, 64),
    "ends_at_boundary": (40, 24),
    "one_past_boundary": (40, 25),
    "full_across_wrap": (63, 64),
    "after_two_laps": (130, 50),
}


@pytest.mark.parametrize("consumed, length", list(_DRAIN_CASES.values()),
                         ids=list(_DRAIN_CASES))
def test_ring_drain_appends_exactly_the_unread_bytes(consumed, length):
    """Wherever the unread bytes sit, ``drain(out)`` appends exactly
    them, in order, to ``out`` and returns it, and ``drain()`` returns
    them in a new ``bytearray``; either advances ``head`` to ``tail``."""
    rng = make_rng(consumed * 64 + length)
    unread = rng.integers(0, 256, size=length, dtype=np.uint8).tobytes()
    for given in (bytearray(b"prefix"), None):
        ring = _make_ring(64)
        while ring._cursors()[1] < consumed:
            n = min(64, consumed - ring._cursors()[1])
            ring.write(b"\xff" * n, deadline=time.monotonic() + 1.0)
            ring.drain()
        ring.write(unread, deadline=time.monotonic() + 1.0)
        assert ring._cursors() == (consumed, consumed + length)
        out = ring.drain(given)
        if given is None:
            assert isinstance(out, bytearray) and out == unread
        else:
            assert out is given and out == b"prefix" + unread
        assert ring._cursors() == (consumed + length,) * 2

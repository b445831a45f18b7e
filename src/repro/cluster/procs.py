"""Process-parallel SPMD transport: ranks as real OS processes.

:mod:`repro.cluster.mpi_sim` writes the communicator protocol once
(:class:`~repro.cluster.mpi_sim.Communicator`: point-to-point API,
collectives, deadlock watchdog, fault hook) and runs it over threads of
one interpreter -- faithful control flow, zero real node scaling (the
GIL serializes everything outside NumPy kernels).  This module is the
second transport under the same protocol: each rank is a real process
(``multiprocessing`` spawn context) and frames move through
**shared-memory ring buffers** (:class:`multiprocessing.shared_memory`),
so a multi-core host measures the paper's actual quantity -- wall-clock
speedup from real parallel ranks (Fig. 9's strong scaling, with
measured rather than modeled numbers).

Design
------

* **Rings** -- one single-producer/single-consumer byte ring per
  ordered rank pair ``(src, dst)``.  A ring is one shared-memory
  segment: a 16-byte header (monotonic ``head``/``tail`` cursors,
  guarded by a ``multiprocessing.Lock``) plus a power-of-two data
  region written/read with wraparound.  Writers block (bounded by the
  world timeout) when a ring is full; readers drain whole rings into a
  per-source reassembly stream, so a selective receive can never
  deadlock on out-of-order traffic (eager protocol with local
  buffering, exactly like the thread backend's mailboxes).
* **Framing** -- every message travels as a CRC-framed record:
  ``magic | kind | source | tag | app_crc | wire_crc | meta | payload``.
  The *wire* CRC32 covers meta+payload and is verified on drain, so a
  corrupted shared-memory byte raises :class:`RingCorruptionError`
  instead of silently entering the stencil.  Halo payloads additionally
  keep their resilience-layer :class:`~repro.resilience.detect.HaloFrame`
  CRC end-to-end (``app_crc``), preserving the exact detection
  semantics of the thread backend.  The protocol's collective rounds
  are frames of their own kind (``KIND_COLL``).
* **Status board** -- one more shared segment holds each rank's current
  blocking operation and step heartbeat plus the world abort flag: the
  watchdog's per-rank report reads it, and a failing rank sets the
  abort flag so peers wake with
  :class:`~repro.cluster.mpi_sim.WorldAbortError` (MPI_Abort
  semantics) instead of running out their timeouts.
* **Chaos** -- ``rank_crash`` specs of a
  :class:`~repro.resilience.plan.FaultPlan` are consumed by the
  *parent*: a supervisor thread watches the step heartbeats and
  delivers a real ``SIGKILL`` to the addressed child -- a genuine
  process loss, not a simulated exception.  All other fault kinds are
  injected child-side by a cloned injector whose counters and consumed
  hits are merged back into the parent's ledger when the child exits.

Select the backend per run with ``SimulationConfig.cluster_backend`` /
``repro.cli run --cluster-backend={sim,procs}``; see ``docs/cluster.md``
for the selection matrix and the frame layout.
"""

from __future__ import annotations

import os
import pickle
import signal
import struct
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from ..resilience.detect import CorruptionError, HaloFrame, crc32_bytes

from .mpi_sim import (
    DEFAULT_TIMEOUT,
    CommTimeoutError,
    Communicator,
    WorldAbortError,
    WorldError,
    pop_match,
)

#: Payload kinds on the wire.
KIND_PICKLE = 0   #: arbitrary pickled python object
KIND_ARRAY = 1    #: raw ndarray bytes (dtype/shape in meta)
KIND_HALO = 2     #: HaloFrame: ndarray bytes + resilience-layer CRC
KIND_COLL = 3     #: collective-round contribution set (pickled dict)

#: Wire header: magic u32 | kind u8 | source i32 | tag i64 | app_crc u32
#: | wire_crc u32 | meta_len u32 | payload_len u64.
_HEADER = struct.Struct("<IBiqIIIQ")
_MAGIC = 0x52505246  # "RPRF"

#: Ring segment layout: head u64 | tail u64 | data[DEFAULT_RING_BYTES].
_RING_CTRL = struct.Struct("<QQ")
_RING_CTRL_BYTES = 16

#: Per-pair ring capacity (bytes of in-flight messages).
DEFAULT_RING_BYTES = 1 << 22

#: Status board layout: abort u8 at offset 0, then 16-byte alignment,
#: then one _SLOT_BYTES slot per rank: state u8 | step u64 | oplen u16
#: | op bytes (utf-8, truncated).
_BOARD_PREFIX = 16
_SLOT_BYTES = 256
_SLOT_HEAD = struct.Struct("<BQH")
_OP_BYTES = _SLOT_BYTES - _SLOT_HEAD.size

#: Rank states on the status board.
STATE_RUNNING = 0
STATE_DONE = 1
STATE_FAILED = 2


class RingCorruptionError(CorruptionError):
    """A shared-memory frame failed its wire CRC32 (or its framing)."""


class RankLostError(RuntimeError):
    """A rank process died without reporting a result (real rank loss)."""


def _poll_sleep(polls: int) -> None:
    """Back off a busy wait: yield first, then sleep up to 1 ms."""
    if polls < 64:
        time.sleep(0)
    else:
        time.sleep(min(0.001, 0.0001 * (1 + polls // 64)))


# -- wire framing ---------------------------------------------------------


def encode_frame(source: int, tag: int, kind: int, payload: Any) -> bytes:
    """Serialize one message into its CRC-framed wire record (bytes)."""
    app_crc = 0
    if kind == KIND_HALO:
        arr = np.ascontiguousarray(payload.payload)
        meta = pickle.dumps((arr.dtype.str, arr.shape))
        body = arr.tobytes()
        app_crc = payload.crc
    elif kind == KIND_ARRAY:
        arr = np.ascontiguousarray(payload)
        meta = pickle.dumps((arr.dtype.str, arr.shape))
        body = arr.tobytes()
    else:
        meta = b""
        body = pickle.dumps(payload)
    # The wire CRC covers the whole record -- header fields included
    # (computed with the CRC slot zeroed), so a flipped source/tag byte
    # cannot silently misroute a frame.
    bare = _HEADER.pack(_MAGIC, kind, source, tag, app_crc, 0,
                        len(meta), len(body))
    wire_crc = crc32_bytes(bare + meta + body)
    header = _HEADER.pack(_MAGIC, kind, source, tag, app_crc, wire_crc,
                          len(meta), len(body))
    return header + meta + body


def _frame_kind(obj: Any) -> int:
    if isinstance(obj, HaloFrame):
        return KIND_HALO
    if isinstance(obj, np.ndarray):
        return KIND_ARRAY
    return KIND_PICKLE


@dataclass
class _Frame:
    """One decoded in-flight message."""

    source: int
    tag: int
    kind: int
    payload: Any

    @property
    def collective(self) -> bool:
        return self.kind == KIND_COLL


def _decode_body(kind: int, app_crc: int, meta: bytes, body: bytes) -> Any:
    if kind in (KIND_ARRAY, KIND_HALO):
        dtype_str, shape = pickle.loads(meta)
        arr = np.empty(shape, dtype=np.dtype(dtype_str))
        arr.view(np.uint8).reshape(-1)[:] = np.frombuffer(body, np.uint8)
        return HaloFrame(crc=app_crc, payload=arr) if kind == KIND_HALO \
            else arr
    return pickle.loads(body)


def parse_frames(stream: bytearray, source_hint: int | None = None
                 ) -> list[_Frame]:
    """Extract every complete frame at the head of ``stream`` (list).

    Consumed bytes are removed from ``stream`` in place; a partial
    trailing frame stays buffered for the next drain.  Raises
    :class:`RingCorruptionError` on a bad magic or a wire-CRC mismatch
    -- a corrupted shared-memory byte must never silently pass.
    """
    frames: list[_Frame] = []
    while len(stream) >= _HEADER.size:
        (magic, kind, source, tag, app_crc, wire_crc, meta_len,
         payload_len) = _HEADER.unpack_from(stream, 0)
        if magic != _MAGIC:
            raise RingCorruptionError(
                f"ring stream from rank {source_hint}: bad frame magic "
                f"{magic:#010x} (framing corrupted)"
            )
        total = _HEADER.size + meta_len + payload_len
        if len(stream) < total:
            break
        meta = bytes(stream[_HEADER.size:_HEADER.size + meta_len])
        body = bytes(stream[_HEADER.size + meta_len:total])
        del stream[:total]
        bare = _HEADER.pack(magic, kind, source, tag, app_crc, 0,
                            meta_len, payload_len)
        actual = crc32_bytes(bare + meta + body)
        if actual != wire_crc:
            raise RingCorruptionError(
                f"frame from rank {source} (tag {tag}) failed its wire "
                f"CRC32: expected {wire_crc:#010x}, got {actual:#010x}"
            )
        frames.append(_Frame(source, tag, kind,
                             _decode_body(kind, app_crc, meta, body)))
    return frames


# -- shared-memory transport ----------------------------------------------


_ATTACH_LOCK = threading.Lock()


def _attach(name: str):
    """Attach an existing shared-memory segment without tracker claims.

    The *parent* created (and unlinks) every segment, and all processes
    of a world share one resource-tracker process, so a child attach
    must leave the tracker ledger alone: Python 3.11 registers on
    attach too, and a later explicit unregister would remove the
    parent's sole entry (tracker KeyError noise at unlink).  The
    registration call is suppressed for the duration of the attach.
    """
    from multiprocessing import resource_tracker, shared_memory

    with _ATTACH_LOCK:
        original = resource_tracker.register
        resource_tracker.register = lambda *a, **kw: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


class Ring:
    """One SPSC byte ring over a shared-memory segment.

    ``lock`` guards only the head/tail cursors; the data region needs
    none (the cursors partition it between the single writer and the
    single reader).  Cursors are monotonic byte counts -- ``tail -
    head`` is the number of unread bytes, never more than ``capacity``.
    """

    def __init__(self, segment, lock, capacity: int):
        self._seg = segment
        self._lock = lock
        self.capacity = capacity

    def _cursors(self) -> tuple[int, int]:
        with self._lock:
            return _RING_CTRL.unpack_from(self._seg.buf, 0)

    def _advance_tail(self, n: int) -> None:
        with self._lock:
            head, tail = _RING_CTRL.unpack_from(self._seg.buf, 0)
            _RING_CTRL.pack_into(self._seg.buf, 0, head, tail + n)

    def _advance_head(self, n: int) -> None:
        with self._lock:
            head, tail = _RING_CTRL.unpack_from(self._seg.buf, 0)
            _RING_CTRL.pack_into(self._seg.buf, 0, head + n, tail)

    def write(self, data: bytes, deadline: float,
              abort_check: Callable[[], bool] | None = None) -> None:
        """Append ``data``, blocking while the ring is full.

        Raises :class:`~repro.cluster.mpi_sim.CommTimeoutError` past
        ``deadline`` and :class:`~repro.cluster.mpi_sim.WorldAbortError`
        when ``abort_check`` fires (a peer failed; unblock immediately).
        """
        view = memoryview(data)
        offset = 0
        polls = 0
        cap = self.capacity
        while offset < len(data):
            head, tail = self._cursors()
            free = cap - (tail - head)
            if free == 0:
                if abort_check is not None and abort_check():
                    raise WorldAbortError(
                        "world aborted while waiting for ring space"
                    )
                if time.monotonic() > deadline:
                    raise CommTimeoutError(
                        f"ring write stalled: peer consumed nothing for "
                        f"the timeout window ({len(data) - offset} bytes "
                        f"left)"
                    )
                _poll_sleep(polls)
                polls += 1
                continue
            polls = 0
            n = min(free, len(data) - offset)
            pos = tail % cap
            first = min(n, cap - pos)
            base = _RING_CTRL_BYTES
            self._seg.buf[base + pos:base + pos + first] = \
                view[offset:offset + first]
            if n > first:
                self._seg.buf[base:base + (n - first)] = \
                    view[offset + first:offset + n]
            self._advance_tail(n)
            offset += n

    def drain(self) -> bytes:
        """Consume and return every unread byte (empty when idle)."""
        head, tail = self._cursors()
        avail = tail - head
        if avail == 0:
            return b""
        cap = self.capacity
        pos = head % cap
        first = min(avail, cap - pos)
        base = _RING_CTRL_BYTES
        out = bytes(self._seg.buf[base + pos:base + pos + first])
        if avail > first:
            out += bytes(self._seg.buf[base:base + (avail - first)])
        self._advance_head(avail)
        return out


class _StatusBoard:
    """The world's shared status segment: abort flag + per-rank slots."""

    def __init__(self, segment, size: int):
        self._seg = segment
        self.size = size

    @staticmethod
    def nbytes(size: int) -> int:
        return _BOARD_PREFIX + size * _SLOT_BYTES

    def set_abort(self) -> None:
        self._seg.buf[0] = 1

    def aborted(self) -> bool:
        return self._seg.buf[0] == 1

    def _slot(self, rank: int) -> int:
        return _BOARD_PREFIX + rank * _SLOT_BYTES

    def set_state(self, rank: int, state: int) -> None:
        base = self._slot(rank)
        _, step, oplen = _SLOT_HEAD.unpack_from(self._seg.buf, base)
        _SLOT_HEAD.pack_into(self._seg.buf, base, state, step, oplen)

    def set_step(self, rank: int, step: int) -> None:
        base = self._slot(rank)
        state, _, oplen = _SLOT_HEAD.unpack_from(self._seg.buf, base)
        _SLOT_HEAD.pack_into(self._seg.buf, base, state, step, oplen)

    def set_op(self, rank: int, op: str) -> None:
        base = self._slot(rank)
        raw = op.encode("utf-8")[:_OP_BYTES]
        self._seg.buf[base + _SLOT_HEAD.size:
                      base + _SLOT_HEAD.size + len(raw)] = raw
        state, step, _ = _SLOT_HEAD.unpack_from(self._seg.buf, base)
        _SLOT_HEAD.pack_into(self._seg.buf, base, state, step, len(raw))

    def clear_op(self, rank: int) -> None:
        base = self._slot(rank)
        state, step, _ = _SLOT_HEAD.unpack_from(self._seg.buf, base)
        _SLOT_HEAD.pack_into(self._seg.buf, base, state, step, 0)

    def read(self, rank: int) -> tuple[int, int, str]:
        """``(state, step, pending_op)`` of one rank slot."""
        base = self._slot(rank)
        state, step, oplen = _SLOT_HEAD.unpack_from(self._seg.buf, base)
        raw = bytes(self._seg.buf[base + _SLOT_HEAD.size:
                                  base + _SLOT_HEAD.size + oplen])
        return state, step, raw.decode("utf-8", errors="replace")

    def op_lines(self) -> list[str]:
        """The watchdog's lines: every rank's pending operation."""
        lines = []
        for r in range(self.size):
            state, step, op = self.read(r)
            label = op or "not blocked in comm"
            if state == STATE_DONE:
                label = "finished"
            elif state == STATE_FAILED:
                label = f"failed ({op or 'no pending op'})"
            lines.append(f"  rank {r}: {label} [step {step}]")
        return lines


def _ring_name(token: str, src: int, dst: int) -> str:
    return f"rpr{token}r{src}x{dst}"


def _board_name(token: str) -> str:
    return f"rpr{token}st"


@dataclass
class WorldSpec:
    """Everything a child needs to join the world (picklable).

    ``locks`` maps ``(src, dst)`` to the ring's cursor lock --
    multiprocessing primitives survive pickling only through Process
    inheritance, which is exactly how the spec travels.
    """

    token: str
    size: int
    timeout: float
    locks: dict


class ProcsComm(Communicator):
    """The shared-memory transport: one rank of a :class:`ProcsWorld`.

    Frames travel CRC-framed through the rank-pair rings; the rank's
    :class:`_StatusBoard` slot carries its pending operation.
    """

    #: Ranks are OS processes; process-aware consumers (the flight
    #: recorder) key off this to avoid cross-process file contention.
    process_parallel = True

    def __init__(self, spec: WorldSpec, rank: int, injector: Any = None):
        super().__init__(rank, spec.size, spec.timeout, injector)
        self._board: _StatusBoard | None = None
        self._out: dict[int, Ring] = {}
        self._in: dict[int, Ring] = {}
        self._streams: dict[int, bytearray] = {}
        #: decoded frames not yet taken by a receive
        self._frames: list[_Frame] = []
        try:
            self._board = _StatusBoard(_attach(_board_name(spec.token)),
                                       spec.size)
            for peer in range(spec.size):
                if peer == rank:
                    continue
                self._out[peer] = Ring(
                    _attach(_ring_name(spec.token, rank, peer)),
                    spec.locks[(rank, peer)], DEFAULT_RING_BYTES,
                )
                self._in[peer] = Ring(
                    _attach(_ring_name(spec.token, peer, rank)),
                    spec.locks[(peer, rank)], DEFAULT_RING_BYTES,
                )
                self._streams[peer] = bytearray()
        except BaseException:
            # A mid-loop attach failure (e.g. the parent already tore
            # the world down) must detach whatever was mapped so far.
            self.close()
            raise

    def publish_step(self, step: int) -> None:
        """Heartbeat hook: expose the driver's current step to the
        parent supervisor (step-addressed SIGKILL injection).  Raises
        :class:`WorldAbortError` in an aborted world: a rank holding at a
        fault point for a kill that went to a peer is released here."""
        self._board.set_step(self.rank, step)
        if self._board.aborted():
            raise WorldAbortError(f"world aborted at step {step}")

    # -- transport primitives ----------------------------------------------

    def _deliver(self, dest: int, tag: int, payload: Any, collective: bool,
                 op: str) -> None:
        kind = KIND_COLL if collective else _frame_kind(payload)
        wire = encode_frame(self.rank, tag, kind, payload)
        if dest == self.rank:
            # A send to oneself loops the decoded frame straight back.
            self._frames.extend(parse_frames(bytearray(wire), source_hint=dest))
        else:
            self._watch(op, self._write, dest, wire)

    def _write(self, dest: int, wire: bytes, timeout: float) -> None:
        self._out[dest].write(wire, deadline=time.monotonic() + timeout,
                              abort_check=self._board.aborted)

    def _drain_all(self) -> None:
        """Pull every complete frame out of the incoming rings."""
        for src, ring in self._in.items():
            chunk = ring.drain()
            if chunk:
                stream = self._streams[src]
                stream.extend(chunk)
                self._frames.extend(parse_frames(stream, source_hint=src))

    def _take(self, source: int, tag: int, collective: bool,
              timeout: float) -> Any:
        deadline = time.monotonic() + timeout
        polls = 0
        while True:
            frame = pop_match(self._frames, source, tag, collective)
            if frame is None:
                self._drain_all()
                frame = pop_match(self._frames, source, tag, collective)
            if frame is not None:
                return frame.payload
            if self._board.aborted():
                raise WorldAbortError(f"world aborted while waiting for "
                                      f"Recv(source={source}, tag={tag})")
            if time.monotonic() > deadline:
                raise CommTimeoutError(
                    f"Recv(source={source}, tag={tag}) timed out")
            _poll_sleep(polls)
            polls += 1

    def _set_op(self, op: str) -> None:
        self._board.set_op(self.rank, op)

    def _clear_op(self) -> None:
        self._board.clear_op(self.rank)

    def _report_lines(self) -> list[str]:
        """Every rank's status-board slot and this rank's buffered,
        unmatched application frames."""
        unread = ", ".join(f"(source={f.source}, tag={f.tag})"
                           for f in self._frames if not f.collective)
        return self._board.op_lines() + [
            "locally buffered unmatched frames: "
            + (unread or "none (the matching send was never posted)")]

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Detach from every shared segment (child-side cleanup).

        Idempotent, and safe on a partially constructed comm (the
        ``__init__`` error path calls it mid-attach).
        """
        for ring in list(self._out.values()) + list(self._in.values()):
            ring._seg.close()
        self._out.clear()
        self._in.clear()
        if self._board is not None:
            self._board._seg.close()
            self._board = None


def _child_entry(rank: int, spec: WorldSpec, main, args, result_w) -> None:
    """The per-rank child process body (spawn target).

    Runs ``main(comm, *args)`` and reports ``(status, payload, counters,
    hits)`` on the rank's result pipe; any failure sets the world
    abort flag so blocked peers wake immediately (MPI_Abort
    semantics).  Injector counters and consumed fault hits ride along
    so the parent can merge them into the campaign ledger.
    """
    injector = next(
        (a for a in args if a is not None and hasattr(a, "on_send")
         and hasattr(a, "counters")),
        None,
    )
    comm = ProcsComm(spec, rank, injector=injector)
    if injector is not None:
        injector.step_listener = lambda _rank, step: comm.publish_step(step)
    counters: dict = {}
    hits: list = []

    def _snapshot() -> None:
        # Single-threaded child process: no concurrent writers exist.
        if injector is not None:
            counters.update(injector.counters)  # lint: disable=CL011
            hits.extend(injector.hit_state())  # lint: disable=CL011

    try:
        result = main(comm, *args)
        _snapshot()
        comm._board.set_state(rank, STATE_DONE)
        result_w.send(("ok", result, counters, hits))
    except BaseException as exc:  # noqa: BLE001 - reported to the parent  # lint: disable=CL005
        _snapshot()
        comm._board.set_state(rank, STATE_FAILED)
        if not isinstance(exc, WorldAbortError):
            comm._board.set_abort()
        try:
            pickle.dumps(exc)
            payload = exc
        except Exception:  # noqa: BLE001 - unpicklable exception  # lint: disable=CL005
            payload = RuntimeError(f"rank {rank} failed: {exc!r}")
        result_w.send(("err", payload, counters, hits))
    finally:
        comm.close()


class ProcsWorld:
    """A set of ranks executing an SPMD program as real OS processes.

    Drop-in peer of :class:`~repro.cluster.mpi_sim.SimWorld`::

        world = ProcsWorld(size=4)
        results = world.run(main, *args)   # main(comm, *args) per rank

    ``main`` and every argument must be picklable (spawn semantics).
    ``run`` returns the per-rank return values in rank order and
    re-raises rank failures as
    :class:`~repro.cluster.mpi_sim.WorldError` -- including *real*
    process deaths (``SIGKILL``), reported as :class:`RankLostError`.

    ``injector`` (a :class:`~repro.resilience.inject.FaultInjector`)
    keeps chaos semantics: ``rank_crash`` specs are consumed
    parent-side and delivered as real ``SIGKILL``s at the addressed
    step heartbeat; all other kinds inject child-side through a cloned
    injector whose ledger merges back on exit.

    The runtime race tracker is thread-based and cannot observe
    separate address spaces; ``tracker`` must stay ``None``.
    """

    def __init__(self, size: int, timeout: float = DEFAULT_TIMEOUT,
                 injector: Any | None = None, tracker: Any | None = None):
        if size < 1:
            raise ValueError("world size must be >= 1")
        if tracker is not None:
            raise ValueError(
                "the procs backend has no runtime race tracker (ranks "
                "share no address space); run concurrency_check on the "
                "sim backend"
            )
        self.size = size
        self.timeout = timeout
        self.injector = injector

    # -- segment lifecycle ------------------------------------------------

    def _create_segments(self, token: str):
        from multiprocessing import shared_memory

        segments = []
        try:
            board_seg = shared_memory.SharedMemory(
                name=_board_name(token), create=True,
                size=_StatusBoard.nbytes(self.size),
            )
            board_seg.buf[:_StatusBoard.nbytes(self.size)] = \
                bytes(_StatusBoard.nbytes(self.size))
            segments.append(board_seg)
            for src in range(self.size):
                for dst in range(self.size):
                    if src == dst:
                        continue
                    seg = shared_memory.SharedMemory(
                        name=_ring_name(token, src, dst), create=True,
                        size=_RING_CTRL_BYTES + DEFAULT_RING_BYTES,
                    )
                    _RING_CTRL.pack_into(seg.buf, 0, 0, 0)
                    segments.append(seg)
        except BaseException:
            # A mid-loop failure (name collision, /dev/shm full) must
            # not orphan the segments already created: /dev/shm
            # persists past process exit.
            for seg in segments:
                seg.close()
                try:
                    seg.unlink()
                except FileNotFoundError:
                    pass
            raise
        return board_seg, segments

    def _child_args(self, args: tuple) -> tuple:
        """Substitute child-safe injector clones into the SPMD args.

        ``rank_crash`` is disabled child-side: the parent delivers it
        as a real ``SIGKILL`` instead of a simulated exception.
        """
        if self.injector is None:
            return args
        clone = self.injector.child_clone(disable_kinds=("rank_crash",))
        return tuple(clone if a is self.injector else a for a in args)

    def _start_killer(self, board: _StatusBoard, procs: list,
                      stop: threading.Event) -> threading.Thread | None:
        """Arm the parent-side SIGKILL supervisor for rank_crash specs."""
        inj = self.injector
        if inj is None or not any(
            spec.kind == "rank_crash" for spec in inj.plan.faults
        ):
            return None

        def watch() -> None:
            last_seen = [0] * self.size
            while not stop.is_set():
                for r, proc in enumerate(procs):
                    if proc.exitcode is not None:
                        continue
                    _, step, _ = board.read(r)
                    for s in range(last_seen[r] + 1, step + 1):
                        if inj.fire("rank_crash", r, s):
                            board.set_abort()
                            if proc.pid is not None:
                                os.kill(proc.pid, signal.SIGKILL)
                    last_seen[r] = max(last_seen[r], step)
                stop.wait(0.002)

        t = threading.Thread(target=watch, name="procs-killer", daemon=True)
        t.start()
        return t

    # -- the run loop ------------------------------------------------------

    def run(self, main: Callable[..., Any], *args: Any) -> list[Any]:
        from multiprocessing import get_context
        from multiprocessing.connection import wait

        ctx = get_context("spawn")
        token = f"{os.getpid():x}{os.urandom(4).hex()}"
        stop = threading.Event()
        procs: list = []
        #: result pipe -> rank, of the ranks not heard from yet
        pending: dict = {}
        segments: list = []
        killer: threading.Thread | None = None
        results: dict[int, Any] = {}
        failures: dict[int, BaseException] = {}
        try:
            # Segments are created inside the try so a failure anywhere
            # below (lock allocation, spawn, the wait loop) still
            # reaches the unlink in the finally.
            board_seg, segments = self._create_segments(token)
            board = _StatusBoard(board_seg, self.size)
            locks = {
                (src, dst): ctx.Lock()
                for src in range(self.size)
                for dst in range(self.size)
                if src != dst
            }
            spec = WorldSpec(token=token, size=self.size,
                             timeout=self.timeout, locks=locks)
            child_args = self._child_args(args)
            for rank in range(self.size):
                result_r, result_w = ctx.Pipe(duplex=False)
                pending[result_r] = rank
                p = ctx.Process(
                    target=_child_entry,
                    args=(rank, spec, main, child_args, result_w),
                    name=f"procs-rank-{rank}",
                )
                try:
                    p.start()
                finally:
                    # The write end lives in the child only, so EOF here
                    # is the rank's death, after every byte it sent.
                    result_w.close()
                procs.append(p)
            killer = self._start_killer(board, procs, stop)

            while pending:
                for conn in wait(list(pending)):
                    rank = pending.pop(conn)
                    with conn:
                        try:
                            message = conn.recv()
                        except (EOFError, OSError):
                            message = None
                    if message is None:
                        # Real process loss (e.g. SIGKILL): no result.
                        procs[rank].join(timeout=1.0)
                        failures[rank] = RankLostError(
                            f"rank {rank} process died without a result "
                            f"(exitcode {procs[rank].exitcode})"
                        )
                        board.set_abort()
                        continue
                    status, payload, counters, hits = message
                    if self.injector is not None:
                        self.injector.merge_child(counters, hits)
                    if status == "ok":
                        results[rank] = payload
                    else:
                        failures[rank] = payload
        finally:
            stop.set()
            if killer is not None:
                # The killer polls the status board; join it before the
                # segments it reads are closed and unlinked below.
                killer.join(timeout=1.0)
            for p in procs:
                p.join(timeout=5.0)
            for p in procs:
                if p.is_alive():
                    p.terminate()
                    p.join(timeout=5.0)
            for conn in pending:
                conn.close()
            for seg in segments:
                seg.close()
                try:
                    seg.unlink()
                except FileNotFoundError:
                    pass
        if failures:
            raise WorldError(failures)
        return [results[r] for r in range(self.size)]

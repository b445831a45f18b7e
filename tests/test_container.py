"""The one on-disk container (repro.container): dumps, checkpoints and
result-cache entries share one framing, one collective writer and one
reader -- what the files hold is unchanged, a damaged or foreign file
fails typed and located, and a failed write leaves nothing behind."""

from __future__ import annotations

import builtins
import errno
import hashlib
import json
import os
import struct
import threading
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main as cli_main
from repro.cluster import (
    Simulation,
    SimWorld,
    checkpoint_path,
    read_checkpoint_field,
    write_checkpoint,
)
from repro.compression.io import (
    read_compressed,
    read_field,
    write_compressed_parallel,
)
from repro.compression.scheme import WaveletCompressor
from repro.container import FormatError, read
from repro.exitcodes import KIND_EXIT, classify
from repro.resilience import (
    CheckpointCorruptError,
    CorruptionError,
    FaultInjector,
    crc32_bytes,
    find_latest_verified_checkpoint,
)
from repro.service import ResultCache
from repro.sim import SimulationConfig
from repro.sim.ic import Bubble, cloud_collapse

pytestmark = pytest.mark.tier1


def sha(data) -> str:
    return hashlib.sha256(data).hexdigest()


def collapse_ic():
    return cloud_collapse([Bubble((0.5, 0.5, 0.5), 0.2)], p_liquid=1000.0)


BASE = dict(cells=16, block_size=8, diag_interval=0)


def wave(n=32):
    """A smooth +-1 field of ``n``^3 cells."""
    t = np.linspace(0, 6, n, dtype=np.float32)
    return (np.sin(t)[:, None, None] * np.cos(t)[None, :, None]
            * np.ones(n, np.float32)[None, None, :])


def one_rank_dump(path, field, block_size=16):
    comp = WaveletCompressor(eps=1e-3, block_size=block_size)
    write_compressed_parallel(SimWorld(1).comm(0), path, "p",
                              comp.compress(field))


def edit(path, old: bytes, new: bytes):
    with open(path, "rb") as f:
        blob = f.read()
    assert blob.count(old) == 1
    with open(path, "wb") as f:
        f.write(blob.replace(old, new))


# -- what the files hold: the bytes recorded at the parent framing (0df7b0d) --


#: Each rank's deflated block of ``ckpt_000002.rck`` (zlib 1.2.13), the
#: restored field, the field one step after restarting from it, the pickled
#: cache section (NumPy 2.4.6) and the array a cache hit returns.
PARENT_DIGESTS = {
    "blocks": [
        "7716f950f1b3947935e84b05bd8ba6289bd9ce101572f0686a219c6606286f6a",
        "fed1d3012f80329931c1bf0386b077ba8a129b5bf8d410fdc4e2c32935d3eba6",
    ],
    "field": "7d46cc192a0ba825176652e20db5bff5620662faaa0ecaa48f587551e7519504",
    "restarted":
        "59517d5997ce86985139e29167a4504382a84d1edf026349d9ea2456cacca84d",
    "cache_section":
        "007902e29ee08e6c6c89491b29b9d0578dd2fe0cba8241b0b37e9f78abe8aec1",
    "cache_hit":
        "42b018599b726a5aa3ec0c1e48fc217ee4eb90d0c6af2022f34b8a38b678b945",
}


class TestSameBytesInside:
    def test_checkpoint_blocks_and_restart(self, tmp_path):
        cfg = SimulationConfig(**BASE, max_steps=2, ranks=2,
                               checkpoint_interval=2,
                               checkpoint_dir=str(tmp_path))
        Simulation(cfg, collapse_ic()).run()
        path = checkpoint_path(str(tmp_path), 2)
        c = read(path, "checkpoint")
        if zlib.ZLIB_RUNTIME_VERSION == "1.2.13":
            assert [sha(p) for p in c.payloads] == \
                PARENT_DIGESTS["blocks"]
        field, t, step = read_checkpoint_field(path)
        assert (sha(field.tobytes()), step) == (PARENT_DIGESTS["field"], 2)
        again = Simulation(SimulationConfig(**BASE, max_steps=3),
                           collapse_ic(), restart_from=path).run()
        assert sha(again.final_field.tobytes()) == PARENT_DIGESTS["restarted"]

    def test_cache_section_and_hit(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        path = cache.put("k" * 64, {"final_field": np.arange(64, dtype=np.float64),
                                    "wall_seconds": 1.0}, meta={"attempts": 2})
        if np.__version__ == "2.4.6":
            assert sha(read(path, "cache").payloads[0]) == \
                PARENT_DIGESTS["cache_section"]
        meta, payload = cache.get("k" * 64)
        assert meta["attempts"] == 2
        assert sha(payload["final_field"].tobytes()) == \
            PARENT_DIGESTS["cache_hit"]


# -- the header flips that read back silently ----------------------------------


class TestIndexCrc:
    def test_dump_index_flip(self, tmp_path):
        path = str(tmp_path / "p.rwz")
        one_rank_dump(path, wave())
        edit(path, b'"levels": 2', b'"levels": 1')
        with pytest.raises(CorruptionError, match="index failed CRC32") as exc:
            read_field(path)
        assert exc.value.path == path

    def test_checkpoint_index_flip(self, tmp_path):
        path = str(tmp_path / "ckpt_000042.rck")
        field = np.ones((8, 8, 8, 7), np.float32)
        SimWorld(1).run(lambda comm: write_checkpoint(
            comm, path, field, (0, 0, 0), t=0.5, step=42))
        edit(path, b'"step": 42', b'"step": 72')
        with pytest.raises(CheckpointCorruptError, match="index failed CRC32"):
            read_checkpoint_field(path)


# -- no rank ceiling -----------------------------------------------------------


def test_six_hundred_ranks_write_and_read_back(tmp_path):
    ranks, n = 600, 8
    dump, ckpt = str(tmp_path / "p.rwz"), str(tmp_path / "c.rck")
    comp = WaveletCompressor(eps=1e-3, block_size=n, num_threads=1)
    fields = [np.full((n, n, n), r, np.float32) + wave(n) for r in range(ranks)]
    states = [np.full((n, n, n, 7), r, np.float32) for r in range(ranks)]

    def main(comm):
        cf = comp.compress(fields[comm.rank])
        origin = (n * comm.rank, 0, 0)
        write_compressed_parallel(comm, dump, "p", cf,
                                  rank_meta={"origin_cells": list(origin)})
        write_checkpoint(comm, ckpt, states[comm.rank], origin, 0.0, 1)
        return cf.payload, comp.decompress(cf)

    out = SimWorld(ranks).run(main)
    assert [cf.payload for cf in read_compressed(dump)] == [p for p, _ in out]
    np.testing.assert_array_equal(read_field(dump, comp),
                                  np.concatenate([f for _, f in out]))
    np.testing.assert_array_equal(read_checkpoint_field(ckpt)[0],
                                  np.concatenate(states))


# -- one failure policy for dumps and checkpoints ------------------------------


def test_torn_dump_leaves_nothing_and_is_skipped(tmp_path, monkeypatch):
    """A real OSError on rank 1's write: every rank raises, the run
    degrades to a recorded skip and no file is left under any name."""
    def failing(real, opens_for_write):
        def opener(file, mode="r", *args, **kwargs):
            if (threading.current_thread().name == "rank-1"
                    and ".rwz" in str(file) and opens_for_write(mode)):
                raise OSError(errno.ENOSPC, "No space left on device", file)
            return real(file, mode, *args, **kwargs)
        return opener

    # whichever call opens the shared file for rank 1's section
    monkeypatch.setattr(builtins, "open",
                        failing(builtins.open, lambda mode: mode == "r+b"))
    monkeypatch.setattr(os, "open", failing(
        os.open, lambda flags: bool(flags & (os.O_WRONLY | os.O_RDWR))))
    cfg = SimulationConfig(**BASE, max_steps=1, ranks=2, dump_interval=1,
                           dump_dir=str(tmp_path))
    result = Simulation(cfg, collapse_ic()).run()
    assert len(result.records) == 1
    assert result.skipped_writes == [("dump", 1)]
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("backend", ["sim", "procs"])
def test_writers_create_the_directory(tmp_path, backend):
    dump_dir, ckpt_dir = tmp_path / "a" / "dumps", tmp_path / "b" / "ckpts"
    cfg = SimulationConfig(**BASE, max_steps=2, ranks=2,
                           cluster_backend=backend, dump_interval=2,
                           dump_dir=str(dump_dir), checkpoint_interval=2,
                           checkpoint_dir=str(ckpt_dir))
    result = Simulation(cfg, collapse_ic()).run()
    assert result.skipped_writes == []
    assert read_field(str(dump_dir / "dump_step000002_p.rwz")).shape == (16,) * 3
    field, _, step = read_checkpoint_field(checkpoint_path(str(ckpt_dir), 2))
    assert step == 2
    np.testing.assert_array_equal(field, result.final_field)


def test_a_skipped_write_is_visible_without_a_fault_plan(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    cfg = SimulationConfig(**BASE, max_steps=2, ranks=2, dump_interval=2,
                           dump_dir=str(blocker / "d"), checkpoint_interval=2,
                           checkpoint_dir=str(blocker / "c"))
    result = Simulation(cfg, collapse_ic()).run()
    assert result.skipped_writes == [("dump", 2), ("checkpoint", 2)]
    code = cli_main(["run", "--cells", "16", "--bubbles", "1", "--steps", "2",
                     "--checkpoint-interval", "2",
                     "--checkpoint-dir", str(blocker / "c")])
    assert code == 0
    assert "skipped writes (failed, nothing written): checkpoint of step 2" \
        in capsys.readouterr().out


# -- one reader: any cut, any flipped bit fails typed and located --------------


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    """Small two-rank dump and checkpoint files and a cache entry (bytes)."""
    root = tmp_path_factory.mktemp("originals")
    comp = WaveletCompressor(eps=1e-3, block_size=8, num_threads=1)
    dump, ckpt = str(root / "p.rwz"), str(root / "c.rck")

    def main(comm):
        origin = (8 * comm.rank, 0, 0)
        write_compressed_parallel(comm, dump, "p", comp.compress(wave(8)),
                                  rank_meta={"origin_cells": list(origin)})
        write_checkpoint(comm, ckpt, np.ones((8, 8, 8, 7), np.float32),
                         origin, 0.0, 3)

    SimWorld(2).run(main)
    cache = ResultCache(str(root / "cache")).put("e" * 64, {"x": np.arange(9)})
    return {kind: Path(p).read_bytes()
            for kind, p in (("dump", dump), ("checkpoint", ckpt),
                            ("cache", cache))}


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), kind=st.sampled_from(["dump", "checkpoint", "cache"]),
       cut=st.booleans())
def test_any_cut_or_flip_is_a_located_error(tmp_path, originals, data, kind,
                                            cut):
    blob = bytearray(originals[kind])
    if cut:
        blob = blob[:data.draw(st.integers(0, len(blob) - 1))]
    else:
        bit = data.draw(st.integers(0, 8 * len(blob) - 1))
        blob[bit // 8] ^= 1 << (bit % 8)
    if kind == "cache":
        cache = ResultCache(str(tmp_path / "cache"))
        with open(cache.path("e" * 64), "wb") as f:
            f.write(blob)
        before = dict(cache.counters)
        assert cache.get("e" * 64) is None
        assert cache.counters["quarantined"] == before["quarantined"] + 1
        assert cache.counters["misses"] == before["misses"] + 1
        return
    path = str(tmp_path / f"damaged.{kind}")
    with open(path, "wb") as f:
        f.write(blob)
    error = CheckpointCorruptError if kind == "checkpoint" else CorruptionError
    with pytest.raises(error) as exc:
        (read_field if kind == "dump" else read_checkpoint_field)(path)
    assert exc.value.path == path and exc.value.offset is not None


# -- files of the formats the container replaced -------------------------------


def parent_framed(magic: str, index: dict, payloads: list[bytes]) -> bytes:
    """A dump or checkpoint as the 64 KiB JSON-header writers framed it."""
    offset, ranks = 65536, []
    for entry, payload in zip(index.pop("ranks"), payloads):
        ranks.append({"offset": offset, "size": len(payload), **entry})
        offset += len(payload)
    header = json.dumps({"magic": magic, **index, "ranks": ranks}).encode()
    return header.ljust(65536) + b"".join(payloads)


class TestOldFormats:
    def test_old_dump_is_unsupported_and_invalid(self, tmp_path):
        cf = WaveletCompressor(eps=1e-3).compress(wave(16))
        path = tmp_path / "p.rwz"
        path.write_bytes(parent_framed(
            "repro-wavelet-dump-v1",
            {"quantity": "p", "ranks": [{"meta": cf.metadata(), "extra": {}}]},
            [cf.payload]))
        with pytest.raises(FormatError) as exc:
            read_field(str(path))
        message = str(exc.value)
        assert str(path) in message and "'repro-wavelet-dump-v1'" in message
        assert "unsupported format" in message
        assert classify(exc.value) == ("invalid", False)
        assert KIND_EXIT["invalid"] == 64

    def test_old_checkpoint_is_not_skipped_as_corrupt(self, tmp_path):
        state = np.ones((8, 8, 8, 7), np.float32)
        payload = zlib.compress(state.tobytes(), 1)
        path = checkpoint_path(str(tmp_path), 4)
        with open(path, "wb") as f:
            f.write(parent_framed(
                "repro-checkpoint-v1",
                {"t": 0.5, "step": 4, "written_at": 0.0,
                 "ranks": [{"crc32": crc32_bytes(payload),
                            "origin_cells": [0, 0, 0], "shape": [8, 8, 8]}]},
                [payload]))
        with pytest.raises(FormatError, match="'repro-checkpoint-v1'"):
            read_checkpoint_field(path)
        injector = FaultInjector()
        with pytest.raises(FormatError):
            find_latest_verified_checkpoint(str(tmp_path), injector)
        assert "checkpoints_rejected" not in injector.counters

    def test_old_cache_entry_is_quarantined_and_recomputed(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        key = "o" * 64
        meta = json.dumps({"schema": "repro.result_cache/v1", "key": key},
                          sort_keys=True).encode()
        payload = b"\x80\x05N."  # pickle of None
        with open(cache.path(key), "wb") as f:
            f.write(struct.pack("<4sIQII", b"RSC1", len(meta), len(payload),
                                crc32_bytes(meta), crc32_bytes(payload))
                    + meta + payload)
        assert cache.get(key) is None
        assert cache.counters["quarantined"] == 1
        assert os.path.exists(cache.path(key) + ".quarantined")
        cache.put(key, {"x": 1})
        assert cache.get(key)[1] == {"x": 1}

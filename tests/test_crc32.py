"""CRC-32 on either path: the compiled ``repro_crc32`` and ``zlib.crc32``.

:func:`repro.resilience.detect.crc32_bytes` and :func:`crc32_array` stamp
and check every halo message, ring frame and container section.  They
run on the compiled library where this process has loaded it and on
``zlib`` otherwise, and must give ``zlib.crc32``'s value either way -- so
no frame, container or cache byte depends on the path -- for every
length, start offset, seed, buffer type and array layout, and a CRC
continued across pieces must be the CRC of the pieces joined.  The
``kernel_path`` cases run once on the library and once with
``native.lib = None``.
"""

from __future__ import annotations

import os
import zlib

import numpy as np
import pytest

from repro import native
from repro.cluster import SimWorld
from repro.compression.io import read_field, write_compressed_parallel
from repro.compression.scheme import WaveletCompressor
from repro.resilience import detect
from repro.resilience.detect import NATIVE_MIN_BYTES, crc32_array, crc32_bytes
from repro.service.cache import ResultCache

from .conftest import make_rng

needs_library = pytest.mark.skipif(
    native.lib is None,
    reason=f"no compiled kernels: {native.status()['reason']}")


def _seeds(rng) -> tuple[int, int, int]:
    """The values a CRC is continued from: 0, a random one, all ones."""
    return 0, int(rng.integers(1, 0xFFFFFFFF)), 0xFFFFFFFF


def _buffers(raw: bytes, off: int, n: int) -> dict:
    """The bytes ``raw[off:off + n]`` as every kind of buffer a caller
    hands in: each reaches the library by a different route."""
    return {"bytes": raw[off:off + n],
            "bytearray": bytearray(raw[off:off + n]),
            "memoryview of bytes": memoryview(raw)[off:off + n],
            "memoryview of a bytearray":
                memoryview(bytearray(raw))[off:off + n]}


class TestCrc32Differential:
    """``crc32_bytes`` / ``crc32_array`` against ``zlib.crc32``."""

    @needs_library
    def test_the_compiled_entry_point_at_every_length_and_offset(self):
        """``repro_crc32`` itself (folds, reduction and byte tail) at every
        length 0-1024 from every start offset 0-63, each seed."""
        rng = make_rng(1)
        raw = rng.integers(0, 256, 1024 + 64, dtype=np.uint8)
        data, base = raw.tobytes(), raw.ctypes.data
        lib = native.lib
        for seed in _seeds(rng):
            for off in range(64):
                got = [lib.repro_crc32(seed, base + off, n)
                       for n in range(1025)]
                want = [zlib.crc32(data[off:off + n], seed)
                        for n in range(1025)]
                assert got == want, (seed, off)

    def test_every_length_and_offset(self, kernel_path):
        """Through ``crc32_bytes``: every length 0-1024, and every length
        within 64 bytes of where the library takes over, from every start
        offset 0-63, each seed."""
        rng = make_rng(2)
        data = rng.integers(0, 256, NATIVE_MIN_BYTES + 128,
                            dtype=np.uint8).tobytes()
        view = memoryview(data)
        lengths = [*range(1025), *range(NATIVE_MIN_BYTES - 64,
                                        NATIVE_MIN_BYTES + 65)]
        for seed in _seeds(rng):
            for off in range(64):
                for n in lengths:
                    assert crc32_bytes(view[off:off + n], seed) \
                        == zlib.crc32(data[off:off + n], seed), (seed, off, n)

    def test_random_lengths_up_to_4_mb_in_every_buffer_type(self,
                                                            kernel_path):
        rng = make_rng(3)
        raw = rng.integers(0, 256, (4 << 20) + 64, dtype=np.uint8).tobytes()
        lengths = [4 << 20, *rng.integers(1, 4 << 20, 6).tolist()]
        for n in lengths:
            off = int(rng.integers(64))
            for seed in _seeds(rng):
                want = zlib.crc32(raw[off:off + n], seed)
                for kind, buf in _buffers(raw, off, n).items():
                    assert crc32_bytes(buf, seed) == want, (n, off, kind)

    @pytest.mark.parametrize("dtype", [np.uint8, np.float32, np.float64,
                                       np.int64])
    @pytest.mark.parametrize("shape", [(3, 4, 5), (40, 30, 7)])
    def test_arrays_in_every_layout(self, kernel_path, dtype, shape):
        """C-ordered, F-ordered and strided arrays: the CRC of their bytes
        in C order, below and above where the library takes over."""
        rng = make_rng(4)
        base = (rng.normal(size=shape) * 100).astype(dtype)
        layouts = {"C": base, "F": np.asfortranarray(base),
                   "strided": base[::2, :, 1:],
                   "reversed": base[::-1]}
        for seed in _seeds(rng):
            for name, arr in layouts.items():
                want = zlib.crc32(arr.tobytes(order="C"), seed)
                assert crc32_array(arr, seed) == want, name
            assert crc32_bytes(base, seed) == zlib.crc32(base.tobytes(), seed)

    def test_continuation_across_pieces(self, kernel_path):
        """A CRC carried from piece to piece -- small ones, ones the
        library takes, empty ones -- is the CRC of the whole."""
        rng = make_rng(5)
        data = rng.integers(0, 256, 300_000, dtype=np.uint8).tobytes()
        view = memoryview(data)
        for seed in _seeds(rng):
            cuts = sorted({0, len(data), 17, 17, 100, *rng.integers(
                0, len(data), 12).tolist()})
            crc = seed
            for a, b in zip(cuts, cuts[1:] + [len(data)]):
                crc = crc32_bytes(view[a:b], crc)
            assert crc == zlib.crc32(data, seed)
        rows = rng.normal(size=(64, 300))
        crc = 0
        for row in rows:
            crc = crc32_array(row, crc)
        assert crc == crc32_array(rows) == zlib.crc32(rows.tobytes())

    def test_a_buffer_that_is_not_contiguous_raises(self, kernel_path):
        data = bytes(2 * NATIVE_MIN_BYTES + 2)
        for buf in (memoryview(data)[::2], memoryview(data[:20])[::2],
                    np.asfortranarray(np.ones((80, 90)))):
            with pytest.raises(BufferError):
                crc32_bytes(buf)

    def test_the_library_computes_what_it_is_loaded_for(self, kernel_path,
                                                        monkeypatch):
        """A large buffer goes to the library where it is loaded, a small
        one (and every one without it) to zlib -- never a build: a
        process that has not loaded the library checks on zlib."""
        asked, crc32 = [], zlib.crc32

        def spy(data, value=0):
            asked.append(memoryview(data).nbytes)
            return crc32(data, value)

        monkeypatch.setattr(detect.zlib, "crc32", spy)
        big, small = bytes(NATIVE_MIN_BYTES), bytes(NATIVE_MIN_BYTES - 1)
        assert crc32_bytes(big) == crc32_bytes(bytearray(big))
        crc32_bytes(small)
        if kernel_path == "c":
            assert asked == [len(small)]
        else:
            assert asked == [len(big), len(big), len(small)]
        with monkeypatch.context() as patch:
            patch.delattr(native, "lib")
            asked.clear()
            crc32_bytes(big)
            assert asked == [len(big)] and "lib" not in vars(native)

    @needs_library
    def test_files_written_on_one_path_read_back_on_the_other(
            self, tmp_path, monkeypatch):
        """A cache entry and a dump written with ``native.lib = None`` are
        the bytes the library's path writes, and each reads back on the
        other path."""
        rng = make_rng(6)
        field = rng.normal(size=(32, 32, 32)).astype(np.float32)
        result = {"final_field": field, "dts": [0.25, 0.5]}
        comp = WaveletCompressor(eps=1e-4)
        paths = {}
        for lib in (None, native.lib):
            with monkeypatch.context() as patch:
                patch.setattr(native, "lib", lib)
                where = tmp_path / ("numpy" if lib is None else "c")
                cache = ResultCache(str(where / "cache"))
                entry = cache.put("k" * 64, result)
                dump = str(where / "p.rwz")
                SimWorld(1).run(lambda comm: write_compressed_parallel(
                    comm, dump, "p", comp.compress(field)))
                paths[lib is None] = entry, dump, cache
        (entry_a, dump_a, cache_a), (entry_b, dump_b, cache_b) = (
            paths[True], paths[False])
        for a, b in ((entry_a, entry_b), (dump_a, dump_b)):
            with open(a, "rb") as fa, open(b, "rb") as fb:
                assert fa.read() == fb.read()
        assert os.path.getsize(entry_a) > NATIVE_MIN_BYTES
        restored = []
        for lib, cache, dump in ((native.lib, cache_a, dump_a),
                                 (None, cache_b, dump_b)):
            with monkeypatch.context() as patch:
                patch.setattr(native, "lib", lib)
                meta, payload = cache.get("k" * 64)
                np.testing.assert_array_equal(payload["final_field"], field)
                assert cache.counters["quarantined"] == 0
                restored.append(read_field(dump, comp).tobytes())
        assert restored[0] == restored[1]

"""Tests for the per-thread stream encoder (repro.compression.encoder)."""

import struct

import numpy as np
import pytest

from repro.compression.encoder import StreamEncoder


class TestRoundtrip:
    @pytest.mark.parametrize("num_streams", [1, 2, 4, 7])
    def test_blocks_restored_in_order(self, rng, num_streams):
        enc = StreamEncoder()
        blocks = [rng.normal(size=(8, 8, 8)).astype(np.float32) for _ in range(10)]
        payload, stats = enc.encode(blocks, num_streams)
        out = enc.decode(payload, (8, 8, 8))
        assert len(out) == 10
        for a, b in zip(out, blocks):
            np.testing.assert_array_equal(a, b)
        assert sum(s.num_blocks for s in stats) == 10

    def test_float64(self, rng):
        enc = StreamEncoder()
        blocks = [rng.normal(size=(4, 4)).astype(np.float64) for _ in range(3)]
        payload, _ = enc.encode(blocks, 2)
        out = enc.decode(payload, (4, 4))
        np.testing.assert_array_equal(out[2], blocks[2])
        assert out[0].dtype == np.float64

    def test_more_streams_than_blocks(self, rng):
        enc = StreamEncoder()
        blocks = [rng.normal(size=(4,)).astype(np.float32) for _ in range(2)]
        payload, stats = enc.encode(blocks, 16)
        assert len(stats) == 2  # clamped to block count
        out = enc.decode(payload, (4,))
        assert len(out) == 2


class TestCompression:
    def test_zeros_compress_massively(self):
        enc = StreamEncoder()
        blocks = [np.zeros((16, 16, 16), np.float32) for _ in range(4)]
        payload, stats = enc.encode(blocks, 2)
        assert len(payload) < sum(b.nbytes for b in blocks) / 50
        assert all(s.rate > 50 for s in stats)

    def test_random_data_incompressible(self, rng):
        enc = StreamEncoder()
        blocks = [rng.normal(size=(16, 16, 16)).astype(np.float32)]
        payload, stats = enc.encode(blocks, 1)
        assert stats[0].rate < 1.2

    def test_stats_timings_recorded(self, rng):
        enc = StreamEncoder()
        blocks = [rng.normal(size=(16, 16, 16)).astype(np.float32)
                  for _ in range(4)]
        _, stats = enc.encode(blocks, 2)
        assert all(s.seconds >= 0 for s in stats)
        assert sum(s.raw_bytes for s in stats) == 4 * 16**3 * 4


class TestErrors:
    def test_empty_raises(self):
        with pytest.raises(ValueError):
            StreamEncoder().encode([], 2)

    def test_mixed_shapes_raise(self, rng):
        blocks = [np.zeros((4, 4), np.float32), np.zeros((5, 5), np.float32)]
        with pytest.raises(ValueError):
            StreamEncoder().encode(blocks, 1)

    def test_unsupported_dtype(self):
        with pytest.raises(TypeError):
            StreamEncoder().encode([np.zeros((4,), np.int32)], 1)

    def test_decode_bad_magic(self):
        with pytest.raises(ValueError):
            StreamEncoder().decode(b"XXXX" + b"\0" * 32, (4,))

    def test_decode_wrong_shape(self, rng):
        enc = StreamEncoder()
        payload, _ = enc.encode([np.zeros((4, 4), np.float32)], 1)
        with pytest.raises(ValueError):
            enc.decode(payload, (5, 5))


class TestCorruptPayload:
    """A cut or corrupt payload fails typed: ``ValueError`` naming the
    stream and the byte offset, never ``struct.error`` / ``zlib.error``."""

    @staticmethod
    def payload(rng, num_streams=2):
        blocks = [rng.normal(size=(8, 8, 8)).astype(np.float32)
                  for _ in range(6)]
        return StreamEncoder().encode(blocks, num_streams)[0]

    def test_short_header(self, rng):
        with pytest.raises(ValueError, match="header cut short: 5 of 16"):
            StreamEncoder().decode(self.payload(rng)[:5], (8, 8, 8))

    def test_short_stream_header(self, rng):
        with pytest.raises(ValueError, match="stream 0: header cut short at byte 16"):
            StreamEncoder().decode(self.payload(rng)[:20], (8, 8, 8))

    def test_short_stream(self, rng):
        payload = self.payload(rng)
        with pytest.raises(ValueError, match=r"stream 1: \d+ bytes expected at byte \d+, \d+ left"):
            StreamEncoder().decode(payload[:-7], (8, 8, 8))

    def test_bit_flip_fails_inflate(self, rng):
        payload = bytearray(self.payload(rng))
        payload[40] ^= 0xFF
        with pytest.raises(ValueError, match=r"stream 0: inflate failed in the \d+ bytes at byte 24"):
            StreamEncoder().decode(bytes(payload), (8, 8, 8))

    def test_inflated_size_mismatch(self, rng):
        """A stream that inflates cleanly to the wrong number of bytes
        (here: its header claims one block more than it holds)."""
        payload = bytearray(self.payload(rng, num_streams=1))
        comp_size, n_blocks = struct.unpack_from("<II", payload, 16)
        struct.pack_into("<II", payload, 16, comp_size, n_blocks + 1)
        with pytest.raises(ValueError, match="stream 0 at byte 24: inflated to 12288 bytes, 7 blocks need 14336"):
            StreamEncoder().decode(bytes(payload), (8, 8, 8))

    def test_unknown_dtype_code(self, rng):
        payload = bytearray(self.payload(rng))
        payload[12] = 9
        with pytest.raises(ValueError, match="dtype code 9"):
            StreamEncoder().decode(bytes(payload), (8, 8, 8))

"""Tests for the per-thread stream encoder (repro.compression.encoder)."""

import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro import native
from repro.compression import encoder
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
        (here: its header claims one block more than it holds, so the
        map is read 64 bytes into the planes)."""
        payload = bytearray(self.payload(rng, num_streams=1))
        comp_size, n_blocks = struct.unpack_from("<II", payload, 16)
        struct.pack_into("<II", payload, 16, comp_size, n_blocks + 1)
        with pytest.raises(ValueError, match=(
                r"stream 0 at byte 24: inflated to 12672 bytes, a map of 3584 "
                r"elements with \d+ significant needs \d+")):
            StreamEncoder().decode(bytes(payload), (8, 8, 8))

    def test_unknown_dtype_code(self, rng):
        payload = bytearray(self.payload(rng))
        payload[12] = 9
        with pytest.raises(ValueError, match="dtype code 9"):
            StreamEncoder().decode(bytes(payload), (8, 8, 8))

    def test_trailing_bytes(self, rng):
        with pytest.raises(ValueError, match=r"3 bytes after the last of 2 "
                                             r"streams at byte \d+"):
            StreamEncoder().decode(self.payload(rng) + b"xyz", (8, 8, 8))


# -- what the bytes mean -------------------------------------------------------


def _payload(raw, block_elems=512):
    """A float32 payload of one stream of one block, the stream inflating
    to ``raw`` (deflated and framed as the module docstring says)."""
    coder = zlib.compressobj(6, zlib.DEFLATED, 15, 8, zlib.Z_RLE)
    comp = coder.compress(raw) + coder.flush()
    return (struct.pack("<4sIII", b"RPSP", 1, block_elems, 0)
            + struct.pack("<II", len(comp), 1) + comp)


def _streams(payload):
    """``[(n_blocks, inflated bytes)]`` of a payload, parsed by hand."""
    magic, n_streams, _, _ = struct.unpack_from("<4sIII", payload)
    assert magic == b"RPSP"
    out, at = [], 16
    for _ in range(n_streams):
        comp_size, n_blocks = struct.unpack_from("<II", payload, at)
        out.append((n_blocks, zlib.decompress(payload[at + 8:
                                                      at + 8 + comp_size])))
        at += 8 + comp_size
    assert at == len(payload)
    return out


def _spec_stream(blocks):
    """A stream's inflated bytes, built element by element from the
    format's definition: the map bit of an element is set when any of its
    bytes is (first element in the top bit of the first byte), then byte
    ``k`` of every significant element for k = 0, 1, ..."""
    raw = np.ascontiguousarray(blocks).reshape(-1).view(np.uint8)
    elems = raw.reshape(-1, blocks.dtype.itemsize)
    kept = elems[elems.any(axis=1)]
    bits = elems.any(axis=1)
    bits = np.concatenate([bits, np.zeros(-len(bits) % 8, bool)])
    bitmap = (bits.reshape(-1, 8) @ (1 << np.arange(7, -1, -1))).astype(
        np.uint8).tobytes()
    return bitmap + b"".join(kept[:, k].tobytes()
                             for k in range(elems.shape[1]))


def _specials(dtype):
    """The bit patterns that are not numbers or not normal, as unsigned
    integers of the dtype's width: -0.0, +-inf and subnormals, then NaNs
    with payloads."""
    uint = np.dtype(f"u{np.dtype(dtype).itemsize}")
    info = np.finfo(dtype)
    patterns = np.array([-0.0, np.inf, -np.inf, info.smallest_subnormal,
                         -info.smallest_subnormal, info.tiny / 3], dtype)
    nans = (np.array([0x7FC00001, 0xFFA00000, 0x7F800001], uint)
            if uint.itemsize == 4 else
            np.array([0x7FF8000000000001, 0xFFF4000000000000,
                      0x7FF0000000000001], uint))
    return patterns.view(uint), nans


def _kinds_of_block(dtype, bs, rng):
    """One block of each kind a decimated buffer holds: all zero, all
    significant, mostly zero, and the bit patterns that are not numbers
    or not normal (-0.0, NaNs with payloads, +-inf, subnormals) among
    zeros."""
    shape = (bs,) * 3
    uint = np.dtype(f"u{np.dtype(dtype).itemsize}")
    sparse = rng.normal(size=shape).astype(dtype)
    sparse[rng.random(shape) < 0.9] = 0
    special = np.zeros(shape, dtype)
    patterns, nans = _specials(dtype)
    flat = special.reshape(-1).view(uint)
    flat[5:5 + len(patterns)] = patterns
    flat[-len(nans):] = nans
    return [np.zeros(shape, dtype),
            (np.abs(rng.normal(size=shape)) + 1).astype(dtype),
            sparse, special]


def _mantissa_block(dtype, bs, rng):
    """A block of significant elements whose low bytes are uniform random
    and whose top byte is one constant."""
    itemsize = np.dtype(dtype).itemsize
    uint = np.dtype(f"u{itemsize}")
    low = rng.integers(0, 2 ** (8 * itemsize - 8), size=(bs,) * 3,
                       dtype=np.uint64).astype(uint)
    return (low | uint.type(0x3F << (8 * itemsize - 8))).view(dtype)


class TestByteMeaning:
    """Encode -> decode gives back every byte, and each stream inflates
    to the significance map and byte planes of its blocks."""

    @pytest.mark.parametrize("bs", [8, 16, 32])
    @pytest.mark.parametrize("num_streams", [1, 2, 3, 7])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_round_trip_and_stream_contents(self, rng, dtype, num_streams,
                                            bs):
        kinds = _kinds_of_block(dtype, bs, rng)
        batch = np.stack(kinds + kinds[::-1])  # 8 blocks, each kind twice
        payload, stats = StreamEncoder().encode(batch, num_streams)
        out = StreamEncoder().decode_batch(payload, (bs,) * 3)
        assert out.dtype == dtype and out.flags.writeable
        assert out.tobytes() == batch.tobytes()
        first = 0
        for (n_blocks, raw), st_ in zip(_streams(payload), stats):
            assert raw == _spec_stream(batch[first:first + n_blocks])
            assert st_.num_blocks == n_blocks
            assert st_.raw_bytes == batch[first:first + n_blocks].nbytes
            first += n_blocks
        assert first == len(batch)


class TestCorruptStream:
    """Each way a stream's contents can be wrong is a ``ValueError``
    naming the stream and its byte offset."""

    @staticmethod
    def one_stream(rng):
        block = _kinds_of_block(np.float32, 8, rng)[2]
        return _streams(StreamEncoder().encode([block], 1)[0])[0][1]

    def test_cut_stream(self, rng):
        payload = bytearray(_payload(self.one_stream(rng)))
        comp_size = struct.unpack_from("<I", payload, 16)[0]
        struct.pack_into("<I", payload, 16, comp_size // 2)
        payload = payload[:24 + comp_size // 2]
        with pytest.raises(ValueError, match=(
                rf"stream 0 at byte 24: deflate stream cut short in its "
                rf"{comp_size // 2} bytes")):
            StreamEncoder().decode_batch(bytes(payload), (8, 8, 8))

    def test_significant_count_and_planes_disagree(self, rng):
        raw = bytearray(self.one_stream(rng))
        zero_bit = next(i for i in range(512)
                        if not raw[i // 8] >> (7 - i % 8) & 1)
        raw[zero_bit // 8] |= 1 << (7 - zero_bit % 8)
        count = sum(bin(b).count("1") for b in raw[:64])
        with pytest.raises(ValueError, match=(
                rf"stream 0 at byte 24: inflated to {len(raw)} bytes, a map of "
                rf"512 elements with {count} significant needs "
                rf"{64 + 4 * count}")):
            StreamEncoder().decode_batch(_payload(bytes(raw)), (8, 8, 8))

    def test_nonzero_pad_bits(self):
        planes = np.ones(3, np.float32).view(np.uint8).reshape(3, 4).T
        raw = bytes([0b1110_0001]) + planes.tobytes()
        with pytest.raises(ValueError, match=(
                "stream 0 at byte 24: non-zero pad bits after the map's 3 "
                "elements")):
            StreamEncoder().decode_batch(_payload(raw, block_elems=3), (3,))
        good = bytes([0b1110_0000]) + raw[1:]
        out = StreamEncoder().decode_batch(_payload(good, block_elems=3), (3,))
        assert out.tobytes() == np.ones((1, 3), np.float32).tobytes()

    def test_stream_longer_than_its_blocks_hold(self, rng):
        block = _kinds_of_block(np.float32, 8, rng)[1]  # all significant
        raw = _streams(StreamEncoder().encode([block], 1)[0])[0][1]
        with pytest.raises(ValueError, match=(
                r"stream 0 at byte 24: inflates past the \d+ bytes 256 "
                r"elements can hold")):
            StreamEncoder().decode_batch(
                _payload(raw, block_elems=256), (256,))

    def test_bytes_after_the_deflate_stream(self, rng):
        payload = bytearray(_payload(self.one_stream(rng)))
        comp_size = struct.unpack_from("<I", payload, 16)[0]
        struct.pack_into("<I", payload, 16, comp_size + 2)
        with pytest.raises(ValueError, match=(
                "stream 0 at byte 24: 2 bytes after the end of its deflate "
                "stream")):
            StreamEncoder().decode_batch(bytes(payload) + b"\0\0", (8, 8, 8))

    def test_forged_block_count_is_refused_before_allocating(self, rng):
        payload = bytearray(_payload(self.one_stream(rng)))
        comp_size = struct.unpack_from("<I", payload, 16)[0]
        struct.pack_into("<I", payload, 20, 2 ** 31)
        with pytest.raises(ValueError, match=(
                rf"stream 0 at byte 24: 2147483648 blocks of 512 elements "
                rf"cannot come from {comp_size} deflated bytes")):
            StreamEncoder().decode_batch(bytes(payload), (8, 8, 8))


@pytest.fixture(scope="module", params=["deflated", "stored"])
def small_payload(request):
    """A payload and its blocks: five 4^3 blocks of every kind in two
    streams, every plane deflated; or an 8^3 block with random mantissas
    (its three low planes stored) and two more in two streams."""
    if request.param == "deflated":
        kinds = _kinds_of_block(np.float32, 4, np.random.default_rng(5))
        batch = np.stack(kinds + kinds[2:3])
    else:
        rng = np.random.default_rng(6)
        kinds = _kinds_of_block(np.float32, 8, rng)
        batch = np.stack([_mantissa_block(np.float32, 8, rng), kinds[2],
                          kinds[3]])
        hist = encoder._pack_planes_numpy(encoder._bits(batch[:2]))[1]
        assert encoder.stored_segments(hist).tolist() == [False] + [
            True] * 3 + [False]
    return StreamEncoder().encode(batch, 2)[0], batch


@seed(20260)
@settings(max_examples=400, deadline=None, database=None)
@given(data=st.data(), cut=st.booleans())
def test_any_cut_or_flip_fails_typed_or_decodes_the_same(small_payload, data,
                                                         cut):
    """A cut payload, or one with a bit flipped, raises ``ValueError`` --
    never ``zlib.error``, ``IndexError`` or an allocation of what a forged
    header claims -- unless the flip hit a bit no reader looks at (a
    deflate stream's final pad bits, a stored block header's), and then
    it decodes to the same blocks.  In a stored block a flipped data byte
    fails the stream's ``adler32``, a flipped length its complement."""
    payload, batch = small_payload
    blob = bytearray(payload)
    if cut:
        blob = blob[:data.draw(st.integers(0, len(blob) - 1))]
    else:
        bit = data.draw(st.integers(0, 8 * len(blob) - 1))
        blob[bit // 8] ^= 1 << (bit % 8)
    try:
        out = StreamEncoder().decode_batch(bytes(blob), batch.shape[1:])
    except ValueError as exc:
        assert "stream" in str(exc) or len(blob) < 16 or (
            bytes(blob[:16]) != payload[:16])
    else:
        assert not cut and out.tobytes() == batch.tobytes()


# -- the compiled pack and unpack, and what is stored --------------------------


compiled = pytest.mark.skipif(
    native.lib is None,
    reason=f"no compiled kernels: {native.status()['reason']}")


@st.composite
def _elements(draw):
    """A flat unsigned view of float32 or float64 elements: all zero, all
    significant or mixed, of any length (not only multiples of 8 or 64)."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    itemsize = np.dtype(dtype).itemsize
    n = draw(st.integers(1, 300))
    fill = draw(st.sampled_from(["zero", "significant", "mixed"]))
    specials = st.sampled_from(np.concatenate(_specials(dtype)).tolist())
    numbers = st.integers(1, 2 ** (8 * itemsize) - 1)
    element = {"zero": st.just(0), "significant": st.one_of(specials, numbers),
               "mixed": st.one_of(st.just(0), st.just(0), specials, numbers)}
    values = draw(st.lists(element[fill], min_size=n, max_size=n))
    return np.array(values, dtype=f"u{itemsize}")


@compiled
@seed(20261)
@settings(max_examples=300, deadline=None, database=None)
@given(bits=_elements(), cut=st.integers(0, 3))
def test_compiled_pack_and_unpack_are_the_numpy_oracle(bits, cut):
    """The compiled pass writes the map, the planes and the histograms
    byte for byte as NumPy does; its inverse scatters them back, and
    writes nothing when the planes hold fewer elements than the map
    names."""
    raw, hist = encoder.pack_planes(bits)
    want_raw, want_hist = encoder._pack_planes_numpy(bits)
    assert raw.tobytes() == want_raw.tobytes()
    assert hist.tolist() == want_hist.tolist()
    assert hist.sum(axis=1).tolist() == (
        [len(raw) - len(bits[bits != 0]) * bits.itemsize]
        + [int(np.count_nonzero(bits))] * bits.itemsize)
    cut = min(cut, len(raw) - -(-bits.size // 8))  # the map stays whole
    data = raw.tobytes()[:len(raw) - cut]
    out, want = np.zeros_like(bits), np.zeros_like(bits)
    count = encoder.unpack_planes(data, bits.size, bits.itemsize, out)
    assert count == encoder._unpack_planes_numpy(data, bits.size,
                                                 bits.itemsize, want)
    assert count == np.count_nonzero(bits)
    assert out.tobytes() == want.tobytes() == (
        bits if not cut or not count else np.zeros_like(bits)).tobytes()


@compiled
@pytest.mark.parametrize("num_streams", [1, 3])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_no_compiler_encode_writes_the_same_payload(monkeypatch, rng, dtype,
                                                    num_streams):
    kinds = _kinds_of_block(dtype, 16, rng)
    batch = np.stack(kinds + [_mantissa_block(dtype, 16, rng)] + kinds[::-1])
    payload = StreamEncoder().encode(batch, num_streams)[0]
    monkeypatch.setattr(native, "lib", None)
    assert StreamEncoder().encode(batch, num_streams)[0] == payload
    assert StreamEncoder().decode_batch(
        payload, (16,) * 3).tobytes() == batch.tobytes()


def _single_rle_payload(batch, num_streams):
    """The payload the encoder wrote before planes could be stored: each
    stream's map and planes through one ``Z_RLE`` deflate."""
    bounds = np.linspace(0, len(batch), num_streams + 1).round().astype(int)
    chunks = [struct.pack("<4sIII", b"RPSP", num_streams,
                          batch[0].size, {4: 0, 8: 1}[batch.itemsize])]
    for lo, hi in zip(bounds, bounds[1:]):
        coder = zlib.compressobj(6, zlib.DEFLATED, 15, 8, zlib.Z_RLE)
        comp = coder.compress(_spec_stream(batch[lo:hi])) + coder.flush()
        chunks += [struct.pack("<II", len(comp), hi - lo), comp]
    return b"".join(chunks)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_single_rle_payload_still_decodes(kernel_path, rng, dtype):
    kinds = _kinds_of_block(dtype, 8, rng)
    batch = np.stack(kinds + [_mantissa_block(dtype, 8, rng)])
    out = StreamEncoder().decode_batch(_single_rle_payload(batch, 2),
                                       (8, 8, 8))
    assert out.tobytes() == batch.tobytes()


class TestWhatIsStored:
    def test_a_uniform_random_plane_is_stored_a_constant_one_deflated(
            self, rng):
        uniform = np.bincount(rng.integers(0, 256, 1 << 16), minlength=256)
        constant = np.bincount(np.full(1 << 16, 0x3F), minlength=256)
        assert encoder.stored_segments(
            np.stack([uniform, constant])).tolist() == [True, False]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_stored_planes_ride_verbatim_in_one_zlib_stream(self, kernel_path,
                                                            rng, dtype):
        """The map and the constant top plane are deflated, every random
        plane is in the stream as it is; stock zlib inflates the stream to
        exactly the map and planes, to its end and no further."""
        block = _mantissa_block(dtype, 16, rng)
        payload, _ = StreamEncoder().encode([block], 1)
        comp = payload[24:]
        raw = _spec_stream(block[np.newaxis])
        inflater = zlib.decompressobj()
        assert inflater.decompress(comp) == raw
        assert inflater.eof and inflater.unused_data == b""
        assert comp[:2] == b"\x78\x01"
        n, itemsize = block.size, block.itemsize
        planes = [raw[n // 8 + k * n : n // 8 + (k + 1) * n]
                  for k in range(itemsize)]
        assert all(plane in comp for plane in planes[:-1])
        assert planes[-1] not in comp and raw[: n // 8] not in comp
        assert len(comp) < len(raw) - n
        hist = encoder._pack_planes_numpy(encoder._bits(block))[1]
        assert encoder.stored_segments(hist).tolist() == (
            [False] + [True] * (itemsize - 1) + [False])

"""Tests for collective compressed I/O (repro.compression.io)."""

import json
import re
import struct
import zlib

import numpy as np
import pytest

from repro.cluster.mpi_sim import SimWorld
from repro.compression.io import (
    file_size,
    read_compressed,
    read_field,
    read_header,
    write_compressed_parallel,
)
from repro.compression.scheme import CompressedField, WaveletCompressor
from repro.container import _HEAD, PRELUDE_SIZE, FormatError
from repro.resilience.detect import CorruptionError


def rank_field(rank, n=16):
    t = np.linspace(0, 1, n) + rank
    return (t[:, None, None] * t[None, :, None] * t[None, None, :]).astype(
        np.float32
    )


class TestSingleRank:
    def test_write_read_roundtrip(self, tmp_path):
        path = str(tmp_path / "dump.rwz")
        comp = WaveletCompressor(eps=1e-3)
        world = SimWorld(1)

        def main(comm):
            cf = comp.compress(rank_field(0))
            return write_compressed_parallel(comm, path, "p", cf)

        ws = world.run(main)[0]
        assert ws.offset == PRELUDE_SIZE
        header = read_header(path)
        assert header["quantity"] == "p"
        assert len(header["ranks"]) == 1
        field = read_field(path, comp)
        assert np.abs(field - rank_field(0)).max() <= 1e-3 + 1e-5

    def test_file_size_accounts_header(self, tmp_path):
        path = str(tmp_path / "dump.rwz")
        world = SimWorld(1)

        def main(comm):
            cf = WaveletCompressor(eps=1e-3).compress(rank_field(0))
            write_compressed_parallel(comm, path, "p", cf)
            return len(cf.payload)

        nbytes = world.run(main)[0]
        # prelude, the payload, then nothing but the index
        with open(path, "rb") as f:
            blob = f.read()
        index = json.loads(blob[PRELUDE_SIZE + nbytes:])
        assert index["sections"][0]["size"] == nbytes
        assert file_size(path) == len(blob)


class TestMultiRank:
    def test_offsets_from_exscan(self, tmp_path):
        path = str(tmp_path / "dump.rwz")
        world = SimWorld(3)

        def main(comm):
            cf = WaveletCompressor(eps=1e-3).compress(rank_field(comm.rank))
            ws = write_compressed_parallel(
                comm, path, "p", cf,
                rank_meta={"origin_cells": [16 * comm.rank, 0, 0]},
            )
            return (ws.offset, ws.nbytes)

        out = world.run(main)
        # Offsets are a prefix sum of the sizes after the header.
        assert out[0][0] == PRELUDE_SIZE
        assert out[1][0] == PRELUDE_SIZE + out[0][1]
        assert out[2][0] == out[1][0] + out[1][1]

    def test_payloads_not_overlapping(self, tmp_path):
        path = str(tmp_path / "dump.rwz")
        world = SimWorld(4)

        def main(comm):
            cf = WaveletCompressor(eps=1e-4).compress(rank_field(comm.rank))
            write_compressed_parallel(
                comm, path, "p", cf,
                rank_meta={"origin_cells": [16 * comm.rank, 0, 0]},
            )

        world.run(main)
        fields = read_compressed(path)
        comp = WaveletCompressor()
        for rank, cf in enumerate(fields):
            out = comp.decompress(cf)
            assert np.abs(out - rank_field(rank)).max() <= 1e-4 + 1e-5

    def test_read_field_stitches_subdomains(self, tmp_path):
        path = str(tmp_path / "dump.rwz")
        world = SimWorld(2)

        def main(comm):
            cf = WaveletCompressor(eps=1e-4).compress(rank_field(comm.rank))
            write_compressed_parallel(
                comm, path, "p", cf,
                rank_meta={"origin_cells": [16 * comm.rank, 0, 0]},
            )

        world.run(main)
        field = read_field(path)
        assert field.shape == (32, 16, 16)
        assert np.abs(field[:16] - rank_field(0)).max() <= 1e-3
        assert np.abs(field[16:] - rank_field(1)).max() <= 1e-3


class TestErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.rwz"
        path.write_bytes(b'{"magic": "nope"}'.ljust(65536) + b"x")
        with pytest.raises(ValueError):
            read_header(str(path))


class TestCorruptDump:
    """Cut and corrupt dump files fail with a located ``ValueError``."""

    @staticmethod
    def dump(tmp_path):
        path = str(tmp_path / "p.rwz")
        t = np.linspace(0, 3, 16, dtype=np.float32)
        fld = np.sin(t)[:, None, None] * np.cos(t)[None, :, None] * t[None, None, :]
        comm = SimWorld(1).comm(0)
        cf = WaveletCompressor(eps=1e-4).compress(fld)
        write_compressed_parallel(comm, path, "p", cf)
        return path

    @staticmethod
    def rewrite(path, edit):
        with open(path, "rb") as f:
            blob = bytearray(f.read())
        with open(path, "wb") as f:
            f.write(edit(blob))

    def test_cut_in_header(self, tmp_path):
        path = self.dump(tmp_path)
        self.rewrite(path, lambda blob: blob[:20])
        for reader in (read_header, read_compressed, read_field):
            with pytest.raises(CorruptionError,
                               match="truncated: 20 bytes, no whole prelude"):
                reader(path)

    def test_unreadable_header(self, tmp_path):
        path = self.dump(tmp_path)
        with open(path, "rb") as f:
            blob = f.read()
        index_at = _HEAD.unpack_from(blob)[3]
        self.rewrite(path, lambda blob: blob[:index_at] + b"{" * (len(blob) - index_at))
        with pytest.raises(CorruptionError,
                           match=rf"index failed CRC32 \(byte {index_at}\)"):
            read_field(path)

    def test_cut_in_payload(self, tmp_path):
        path = self.dump(tmp_path)
        self.rewrite(path, lambda blob: blob[:-7])
        size = file_size(path)
        for reader in (read_compressed, read_field):
            with pytest.raises(CorruptionError, match="truncated") as exc:
                reader(path)
            assert (exc.value.path, exc.value.offset) == (path, size)

    def test_flipped_payload_byte(self, tmp_path):
        path = self.dump(tmp_path)

        def flip(blob):
            blob[PRELUDE_SIZE + 40] ^= 0xFF
            return blob

        self.rewrite(path, flip)
        for reader in (read_compressed, read_field):
            with pytest.raises(
                    CorruptionError,
                    match=rf"section 0 of \d+ bytes failed CRC32 \(byte {PRELUDE_SIZE}\)"
            ) as exc:
                reader(path)
            assert (exc.value.section, exc.value.offset) == (0, PRELUDE_SIZE)

    def test_payload_of_the_replaced_format(self, tmp_path):
        """A rank whose payload is the raw deflated streams that the
        significance-map streams replaced: a ``FormatError`` (not plain
        ``ValueError``) naming the path and the rank."""
        path = str(tmp_path / "old.rwz")
        comp = WaveletCompressor(eps=1e-4, block_size=8)
        cf = comp.compress(rank_field(0))
        coeffs = comp.encoder.decode_batch(cf.payload, (8, 8, 8))
        deflated = zlib.compress(coeffs, 6)
        old = (struct.pack("<4sIII", b"RPRW", 1, 512, 0)
               + struct.pack("<II", len(deflated), len(coeffs)) + deflated)
        write_compressed_parallel(
            SimWorld(1).comm(0), path, "p",
            CompressedField.from_metadata(old, cf.metadata()))
        with pytest.raises(FormatError, match=(
                rf"{re.escape(path)}: rank 0 \(payload at byte "
                rf"{PRELUDE_SIZE}\): unsupported format: payload magic "
                rf"b'RPRW'")):
            read_field(path)

"""Tests for collective compressed I/O (repro.compression.io)."""

import numpy as np
import pytest

from repro.cluster.mpi_sim import SimWorld
from repro.compression.io import (
    HEADER_SIZE,
    file_size,
    read_compressed,
    read_field,
    read_header,
    write_compressed_parallel,
)
from repro.compression.scheme import WaveletCompressor


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
        assert ws.offset == HEADER_SIZE
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
        assert file_size(path) == HEADER_SIZE + nbytes


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
        assert out[0][0] == HEADER_SIZE
        assert out[1][0] == HEADER_SIZE + out[0][1]
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
        path.write_bytes(b'{"magic": "nope"}'.ljust(HEADER_SIZE) + b"x")
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
        self.rewrite(path, lambda blob: blob[:100])
        for reader in (read_header, read_compressed, read_field):
            with pytest.raises(ValueError, match="header cut short, 100 of"):
                reader(path)

    def test_unreadable_header(self, tmp_path):
        path = self.dump(tmp_path)
        self.rewrite(path, lambda blob: b"{" * HEADER_SIZE + blob[HEADER_SIZE:])
        with pytest.raises(ValueError, match="unreadable dump header"):
            read_field(path)

    def test_cut_in_payload(self, tmp_path):
        path = self.dump(tmp_path)
        self.rewrite(path, lambda blob: blob[:-7])
        for reader in (read_compressed, read_field):
            with pytest.raises(ValueError, match="payload of rank 0 cut short at byte"):
                reader(path)

    def test_flipped_payload_byte(self, tmp_path):
        path = self.dump(tmp_path)

        def flip(blob):
            blob[HEADER_SIZE + 40] ^= 0xFF
            return blob

        self.rewrite(path, flip)
        assert len(read_compressed(path)) == 1  # framing intact
        with pytest.raises(ValueError, match=rf"rank 0 \(payload at byte {HEADER_SIZE}\): stream 0: inflate failed"):
            read_field(path)

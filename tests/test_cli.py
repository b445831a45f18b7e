"""Tests for the command-line interface (repro.cli)."""

import json

import numpy as np
import pytest

from repro.cli import build_parser, main

from .conftest import make_rng


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.cells == 32 and args.ranks == 1

    def test_compress_args(self):
        args = build_parser().parse_args(["compress", "f.npy", "--eps", "1e-2"])
        assert args.field == "f.npy"
        assert args.eps == pytest.approx(1e-2)

    def test_telemetry_defaults_off(self):
        args = build_parser().parse_args(["run"])
        assert args.telemetry == "off" and args.trace_out is None


class TestCommands:
    def test_report(self, capsys):
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        assert "Table 5" in out and "Gcells/s" in out

    def test_run_small(self, capsys):
        rc = main(["run", "--cells", "16", "--bubbles", "2", "--steps", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "max p" in out and "timers" in out
        assert "Mcells/s" in out  # wall-clock summary, telemetry off
        assert "scorecard" not in out

    def test_run_telemetry_prints_scorecard(self, capsys):
        rc = main(["run", "--cells", "16", "--bubbles", "2", "--steps", "2",
                   "--telemetry", "metrics"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Run scorecard" in out
        assert "GFLOP/s" in out and "I/O fraction" in out

    def test_run_trace_out_writes_chrome_trace(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        # --trace-out alone implies --telemetry trace
        rc = main(["run", "--cells", "16", "--bubbles", "2", "--steps", "2",
                   "--trace-out", str(trace)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Run scorecard" in out and "perfetto" in out
        doc = json.loads(trace.read_text())
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert {"RHS", "DT", "UP"} <= names

    def test_run_with_erosion(self, capsys):
        rc = main([
            "run", "--cells", "16", "--bubbles", "2", "--steps", "3",
            "--erosion-threshold", "50",
        ])
        assert rc == 0
        assert "wall damage" in capsys.readouterr().out

    def test_compress_roundtrip(self, tmp_path, capsys):
        field = make_rng(0).normal(size=(16, 16, 16)).astype(
            np.float32
        )
        path = tmp_path / "field.npy"
        np.save(path, field)
        rc = main(["compress", str(path), "--eps", "1e-2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert ":1" in out and "L-inf error" in out
        assert (tmp_path / "field.rwz.npy").exists()

    def test_compress_rejects_non_3d(self, tmp_path, capsys):
        path = tmp_path / "bad.npy"
        np.save(path, np.zeros((4, 4)))
        assert main(["compress", str(path)]) == 2


class TestServiceCLI:
    """submit / serve subcommands and the exit-code taxonomy."""

    @staticmethod
    def _key(out: str) -> str:
        line = [ln for ln in out.splitlines() if ln.startswith("key: ")][-1]
        return line.split("key: ", 1)[1]

    def test_submit_prints_job_line_and_key(self, capsys):
        assert main(["submit", "--cells", "16", "--steps", "2"]) == 0
        out = capsys.readouterr().out
        doc = json.loads(out.splitlines()[0])
        assert doc["request"]["semantic"]["schema"] == "repro.job/v1"
        key = self._key(out)
        assert len(key) == 64 and int(key, 16) >= 0

    def test_submit_key_is_content_addressed(self, capsys):
        # Same semantics -> same key; different physics -> different key;
        # a runtime-only change (ranks) must NOT change the key.
        main(["submit"])
        base = self._key(capsys.readouterr().out)
        main(["submit"])
        assert self._key(capsys.readouterr().out) == base
        main(["submit", "--pressure", "500"])
        assert self._key(capsys.readouterr().out) != base
        main(["submit", "--ranks", "2", "--cluster-backend", "procs"])
        assert self._key(capsys.readouterr().out) == base

    def test_submit_appends_jsonl(self, tmp_path, capsys):
        jobs = tmp_path / "jobs.jsonl"
        main(["submit", "--out", str(jobs)])
        main(["submit", "--pressure", "500", "--out", str(jobs)])
        lines = jobs.read_text().splitlines()
        assert len(lines) == 2
        assert all("request" in json.loads(ln) for ln in lines)

    def test_invalid_config_exits_64(self, capsys):
        # 17^3 cells cannot be tiled by any supported block size.
        rc = main(["submit", "--cells", "17"])
        assert rc == 64
        assert "error[invalid]" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value, named", [
        ("boundary_default", "reflct", "boundary_default='reflct'"),
        ("wall", [3, 0], r"wall=(3, 0)"),
    ])
    def test_a_mistyped_boundary_in_a_job_line_exits_64_with_the_field_named(
            self, tmp_path, capsys, field, value, named):
        """... before a worker is spawned, not from inside the first RHS
        of a rank."""
        jobs = tmp_path / "jobs.jsonl"
        main(["submit", "--cells", "16", "--steps", "1", "--out", str(jobs)])
        doc = json.loads(jobs.read_text())
        doc["request"]["semantic"]["config"][field] = value
        jobs.write_text(json.dumps(doc) + "\n")
        capsys.readouterr()
        rc = main(["serve", str(jobs), "--workdir", str(tmp_path / "work")])
        err = capsys.readouterr().err
        assert rc == 64 and "error[invalid]" in err and named in err
        assert "extrapolate" in err or "(axis, side)" in err
        assert not (tmp_path / "work").exists()

    def test_missing_jobs_file_exits_failure(self, capsys):
        rc = main(["serve", "definitely-not-here.jsonl"])
        assert rc == 1
        assert "error[failure]" in capsys.readouterr().err

    @pytest.mark.tier2
    def test_submit_serve_round_trip(self, tmp_path, capsys):
        jobs = tmp_path / "jobs.jsonl"
        health = tmp_path / "health.json"
        common = ["--cells", "16", "--steps", "2", "--out", str(jobs)]
        main(["submit", *common])
        main(["submit", *common])  # duplicate: must dedup, not recompute
        main(["submit", "--pressure", "500", *common])
        capsys.readouterr()
        serve = ["serve", str(jobs), "--workers", "1",
                 "--workdir", str(tmp_path / "work"),
                 "--health-out", str(health)]
        assert main(serve) == 0
        out = capsys.readouterr().out
        assert "service scorecard" in out
        snap = json.loads(health.read_text())
        assert snap["counters"]["computed"] == 2
        assert snap["counters"]["dedup_joined"] == 1
        # Re-serving the same batch is served from the persistent cache.
        assert main(serve) == 0
        snap = json.loads(health.read_text())
        assert snap["counters"]["computed"] == 0
        assert snap["counters"]["cache_hits"] == 3

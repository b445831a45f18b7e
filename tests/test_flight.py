"""Tests of the flight recorder, structured logging and rank analytics."""

from __future__ import annotations

import io
import json
import threading

import pytest

from repro.cli import main as cli_main
from repro.cluster import Simulation
from repro.cluster.mpi_sim import WorldError
from repro.resilience import FaultInjector, FaultPlan, FaultSpec
from repro.sim import SimulationConfig
from repro.sim.ic import uniform
from repro.telemetry import (
    FLIGHT_SCHEMA,
    FlightRecorder,
    ProgressReporter,
    StructuredLogger,
    analyze_flight,
    critical_path,
    format_flight_report,
    get_logger,
    iter_flight,
    merge_flight_parts,
    read_flight,
    run_imbalance,
    step_imbalance,
    straggler_summary,
)
from repro.telemetry.flight import FLUSH_EVERY, part_path


def run_sim(steps=2, ranks=1, cells=16, block_size=8, **kw):
    config = SimulationConfig(
        cells=cells, block_size=block_size, max_steps=steps, ranks=ranks,
        **kw,
    )
    return Simulation(config, uniform()).run()


def synthetic_steps():
    """Two ranks, three steps; rank 1 is the RHS-bound straggler."""
    steps = []
    for s in (1, 2, 3):
        steps.append({"kind": "step", "step": s, "rank": 0,
                      "phases": {"RHS": 0.10, "UP": 0.02}})
        steps.append({"kind": "step", "step": s, "rank": 1,
                      "phases": {"RHS": 0.20, "UP": 0.02}})
    return steps


# -- FlightRecorder -------------------------------------------------------


def test_recorder_writes_header_then_step_records(tmp_path):
    path = str(tmp_path / "f.jsonl")
    rec = FlightRecorder(path, rank=0, meta={"ranks": 1, "cells": [16] * 3})
    rec.record(1, dt=1e-3, phases={"RHS": 0.1})
    rec.record(2, dt=1e-3, phases={"RHS": 0.1})
    rec.close()
    assert merge_flight_parts(path) == 2
    records = list(iter_flight(path))
    assert records[0]["kind"] == "header"
    assert records[0]["schema"] == FLIGHT_SCHEMA
    assert records[0]["ranks"] == 1
    assert [r["step"] for r in records[1:]] == [1, 2]
    assert all(r["rank"] == 0 for r in records[1:])


def test_recorder_buffers_until_flush_threshold(tmp_path):
    path = str(tmp_path / "f.jsonl")
    rec = FlightRecorder(path, rank=3)
    part = part_path(path, 3)
    for step in range(1, FLUSH_EVERY - 1):
        rec.record(step, phases={})
    assert len(list(iter_flight(part))) == 0  # still buffered
    rec.record(FLUSH_EVERY - 1, phases={})  # with the header: a flush
    assert len(list(iter_flight(part))) == FLUSH_EVERY
    rec.record(FLUSH_EVERY, phases={})
    rec.flush()
    assert len(list(iter_flight(part))) == FLUSH_EVERY + 1
    rec.close()


def test_recorder_close_is_idempotent_and_record_after_close_raises(tmp_path):
    path = str(tmp_path / "f.jsonl")
    rec = FlightRecorder(path, rank=0)
    rec.close()
    rec.close()
    with pytest.raises(ValueError, match="closed"):
        rec.record(1)


def test_recorder_reopen_after_close_truncates(tmp_path):
    path = str(tmp_path / "f.jsonl")
    first = FlightRecorder(path, rank=0, meta={"run": 1})
    first.record(1, phases={})
    first.close()
    second = FlightRecorder(path, rank=0, meta={"run": 2})
    second.record(1, phases={})
    second.close()
    merge_flight_parts(path)
    header, steps = read_flight(path)
    assert header["run"] == 2
    assert len(steps) == 1


def test_sim_and_procs_write_the_same_flight_layout(tmp_path):
    """Thread ranks and process ranks each write a part file, merged at
    the end: one config on 2-rank ``sim`` and on 2-rank ``procs`` gives
    files with the same header keys and the same ``(kind, step, rank)``
    sequence, and leaves no part file."""
    layouts = []
    for backend in ("sim", "procs"):
        path = tmp_path / f"{backend}.jsonl"
        run_sim(steps=3, ranks=2, flight_out=str(path),
                cluster_backend=backend)
        header, *steps = iter_flight(str(path))
        layouts.append((sorted(header),
                        [(r["kind"], r["step"], r["rank"]) for r in steps]))
    assert not list(tmp_path.glob("*.rank*"))
    assert layouts[0] == layouts[1]
    assert layouts[0][1] == [("step", step, rank)
                             for step in (1, 2, 3) for rank in (0, 1)]


@pytest.mark.parametrize("ranks", [1, 2, 4])
def test_concurrent_rank_threads_write_their_own_parts(tmp_path, ranks):
    """Thread ranks recording at once each write their own part file:
    the merge holds every record of every rank exactly once, whole, in
    ``(step, rank)`` order, and removes the parts."""
    path = str(tmp_path / "f.jsonl")
    steps = 3 * FLUSH_EVERY + 5  # several flushes and a buffered tail
    start = threading.Barrier(ranks)

    def rank_main(rank):
        rec = FlightRecorder(path, rank=rank, meta={"ranks": ranks})
        start.wait()
        try:
            for step in range(1, steps + 1):
                rec.record(step, dt=1e-3, phases={"RHS": 0.1 * rank})
        finally:
            rec.close()

    threads = [threading.Thread(target=rank_main, args=(r,))
               for r in range(ranks)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert merge_flight_parts(path) == ranks * steps
    header, records = read_flight(path)
    assert header["ranks"] == ranks
    assert [(r["step"], r["rank"]) for r in records] == [
        (step, rank) for step in range(1, steps + 1) for rank in range(ranks)]
    assert all(r["phases"] == {"RHS": 0.1 * r["rank"]} for r in records)
    assert not list(tmp_path.glob("*.rank*"))


def test_merge_keeps_the_lowest_ranks_header(tmp_path):
    path = str(tmp_path / "f.jsonl")
    for rank in (2, 0, 1):
        rec = FlightRecorder(path, rank=rank, meta={"writer": rank})
        rec.record(1, phases={})
        rec.close()
    assert merge_flight_parts(path) == 3
    header, records = read_flight(path)
    assert header["writer"] == 0
    assert [r["rank"] for r in records] == [0, 1, 2]


def test_merge_without_parts_leaves_the_file_untouched(tmp_path):
    path = tmp_path / "f.jsonl"
    path.write_text("kept\n")
    assert merge_flight_parts(str(path)) == 0
    assert path.read_text() == "kept\n"


def test_merge_takes_a_crashed_ranks_flushed_prefix(tmp_path):
    """A rank that died after a flush leaves a headed, truncated part;
    one that died before its first flush leaves an empty part.  Both
    merge, the first's records kept, and both parts are removed."""
    path = str(tmp_path / "f.jsonl")
    whole = FlightRecorder(path, rank=0, meta={"ranks": 3})
    for step in (1, 2, 3):
        whole.record(step, phases={})
    whole.close()
    header = json.dumps({"kind": "header", "schema": FLIGHT_SCHEMA})
    step1 = json.dumps({"kind": "step", "step": 1, "rank": 1})
    with open(part_path(path, 1), "w", encoding="utf-8") as f:
        f.write(header + "\n" + step1 + "\n")
    open(part_path(path, 2), "w", encoding="utf-8").close()
    assert merge_flight_parts(path) == 4
    header, records = read_flight(path)
    assert header["ranks"] == 3
    assert [(r["step"], r["rank"]) for r in records] == [
        (1, 0), (1, 1), (2, 0), (3, 0)]
    assert not list(tmp_path.glob("*.rank*"))


@pytest.mark.parametrize("backend", ["sim", "procs"])
def test_a_failed_run_still_merges_its_flight_parts(tmp_path, backend):
    """Rank 1 crashes at the top of step 3: the run fails, and the
    flight file still holds both ranks' steps 1 and 2 under one header,
    with no part file left."""
    path = tmp_path / "f.jsonl"
    config = SimulationConfig(
        cells=16, block_size=8, max_steps=4, ranks=2, flight_out=str(path),
        cluster_backend=backend, comm_timeout=30.0)
    injector = FaultInjector(FaultPlan(faults=[
        FaultSpec(kind="rank_crash", rank=1, step=3)]))
    with pytest.raises(WorldError):
        Simulation(config, uniform(), injector=injector).run()
    header, records = read_flight(str(path))
    assert header["schema"] == FLIGHT_SCHEMA
    assert [(r["step"], r["rank"]) for r in records
            if r["step"] <= 2] == [(1, 0), (1, 1), (2, 0), (2, 1)]
    assert all(r["rank"] == 0 for r in records if r["step"] > 2)
    assert not list(tmp_path.glob("*.rank*"))


def test_read_flight_rejects_headerless_and_wrong_schema(tmp_path):
    p1 = tmp_path / "noheader.jsonl"
    p1.write_text(json.dumps({"kind": "step", "step": 1, "rank": 0}) + "\n")
    with pytest.raises(ValueError, match="header"):
        read_flight(str(p1))
    p2 = tmp_path / "wrong.jsonl"
    p2.write_text(json.dumps({"kind": "header", "schema": "other/v9"}) + "\n")
    with pytest.raises(ValueError, match="schema"):
        read_flight(str(p2))


# -- cross-rank analytics -------------------------------------------------


def test_step_imbalance_identifies_the_straggler():
    rows = step_imbalance(synthetic_steps())
    assert len(rows) == 3
    for row in rows:
        assert row["ranks"] == 2
        assert row["t_max"] == pytest.approx(0.22)
        assert row["t_mean"] == pytest.approx(0.17)
        assert row["lif"] == pytest.approx(0.22 / 0.17)
        # Paper Table 4 spread: (max - min) / mean.
        assert row["imbalance"] == pytest.approx(0.10 / 0.17)
        assert row["critical_rank"] == 1
        assert row["critical_phase"] == "RHS"


def test_step_imbalance_degenerate_zero_time_step_reports_zero():
    steps = [{"kind": "step", "step": 1, "rank": r, "phases": {}}
             for r in (0, 1)]
    row = step_imbalance(steps)[0]
    assert row["lif"] == 0.0 and row["imbalance"] == 0.0


def test_straggler_summary_attributes_bound_steps():
    rows = straggler_summary(synthetic_steps())
    assert rows[0]["rank"] == 1
    assert rows[0]["steps_critical"] == 3
    assert rows[0]["critical_share"] == pytest.approx(1.0)
    assert rows[0]["worst_phase"] == "RHS"
    assert rows[1]["rank"] == 0
    assert rows[1]["steps_critical"] == 0


def test_critical_path_charges_the_bounding_rank_phase():
    rows = critical_path(synthetic_steps())
    assert rows[0]["rank"] == 1 and rows[0]["phase"] == "RHS"
    assert rows[0]["steps"] == 3
    assert rows[0]["seconds"] == pytest.approx(3 * 0.22)


def test_run_imbalance_over_rank_results():
    result = run_sim(steps=2, ranks=2)
    rows = run_imbalance(result)
    assert rows, "two-rank run must produce imbalance rows"
    total = rows[-1]
    assert total["phase"] == "TOTAL"
    assert total["lif"] >= 1.0
    assert total["slowest rank"] in (0, 1)
    assert all(r["max [s]"] >= r["mean [s]"] for r in rows)


def test_run_imbalance_empty_for_single_rank():
    assert run_imbalance(run_sim(steps=1, ranks=1)) == []


# -- driver + CLI integration ---------------------------------------------


def test_driver_writes_and_analytics_read_a_flight_recording(tmp_path):
    path = str(tmp_path / "flight.jsonl")
    result = run_sim(steps=3, ranks=2, flight_out=path,
                     sanitize="warn")
    header, steps = read_flight(path)
    assert header["ranks"] == 2
    assert header["cells"] == [16, 16, 16]
    assert len(steps) == 3 * 2  # one record per (step, rank)
    for rec in steps:
        assert rec["dt"] > 0.0
        assert rec["wall"] > 0.0
        assert rec["gcells_per_s"] >= 0.0
        assert "RHS" in rec["phases"] and "UP" in rec["phases"]
        assert set(rec["drift"]) == {"mass", "energy"}
        assert abs(rec["drift"]["mass"]) < 1e-6  # uniform IC conserves
        assert rec["sanitizer_events"] == 0
        assert rec["schedule"]["workers"] >= 1
    # Per-step phase deltas must sum back to the cumulative rank timers.
    for rr in result.rank_results:
        mine = [r for r in steps if r["rank"] == rr.rank]
        rhs_sum = sum(r["phases"].get("RHS", 0.0) for r in mine)
        assert rhs_sum == pytest.approx(rr.timers["RHS"], rel=1e-6)


def test_flight_analysis_of_a_real_run(tmp_path):
    path = str(tmp_path / "flight.jsonl")
    run_sim(steps=4, ranks=2, flight_out=path)
    analysis = analyze_flight(path)
    assert analysis.nsteps == 4
    assert analysis.ranks == 2
    assert analysis.mean_lif >= 1.0
    assert analysis.max_lif >= analysis.mean_lif
    report = format_flight_report(analysis)
    assert "Flight analysis: 4 steps x 2 ranks" in report
    assert "Straggler attribution" in report
    assert "Critical path" in report


def test_cli_analyze_flight(tmp_path, capsys):
    path = str(tmp_path / "flight.jsonl")
    assert cli_main(["run", "--cells", "16", "--bubbles", "1",
                     "--steps", "2", "--ranks", "2",
                     "--flight-out", path]) == 0
    out = capsys.readouterr().out
    assert "flight recording written to" in out
    assert cli_main(["analyze-flight", path]) == 0
    report = capsys.readouterr().out
    assert "Flight analysis: 2 steps x 2 ranks" in report


def test_cli_analyze_flight_bad_file_is_exit_2(tmp_path, capsys):
    missing = str(tmp_path / "nope.jsonl")
    assert cli_main(["analyze-flight", missing]) == 2
    assert "error:" in capsys.readouterr().err


def test_config_validates_progress_interval():
    with pytest.raises(ValueError, match="progress_interval"):
        SimulationConfig(cells=16, block_size=8, progress_interval=-1)


# -- structured logger ----------------------------------------------------


def test_logger_emits_parsable_logfmt_lines():
    buf = io.StringIO()
    log = StructuredLogger("unit.test", stream=buf)
    line = log.info("progress", step=12, pct=40.0)
    assert line is not None and buf.getvalue().strip() == line
    fields = dict(tok.split("=", 1) for tok in line.split(" "))
    assert fields["level"] == "info"
    assert fields["logger"] == "unit.test"
    assert fields["event"] == "progress"
    assert fields["step"] == "12"
    assert float(fields["ts"]) > 0


def test_logger_quotes_values_with_spaces():
    buf = io.StringIO()
    line = StructuredLogger("t", stream=buf).info("e", msg="two words")
    assert 'msg="two words"' in line


def test_logger_level_threshold_suppresses():
    buf = io.StringIO()
    log = StructuredLogger("t", stream=buf, level="warn")
    assert log.info("quiet") is None
    assert buf.getvalue() == ""
    assert log.error("loud") is not None
    assert log.emitted == 1


def test_logger_rejects_unknown_levels():
    with pytest.raises(ValueError, match="level"):
        StructuredLogger("t", level="chatty")
    with pytest.raises(ValueError, match="level"):
        StructuredLogger("t").event("e", level="chatty")


def test_get_logger_is_cached_per_name():
    assert get_logger("unit.cache") is get_logger("unit.cache")
    assert get_logger("unit.cache") is not get_logger("unit.other")


# -- progress reporter ----------------------------------------------------


def test_progress_reporter_emits_on_interval_and_final_step():
    buf = io.StringIO()
    log = StructuredLogger("progress.test", stream=buf)
    pr = ProgressReporter(total_steps=10, cells=1000, interval=4,
                          logger=log)
    for s in range(1, 11):
        pr.step(s, sim_time=s * 0.1, dt=0.1)
    lines = buf.getvalue().strip().splitlines()
    assert pr.heartbeats == len(lines) == 3  # steps 4, 8 and final 10
    assert "step=4" in lines[0]
    assert "step=8" in lines[1]
    assert "step=10" in lines[2] and "pct=100" in lines[2]
    assert all("eta_s=" in ln and "gcells_per_s=" in ln for ln in lines)


def test_progress_reporter_includes_imbalance_when_known():
    buf = io.StringIO()
    pr = ProgressReporter(total_steps=2, cells=10, interval=1,
                          logger=StructuredLogger("t", stream=buf))
    pr.step(1, imbalance=0.25)
    pr.step(2)
    lines = buf.getvalue().splitlines()
    assert "imbalance=0.25" in lines[0]
    assert "imbalance" not in lines[1]


def test_progress_reporter_rejects_nonpositive_interval():
    with pytest.raises(ValueError, match="interval"):
        ProgressReporter(total_steps=10, cells=1, interval=0)


def test_driver_progress_heartbeat_routes_through_the_logger():
    logger = get_logger("telemetry.progress")
    buf = io.StringIO()
    old_stream, logger.stream = logger.stream, buf
    try:
        run_sim(steps=4, ranks=2, progress_interval=2)
    finally:
        logger.stream = old_stream
    lines = buf.getvalue().strip().splitlines()
    assert len(lines) == 2  # steps 2 and 4 (final == interval hit)
    assert all("logger=telemetry.progress" in ln for ln in lines)
    assert all("imbalance=" in ln for ln in lines)


# -- overhead budget (tentpole acceptance) --------------------------------


@pytest.mark.slow
def test_flight_recorder_overhead_under_five_percent(tmp_path):
    from repro.telemetry.clock import now

    def timed(**kw):
        best = float("inf")
        for _ in range(3):
            t0 = now()
            run_sim(steps=6, ranks=1, cells=32, block_size=16,
                    telemetry="metrics", diag_interval=0, **kw)
            best = min(best, now() - t0)
        return best

    base = timed()
    flight = timed(flight_out=str(tmp_path / "f.jsonl"))
    overhead = (flight - base) / base
    assert overhead < 0.05, f"flight overhead {overhead:.1%} >= 5%"

"""Tests of ``repro.telemetry``: tracer, exporters, scorecard, driver wiring."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cluster import Simulation
from repro.sim import SimulationConfig
from repro.sim.erosion import ErosionModel
from repro.sim.ic import uniform
from repro.telemetry import (
    MODES,
    MetricsSnapshot,
    PhaseTimers,
    SpanEvent,
    Tracer,
    chrome_trace_events,
    format_run_scorecard,
    io_fraction,
    make_tracer,
    metrics_json,
    run_scorecard_rows,
    run_trace_events,
    write_chrome_trace,
)


def run_sim(tmp_path=None, telemetry="off", steps=2, ranks=1, **kw):
    config = SimulationConfig(
        cells=16, block_size=8, max_steps=steps, ranks=ranks,
        telemetry=telemetry,
        **({"dump_dir": str(tmp_path)} if tmp_path is not None else {}),
        **kw,
    )
    return Simulation(config, uniform()).run()


# -- PhaseTimers & Tracer -------------------------------------------------


def test_phase_timers_accumulate_and_keep_dict_shape():
    timers = PhaseTimers()
    with timers.span("RHS"):
        pass
    with timers.span("RHS"):
        pass
    assert isinstance(timers, dict)
    assert set(timers) == {"RHS"}
    assert timers["RHS"] >= 0.0
    assert timers.calls["RHS"] == 2
    assert dict(timers) == {"RHS": timers["RHS"]}


def test_phase_timers_span_objects_are_cached():
    timers = PhaseTimers()
    assert timers.span("UP") is timers.span("UP")


def test_phase_span_is_reentrant():
    timers = PhaseTimers()
    with timers.span("X"):
        with timers.span("X"):
            pass
    assert timers.calls["X"] == 2


def test_make_tracer_off_returns_none():
    assert make_tracer("off") is None
    with pytest.raises(ValueError):
        make_tracer("bogus")
    with pytest.raises(ValueError):
        Tracer(mode="off")
    assert MODES == ("off", "metrics", "trace")


def test_tracer_counters_and_metrics_mode_records_no_events():
    tr = make_tracer("metrics", rank=3)
    tr.count("steps")
    tr.count("cell_steps", 4096)
    tr.count("cell_steps", 4096)
    with tr.span("DT"):
        pass
    assert tr.counters == {"steps": 1, "cell_steps": 8192}
    assert tr.events == []
    assert tr.rank == 3


def test_tracer_trace_mode_records_nested_events():
    tr = make_tracer("trace")
    with tr.span("IO_WAVELET"):
        with tr.span("IO_FWT"):
            pass
        with tr.span("IO_WRITE"):
            pass
    names = [e.name for e in tr.events]
    # spans complete innermost-first
    assert names == ["IO_FWT", "IO_WRITE", "IO_WAVELET"]
    depths = {e.name: e.depth for e in tr.events}
    assert depths == {"IO_FWT": 1, "IO_WRITE": 1, "IO_WAVELET": 0}
    outer = tr.events[-1]
    for inner in tr.events[:-1]:
        assert inner.start >= outer.start
        assert inner.start + inner.duration <= (
            outer.start + outer.duration + 1e-9
        )


def test_tracer_event_buffer_is_bounded():
    tr = make_tracer("trace", max_events=2)
    for _ in range(5):
        with tr.span("RHS"):
            pass
    assert len(tr.events) == 2
    assert tr.events_dropped == 3
    assert tr.calls["RHS"] == 5  # timing still accumulates past the bound


# -- MetricsSnapshot ------------------------------------------------------


def test_snapshot_roundtrips_through_json():
    tr = make_tracer("metrics")
    with tr.span("RHS"):
        pass
    tr.count("rhs_cell_updates", 1000)
    snap = tr.snapshot(wall_seconds=2.0)
    d = json.loads(metrics_json(snap))
    assert d["mode"] == "metrics"
    assert d["wall_seconds"] == 2.0
    assert d["counters"]["rhs_cell_updates"] == 1000
    assert "RHS" in d["phase_seconds"]
    assert d["phase_calls"]["RHS"] == 1


def test_snapshot_modeled_flops_prices_counters():
    from repro.perf.kernels import DT, FWT, RHS, UP

    snap = MetricsSnapshot(
        mode="metrics", rank=0, ranks=1, wall_seconds=2.0,
        counters={
            "rhs_cell_updates": 10,
            "dt_cell_evals": 5,
            "up_cell_updates": 4,
            "fwt_cells": 3,
        },
    )
    expect = (10 * RHS.flops_per_cell + 5 * DT.flops_per_cell
              + 4 * UP.flops_per_cell + 3 * FWT.flops_per_cell)
    assert snap.modeled_flops() == expect
    assert snap.modeled_flop_rate() == expect / 2.0


def test_snapshot_merge_means_phases_and_sums_counters():
    a = MetricsSnapshot(mode="metrics", rank=0, ranks=1, wall_seconds=1.0,
                        phase_seconds={"RHS": 2.0}, phase_calls={"RHS": 3},
                        counters={"steps": 3}, events_recorded=1)
    b = MetricsSnapshot(mode="metrics", rank=1, ranks=1, wall_seconds=3.0,
                        phase_seconds={"RHS": 4.0, "DT": 1.0},
                        phase_calls={"RHS": 3, "DT": 3},
                        counters={"steps": 3, "halo_bytes": 10},
                        events_dropped=2)
    m = MetricsSnapshot.merged([a, b])
    assert m.rank is None and m.ranks == 2
    assert m.wall_seconds == 3.0  # max over ranks
    assert m.phase_seconds["RHS"] == pytest.approx(3.0)  # mean
    assert m.phase_seconds["DT"] == pytest.approx(0.5)  # missing -> 0
    assert m.counters == {"steps": 6, "halo_bytes": 10}  # summed
    assert m.phase_calls == {"RHS": 6, "DT": 3}
    assert m.events_recorded == 1 and m.events_dropped == 2
    with pytest.raises(ValueError):
        MetricsSnapshot.merged([])


# -- Chrome trace export --------------------------------------------------


def test_chrome_trace_events_shape():
    events = {
        0: [SpanEvent("RHS", start=0.5, duration=0.25, depth=0)],
        1: [SpanEvent("DT", start=0.1, duration=0.05, depth=0)],
    }
    out = chrome_trace_events(events)
    meta = [e for e in out if e["ph"] == "M"]
    xs = [e for e in out if e["ph"] == "X"]
    assert len(meta) == 2 and len(xs) == 2
    assert meta[0]["args"]["name"] == "rank 0"
    rhs = next(e for e in xs if e["name"] == "RHS")
    assert rhs["ts"] == pytest.approx(0.5e6)
    assert rhs["dur"] == pytest.approx(0.25e6)
    assert rhs["tid"] == 0 and rhs["pid"] == 0
    assert rhs["args"]["depth"] == 0


def test_run_trace_events_requires_trace_mode():
    result = run_sim(telemetry="metrics", steps=1)
    with pytest.raises(ValueError, match="no trace events"):
        run_trace_events(result)


# -- driver integration ---------------------------------------------------


#: The phases of every step: what the ladder's second path (all but RHS)
#: and the Fig. 7 distribution read from ``StepRecord.timers``.
STEP_PHASES = {"DT", "RHS", "COMM_WAIT", "UP"}
#: The phases the optional per-step work adds.
WORK_PHASES = {"DIAG", "IO_WAVELET", "IO_COLLECT", "IO_FWT", "IO_WRITE",
               "CHECKPOINT", "EROSION"}


def _assert_cumulative(records, phases):
    """Every record's timers hold exactly ``phases``, none decreasing."""
    prev: dict = {}
    for rec in records:
        assert set(rec.timers) == phases
        assert all(v >= prev.get(k, 0.0) for k, v in rec.timers.items())
        prev = rec.timers


def test_driver_off_keeps_legacy_timers_and_no_telemetry(tmp_path):
    result = run_sim(telemetry="off", steps=3, diag_interval=0)
    assert result.telemetry is None
    for rr in result.rank_results:
        assert rr.telemetry is None
        assert rr.trace_events is None
    # legacy timers shape: plain dict of phase -> seconds
    rec = result.records[-1]
    assert isinstance(rec.timers, dict)
    assert all(isinstance(v, float) for v in rec.timers.values())
    _assert_cumulative(result.records, STEP_PHASES)
    # wall clock and throughput exist even with telemetry off
    assert result.wall_seconds > 0.0
    assert result.cells_per_second > 0.0
    # the optional work adds its own phases and moves none of the step's
    result = run_sim(tmp_path, telemetry="off", steps=3, diag_interval=1,
                     dump_interval=1, checkpoint_interval=1,
                     checkpoint_dir=str(tmp_path), wall=(2, -1),
                     erosion=ErosionModel(p_threshold=50.0))
    _assert_cumulative(result.records, STEP_PHASES | WORK_PHASES)


def test_driver_metrics_mode_counts_the_run():
    result = run_sim(telemetry="metrics", steps=3, ranks=2)
    snap = result.telemetry
    assert snap is not None
    assert snap.rank is None and snap.ranks == 2
    ncells = 16 ** 3
    # counters are global sums: every rank counts its own cells
    assert snap.counters["steps"] == 3 * 2
    assert snap.counters["cell_steps"] == 3 * ncells
    assert snap.counters["allreduce_calls"] == 3 * 2
    # 3 RK stages x 3 steps touch every cell once per stage, per side
    assert snap.counters["rhs_cell_updates"] == 3 * 3 * ncells
    assert snap.counters["up_cell_updates"] == 3 * 3 * ncells
    assert snap.counters["dt_cell_evals"] == 3 * ncells
    # 2 ranks exchange halos every stage
    assert snap.counters["halo_messages"] > 0
    assert snap.counters["halo_bytes"] > 0
    assert snap.modeled_flops() > 0
    # metrics mode records no span events
    assert snap.events_recorded == 0
    for rr in result.rank_results:
        assert rr.trace_events is None
        assert rr.telemetry.rank == rr.rank


def test_driver_trace_mode_produces_loadable_chrome_trace(tmp_path):
    result = run_sim(telemetry="trace", steps=2, ranks=2)
    for rr in result.rank_results:
        assert rr.trace_events, f"rank {rr.rank} recorded no events"
    path = tmp_path / "trace.json"
    n = write_chrome_trace(str(path), result)
    doc = json.loads(path.read_text())
    assert doc["displayTimeUnit"] == "ms"
    events = doc["traceEvents"]
    assert len(events) == n
    xs = [e for e in events if e["ph"] == "X"]
    names = {e["name"] for e in xs}
    assert {"RHS", "DT", "UP", "COMM_WAIT"} <= names
    assert {e["tid"] for e in xs} == {0, 1}
    for e in xs:
        assert e["dur"] >= 0.0 and e["ts"] >= 0.0


def test_step_record_timers_identical_shape_on_and_off():
    off = run_sim(telemetry="off")
    on = run_sim(telemetry="trace")
    assert set(off.records[-1].timers) == set(on.records[-1].timers)
    assert set(off.timers) == set(on.timers)


# -- scorecard ------------------------------------------------------------


def test_scorecard_off_still_reports_phases_and_throughput():
    result = run_sim(telemetry="off")
    rows = run_scorecard_rows(result)
    labels = [r["phase"] for r in rows]
    assert "RHS" in labels and "TOTAL (wall)" in labels
    assert "throughput" in labels and "I/O fraction" in labels
    assert "modeled compute" not in labels  # needs counters
    card = format_run_scorecard(result)
    assert "Run scorecard" in card and "RHS" in card


def test_scorecard_with_telemetry_adds_counter_rows():
    result = run_sim(telemetry="metrics", steps=2, ranks=2)
    rows = {r["phase"]: r for r in run_scorecard_rows(result)}
    assert rows["modeled compute"]["GFLOP/s"] > 0
    assert rows["halo traffic"]["messages"] > 0
    assert rows["RHS"]["calls"] > 0
    card = format_run_scorecard(result)
    assert "GFLOP/s" in card


def test_compression_time_accounted_in_scorecard(tmp_path):
    # Satellite: a dumping run must report the IO_WAVELET phase, nonzero,
    # and feed the scorecard's I/O-fraction row.
    result = run_sim(tmp_path, telemetry="metrics", steps=2,
                     dump_interval=1)
    assert result.timers.get("IO_WAVELET", 0.0) > 0.0
    assert result.timers.get("IO_FWT", 0.0) > 0.0
    assert result.timers.get("IO_WRITE", 0.0) > 0.0
    assert result.timers.get("IO_COLLECT", 0.0) > 0.0
    frac = io_fraction(result)
    assert 0.0 < frac <= 1.0
    snap = result.telemetry
    assert snap.counters["fwt_cells"] == 2 * 2 * 16 ** 3  # 2 dumps x p+Gamma
    assert snap.counters["io_raw_bytes"] > 0
    assert snap.counters["io_compressed_bytes"] > 0
    rows = {r["phase"]: r for r in run_scorecard_rows(result)}
    assert rows["I/O fraction"]["share [%]"] == pytest.approx(100 * frac)
    assert "check" in rows["I/O fraction"]
    assert rows["dump compression"]["rate"] > 1.0
    # nested phases are labeled as contained in IO_WAVELET
    assert "IO_FWT (in IO_WAVELET)" in rows
    assert "IO_COLLECT (in IO_WAVELET)" in rows
    card = format_run_scorecard(result)
    assert "I/O fraction" in card


def test_io_fraction_zero_without_dumps():
    result = run_sim(telemetry="off", steps=1)
    assert io_fraction(result) == 0.0


# -- config validation ----------------------------------------------------


def test_config_rejects_bad_telemetry():
    with pytest.raises(ValueError, match="telemetry"):
        SimulationConfig(cells=16, block_size=8, telemetry="verbose")


@pytest.mark.parametrize("knob", ["telemetry_max_events",
                                  "flight_flush_every"])
def test_buffer_bounds_are_not_config_fields(knob):
    """The span-buffer bound and the flight flush cadence are the module
    constants ``tracer.DEFAULT_MAX_EVENTS`` and
    ``flight.FLUSH_EVERY``; a run cannot set them."""
    with pytest.raises(TypeError, match=knob):
        SimulationConfig(cells=16, block_size=8, **{knob: 64})


def test_timestepper_advance_traces_stages():
    from repro.core.timestepper import make_stepper

    tr = make_tracer("trace")
    stepper = make_stepper("rk3")
    U = np.ones((4, 4), dtype=np.float64)
    out = stepper.advance(U, lambda u: -u, 1e-3, tracer=tr)
    ref = make_stepper("rk3").advance(U, lambda u: -u, 1e-3)
    np.testing.assert_allclose(out, ref)
    assert tr.calls["RHS"] == 3 and tr.calls["UP"] == 3
    assert tr.counters["rhs_cell_updates"] == 3 * 4  # leading-dim cells


# -- Chrome trace exporter round-trip (satellite) -------------------------


def test_chrome_trace_roundtrip_counts_and_rank_mapping(tmp_path):
    result = run_sim(telemetry="trace", steps=3, ranks=2)
    path = tmp_path / "trace.json"
    n = write_chrome_trace(str(path), result)
    with open(path) as f:
        doc = json.load(f)
    events = doc["traceEvents"]
    assert len(events) == n
    # One thread-name metadata record per rank, all in pid 0.
    metas = [e for e in events if e["ph"] == "M"]
    assert {m["tid"] for m in metas} == {0, 1}
    assert all(m["pid"] == 0 for m in metas)
    # Every span of every rank survives the round trip, mapped to the
    # rank's tid.
    xs = [e for e in events if e["ph"] == "X"]
    per_rank = {rr.rank: len(rr.trace_events) for rr in result.rank_results}
    got: dict[int, int] = {}
    for e in xs:
        assert e["pid"] == 0
        got[e["tid"]] = got.get(e["tid"], 0) + 1
    assert got == per_rank


def test_chrome_trace_timestamps_monotonic_per_rank(tmp_path):
    # Spans are appended at exit, so within one rank (and one nesting
    # depth) start timestamps must be non-decreasing; a violation means
    # the exporter scrambled the timeline.
    result = run_sim(tmp_path, telemetry="trace", steps=2, ranks=2,
                     dump_interval=1)
    with open(tmp_path / "t.json", "w") as f:
        json.dump({"traceEvents": run_trace_events(result)}, f)
    with open(tmp_path / "t.json") as f:
        xs = [e for e in json.load(f)["traceEvents"] if e["ph"] == "X"]
    seen_depths = set()
    for rank in (0, 1):
        by_depth: dict[int, list[float]] = {}
        for e in xs:
            if e["tid"] == rank:
                by_depth.setdefault(e["args"]["depth"], []).append(e["ts"])
        seen_depths |= set(by_depth)
        for ts in by_depth.values():
            assert all(a <= b for a, b in zip(ts, ts[1:]))
    # The dump run exercises nesting (IO_FWT/IO_WRITE inside IO_WAVELET).
    assert {0, 1} <= seen_depths


# -- degenerate-denominator guards (satellite) ----------------------------


def test_safe_rate_guards_zero_and_nonfinite_denominators():
    from repro.telemetry import DEGENERATE_COUNTS, safe_rate

    before = DEGENERATE_COUNTS.get("unit_test_guard", 0)
    assert safe_rate(5.0, 0.0, "unit_test_guard") == 0.0
    assert safe_rate(5.0, 1e-12, "unit_test_guard") == 0.0
    assert safe_rate(5.0, float("nan"), "unit_test_guard") == 0.0
    assert safe_rate(5.0, float("inf"), "unit_test_guard") == 0.0
    assert DEGENERATE_COUNTS["unit_test_guard"] == before + 4
    assert safe_rate(5.0, 2.0, "unit_test_guard") == 2.5
    assert DEGENERATE_COUNTS["unit_test_guard"] == before + 4


def test_io_fraction_degenerate_wall_returns_zero_not_inf():
    from repro.telemetry import DEGENERATE_COUNTS

    result = run_sim(telemetry="off", steps=1)
    result.timers["IO_WAVELET"] = 1.0  # pretend the run dumped
    result.wall_seconds = 0.0
    before = DEGENERATE_COUNTS.get("io_fraction_degenerate_wall", 0)
    assert io_fraction(result) == 0.0
    assert DEGENERATE_COUNTS["io_fraction_degenerate_wall"] == before + 1


def test_cells_per_second_degenerate_wall_returns_zero():
    result = run_sim(telemetry="off", steps=1)
    result.wall_seconds = 0.0
    assert result.cells_per_second == 0.0


# -- cross-rank imbalance scorecard row (tentpole) ------------------------


def test_scorecard_multirank_run_gets_a_load_imbalance_row():
    result = run_sim(telemetry="off", steps=2, ranks=2)
    rows = {r["phase"]: r for r in run_scorecard_rows(result)}
    row = rows["load imbalance"]
    assert row["factor"] >= 1.0
    assert row["spread"] >= 0.0
    assert "bound" in row["check"]
    assert "rank" in row["check"]


def test_scorecard_single_rank_run_has_no_imbalance_row():
    result = run_sim(telemetry="off", steps=1, ranks=1)
    labels = [r["phase"] for r in run_scorecard_rows(result)]
    assert "load imbalance" not in labels

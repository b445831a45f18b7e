"""Tests of the benchmark's own arithmetic, generators and verdicts.

Run explicitly (tier-1 ``testpaths`` stays ``tests``)::

    python -m pytest benchmarks/ladder -q
"""

import json
import os
import re
import subprocess
import sys

import pytest

import run  # noqa: F401 -- puts <checkout>/src on sys.path

import catalog
import inputs
import layers
import report
import steploop
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


# -- span arithmetic -----------------------------------------------------------

def rows(*spans):
    """Span rows from ``(name, parent, start, end)`` with step 1."""
    return [[n, p, a, b, 1] for n, p, a, b in spans]


def test_self_time_is_duration_minus_children():
    r = rows(("step", -1, 0.0, 10.0), ("dt_max_sos", 0, 1.0, 3.0),
             ("up", 0, 4.0, 9.0), ("inner", 2, 5.0, 6.0))
    assert steploop.self_times(r) == [3.0, 2.0, 4.0, 1.0]


def test_step_budget_rows_sum_to_one_and_name_the_remainder():
    rank0 = rows(("rank", -1, 0.0, 20.0), ("step", 0, 0.0, 10.0),
                 ("rhs_interior", 1, 0.0, 6.0), ("up", 1, 6.0, 9.0))
    rank1 = rows(("step", -1, 0.0, 10.0), ("rhs_halo", 0, 2.0, 10.0))
    budget = steploop.step_budget([rank0, rank1])
    assert sum(budget.values()) == pytest.approx(1.0)
    assert budget["rhs_interior"] == pytest.approx(6 / 20)
    assert budget["rhs_halo"] == pytest.approx(8 / 20)
    assert budget["unattributed"] == pytest.approx(3 / 20)
    assert set(budget) == set(steploop.STEP_PHASES) | {"unattributed"}


def test_span_log_records_parents_and_steps():
    log = steploop.SpanLog()
    with log.span("rank"):
        log.step = 3
        with log.span("step"):
            with log.span("up"):
                pass
    names = [(r[0], r[1], r[4]) for r in log.rows]
    assert names == [("rank", -1, 0), ("step", 0, 3), ("up", 1, 3)]
    assert all(r[3] >= r[2] for r in log.rows)


def test_chrome_trace_ids_name_run_rank_and_step():
    ranks = [{"rank": 1, "spans": rows(("step", -1, 2.0, 3.0))}]
    doc = steploop.chrome_trace([("halo2_b8/procs2/0", ranks)])
    event = [e for e in doc["traceEvents"] if e["ph"] == "X"][0]
    assert event["args"]["id"] == "halo2_b8/procs2/0/1/1"
    assert event["ts"] == 0.0 and event["dur"] == pytest.approx(1e6)


# -- seeded inputs ---------------------------------------------------------------

def test_same_seed_same_inputs_other_seed_other_inputs():
    a = inputs.bubbles(7, "cloud32_b8", 8, (0.5, 0.5, 0.5))
    assert a == inputs.bubbles(7, "cloud32_b8", 8, (0.5, 0.5, 0.5))
    assert a != inputs.bubbles(8, "cloud32_b8", 8, (0.5, 0.5, 0.5))
    assert a != inputs.bubbles(7, "cloud64_b32", 8, (0.5, 0.5, 0.5))
    assert inputs.service_mix(7, 20) == inputs.service_mix(7, 20)
    assert inputs.service_mix(7, 20) != inputs.service_mix(8, 20)


def test_service_mix_repeats_every_key_three_times():
    ic_seeds, order = inputs.service_mix(3, 11)
    assert len(set(ic_seeds)) == 11
    assert sorted(order) == sorted(list(range(11)) * 3)
    keys = {inputs.service_request(s).key() for s in ic_seeds}
    assert len(keys) == 11


# -- host speed ------------------------------------------------------------------------

def test_host_factor_is_median_of_mean_shares_per_phase_and_kernel(tmp_path):
    host = layers.HostSpeed(str(tmp_path))
    host.read()
    assert set(host.readings[0]) == set(host.REFERENCE_S)
    assert all(v > 0 for v in host.readings[0].values())
    kernels = tuple(host.REFERENCE_S)
    host.readings = [dict.fromkeys(kernels, v) for v in (1.0, 1.2, 5.0)]
    host.readings.append({**dict.fromkeys(kernels, 2.0), "file": 4.0})
    assert host.factor() == pytest.approx((1.2 + 2.5) / 2)
    assert host.factor(0, 3) == 1.2
    assert host.factor(3, kernels=("file", "interpreter")) == 3.0


def test_paired_reading_takes_the_slower_process_and_stops_its_partner(tmp_path):
    import multiprocessing

    host = layers.HostSpeed(str(tmp_path), paired=True)
    try:
        host.watch(0.0)
        assert len(host.readings) == len(host.paired_readings) == 1
        assert set(host.paired_readings[0]) == set(host.REFERENCE_S)
        assert all(v > 0 for v in host.paired_readings[0].values())
    finally:
        host.close()
    assert not multiprocessing.active_children()
    host.paired_readings = [dict.fromkeys(host.REFERENCE_S, v)
                            for v in (1.0, 1.5, 9.0)]
    assert host.paired_factor() == 1.5


def test_timings_are_reported_at_reference_host_speed(tmp_path):
    host = layers.HostSpeed(str(tmp_path))
    host.readings = [dict.fromkeys(host.REFERENCE_S, 1.25)]
    raw = {"mcells_per_s": 8.0, "second_path_ms": 10.0, "setup_s": 2.0}
    metrics, extras = workloads.end_to_end(host, raw)
    assert metrics == pytest.approx(
        {"mcells_per_s": 10.0, "second_path_ms": 8.0, "setup_s": 1.6})
    assert extras["setup_s_raw"] == (2.0, "s")
    metrics, _ = workloads.end_to_end(
        host, raw, {"mcells_per_s": 1.0, "second_path_ms": 2.0, "setup_s": 4.0})
    assert metrics == pytest.approx(
        {"mcells_per_s": 8.0, "second_path_ms": 5.0, "setup_s": 0.5})


# -- compare verdicts --------------------------------------------------------------

def test_closure_gates_name_what_is_above_its_ceiling():
    closed = {"step.unattributed_frac": 0.002, "trace_overhead_frac": 0.05}
    assert workloads.closure_gates("w", closed, smoke=False) == []
    noisy = {"step.unattributed_frac": 0.06, "trace_overhead_frac": 0.2}
    found = workloads.closure_gates("w", noisy, smoke=False)
    assert [f.split()[1] for f in found] == ["step.unattributed_frac",
                                             "trace_overhead_frac"]
    # one smoke pair of one or two steps is all noise: no overhead ceiling
    assert len(workloads.closure_gates("w", noisy, smoke=True)) == 1


def test_verdict_ok_worse_unresolved():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert report.verdict(steady, [v * 0.95 for v in steady],
                          "higher", 0.10)[0] == "ok"
    word, worsening = report.verdict(steady, [v * 0.85 for v in steady],
                                     "higher", 0.10)
    assert word == "worse" and worsening == pytest.approx(0.15)
    assert report.verdict(steady, [v * 1.2 for v in steady],
                          "lower", 0.10)[0] == "worse"
    noisy = [100.0, 130.0, 80.0, 120.0, 70.0]
    assert report.verdict(noisy, steady, "higher", 0.10)[0] == "unresolved"
    # ... unless every run of the change beats every run of the parent
    assert report.verdict(noisy, [v * 2 for v in steady],
                          "higher", 0.10)[0] == "ok"


def test_compare_reports_each_workload_row_and_flags_worse():
    def doc(scale):
        return {"runs": [
            {"workload": w, "trace": 0, "metrics": {
                n: {"value": 10.0 * scale + i * 0.01, "unit": u}
                for n, u, _, _ in catalog.END_TO_END}}
            for w in catalog.WORKLOADS for i in range(4)]}
    table, any_worse = report.compare(doc(1.0), doc(1.0))
    assert not any_worse
    assert all(w in table for w in catalog.WORKLOADS)
    table, any_worse = report.compare(doc(1.0), doc(0.5))
    assert any_worse and "worse" in table


# -- the catalog and BENCHMARK.json --------------------------------------------------

def test_benchmark_json_mirrors_the_catalog_and_meets_the_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        doc = json.load(f)
    assert doc == catalog.benchmark_json(doc["run_seconds"])
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")
    names = ([w["name"] for w in doc["workloads"]]
             + [m["name"] for m in doc["end_to_end"] + doc["per_layer"]])
    assert len(names) == len(set(names)) and all(map(name.match, names))
    assert all(unit.match(m["unit"])
               for m in doc["end_to_end"] + doc["per_layer"])
    assert all(len(w["why"]) <= 200 for w in doc["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    assert "setup_s" in [m["name"] for m in doc["end_to_end"]]
    assert 2 <= len(doc["workloads"]) <= 8 and len(doc["per_layer"]) <= 128


# -- the smoke ladder -------------------------------------------------------------------

def test_smoke_ladder_passes_its_checks(tmp_path):
    out = tmp_path / "smoke.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke", "--out",
         str(out)], capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    doc = report.load_results(str(out))
    assert len(doc["runs"]) == 2 * len(catalog.WORKLOADS)
    for entry in doc["runs"]:
        expected = (catalog.PER_LAYER if entry["trace"]
                    else catalog.END_TO_END)
        assert entry["correct"] and entry["failed"] == 0
        assert sorted(entry["metrics"]) == sorted(m[0] for m in expected)
    assert doc["provenance"]["nproc"] == os.cpu_count()
    assert not os.path.exists(os.path.join(HERE, ".work"))

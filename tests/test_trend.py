"""Tests of the perf-trajectory provenance, history and regression gate."""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from repro.telemetry import trend

REPO_ROOT = Path(__file__).resolve().parents[1]


def fresh_record(rhs=0.002, weno5=0.004):
    return {
        "schema": trend.KERNEL_SCHEMA_V2,
        "provenance": trend.provenance(),
        "kernels": {
            "rhs": {"wall_s": 0.1, "gcells_per_s": rhs},
            "weno5": {"wall_s": 0.05, "gcells_per_s": weno5},
        },
    }


# -- provenance -----------------------------------------------------------


def test_provenance_block_has_the_required_keys():
    prov = trend.provenance()
    assert set(prov) == {"host", "git_sha", "timestamp", "python", "numpy"}
    assert len(prov["host"]) == 12
    assert int(prov["host"], 16) >= 0  # hex fingerprint
    assert prov["timestamp"].startswith("20")
    assert "+00:00" in prov["timestamp"]  # UTC, ISO 8601


def test_host_fingerprint_is_stable_within_a_process():
    assert trend.host_fingerprint() == trend.host_fingerprint()


def test_git_sha_of_this_repo_and_of_a_gitless_dir(tmp_path):
    sha = trend.git_sha(REPO_ROOT)
    assert len(sha) == 40 and int(sha, 16) >= 0
    assert trend.git_sha(tmp_path) == "unknown"


def test_stamp_upgrades_v1_and_preserves_existing_provenance():
    v1 = {"schema": trend.KERNEL_SCHEMA_V1,
          "kernels": {"rhs": {"gcells_per_s": 1.0}}}
    out = trend.stamp(v1)
    assert out["schema"] == trend.KERNEL_SCHEMA_V2
    assert "provenance" in out
    assert "provenance" not in v1  # original untouched
    marked = fresh_record()
    marked["provenance"]["git_sha"] = "cafebabe"
    assert trend.stamp(marked)["provenance"]["git_sha"] == "cafebabe"


# -- record / history round-trip ------------------------------------------


def test_load_record_validates_schema_and_kernels(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(fresh_record()))
    assert "rhs" in trend.load_record(good)["kernels"]

    bad_schema = tmp_path / "bad1.json"
    bad_schema.write_text(json.dumps({"schema": "nope/v0", "kernels": {}}))
    with pytest.raises(ValueError, match="unknown bench schema"):
        trend.load_record(bad_schema)

    no_prov = tmp_path / "bad2.json"
    no_prov.write_text(json.dumps({"schema": trend.KERNEL_SCHEMA_V2,
                                   "kernels": {"rhs": {}}}))
    with pytest.raises(ValueError, match="provenance"):
        trend.load_record(no_prov)

    empty = tmp_path / "bad3.json"
    empty.write_text(json.dumps({"schema": trend.KERNEL_SCHEMA_V1,
                                 "kernels": {}}))
    with pytest.raises(ValueError, match="no kernel timings"):
        trend.load_record(empty)


def test_append_and_load_history_round_trip(tmp_path):
    path = tmp_path / "hist.jsonl"
    trend.append_history(fresh_record(rhs=0.002), path)
    trend.append_history(fresh_record(rhs=0.003), path)
    history = trend.load_history(path)
    assert len(history) == 2
    assert all(r["schema"] == trend.KERNEL_SCHEMA_V2 for r in history)
    assert history[1]["kernels"]["rhs"]["gcells_per_s"] == 0.003
    # Append-only: a third append leaves the first two lines untouched.
    before = path.read_text().splitlines()
    trend.append_history(fresh_record(), path)
    assert path.read_text().splitlines()[:2] == before


def test_load_history_skips_blanks_and_rejects_garbage(tmp_path):
    path = tmp_path / "hist.jsonl"
    line = json.dumps(trend.stamp(fresh_record()))
    path.write_text(line + "\n\n" + line + "\n")
    assert len(trend.load_history(path)) == 2
    path.write_text(line + "\n" + json.dumps({"schema": "x"}) + "\n")
    with pytest.raises(ValueError, match=":2"):
        trend.load_history(path)


def test_trajectory_takes_per_kernel_best_and_prefers_same_host():
    a, b = fresh_record(rhs=0.002), fresh_record(rhs=0.004)
    b["provenance"] = dict(b["provenance"], host="ffffffffffff")
    best = trend.trajectory([a, b])
    assert best["rhs"] == 0.004  # all hosts: global best
    same = trend.trajectory([a, b], host=a["provenance"]["host"])
    assert same["rhs"] == 0.002  # host-matched subset wins
    # Unknown host falls back to the full history.
    assert trend.trajectory([a, b], host="000000000000")["rhs"] == 0.004


# -- the regression gate --------------------------------------------------


def test_check_trend_passes_against_its_own_history():
    rec = fresh_record()
    report = trend.check_trend(rec, [rec])
    assert report.passed
    assert report.regressions() == []
    assert all(r["ratio"] == pytest.approx(1.0) for r in report.rows)


def test_check_trend_fails_a_synthetic_2x_slowdown():
    base = fresh_record(rhs=0.002, weno5=0.004)
    slow = copy.deepcopy(base)
    slow["kernels"]["rhs"]["gcells_per_s"] = 0.001  # 2x slower
    report = trend.check_trend(slow, [base], tolerance=0.5)
    assert not report.passed
    bad = report.regressions()
    assert [r["kernel"] for r in bad] == ["rhs"]
    assert bad[0]["ratio"] == pytest.approx(0.5)
    assert "below" in bad[0]["note"]
    assert "REGRESSION" in report.format()


def test_check_trend_tolerance_sets_the_floor():
    base = fresh_record(rhs=0.002)
    slow = copy.deepcopy(base)
    slow["kernels"]["rhs"]["gcells_per_s"] = 0.001
    assert trend.check_trend(slow, [base], tolerance=1.0).passed
    assert not trend.check_trend(slow, [base], tolerance=0.5).passed
    with pytest.raises(ValueError, match="tolerance"):
        trend.check_trend(slow, [base], tolerance=-0.1)


def test_check_trend_new_kernel_passes_with_a_note():
    base = fresh_record()
    rec = copy.deepcopy(base)
    rec["kernels"]["hlle"] = {"gcells_per_s": 0.01}
    report = trend.check_trend(rec, [base])
    assert report.passed
    note = {r["kernel"]: r["note"] for r in report.rows}
    assert note["hlle"] == "no baseline (new kernel)"


def test_check_trend_uses_host_matched_baseline():
    # The same host once ran rhs at 0.002; some other (faster) machine
    # committed 0.008.  Measuring 0.002 again must PASS -- gating a
    # laptop against a server's baseline would always be red.
    mine = fresh_record(rhs=0.002)
    theirs = fresh_record(rhs=0.008)
    theirs["provenance"] = dict(theirs["provenance"], host="ffffffffffff")
    report = trend.check_trend(mine, [mine, theirs], tolerance=0.5)
    assert report.passed


# -- CLI entry point ------------------------------------------------------


def run_main(*argv):
    return trend.main(list(argv))


def test_main_requires_an_action(tmp_path, capsys):
    assert run_main("--record", str(tmp_path / "r.json")) == 2
    assert "nothing to do" in capsys.readouterr().err


def test_main_check_passes_and_appends(tmp_path, capsys):
    rec_path = tmp_path / "r.json"
    rec_path.write_text(json.dumps(fresh_record()))
    hist = tmp_path / "h.jsonl"
    trend.append_history(fresh_record(), hist)
    code = run_main("--record", str(rec_path), "--history", str(hist),
                    "--check", "--append")
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out and "appended" in out
    assert len(trend.load_history(hist)) == 2


def test_main_check_exits_1_on_regression(tmp_path, capsys):
    base = fresh_record(rhs=0.002)
    slow = copy.deepcopy(base)
    slow["kernels"]["rhs"]["gcells_per_s"] = 0.001
    rec_path = tmp_path / "r.json"
    rec_path.write_text(json.dumps(slow))
    hist = tmp_path / "h.jsonl"
    trend.append_history(base, hist)
    code = run_main("--record", str(rec_path), "--history", str(hist),
                    "--check")
    assert code == 1
    assert "REGRESSION" in capsys.readouterr().out


def test_main_missing_record_or_history_is_exit_2(tmp_path, capsys):
    assert run_main("--record", str(tmp_path / "nope.json"), "--check") == 2
    assert "cannot load record" in capsys.readouterr().err
    rec_path = tmp_path / "r.json"
    rec_path.write_text(json.dumps(fresh_record()))
    assert run_main("--record", str(rec_path),
                    "--history", str(tmp_path / "nope.jsonl"),
                    "--check") == 2
    assert "cannot load history" in capsys.readouterr().err


def test_module_dispatch_routes_trend(capsys):
    from repro.telemetry.__main__ import main as module_main

    assert module_main(["trend"]) == 2  # no action -> usage error
    assert "nothing to do" in capsys.readouterr().err
    assert module_main(["no-such-command"]) == 2
    assert module_main(["--help"]) == 0
    assert "trend" in capsys.readouterr().out


# -- committed artifacts drift tests --------------------------------------


def test_committed_bench_record_is_v2_with_provenance():
    record = trend.load_record(REPO_ROOT / "BENCH_kernels.json")
    assert record["schema"] == trend.KERNEL_SCHEMA_V2
    prov = record["provenance"]
    assert set(prov) >= {"host", "git_sha", "timestamp", "python", "numpy"}
    import sys

    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
    try:
        from bench_throughput import KERNEL_BENCH_CASES
    finally:
        sys.path.remove(str(REPO_ROOT / "benchmarks"))
    assert set(record["kernels"]) == set(KERNEL_BENCH_CASES)
    for row in record["kernels"].values():
        assert row["gcells_per_s"] > 0.0
        assert row["wall_s"] > 0.0


def test_committed_history_loads_and_gates_the_committed_record():
    history = trend.load_history(REPO_ROOT / "BENCH_history.jsonl")
    assert history, "BENCH_history.jsonl must hold >= 1 record"
    record = trend.load_record(REPO_ROOT / "BENCH_kernels.json")
    report = trend.check_trend(record, history)
    assert report.passed, report.format()


# -- ladder records -------------------------------------------------------


def ladder_doc(workload, values, seed0=1, host="7180ce63c0bb", factor=1.5,
               metric="setup_s"):
    """A ladder result file of one run per value (seeds seed0, ...)."""
    return {"schema": "repro.ladder/v1", "provenance": {"host": host},
            "runs": [{"workload": workload, "trace": 0, "seed": seed0 + i,
                      "metrics": {metric: {"value": v, "unit": "s"}},
                      "extras": {f"{metric}_raw": v * factor,
                                 f"{metric}_host_factor": factor}}
                     for i, v in enumerate(values)]}


def build(parent_values, change_values, **kwargs):
    return trend.ladder_record(
        [ladder_doc("halo2_b8", parent_values, factor=1.5)],
        [ladder_doc("halo2_b8", change_values, factor=1.6)],
        pr=99, title="t", parent_sha="a" * 40, change_sha="b" * 40, **kwargs)


def test_ladder_record_summarises_the_pairs():
    record = build([0.30, 0.28, 0.29, 0.31, 0.27],
                   [0.20, 0.21, 0.29, 0.21, 0.20])
    assert record["schema"] == trend.LADDER_SCHEMA
    assert record["host"] == {"fingerprint": "7180ce63c0bb",
                              "factor": {"parent": 1.5, "change": 1.6}}
    (row,) = record["metrics"]
    assert (row["workload"], row["metric"], row["unit"], row["better"],
            row["bound"]) == ("halo2_b8", "setup_s", "s", "lower", 0.25)
    assert row["pairs"] == 5 and row["won"] == 4
    assert row["parent"]["norm"][1] == 0.29
    assert row["change"]["norm"][1] == 0.21
    assert row["change"]["raw"][1] == pytest.approx(0.21 * 1.6)
    q1, med, q3 = row["parent"]["norm"]
    assert q1 < med < q3
    assert row["verdict"] == "ok"


def test_pairs_are_runs_of_one_workload_and_seed():
    parent = ladder_doc("halo2_b8", [0.3, 0.3, 0.3], seed0=1)
    change = ladder_doc("halo2_b8", [0.2, 0.2], seed0=2)
    record = trend.ladder_record([parent], [change], pr=1, title="t",
                                 parent_sha="a", change_sha="b")
    assert record["metrics"][0]["pairs"] == 2
    with pytest.raises(ValueError, match="one host"):
        trend.ladder_record([parent], [ladder_doc("halo2_b8", [0.2],
                                                  host="ffffffffffff")],
                            pr=1, title="t", parent_sha="a", change_sha="b")


def test_verdict_is_the_ladders_compare_rule():
    import sys

    sys.path.insert(0, str(REPO_ROOT / "benchmarks" / "ladder"))
    try:
        import report
    finally:
        sys.path.remove(str(REPO_ROOT / "benchmarks" / "ladder"))
    cases = [
        ([1.0, 1.1, 0.9, 1.0], [1.0, 1.05, 0.95, 1.0], "higher", 0.25),
        ([1.0, 1.1, 0.9, 1.0], [0.5, 0.55, 0.45, 0.5], "higher", 0.25),
        ([1.0, 2.0, 0.5, 1.0], [1.0, 1.9, 0.4, 0.9], "lower", 0.25),
        ([1.0, 2.0, 0.5, 1.0], [0.3, 0.35, 0.2, 0.3], "lower", 0.25),
        ([0.3], [0.2], "lower", 0.1),
    ]
    words = [trend.verdict(*case) for case in cases]
    assert words == [report.verdict(*case)[0] for case in cases]
    assert set(words) == {"ok", "worse", "unresolved"}


def test_ladder_records_append_and_load_beside_kernel_records(tmp_path):
    path = tmp_path / "hist.jsonl"
    trend.append_history(fresh_record(), path)
    record = build([0.3, 0.29], [0.2, 0.21])
    trend.append_history(record, path)
    history = trend.load_history(path)
    assert history[1] == record
    # The kernel gate reads kernel records only.
    assert set(trend.trajectory(history)) == {"rhs", "weno5"}


def transcribed():
    return {"schema": trend.LADDER_SCHEMA, "pr": 5, "title": "t",
            "source": "transcribed", "parent_sha": "a", "change_sha": "b",
            "host": {"fingerprint": "7180ce63c0bb",
                     "factor": {"parent": None, "change": None}},
            "metrics": [{"workload": "halo2_b8", "metric": "setup_s",
                         "unit": "s", "better": "lower", "bound": 0.25,
                         "pairs": 10, "won": 10, "verdict": None,
                         "parent": {"norm": [0.404, 0.421, 0.475],
                                    "raw": [None, 0.591, None]},
                         "change": {"norm": [None, 0.290, None],
                                    "raw": None}}]}


def _set(record, path, value):
    at = record
    for key in path[:-1]:
        at = at[key]
    at[path[-1]] = value
    return record


@pytest.mark.parametrize("path,value", [
    (("source",), "guessed"),
    (("change_sha",), ""),
    (("pr",), "31"),
    (("host", "fingerprint"), None),
    (("metrics",), []),
    (("metrics", 0, "better"), "faster"),
    (("metrics", 0, "won"), 11),
    (("metrics", 0, "pairs"), 0),
    (("metrics", 0, "verdict"), "fine"),
    (("metrics", 0, "parent", "norm"), [0.475, 0.421, 0.404]),
    (("metrics", 0, "parent", "norm"), [0.404, None, 0.475]),
    (("metrics", 0, "change", "norm"), [0.29]),
    (("metrics", 0, "unit"), None),
    (("claim",), {"workload": "halo2_b8", "metric": "mcells_per_s"}),
])
def test_a_malformed_ladder_record_fails_to_load(tmp_path, capsys, path,
                                                 value):
    good = tmp_path / "good.jsonl"
    good.write_text(json.dumps(transcribed()) + "\n")
    assert len(trend.load_history(good)) == 1
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps(transcribed()) + "\n"
                   + json.dumps(_set(transcribed(), path, value)) + "\n")
    with pytest.raises(ValueError, match=":2"):
        trend.load_history(bad)
    assert run_main("--history", str(bad), "--check") == 2
    assert "cannot load history" in capsys.readouterr().err


def test_a_pairs_record_must_be_complete():
    record = build([0.3, 0.29], [0.2, 0.21])
    for path, value in [(("metrics", 0, "verdict"), None),
                        (("metrics", 0, "won"), None),
                        (("metrics", 0, "change", "raw"), None),
                        (("metrics", 0, "change", "norm"), [None, 0.2, None])]:
        with pytest.raises(ValueError):
            trend.append_history(_set(copy.deepcopy(record), path, value),
                                 "/nonexistent/never-written.jsonl")


def test_check_without_a_record_validates_and_prints_the_trajectory(
        tmp_path, capsys):
    path = tmp_path / "hist.jsonl"
    trend.append_history(fresh_record(), path)
    trend.append_history(transcribed(), path)
    trend.append_history(build([0.3, 0.29], [0.2, 0.21]), path)
    assert run_main("--history", str(path), "--check") == 0
    out = capsys.readouterr().out
    assert "3 records valid" in out
    assert "halo2_b8 setup_s (s, lower is better)" in out
    lines = out.splitlines()
    at = lines.index("halo2_b8 setup_s (s, lower is better)")
    assert lines[at + 1].split()[:2] == ["PR", "5"]
    assert "(transcribed)" in lines[at + 1]
    assert lines[at + 2].split()[:2] == ["PR", "99"]
    assert run_main("--history", str(path), "--append") == 2


def test_committed_history_holds_the_ladder_records():
    """Every committed claim holds by the ladder's rule: better in at
    least nine tenths of at least ten pairs, its medians further apart
    than the parent's quartiles."""
    history = trend.load_history(REPO_ROOT / "BENCH_history.jsonl")
    ladder = [r for r in history if r["schema"] == trend.LADDER_SCHEMA]
    assert [r["pr"] for r in ladder] == sorted(r["pr"] for r in ladder)
    claims = [(r, row) for r in ladder if "claim" in r for row in r["metrics"]
              if (row["workload"], row["metric"])
              == (r["claim"]["workload"], r["claim"]["metric"])]
    assert len(claims) >= 5
    for record, row in claims:
        parent, change = row["parent"]["norm"], row["change"]["norm"]
        gain = (change[1] - parent[1]) * (1 if row["better"] == "higher"
                                          else -1)
        assert row["pairs"] >= 10 and row["won"] >= 0.9 * row["pairs"]
        if None not in parent:
            assert gain > parent[2] - parent[0], record["pr"]


def test_folded_pair_files_give_the_medians_they_were_quoted_with():
    """The records built from the first two pair campaigns read what
    their claims quoted: median parent -> change, pairs won."""
    history = trend.load_history(REPO_ROOT / "BENCH_history.jsonl")
    rows = {(r["pr"], r.get("variant"), row["workload"], row["metric"]): row
            for r in history if r["schema"] == trend.LADDER_SCHEMA
            for row in r["metrics"]}
    for key, parent, change, won in [
            ((17, None, "cloud64_b32", "mcells_per_s"), 0.2423, 1.487, 10),
            ((19, None, "cloud32_b8", "mcells_per_s"), 0.9707, 1.607, 10),
            ((19, "compiler hidden", "halo2_b8", "mcells_per_s"), 0.262,
             0.388, 4)]:
        row = rows[key]
        assert row["parent"]["norm"][1] == pytest.approx(parent, rel=2e-3)
        assert row["change"]["norm"][1] == pytest.approx(change, rel=2e-3)
        assert row["won"] == won

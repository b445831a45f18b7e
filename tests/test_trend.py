"""Tests of the performance record: provenance, history and its check."""

from __future__ import annotations

import copy
import json
import subprocess
from pathlib import Path

import pytest

from repro.telemetry import trend

REPO_ROOT = Path(__file__).resolve().parents[1]


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
    """The sha of a repository the test makes itself (so it also passes
    in a source export with no ``.git``), and ``"unknown"`` beside it."""
    repo = tmp_path / "repo"
    repo.mkdir()
    git = ["git", "-C", str(repo), "-c", "user.name=trend test",
           "-c", "user.email=trend@example.invalid",
           "-c", "commit.gpgsign=false"]
    subprocess.run([*git, "init", "-q"], check=True)
    subprocess.run([*git, "commit", "-q", "--allow-empty", "-m", "empty"],
                   check=True)
    head = subprocess.run([*git, "rev-parse", "HEAD"], check=True,
                          capture_output=True, text=True).stdout.strip()
    sha = trend.git_sha(repo)
    assert len(sha) == 40 and int(sha, 16) >= 0
    assert sha == head
    assert trend.git_sha(tmp_path) == "unknown"


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


def test_append_and_load_history_round_trip(tmp_path):
    path = tmp_path / "hist.jsonl"
    first, second = build([0.3, 0.29], [0.2, 0.21]), build([0.3], [0.25])
    trend.append_history(first, path)
    trend.append_history(second, path)
    assert trend.load_history(path) == [first, second]
    # Append-only: a third append leaves the first two lines untouched.
    before = path.read_text().splitlines()
    trend.append_history(first, path)
    assert path.read_text().splitlines()[:2] == before


def test_load_history_skips_blanks_and_rejects_garbage(tmp_path):
    path = tmp_path / "hist.jsonl"
    line = json.dumps(build([0.3], [0.2]))
    path.write_text(line + "\n\n" + line + "\n")
    assert len(trend.load_history(path)) == 2
    kernel = {"schema": "repro.bench_kernels/v2", "provenance": {},
              "kernels": {"rhs": {"gcells_per_s": 1.0}}}
    path.write_text(line + "\n" + json.dumps(kernel) + "\n")
    with pytest.raises(ValueError, match=":2: unknown record schema"):
        trend.load_history(path)


def run_main(*argv):
    return trend.main(list(argv))


def test_main_requires_an_action(tmp_path, capsys):
    assert run_main("--history", str(tmp_path / "h.jsonl")) == 2
    assert "nothing to do" in capsys.readouterr().err
    assert run_main("--history", str(tmp_path / "nope.jsonl"),
                    "--check") == 2
    assert "cannot load history" in capsys.readouterr().err


def test_module_dispatch_routes_trend(capsys):
    from repro.telemetry.__main__ import main as module_main

    assert module_main(["trend"]) == 2  # no action -> usage error
    assert "nothing to do" in capsys.readouterr().err
    assert module_main(["no-such-command"]) == 2
    assert module_main(["--help"]) == 0
    assert "trend" in capsys.readouterr().out


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


def test_check_validates_and_prints_the_trajectory(
        tmp_path, capsys):
    path = tmp_path / "hist.jsonl"
    trend.append_history(transcribed(), path)
    trend.append_history(build([0.3, 0.29], [0.2, 0.21]), path)
    assert run_main("--history", str(path), "--check") == 0
    out = capsys.readouterr().out
    assert "2 records valid" in out
    assert "halo2_b8 setup_s (s, lower is better)" in out
    lines = out.splitlines()
    at = lines.index("halo2_b8 setup_s (s, lower is better)")
    assert lines[at + 1].split()[:2] == ["PR", "5"]
    assert "(transcribed)" in lines[at + 1]
    assert lines[at + 2].split()[:2] == ["PR", "99"]


def test_committed_history_holds_the_ladder_records():
    """Every committed claim holds by the ladder's rule: better in at
    least nine tenths of at least ten pairs, its medians further apart
    than the parent's quartiles."""
    ladder = trend.load_history(REPO_ROOT / "BENCH_history.jsonl")
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
            for r in history for row in r["metrics"]}
    for key, parent, change, won in [
            ((17, None, "cloud64_b32", "mcells_per_s"), 0.2423, 1.487, 10),
            ((19, None, "cloud32_b8", "mcells_per_s"), 0.9707, 1.607, 10),
            ((19, "compiler hidden", "halo2_b8", "mcells_per_s"), 0.262,
             0.388, 4)]:
        row = rows[key]
        assert row["parent"]["norm"][1] == pytest.approx(parent, rel=2e-3)
        assert row["change"]["norm"][1] == pytest.approx(change, rel=2e-3)
        assert row["won"] == won

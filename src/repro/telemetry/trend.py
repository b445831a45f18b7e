"""The performance record: provenance, history and its check.

``BENCH_history.jsonl`` is the committed, append-only performance
record: one JSON ladder record (schema :data:`LADDER_SCHEMA`) per line,
one per change that claims or must not lose speed: the benchmark ladder
(``benchmarks/ladder/run.py``) run in alternating parent / change pairs,
and per workload x end-to-end metric the two sides' medians and
quartiles, normalised to reference host speed and raw, the pair count,
the pairs the change won and the verdict of the ladder's ``--compare``.
:func:`ladder_record` builds one from the two sides' result files; a
record ``"source": "transcribed"`` was copied from a table in
EXPERIMENTS.md and may leave out what the table did not give (quartiles,
raw values, verdicts).

This module owns:

* :func:`provenance` -- the provenance block of a ladder result file:
  host fingerprint, git sha, ISO timestamp, python/numpy versions;
* :func:`append_history` / :func:`load_history` -- the append-only
  trajectory, every line validated on load;
* ``python -m repro.telemetry trend --check`` -- validates every line of
  the history (exit 2 on a malformed one) and prints the trajectory of
  each workload x metric (:func:`format_trajectory`).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

#: One ladder comparison of a change against its parent.
LADDER_SCHEMA = "repro.ladder_record/v1"

#: Where a ladder record's numbers come from: the pair result files
#: themselves, or a table copied by hand.
SOURCES = ("pairs", "transcribed")

#: The ladder's ``--compare`` verdicts.
VERDICTS = ("ok", "worse", "unresolved")

#: Repository root (``src/repro/telemetry`` is three levels below it).
REPO_ROOT = Path(__file__).resolve().parents[3]

#: Default locations of the committed trajectory and the benchmark
#: declaration (units, directions and bounds of the ladder's end-to-end
#: metrics).
DEFAULT_HISTORY = REPO_ROOT / "BENCH_history.jsonl"
BENCHMARK = REPO_ROOT / "BENCHMARK.json"


def host_fingerprint() -> str:
    """Stable 12-hex fingerprint of the benchmarking host (str).

    Hashes hostname, architecture, processor string and core count --
    enough to tell records from different machines apart without
    leaking the raw hostname into committed artifacts.
    """
    basis = "|".join([
        platform.node(),
        platform.machine(),
        platform.processor() or "",
        str(os.cpu_count() or 0),
    ])
    return hashlib.sha256(basis.encode("utf-8")).hexdigest()[:12]


def git_sha(repo: Path | str = REPO_ROOT) -> str:
    """Current commit sha of ``repo``, or ``"unknown"`` (str).

    Never raises: records must be writable from exported tarballs and
    containers without git.
    """
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(repo),
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def provenance() -> dict:
    """The provenance block of a ladder result file (dict of str).

    Keys: ``host`` (fingerprint), ``git_sha``, ``timestamp`` (ISO 8601
    UTC), ``python``, ``numpy``.
    """
    import numpy as np

    return {
        "host": host_fingerprint(),
        "git_sha": git_sha(),
        "timestamp": datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        ),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


# -- ladder records ---------------------------------------------------------


def _quartiles(values: list[float]) -> list[float]:
    """``[q1, median, q3]`` of ``values``, by the ladder's quantile rule."""
    med = statistics.median(values)
    if len(values) < 2:
        return [med, med, med]
    q1, _, q3 = statistics.quantiles(values, n=4)
    # (interpolating between equal values can round past the median)
    return [min(q1, med), med, max(q3, med)]


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> str:
    """The ladder's ``--compare`` verdict of one workload x metric.

    ``worse`` when the change's median is worse than the parent's by more
    than ``bound`` (a share of the parent's median); where either side's
    interquartile range is wider than ``bound`` (as a share of its
    median), ``unresolved`` unless every change run beats every parent
    run; otherwise ``ok``.  The same rule as
    ``benchmarks/ladder/report.py``'s ``verdict``.
    """
    def spread(values):
        q1, med, q3 = _quartiles(values)
        return (q3 - q1) / med

    sign = -1.0 if better == "higher" else 1.0
    base = statistics.median(parent)
    worsening = sign * (statistics.median(change) - base) / base
    if max(spread(parent), spread(change)) > bound:
        all_better = (min(change) > max(parent) if better == "higher"
                      else max(change) < min(parent))
        return "ok" if all_better else "unresolved"
    return "worse" if worsening > bound else "ok"


def _end_to_end(path: str | Path = BENCHMARK) -> dict[str, dict]:
    """``metric -> {unit, better, bound}`` of the declared benchmark."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    return {m["name"]: {"unit": m["unit"], "better": m["better"],
                        "bound": m["bound"]} for m in doc["end_to_end"]}


def _untraced(docs: list[dict]) -> list[dict]:
    return [run for doc in docs for run in doc["runs"] if not run["trace"]]


def _pairs(parent_runs: list[dict], change_runs: list[dict]) -> list[tuple]:
    """``(parent, change)`` runs of one workload and seed, in file order."""
    pending: dict[tuple, list[dict]] = {}
    for run in parent_runs:
        pending.setdefault((run["workload"], run["seed"]), []).append(run)
    pairs = []
    for run in change_runs:
        queue = pending.get((run["workload"], run["seed"]))
        if queue:
            pairs.append((queue.pop(0), run))
    return pairs


def _side(runs: list[dict], metric: str) -> tuple[list[float], dict]:
    """The runs' normalised values and their ``{norm, raw}`` quartiles; a
    metric the ladder does not normalise (no ``<metric>_raw`` extra) is
    its own raw value."""
    norm = [run["metrics"][metric]["value"] for run in runs]
    raw = [run.get("extras", {}).get(f"{metric}_raw", value)
           for run, value in zip(runs, norm)]
    return norm, {"norm": _quartiles(norm), "raw": _quartiles(raw)}


def _median_factor(runs: list[dict]) -> float | None:
    factors = [value for run in runs
               for key, value in run.get("extras", {}).items()
               if key.endswith("_host_factor")]
    return statistics.median(factors) if factors else None


def ladder_record(parent_docs: list[dict], change_docs: list[dict], *,
                  pr: int, title: str, parent_sha: str, change_sha: str,
                  host: str | None = None, claim: tuple[str, str] | None = None,
                  variant: str | None = None, note: str | None = None
                  ) -> dict:
    """The :data:`LADDER_SCHEMA` record of one pair campaign (dict).

    ``parent_docs`` / ``change_docs`` are ladder result files
    (``repro.ladder/v1``: ``runs`` as ``run.py --out`` writes them).  A
    pair is a parent and a change run of one workload and seed, matched
    in file order.  Every workload x end-to-end metric with a pair gets
    one row: both sides' ``[q1, median, q3]`` at reference host speed
    (``norm``) and raw, the pair count, the pairs the change wins
    (strictly better) and :func:`verdict` of the paired runs.  ``host``
    is the fingerprint in the files' provenance (the argument is for
    files that carry none; a record is of one host), with each side's
    median host factor (every ``*_host_factor`` extra of its runs).
    ``claim`` is the ``(workload, metric)`` the change claims a gain on,
    if any; ``variant`` names a campaign that is not the benchmark as its
    driver runs it (e.g. ``"compiler hidden"``).
    """
    end_to_end = _end_to_end()
    hosts = {doc.get("provenance", {}).get("host", host)
             for doc in parent_docs + change_docs} | ({host} if host else set())
    if len(hosts) != 1 or None in hosts:
        raise ValueError(f"pair files from hosts {sorted(map(str, hosts))}: "
                         "a record is of one host")
    parent_runs, change_runs = _untraced(parent_docs), _untraced(change_docs)
    pairs = _pairs(parent_runs, change_runs)
    rows = []
    for workload in dict.fromkeys(parent["workload"] for parent, _ in pairs):
        for metric, decl in end_to_end.items():
            these = [(a, b) for a, b in pairs if a["workload"] == workload
                     and metric in a["metrics"] and metric in b["metrics"]]
            if not these:
                continue
            before, parent = _side([a for a, _ in these], metric)
            after, change = _side([b for _, b in these], metric)
            higher = decl["better"] == "higher"
            rows.append({
                "workload": workload, "metric": metric, **decl,
                "pairs": len(these),
                "won": sum((b > a) if higher else (b < a)
                           for a, b in zip(before, after)),
                "verdict": verdict(before, after, decl["better"],
                                   decl["bound"]),
                "parent": parent, "change": change})
    record = {
        "schema": LADDER_SCHEMA,
        "pr": pr,
        "title": title,
        "source": "pairs",
        "parent_sha": parent_sha,
        "change_sha": change_sha,
        "host": {"fingerprint": hosts.pop(),
                 "factor": {"parent": _median_factor(parent_runs),
                            "change": _median_factor(change_runs)}},
        "metrics": rows,
    }
    if claim is not None:
        record["claim"] = {"workload": claim[0], "metric": claim[1]}
    if variant is not None:
        record["variant"] = variant
    if note is not None:
        record["note"] = note
    _validate_ladder(record, "ladder record")
    return record


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _validate_stats(stats, where: str, full: bool) -> None:
    """``{norm, raw}`` of one side: ``[q1, median, q3]`` each, ordered;
    a transcribed record may give ``None`` for a quartile or for ``raw``."""
    if not isinstance(stats, dict):
        raise ValueError(f"{where}: no statistics")
    for key in ("norm", "raw"):
        triple = stats.get(key)
        if triple is None and key == "raw" and not full:
            continue
        if not (isinstance(triple, list) and len(triple) == 3):
            raise ValueError(f"{where}: {key} is not [q1, median, q3]")
        if not _number(triple[1]) or any(
                not (_number(q) or (q is None and not full))
                for q in triple):
            raise ValueError(f"{where}: {key} {triple} is not numeric")
        known = [q for q in triple if q is not None]
        if known != sorted(known):
            raise ValueError(f"{where}: {key} {triple} is not ordered")


def _validate_ladder(record: dict, where: str) -> None:
    """Raise ``ValueError`` unless ``record`` is a well-formed
    :data:`LADDER_SCHEMA` record."""
    source = record.get("source")
    if source not in SOURCES:
        raise ValueError(f"{where}: source {source!r} not in {SOURCES}")
    full = source == "pairs"
    if not isinstance(record.get("pr"), int) or not isinstance(
            record.get("title"), str):
        raise ValueError(f"{where}: a ladder record needs its pr and title")
    for key in ("parent_sha", "change_sha"):
        if not (isinstance(record.get(key), str) and record[key]):
            raise ValueError(f"{where}: no {key}")
    host = record.get("host")
    if not (isinstance(host, dict) and isinstance(host.get("fingerprint"), str)
            and isinstance(host.get("factor"), dict)
            and all(_number(host["factor"].get(side))
                    or host["factor"].get(side) is None
                    for side in ("parent", "change"))):
        raise ValueError(f"{where}: host needs a fingerprint and the "
                         "parent and change factors")
    rows = record.get("metrics")
    if not isinstance(rows, list) or not rows:
        raise ValueError(f"{where}: record carries no metrics")
    for row in rows:
        if not isinstance(row, dict):
            raise ValueError(f"{where}: a metric row is not an object")
        at = f"{where}: {row.get('workload')} {row.get('metric')}"
        if not (isinstance(row.get("workload"), str)
                and isinstance(row.get("metric"), str)
                and isinstance(row.get("unit"), str)):
            raise ValueError(f"{at}: needs a workload, metric and unit")
        if row.get("better") not in ("higher", "lower") or not _number(
                row.get("bound")):
            raise ValueError(f"{at}: needs better (higher | lower) and a "
                             "bound")
        pairs, won = row.get("pairs"), row.get("won")
        if not (isinstance(pairs, int) and pairs >= 1):
            raise ValueError(f"{at}: pairs {pairs!r} is not a count")
        if not ((isinstance(won, int) and 0 <= won <= pairs)
                or (won is None and not full)):
            raise ValueError(f"{at}: won {won!r} is not within 0..{pairs}")
        if not (row.get("verdict") in VERDICTS
                or (row.get("verdict") is None and not full)):
            raise ValueError(f"{at}: verdict {row.get('verdict')!r} not in "
                             f"{VERDICTS}")
        for side in ("parent", "change"):
            _validate_stats(row.get(side), f"{at} {side}", full)
    claim = record.get("claim")
    if claim is not None and not any(
            isinstance(claim, dict) and row["workload"] == claim.get("workload")
            and row["metric"] == claim.get("metric") for row in rows):
        raise ValueError(f"{where}: claim {claim!r} names no row")


def append_history(record: dict, path: str | Path = DEFAULT_HISTORY) -> Path:
    """Append one ladder record to the trajectory; returns the path.

    The history is strictly append-only JSONL: one validated record per
    line, never rewritten.
    """
    _validate_line(record, "history append")
    path = Path(path)
    with open(path, "a", encoding="utf-8") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")
    return path


def _validate_line(record: dict, where: str) -> None:
    """Raise ``ValueError`` unless ``record`` is a well-formed history
    line."""
    if not isinstance(record, dict):
        raise ValueError(f"{where}: not a JSON object")
    if record.get("schema") != LADDER_SCHEMA:
        raise ValueError(f"{where}: unknown record schema "
                         f"{record.get('schema')!r}")
    _validate_ladder(record, where)


def load_history(path: str | Path = DEFAULT_HISTORY) -> list[dict]:
    """Load the trajectory records of a history file (list of dicts).

    Blank lines are skipped; every record is schema-validated so a
    corrupt trajectory fails loudly (``ValueError`` naming the line)
    rather than gating against garbage.
    """
    out = []
    with open(path, "r", encoding="utf-8") as f:
        for i, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{i}: not JSON ({exc})") from None
            _validate_line(record, f"{path}:{i}")
            out.append(record)
    return out


def format_trajectory(history: list[dict]) -> str:
    """The ladder records of ``history`` per workload x metric, in
    history order: each record's parent -> change median at reference
    host speed, their ratio, the pairs won, the verdict and whether the
    record claims that row (str)."""
    series: dict[tuple, list[str]] = {}
    for record in history:
        label = f"PR {record['pr']}"
        if "variant" in record:
            label += f" ({record['variant']})"
        claim = record.get("claim") or {}
        for row in record["metrics"]:
            a, b = row["parent"]["norm"][1], row["change"]["norm"][1]
            won = "?" if row["won"] is None else row["won"]
            claimed = (claim.get("workload"), claim.get("metric")) == (
                row["workload"], row["metric"])
            series.setdefault(
                (row["workload"], row["metric"], row["unit"], row["better"]),
                []).append(
                f"  {label:<26} {a:>10.4g} -> {b:<10.4g} "
                f"x{b / a if a else float('nan'):<7.3f} "
                f"{won:>2}/{row['pairs']:<3} {row['verdict'] or '-'}"
                + ("  claimed" if claimed else "")
                + ("  (transcribed)" if record["source"] == "transcribed"
                   else ""))
    lines = [f"ladder trajectory: {len(history)} records; medians at "
             "reference host speed, parent -> change, pairs won"]
    for (workload, metric, unit, better), entries in series.items():
        lines.append(f"{workload} {metric} ({unit}, {better} is better)")
        lines.extend(entries)
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    """Construct the ``trend`` subcommand's argument parser."""
    ap = argparse.ArgumentParser(
        prog="python -m repro.telemetry trend",
        description="The committed performance record: validate it and "
        "print its trajectory (see docs/telemetry.md).",
    )
    ap.add_argument("--history", default=str(DEFAULT_HISTORY), metavar="PATH",
                    help="append-only trajectory file "
                    "(default: BENCH_history.jsonl)")
    ap.add_argument("--check", action="store_true",
                    help="validate every history line and print the "
                    "trajectory")
    return ap


def main(argv: list[str] | None = None) -> int:
    """``trend`` subcommand entry point; returns the exit code.

    Exit codes: 0 every line valid, 2 usage error (no ``--check``, a
    missing or malformed history).

    The prints below are this subcommand's user-facing CLI output
    (dispatched from ``repro.telemetry.__main__``), hence the CL012
    pragmas.
    """
    args = build_parser().parse_args(argv)
    if not args.check:
        print("trend: nothing to do; pass --check",
              file=sys.stderr)  # lint: disable=CL012
        return 2
    try:
        history = load_history(args.history)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"trend: cannot load history: {exc}",
              file=sys.stderr)  # lint: disable=CL012
        return 2
    text = (f"trend: {len(history)} records valid in {args.history}\n"
            + format_trajectory(history))
    print(text)  # lint: disable=CL012
    return 0

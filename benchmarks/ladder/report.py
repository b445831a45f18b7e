"""Result files, the provenance block, the human table and ``--compare``."""

from __future__ import annotations

import json
import os
import platform
import statistics
import tempfile

import catalog

SCHEMA = "repro.ladder/v1"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int, seconds: float) -> dict:
    """Where and on what a result file was measured."""
    import layers
    from repro.telemetry.trend import provenance as base_provenance

    doc = base_provenance()  # git sha, host fingerprint, python, numpy, time
    with tempfile.TemporaryDirectory() as workdir:
        calibration = layers.host_calibration(workdir)
    doc.update({
        "hostname": platform.node(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "seed": seed,
        "seconds": seconds,
        "calibration": {
            **calibration,
            "triad_array_mib": layers.TRIAD_MIB,
            "triad_arrays": 3,
            "llc_bytes": layers.llc_bytes(),
            "note": "triad arrays smaller than 4x the LLC: a cache-"
                    "resident rate, not DRAM bandwidth, unless llc_bytes "
                    "says otherwise",
        },
    })
    return doc


def format_rows(rows) -> str:
    """``(name, value, unit)`` rows as an aligned table."""
    width = max(len(r[0]) for r in rows)
    lines = []
    for name, value, unit in rows:
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        lines.append(f"  {name:<{width}}  {text:>12} {unit}")
    return "\n".join(lines)


def write_results(path: str, doc: dict) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")


def load_results(path: str) -> dict:
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != SCHEMA:
        raise ValueError(f"{path} is not a {SCHEMA} result file")
    return doc


# -- compare -------------------------------------------------------------------

def spread(values) -> float:
    """Interquartile range as a share of the median (0 below 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(parent, change, better: str, bound: float) -> tuple[str, float]:
    """``(verdict, worsening)`` of one workload x metric.

    ``worsening`` is the change of the median in the bad direction as a
    share of the parent's median.  ``worse`` beyond the bound; where the
    spread of either side is wider than the bound the pair is
    ``unresolved`` unless every run of the change beats every run of the
    parent; otherwise ``ok``.
    """
    sign = -1.0 if better == "higher" else 1.0
    base = statistics.median(parent)
    worsening = sign * (statistics.median(change) - base) / base
    if max(spread(parent), spread(change)) > bound:
        all_better = (min(change) > max(parent) if better == "higher"
                      else max(change) < min(parent))
        return ("ok" if all_better else "unresolved"), worsening
    return ("worse" if worsening > bound else "ok"), worsening


def end_to_end_values(doc: dict) -> dict[tuple[str, str], list[float]]:
    """``(workload, metric) -> values`` of the untraced runs of a file."""
    out: dict[tuple[str, str], list[float]] = {}
    for run in doc["runs"]:
        if run["trace"]:
            continue
        for name, entry in run["metrics"].items():
            out.setdefault((run["workload"], name), []).append(entry["value"])
    return out


def compare(parent_doc: dict, change_doc: dict) -> tuple[str, bool]:
    """Table of every workload x end-to-end metric; True if any is worse."""
    parent, change = end_to_end_values(parent_doc), end_to_end_values(change_doc)
    lines = [f"{'workload':<12} {'metric':<15} {'parent':>11} {'change':>11} "
             f"{'worsening':>10} {'bound':>6} {'spread':>13}  verdict"]
    any_worse = False
    for workload in catalog.WORKLOADS:
        for name, _, better, bound in catalog.END_TO_END:
            a, b = parent.get((workload, name)), change.get((workload, name))
            if not a or not b:
                lines.append(f"{workload:<12} {name:<15} missing on one side")
                any_worse = True
                continue
            word, worsening = verdict(a, b, better, bound)
            any_worse |= word == "worse"
            lines.append(
                f"{workload:<12} {name:<15} {statistics.median(a):>11.5g} "
                f"{statistics.median(b):>11.5g} {worsening:>+10.1%} "
                f"{bound:>6.0%} {spread(a):>6.1%}/{spread(b):<6.1%}  {word}")
    return "\n".join(lines), any_worse

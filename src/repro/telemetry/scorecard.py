"""Paper-style performance scorecard of one completed run.

The paper reports its runs as (i) a time-in-phase distribution (Fig. 7),
(ii) an achieved throughput in Gcells/s against the modeled peak
(Section 7) and (iii) the claim that the wavelet data dumps cost less
than 1 % of run time (Section 6).  :func:`format_run_scorecard` prints
the same table for *our* runs, from the phase timers every run records
and -- when telemetry is enabled -- the runtime counters priced with the
analytic FLOP model of :mod:`repro.perf.kernels`.

The scorecard degrades gracefully: with telemetry off it still reports
phase shares, wall time and Gcells/s (the driver always records those);
counter-derived rows (modeled FLOP/s, message/byte totals) appear only
when a :class:`repro.telemetry.MetricsSnapshot` is attached.
"""

from __future__ import annotations

import math

from ..perf.report import format_table

#: The paper's Section 6 claim: compressed dumps cost < 1 % of run time.
PAPER_IO_FRACTION = 0.01

#: Phases timed *inside* an enclosing phase span; their seconds are
#: already contained in the parent's, so share-of-wall rows mark them
#: nested and totals skip them.
NESTED_PHASES = frozenset({"IO_COLLECT", "IO_FWT", "IO_WRITE"})

#: Wall-clock denominators below this are degenerate measurements
#: (sub-nanosecond "runs" from mocked clocks or empty smoke cases);
#: rates computed from them report 0.0 instead of inf/NaN.
MIN_WALL_SECONDS = 1e-9

#: Process-wide tally of degenerate-denominator guards taken, keyed by
#: guard site (``io_fraction_degenerate_wall``, ...).  Observability for
#: the observability layer: a smoke case silently reporting 0 Gcells/s
#: is visible here instead of poisoning trend records with NaN.
DEGENERATE_COUNTS: dict[str, int] = {}


def safe_rate(numer: float, denom: float, counter: str) -> float:
    """``numer / denom`` guarded against degenerate denominators.

    Returns 0.0 (and bumps ``counter`` in :data:`DEGENERATE_COUNTS`)
    when ``denom`` is missing, below :data:`MIN_WALL_SECONDS` or
    non-finite -- never raises, never returns inf/NaN.
    """
    if not denom or denom < MIN_WALL_SECONDS or not math.isfinite(denom):
        DEGENERATE_COUNTS[counter] = DEGENERATE_COUNTS.get(counter, 0) + 1
        return 0.0
    return numer / denom


def io_fraction(result) -> float:
    """Fraction of run wall time spent in the wavelet dump phase.

    Returns ``IO_WAVELET`` seconds (mean per rank) over the run wall
    time -- the quantity the paper bounds by 1 % (Section 6).  Runs
    without dumps return 0.0; degenerate (near-zero) wall times return
    0.0 with a :data:`DEGENERATE_COUNTS` bump instead of emitting
    inf/NaN.
    """
    io_seconds = result.timers.get("IO_WAVELET", 0.0)
    if not io_seconds:
        return 0.0
    return safe_rate(io_seconds, getattr(result, "wall_seconds", 0.0),
                     "io_fraction_degenerate_wall")


def run_scorecard_rows(result) -> list[dict]:
    """Scorecard rows (heterogeneous dicts) for one ``RunResult``.

    Returns phase rows (``phase`` / ``seconds`` / ``share [%]`` and, with
    telemetry on, ``calls``) followed by summary rows carrying their own
    columns (``Gcells/s``, ``GFLOP/s``, ``check``); render with
    :func:`repro.perf.report.format_table`, which unions the columns.
    """
    snap = getattr(result, "telemetry", None)
    wall = getattr(result, "wall_seconds", 0.0)
    timers = dict(result.timers)
    denom = wall or sum(
        v for k, v in timers.items() if k not in NESTED_PHASES
    )
    rows: list[dict] = []
    for name in sorted(timers):
        label = f"{name} (in {_parent_of(name)})" if name in NESTED_PHASES \
            else name
        row = {
            "phase": label,
            "seconds": timers[name],
            "share [%]": 100.0 * timers[name] / denom if denom else 0.0,
        }
        if snap is not None:
            row["calls"] = snap.phase_calls.get(name, 0)
        rows.append(row)
    rows.append({"phase": "TOTAL (wall)", "seconds": wall,
                 "share [%]": 100.0})

    steps = len(result.records)
    rows.append({
        "phase": "throughput",
        "Gcells/s": result.cells_per_second / 1e9,
        "steps": steps,
    })
    imb = _run_imbalance_row(result)
    if imb is not None:
        rows.append(imb)
    if snap is not None:
        rows.append({
            "phase": "modeled compute",
            "GFLOP/s": snap.modeled_flop_rate() / 1e9,
            "GFLOP total": snap.modeled_flops() / 1e9,
        })
        if snap.counters.get("halo_messages"):
            rows.append({
                "phase": "halo traffic",
                "messages": int(snap.counters["halo_messages"]),
                "MB": snap.counters.get("halo_bytes", 0) / 1e6,
            })
        if snap.counters.get("io_raw_bytes"):
            raw = snap.counters["io_raw_bytes"]
            comp = snap.counters.get("io_compressed_bytes", 0)
            rows.append({
                "phase": "dump compression",
                "MB": comp / 1e6,
                "rate": raw / comp if comp else 0.0,
            })
    frac = io_fraction(result)
    rows.append({
        "phase": "I/O fraction",
        "share [%]": 100.0 * frac,
        "check": (f"<= {100 * PAPER_IO_FRACTION:.0f}% ok"
                  if frac <= PAPER_IO_FRACTION
                  else f"EXCEEDS {100 * PAPER_IO_FRACTION:.0f}% claim"),
    })
    return rows


def _parent_of(name: str) -> str:
    """The enclosing phase a nested phase accumulates inside (str)."""
    return "IO_WAVELET" if name in NESTED_PHASES else ""


def _run_imbalance_row(result) -> dict | None:
    """Cross-rank load-imbalance scorecard row, or ``None``.

    Multi-rank runs get the total-step-time load-imbalance factor
    (max/mean, the paper's Table 4 basis) with straggler attribution;
    single-rank runs (where the metric is undefined) get no row.
    """
    from .analytics import run_imbalance

    rows = run_imbalance(result)
    if not rows:
        return None
    total = rows[-1]  # the TOTAL row of the per-phase table
    worst_phase = max(rows[:-1], key=lambda r: r["max [s]"] - r["mean [s]"])
    return {
        "phase": "load imbalance",
        "factor": total["lif"],
        "spread": total["imbalance"],
        "check": (f"rank {total['slowest rank']} bound "
                  f"({worst_phase['phase']})"),
    }


def format_run_scorecard(result) -> str:
    """Human-readable scorecard table of one run (returns the str).

    Mirrors the paper's Fig. 7 time distribution plus the Section 6/7
    throughput and I/O-fraction claims, for any :class:`RunResult`.
    """
    title = "Run scorecard (time in phase, throughput, I/O fraction)"
    return format_table(run_scorecard_rows(result), title,
                        floatfmt="{:.4g}")

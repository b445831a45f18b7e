"""Structured run telemetry: tracing, kernel metrics, run scorecards.

The observability backbone of the reproduction (see ``docs/telemetry.md``):

* :class:`Tracer` / :func:`make_tracer` -- nested phase spans and named
  counters per rank, with a bounded trace-event buffer;
* :class:`PhaseTimers` -- the zero-overhead telemetry-off baseline whose
  dict payload is the driver's legacy timers shape;
* :class:`MetricsSnapshot` -- the JSON metrics summary attached to
  ``RankResult`` / ``RunResult``;
* :func:`write_chrome_trace` -- Perfetto-loadable per-rank timelines;
* :func:`format_run_scorecard` -- the paper-style run table
  (time-in-phase %, Gcells/s, modeled FLOP/s, I/O fraction);
* :class:`FlightRecorder` / :func:`read_flight` -- the step-level
  flight recorder (JSONL, schema ``repro.flight/v1``);
* :mod:`repro.telemetry.analytics` -- cross-rank imbalance, straggler
  and critical-path analytics over flight recordings and run results;
* :class:`StructuredLogger` / :class:`ProgressReporter` -- logfmt
  structured logging (lint rule ``CL012``'s sanctioned sink) and the
  live run heartbeat;
* :mod:`repro.telemetry.trend` -- provenance-stamped kernel benchmark
  records and the ``python -m repro.telemetry trend --check`` gate;
* :mod:`repro.telemetry.clock` -- the sanctioned timing source enforced
  by lint rule ``CL009``.
"""

from .._exports import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "analytics": (
        "FlightAnalysis", "analyze_flight", "critical_path",
        "format_flight_report", "run_imbalance", "step_imbalance",
        "straggler_summary",
    ),
    "clock": ("now", "wall_now"),
    "export": (
        "chrome_trace_events", "metrics_json", "run_trace_events",
        "write_chrome_trace",
    ),
    "flight": (
        "FLIGHT_SCHEMA", "FlightRecorder", "iter_flight", "merge_flight_parts",
        "read_flight",
    ),
    "log": ("ProgressReporter", "StructuredLogger", "configure", "get_logger"),
    "scorecard": (
        "DEGENERATE_COUNTS", "PAPER_IO_FRACTION", "format_run_scorecard",
        "io_fraction", "run_scorecard_rows", "safe_rate",
    ),
    "tracer": (
        "DEFAULT_MAX_EVENTS", "MODES", "MetricsSnapshot", "PhaseTimers",
        "SpanEvent", "Tracer", "make_tracer",
    ),
})

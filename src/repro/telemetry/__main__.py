"""Telemetry command-line front end: ``python -m repro.telemetry``.

Dispatches to the telemetry subcommands; currently only ``trend``, the
check of the committed performance record (see
:mod:`repro.telemetry.trend` and ``docs/telemetry.md``)::

    python -m repro.telemetry trend --check
"""

from __future__ import annotations

import sys

from . import trend


def main(argv: list[str] | None = None) -> int:
    """Dispatch one telemetry subcommand; returns the exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        wants_help = bool(argv)
        print("usage: python -m repro.telemetry trend [options]\n\n"
              "subcommands:\n"
              "  trend    the performance record: validate, print",
              file=sys.stdout if wants_help else sys.stderr)
        return 0 if wants_help else 2
    if argv[0] == "trend":
        return trend.main(argv[1:])
    print(f"repro.telemetry: unknown subcommand {argv[0]!r}",
          file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())

"""``python -m repro.native``: build or find the compiled kernels now and
say which path this checkout's kernels take on this host.

Prints :func:`repro.native.status` as JSON.  With ``--require`` exits 1
when the backend is not ``c`` -- what a CI job or a benchmark protocol
runs first, so that no measured run compiles and no number is quietly a
fallback number.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import ensure_loaded, status


def main(argv=None) -> int:
    """Load (building if need be), print the status; returns the exit
    code: 1 under ``--require`` without a compiled backend, else 0."""
    parser = argparse.ArgumentParser(prog="python -m repro.native",
                                     description=__doc__)
    parser.add_argument("--require", action="store_true",
                        help="exit 1 unless the backend is 'c'")
    args = parser.parse_args(argv)
    ensure_loaded()
    report = status()
    print(json.dumps(report, indent=2))
    return 1 if args.require and report["backend"] != "c" else 0


if __name__ == "__main__":
    sys.exit(main())

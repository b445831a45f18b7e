"""Command-line front end of the three static analysis families.

Usage::

    python -m repro.analysis src/repro            # lint the solver tree
    python -m repro.analysis --perf src/repro     # static perf analyzer
    python -m repro.analysis --sys src/repro      # static sys-check
    python -m repro.analysis --all src/repro      # all three, one report
    python -m repro.analysis --list-rules         # print the catalogues
    cubism-lint src/repro --select CL001,CL005    # installed entry point

``--perf`` (and ``--all``) write the kernel manifest only when
``--manifest-out PATH`` names where.
``--all`` merges every family into one JSON report
(``repro.analysis_report/v1``) with a worst-of exit code.

Exit codes: 0 clean, 1 violations found, 2 usage/config error (unknown
rule id, nonexistent path, unreadable file).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .lint import format_violations
from .perfcheck.manifest import write_kernel_manifest
from .program import FAMILIES, Program, analyze, registered_rules

#: Schema identifier of the merged ``--all`` report.
MERGED_SCHEMA = "repro.analysis_report/v1"

#: Per family: the name its messages start with, the flag that selects
#: it, and the scope ``--list-rules`` shows for a rule without paths.
_TOOL = {"lint": "cubism-lint", "perf": "kernel-check",
         "sys": "sys-check"}
_FLAG = {"lint": None, "perf": "--perf", "sys": "--sys"}
_UNSCOPED = {"lint": "all files", "perf": "hot-path kernels", "sys": ""}


def _usage_error(message: str) -> int:
    print(f"cubism-lint: {message}", file=sys.stderr)
    return 2


def _rule_set(spec: str | None) -> frozenset[str] | None:
    if spec is None:
        return None
    return frozenset(r.strip() for r in spec.split(",") if r.strip())


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser of the analysis CLI."""
    ap = argparse.ArgumentParser(
        prog="cubism-lint",
        description="Solver-aware lint enforcing the repo's precision, "
        "timing and contract-documentation rules, plus the hot-path "
        "kernel check (--perf) and the resource-lifecycle check (--sys).",
    )
    ap.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to analyze (default: src/repro)",
    )
    ap.add_argument(
        "--perf", action="store_true",
        help="run kernel-check (static hot-path performance analyzer, "
        "CP-series rules)",
    )
    ap.add_argument(
        "--sys", dest="syscheck", action="store_true",
        help="run sys-check (resource-lifecycle & process-safety "
        "analysis of the multi-process layers, RS-series rules)",
    )
    ap.add_argument(
        "--all", dest="all_families", action="store_true",
        help="run every family (lint + perf + sys) in one pass "
        "and emit a single merged report with a worst-of exit code",
    )
    ap.add_argument(
        "--manifest-out", metavar="PATH", default=None,
        help="write the kernel manifest of --perf / --all to PATH "
        "(none is written without it)",
    )
    ap.add_argument(
        "--select", metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    ap.add_argument(
        "--ignore", metavar="RULES", default="",
        help="comma-separated rule ids to skip",
    )
    ap.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogues and exit",
    )
    ap.add_argument(
        "--report-out", metavar="PATH", default=None,
        help="write the findings as a JSON report (the CI artifact)",
    )
    ap.add_argument(
        "--quiet", action="store_true",
        help="suppress the summary line, print violations only",
    )
    return ap


def list_rules() -> str:
    """Returns the formatted rule catalogues of the three families."""
    lines = []
    for family in FAMILIES:
        for cls in registered_rules(family):
            scope = ", ".join(cls.paths) if cls.paths else _UNSCOPED[family]
            if _FLAG[family]:
                scope = f"{scope}, {_FLAG[family]}"
            lines.append(f"{cls.rule_id}  {cls.name}  [{scope}]")
            lines.append(f"       {cls.description}")
    return "\n".join(lines)


def _merged(reports: dict) -> dict:
    """The ``repro.analysis_report/v1`` payload of every family's report."""
    findings = [
        {"family": family, "path": v.path, "line": v.line, "col": v.col,
         "rule": v.rule, "message": v.message}
        for family, report in reports.items()
        for v in report.violations
    ]
    return {
        "schema": MERGED_SCHEMA,
        "families": {family: r.to_dict() for family, r in reports.items()},
        "findings": sorted(
            findings, key=lambda f: (f["path"], f["line"], f["rule"])
        ),
        "totals": {
            "findings": len(findings),
            "by_family": {family: len(r) for family, r in reports.items()},
        },
    }


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.list_rules:
        print(list_rules())
        return 0

    select = _rule_set(args.select)
    ignore = _rule_set(args.ignore) or frozenset()
    known = {cls.rule_id for cls in registered_rules()}
    unknown = ((select or frozenset()) | ignore) - known
    if unknown:
        return _usage_error(
            f"unknown rule id(s): {', '.join(sorted(unknown))}")
    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        return _usage_error(f"no such path(s): {', '.join(missing)}")

    if args.all_families:
        families = list(FAMILIES)
    elif args.syscheck:
        families = ["sys"]
    elif args.perf:
        families = ["perf"]
    else:
        families = ["lint"]
    reports = {}
    try:
        program = Program.load(args.paths)
        for family in families:
            model, reports[family] = analyze(program, family, select, ignore)
            if family == "perf" and args.manifest_out:
                write_kernel_manifest(model, reports[family],
                                      args.manifest_out)
    except OSError as exc:
        return _usage_error(str(exc))
    # The files that do not parse, once, in the first family's report.
    first = reports[families[0]]
    first.violations = sorted(program.errors + first.violations)
    violations = sorted(v for r in reports.values() for v in r.violations)
    if args.all_families:
        payload = _merged(reports)
        clean_msg = "analysis: all families clean ({})".format(", ".join(
            f"{fam}={n}" for fam, n in payload["totals"]["by_family"].items()))
    else:
        (family, report), = reports.items()
        payload = report.to_dict()
        clean_msg = (f"{_TOOL[family]}: "
                     + ("clean" if family == "lint" else report.summary()))
    if args.report_out:
        try:
            with open(args.report_out, "w", encoding="utf-8") as f:
                json.dump(payload, f, indent=2)
        except OSError as exc:
            return _usage_error(str(exc))
    if violations:
        print(format_violations(violations))
        if not args.quiet:
            print(
                f"\n{len(violations)} violation(s) in "
                f"{len({v.path for v in violations})} file(s)",
                file=sys.stderr,
            )
        return 1
    if not args.quiet:
        print(clean_msg, file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

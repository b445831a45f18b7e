"""Command-line front end of the four static analysis families.

Usage::

    python -m repro.analysis src/repro            # lint the solver tree
    python -m repro.analysis --concurrency src/repro  # static comm-check
    python -m repro.analysis --perf src/repro     # static perf analyzer
    python -m repro.analysis --sys src/repro      # static sys-check
    python -m repro.analysis --all src/repro      # all four, one report
    python -m repro.analysis --list-rules         # print the catalogues
    cubism-lint src/repro --select CL001,CL002    # installed entry point

``--perf`` (and ``--all``) additionally emit the kernel manifest
(``--manifest-out``, default ``kernel_manifest.json``).
``--all`` merges every family into one JSON report
(``repro.analysis_report/v1``) with a worst-of exit code, collapsing
four CI invocations into one.

Exit codes: 0 clean, 1 violations found, 2 usage/config error (unknown
rule id, nonexistent path, unreadable file).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .concurrency import registered_program_rules
from .concurrency import check_paths as comm_check_paths
from .lint import LintConfig, format_violations, lint_paths, registered_rules
from .perfcheck import analyze_paths, registered_perf_rules, write_kernel_manifest
from .syscheck import registered_sys_rules
from .syscheck import check_paths as sys_check_paths

# Importing the catalogue populates the registry.
from . import rules as _rules  # noqa: F401  (registry population)

#: Schema identifier of the merged ``--all`` report.
MERGED_SCHEMA = "repro.analysis_report/v1"


def _rule_set(spec: str | None) -> frozenset[str] | None:
    if spec is None:
        return None
    return frozenset(r.strip() for r in spec.split(",") if r.strip())


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser of the analysis CLI."""
    ap = argparse.ArgumentParser(
        prog="cubism-lint",
        description="Solver-aware lint enforcing the repo's precision, "
        "stencil and conservation contracts, plus the static MPI "
        "protocol verifier (--concurrency).",
    )
    ap.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to analyze (default: src/repro)",
    )
    ap.add_argument(
        "--concurrency", action="store_true",
        help="run comm-check (whole-program MPI protocol verification, "
        "CC-series rules) instead of the per-file lint rules",
    )
    ap.add_argument(
        "--perf", action="store_true",
        help="run kernel-check (static hot-path performance analyzer, "
        "CP-series rules) and emit the kernel manifest",
    )
    ap.add_argument(
        "--sys", dest="syscheck", action="store_true",
        help="run sys-check (resource-lifecycle & process-safety "
        "analysis of the multi-process layers, RS-series rules)",
    )
    ap.add_argument(
        "--all", dest="all_families", action="store_true",
        help="run every family (lint + comm + perf + sys) in one pass "
        "and emit a single merged report with a worst-of exit code",
    )
    ap.add_argument(
        "--manifest-out", metavar="PATH", default=None,
        help="where --perf writes kernel_manifest.json "
        "(default: ./kernel_manifest.json)",
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
    """Returns the formatted rule catalogues (lint + comm-check)."""
    lines = []
    for cls in registered_rules():
        scope = ", ".join(cls.default_paths) if cls.default_paths else "all files"
        lines.append(f"{cls.rule_id}  {cls.name}  [{scope}]")
        lines.append(f"       {cls.description}")
    for cls in registered_program_rules():
        lines.append(f"{cls.rule_id}  {cls.name}  [whole program, --concurrency]")
        lines.append(f"       {cls.description}")
    for cls in registered_perf_rules():
        lines.append(f"{cls.rule_id}  {cls.name}  [hot-path kernels, --perf]")
        lines.append(f"       {cls.description}")
    for cls in registered_sys_rules():
        scope = ", ".join(cls.paths)
        lines.append(f"{cls.rule_id}  {cls.name}  [{scope}, --sys]")
        lines.append(f"       {cls.description}")
    return "\n".join(lines)


def _known_rule_ids() -> set[str]:
    """Every selectable rule id (CLxxx + CCxxx + CPxxx + RSxxx)."""
    return (
        {cls.rule_id for cls in registered_rules()}
        | {cls.rule_id for cls in registered_program_rules()}
        | {cls.rule_id for cls in registered_perf_rules()}
        | {cls.rule_id for cls in registered_sys_rules()}
    )


def _filtered(violations, select, ignore):
    return [
        v for v in violations
        if (select is None or v.rule in select) and v.rule not in ignore
    ]


def run_all(paths, select=None, ignore=frozenset(),
            manifest_out=None) -> tuple[dict, list]:
    """Run lint + comm + perf + sys over ``paths`` in one pass.

    Returns ``(payload, violations)``: the merged
    ``repro.analysis_report/v1`` JSON payload and the flat, sorted
    violation list (the worst-of exit code is ``1`` iff non-empty).
    Emits the kernel manifest exactly like a plain ``--perf`` run.
    """
    lint_violations = lint_paths(paths, LintConfig(select=select,
                                                   ignore=ignore))
    comm_report = comm_check_paths(paths)
    comm_report.violations = _filtered(comm_report.violations,
                                       select, ignore)
    program, perf_report = analyze_paths(paths)
    perf_report.violations = _filtered(perf_report.violations,
                                       select, ignore)
    write_kernel_manifest(program, perf_report,
                          manifest_out or "kernel_manifest.json")
    sys_report = sys_check_paths(paths)
    sys_report.violations = _filtered(sys_report.violations,
                                      select, ignore)

    by_family = [
        ("lint", lint_violations, {"findings": [
            {"path": v.path, "line": v.line, "col": v.col,
             "rule": v.rule, "message": v.message}
            for v in lint_violations
        ]}),
        ("comm", comm_report.violations, comm_report.to_dict()),
        ("perf", perf_report.violations, perf_report.to_dict()),
        ("sys", sys_report.violations, sys_report.to_dict()),
    ]
    findings = [
        {"family": family, "path": v.path, "line": v.line, "col": v.col,
         "rule": v.rule, "message": v.message}
        for family, violations, _ in by_family
        for v in violations
    ]
    payload = {
        "schema": MERGED_SCHEMA,
        "families": {family: report for family, _, report in by_family},
        "findings": sorted(
            findings, key=lambda f: (f["path"], f["line"], f["rule"])
        ),
        "totals": {
            "findings": len(findings),
            "by_family": {
                family: len(violations)
                for family, violations, _ in by_family
            },
        },
    }
    merged = [v for _, violations, _ in by_family for v in violations]
    merged.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return payload, merged


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.list_rules:
        print(list_rules())
        return 0

    select = _rule_set(args.select)
    ignore = _rule_set(args.ignore) or frozenset()
    unknown = ((select or frozenset()) | ignore) - _known_rule_ids()
    if unknown:
        print(
            f"cubism-lint: unknown rule id(s): {', '.join(sorted(unknown))}",
            file=sys.stderr,
        )
        return 2
    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        print(
            f"cubism-lint: no such path(s): {', '.join(missing)}",
            file=sys.stderr,
        )
        return 2

    try:
        if args.all_families:
            payload, violations = run_all(
                args.paths, select=select, ignore=ignore,
                manifest_out=args.manifest_out,
            )
            totals = payload["totals"]["by_family"]
            clean_msg = "analysis: all families clean ({})".format(
                ", ".join(f"{fam}={n}" for fam, n in totals.items())
            )
        elif args.syscheck:
            report = sys_check_paths(args.paths)
            violations = _filtered(report.violations, select, ignore)
            report.violations = violations
            payload = report.to_dict()
            clean_msg = f"sys-check: {report.summary()}"
        elif args.perf:
            program, report = analyze_paths(args.paths)
            violations = [
                v for v in report.violations
                if (select is None or v.rule in select)
                and v.rule not in ignore
            ]
            report.violations = violations
            payload = report.to_dict()
            clean_msg = f"kernel-check: {report.summary()}"
            manifest_out = args.manifest_out or "kernel_manifest.json"
            try:
                write_kernel_manifest(program, report, manifest_out)
            except OSError as exc:
                print(f"cubism-lint: {exc}", file=sys.stderr)
                return 2
        elif args.concurrency:
            report = comm_check_paths(args.paths)
            violations = [
                v for v in report.violations
                if (select is None or v.rule in select)
                and v.rule not in ignore
            ]
            report.violations = violations
            payload = report.to_dict()
            clean_msg = f"comm-check: {report.summary()}"
        else:
            config = LintConfig(select=select, ignore=ignore)
            violations = lint_paths(args.paths, config)
            payload = {
                "findings": [
                    {"path": v.path, "line": v.line, "col": v.col,
                     "rule": v.rule, "message": v.message}
                    for v in violations
                ],
            }
            clean_msg = "cubism-lint: clean"
    except OSError as exc:
        print(f"cubism-lint: {exc}", file=sys.stderr)
        return 2
    if args.report_out:
        try:
            with open(args.report_out, "w", encoding="utf-8") as f:
                json.dump(payload, f, indent=2)
        except OSError as exc:
            print(f"cubism-lint: {exc}", file=sys.stderr)
            return 2
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

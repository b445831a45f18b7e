"""Command-line front end of ``cubism-lint``.

Usage::

    python -m repro.analysis src/repro            # lint the solver tree
    python -m repro.analysis --list-rules         # print the catalogue
    cubism-lint src/repro --select CL001,CP003    # installed entry point

Exit codes: 0 clean, 1 violations found, 2 usage/config error (unknown
rule id, nonexistent path, unreadable file).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .lint import LintConfig, analyze, format_violations
from .program import Program, registered_rules


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
        "timing, contract-documentation and hot-path allocation rules.",
    )
    ap.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to analyze (default: src/repro)",
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
        help="print the rule catalogue and exit",
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
    """Returns the formatted rule catalogue."""
    lines = []
    for cls in registered_rules():
        scope = ", ".join(cls.paths) if cls.paths else cls.scope
        lines.append(f"{cls.rule_id}  {cls.name}  [{scope}]")
        lines.append(f"       {cls.description}")
    return "\n".join(lines)


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

    try:
        program = Program.load(args.paths)
    except OSError as exc:
        return _usage_error(str(exc))
    report = analyze(program, LintConfig(select, ignore))
    report.violations = sorted(program.errors + report.violations)
    if args.report_out:
        try:
            with open(args.report_out, "w", encoding="utf-8") as f:
                json.dump(report.to_dict(), f, indent=2)
        except OSError as exc:
            return _usage_error(str(exc))
    violations = report.violations
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
        print("cubism-lint: clean", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

"""The finding record of every analysis family, and the concurrency report.

:class:`Violation` is the one finding type: the lint engine
(:mod:`repro.analysis.lint`, which re-exports it), kernel-check and
sys-check build it statically, the runtime race detector at run time.
It lives here, with no ``ast`` / ``tokenize`` behind it, so the runtime
side imports it without loading a static analyser.

Both the static comm-check (:mod:`repro.analysis.concurrency.commcheck`)
and the dynamic race detector (:mod:`repro.analysis.concurrency.race`)
emit :class:`Violation` records under CC-series rule
ids and accumulate them in a :class:`ConcurrencyReport` -- the same
``file:line:col: RULE message`` lines on the CLI, the same JSON payload
in the CI artifact, and one ``summary()`` string on the run scorecard,
regardless of which pass produced the finding.

Rule-id convention: ``CC0xx`` are static (whole-program) findings,
``CC1xx`` are dynamic (runtime) findings.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True, order=True)
class Violation:
    """One rule finding, sortable into report order."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def format(self) -> str:
        """Returns the canonical ``file:line:col: RULE message`` string."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


@dataclass
class ConcurrencyReport:
    """Accumulated concurrency findings of one analysis or one run."""

    violations: list[Violation] = field(default_factory=list)
    checks_run: int = 0

    def __len__(self) -> int:
        return len(self.violations)

    def by_rule(self) -> dict[str, int]:
        """Returns violation counts keyed by CC rule id."""
        out: dict[str, int] = {}
        for v in self.violations:
            out[v.rule] = out.get(v.rule, 0) + 1
        return out

    def summary(self) -> str:
        """Returns a one-line summary suitable for scorecards/CLI."""
        if not self.violations:
            return f"concurrency: clean ({self.checks_run} checks)"
        parts = ", ".join(f"{k}={n}" for k, n in sorted(self.by_rule().items()))
        return (
            f"concurrency: {len(self.violations)} finding(s) in "
            f"{self.checks_run} checks ({parts})"
        )

    def to_dict(self) -> dict:
        """Returns a JSON-serializable payload (the CI report artifact)."""
        return {
            "checks_run": self.checks_run,
            "findings": [
                {
                    "path": v.path,
                    "line": v.line,
                    "col": v.col,
                    "rule": v.rule,
                    "message": v.message,
                }
                for v in sorted(self.violations)
            ],
            "by_rule": self.by_rule(),
        }

    @classmethod
    def merged(cls, reports: list["ConcurrencyReport"]) -> "ConcurrencyReport":
        """Returns the union of several reports (cluster reduction)."""
        out = cls()
        for r in reports:
            out.violations.extend(r.violations)
            out.checks_run += r.checks_run
        return out

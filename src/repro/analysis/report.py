"""The finding record and the report of every analysis family.

:class:`Violation` is the one finding type and :class:`Report` the one
report type: the three static families (:mod:`repro.analysis.program`
runs them) build them from source, the runtime race detector
(:mod:`repro.analysis.concurrency.race`) at run time -- the same
``file:line:col: RULE message`` lines on the CLI, the same JSON payload
in the CI artifact, and one ``summary()`` string on the run scorecard.
This module imports neither ``ast`` nor ``tokenize``, so the runtime
side loads it without loading a static analyser.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: The word a family's ``summary()`` starts with.
_SUMMARY_LABEL = {"comm": "concurrency", "perf": "perfcheck",
                  "sys": "syscheck"}


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
class Report:
    """The findings of one family over one program or one run.

    ``family`` is ``"lint"``, ``"perf"`` or ``"sys"`` for a static
    family and ``"comm"`` for the runtime race detector; ``checks_run``
    is ``None`` for lint, which counts no checks.
    """

    family: str
    violations: list[Violation] = field(default_factory=list)
    checks_run: int | None = 0

    def __len__(self) -> int:
        return len(self.violations)

    def by_rule(self) -> dict[str, int]:
        """Returns violation counts keyed by rule id."""
        out: dict[str, int] = {}
        for v in self.violations:
            out[v.rule] = out.get(v.rule, 0) + 1
        return out

    def summary(self) -> str:
        """Returns a one-line summary suitable for scorecards/CLI."""
        label = _SUMMARY_LABEL.get(self.family, self.family)
        if not self.violations:
            return f"{label}: clean ({self.checks_run} checks)"
        parts = ", ".join(f"{k}={n}" for k, n in sorted(self.by_rule().items()))
        return (
            f"{label}: {len(self.violations)} finding(s) in "
            f"{self.checks_run} checks ({parts})"
        )

    def to_dict(self) -> dict:
        """Returns a JSON-serializable payload (the CI report artifact)."""
        findings = [
            {"path": v.path, "line": v.line, "col": v.col, "rule": v.rule,
             "message": v.message}
            for v in sorted(self.violations)
        ]
        if self.checks_run is None:
            return {"findings": findings}
        return {"checks_run": self.checks_run, "findings": findings,
                "by_rule": self.by_rule()}

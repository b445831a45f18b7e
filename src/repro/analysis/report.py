"""The finding record and the report of the lint.

:class:`Violation` is the one finding type and :class:`Report` the one
report type of ``cubism-lint`` (:mod:`repro.analysis.lint`): the same
``file:line:col: RULE message`` lines on the CLI and the same JSON
payload in the CI artifact.  This module imports neither ``ast`` nor
``tokenize``.
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
class Report:
    """The findings of the lint over one program."""

    violations: list[Violation] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.violations)

    def to_dict(self) -> dict:
        """Returns a JSON-serializable payload (the CI report artifact)."""
        return {"findings": [
            {"path": v.path, "line": v.line, "col": v.col, "rule": v.rule,
             "message": v.message}
            for v in sorted(self.violations)
        ]}

"""``cubism-lint``: run the rule catalogue over one program.

Each rule (:mod:`repro.analysis.rules`) yields
:class:`~repro.analysis.report.Violation` records from the parsed
:class:`~repro.analysis.program.Program`; the program model owns
discovery, parsing and ``# lint: disable=RULE`` pragmas.  This module
adds per-rule path scoping through :class:`LintConfig` (e.g. the mixed
precision rule applies to ``core/``/``node/``/``cluster/``/``physics/``
but exempts ``compression/`` and ``sim/`` diagnostics) and the
``file:line:col: RULE message`` formatting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .program import Program, Rule, path_matches, registered_rules
from .report import Report, Violation


@dataclass
class LintConfig:
    """Which rules run where.

    ``select`` limits the run to those rule ids (``None`` = all
    registered); ``ignore`` removes rules; ``rule_paths`` overrides each
    rule's ``paths`` scope (patterns per
    :func:`~repro.analysis.program.path_matches`).  The default instance
    is tuned to this repository -- see ``docs/analysis.md``.
    """

    select: frozenset[str] | None = None
    ignore: frozenset[str] = frozenset()
    rule_paths: Mapping[str, tuple[str, ...] | None] = field(default_factory=dict)

    def active_rules(self) -> list[Rule]:
        """Returns instantiated rules enabled by select/ignore."""
        return [
            cls() for cls in registered_rules()
            if (self.select is None or cls.rule_id in self.select)
            and cls.rule_id not in self.ignore
        ]

    def applies(self, rule: Rule, path: str) -> bool:
        """Returns whether ``rule`` is in scope for ``path``."""
        patterns = self.rule_paths.get(rule.rule_id, rule.paths)
        if patterns is None:
            return True
        return any(path_matches(path, pat) for pat in patterns)


def analyze(program: Program, config: LintConfig | None = None) -> Report:
    """Lints ``program``; returns the report of the findings no pragma
    covers (the files that do not parse stay in ``program.errors``)."""
    config = config or LintConfig()
    found = [v for rule in config.active_rules()
             for v in rule.run(program, config.applies)]
    return Report(sorted(program.unsuppressed(found)))


def lint_source(text: str, path: str, config: LintConfig | None = None) -> list[Violation]:
    """Lint one in-memory source string; returns sorted violations.

    ``path`` is used both for display and for per-rule path scoping, so
    tests can place fixture snippets in any layer of the tree.
    """
    program = Program({path: text})
    return sorted(program.errors + analyze(program, config).violations)


def format_violations(violations: Iterable[Violation]) -> str:
    """Returns the report body, one ``file:line:col: RULE message`` per line."""
    return "\n".join(v.format() for v in violations)

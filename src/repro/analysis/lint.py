"""``cubism-lint`` engine: AST rule framework, pragmas and path scoping.

The engine is deliberately small: a :class:`Rule` subclass registers
itself under a stable id (``CL001`` ...), receives a parsed
:class:`SourceFile` and yields :class:`Violation` records.  The engine
owns everything rules should not have to re-implement:

* discovery of python files under the linted paths;
* ``# lint: disable=RULE[,RULE...]`` pragmas -- a pragma comment on a
  line of its own disables the rules for the whole file, a trailing
  pragma disables them for the enclosing statement (every line of a
  multi-line simple statement; only the header lines of a compound
  statement, so a pragma on an ``if`` never silences its body);
* per-rule path scoping through :class:`LintConfig` (e.g. the mixed
  precision rule applies to ``core/``/``node/``/``cluster/``/
  ``physics/`` but exempts ``compression/`` and ``sim/`` diagnostics);
* stable ordering and ``file:line:col: RULE message`` formatting.

Rules live in :mod:`repro.analysis.rules`; the registry is open so
downstream campaigns can add project-specific contracts::

    from repro.analysis import Rule, lint_paths
    from repro.analysis.lint import register_rule

    @register_rule
    class MyRule(Rule):
        rule_id = "CX900"
        ...
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from .concurrency.report import Violation

#: Pragma syntax: ``# lint: disable=CL001`` or ``# lint: disable=CL001,CL002``.
_PRAGMA_RE = re.compile(r"#\s*lint:\s*disable=([A-Za-z0-9_,\s]+)")


class SourceFile:
    """A parsed python file plus the lint metadata rules need.

    Attributes
    ----------
    path:
        Display path (as given on the command line).
    text / lines:
        Raw source and its ``splitlines()``.
    tree:
        The parsed ``ast.Module``.
    file_disables / line_disables:
        Rule ids disabled file-wide, and per physical line.
    """

    def __init__(self, path: str, text: str):
        self.path = str(path)
        self.text = text
        self.lines = text.splitlines()
        self.tree = ast.parse(text, filename=self.path)
        self.file_disables: set[str] = set()
        self.line_disables: dict[int, set[str]] = {}
        self._parents: dict[ast.AST, ast.AST] | None = None
        self._scan_pragmas()

    # -- pragmas --------------------------------------------------------

    def _scan_pragmas(self) -> None:
        try:
            tokens = list(
                tokenize.generate_tokens(io.StringIO(self.text).readline)
            )
        except (tokenize.TokenError, IndentationError):  # pragma: no cover
            return
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            m = _PRAGMA_RE.search(tok.string)
            if m is None:
                continue
            rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
            lineno = tok.start[0]
            before = self.lines[lineno - 1][: tok.start[1]]
            if before.strip():
                # Trailing pragma: disables the rules across the
                # enclosing statement's span, so a pragma anywhere on a
                # multi-line statement suppresses violations anchored on
                # any of its lines.
                start, end = self._statement_span(lineno)
                for ln in range(start, end + 1):
                    self.line_disables.setdefault(ln, set()).update(rules)
            else:
                # Stand-alone pragma comment: disables file-wide.
                self.file_disables.update(rules)

    def _statement_span(self, lineno: int) -> tuple[int, int]:
        """Line span a trailing pragma on ``lineno`` covers.

        The innermost statement containing the line; compound statements
        (``if``/``for``/``def`` ...) contribute only their header lines
        (up to the first body statement), so a pragma on a block header
        never silences the block body.
        """
        best: tuple[int, int] | None = None
        for node in ast.walk(self.tree):
            if not isinstance(node, ast.stmt):
                continue
            end = getattr(node, "end_lineno", None) or node.lineno
            body = getattr(node, "body", None)
            if isinstance(body, list) and body and isinstance(body[0], ast.stmt):
                end = min(end, body[0].lineno - 1)
            if not node.lineno <= lineno <= end:
                continue
            if (
                best is None
                or node.lineno > best[0]
                or (node.lineno == best[0] and end < best[1])
            ):
                best = (node.lineno, end)
        return best or (lineno, lineno)

    def disabled(self, rule_id: str, line: int) -> bool:
        """Returns whether ``rule_id`` is pragma-disabled at ``line``."""
        return (
            rule_id in self.file_disables
            or rule_id in self.line_disables.get(line, ())
        )

    # -- AST helpers shared by rules ------------------------------------

    def parents(self) -> dict[ast.AST, ast.AST]:
        """Returns a child -> parent map of the whole tree (cached)."""
        if self._parents is None:
            self._parents = {}
            for node in ast.walk(self.tree):
                for child in ast.iter_child_nodes(node):
                    self._parents[child] = node
        return self._parents


class Rule:
    """Base class of all lint rules.

    Subclasses set ``rule_id``, ``name`` and ``description`` and
    implement :meth:`check`.  ``default_paths`` restricts the rule to
    path patterns (see :func:`path_matches`); ``None`` means the rule
    applies everywhere.
    """

    rule_id: str = ""
    name: str = ""
    description: str = ""
    default_paths: tuple[str, ...] | None = None

    def check(self, source: SourceFile) -> Iterable[Violation]:
        """Yield the rule's violations for one source file."""
        raise NotImplementedError

    def violation(self, source: SourceFile, node: ast.AST, message: str) -> Violation:
        """Returns a :class:`Violation` anchored at ``node``."""
        return Violation(
            path=source.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=self.rule_id,
            message=message,
        )


#: The open rule registry, keyed by rule id.
REGISTRY: dict[str, type[Rule]] = {}


def register_rule(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the registry (id must be unique)."""
    if not cls.rule_id:
        raise ValueError(f"rule {cls.__name__} has no rule_id")
    if cls.rule_id in REGISTRY and REGISTRY[cls.rule_id] is not cls:
        raise ValueError(f"duplicate rule id {cls.rule_id}")
    REGISTRY[cls.rule_id] = cls
    return cls


def registered_rules() -> list[type[Rule]]:
    """Returns the registered rule classes in id order.

    The built-in catalogue registers itself on import; importing it here
    makes the answer the same whichever module the caller loaded first.
    """
    from . import rules  # noqa: F401  (registry population)

    return [REGISTRY[k] for k in sorted(REGISTRY)]


def path_matches(path: str, pattern: str) -> bool:
    """Returns whether a posix ``path`` falls under a scope ``pattern``.

    ``pattern`` ending in ``/`` matches that directory name anywhere in
    the path (``core/`` matches ``src/repro/core/kernels.py``); any
    other pattern must match a trailing path suffix at a component
    boundary (``repro/cli.py`` matches ``src/repro/cli.py`` but not
    ``src/repro/analysis/cli.py``).
    """
    p = "/" + path.replace("\\", "/").strip("/")
    if pattern.endswith("/"):
        return f"/{pattern}" in p + "/"
    return p.endswith("/" + pattern)


@dataclass
class LintConfig:
    """Which rules run where.

    ``select`` limits the run to those rule ids (``None`` = all
    registered); ``ignore`` removes rules; ``rule_paths`` overrides each
    rule's ``default_paths`` scope (patterns per :func:`path_matches`).
    The default instance is tuned to this repository -- see
    ``docs/analysis.md``.
    """

    select: frozenset[str] | None = None
    ignore: frozenset[str] = frozenset()
    rule_paths: Mapping[str, tuple[str, ...] | None] = field(default_factory=dict)

    def active_rules(self) -> list[Rule]:
        """Returns instantiated rules enabled by select/ignore."""
        rules = []
        for cls in registered_rules():
            if self.select is not None and cls.rule_id not in self.select:
                continue
            if cls.rule_id in self.ignore:
                continue
            rules.append(cls())
        return rules

    def applies(self, rule: Rule, path: str) -> bool:
        """Returns whether ``rule`` is in scope for ``path``."""
        patterns = self.rule_paths.get(rule.rule_id, rule.default_paths)
        if patterns is None:
            return True
        return any(path_matches(path, pat) for pat in patterns)


def lint_source(text: str, path: str, config: LintConfig | None = None) -> list[Violation]:
    """Lint one in-memory source string; returns sorted violations.

    ``path`` is used both for display and for per-rule path scoping, so
    tests can place fixture snippets in any layer of the tree.
    """
    config = config or LintConfig()
    try:
        source = SourceFile(path, text)
    except SyntaxError as exc:
        return [
            Violation(
                path=path,
                line=exc.lineno or 1,
                col=(exc.offset or 0) + 1,
                rule="CL000",
                message=f"syntax error: {exc.msg}",
            )
        ]
    out: list[Violation] = []
    for rule in config.active_rules():
        if not config.applies(rule, path):
            continue
        for v in rule.check(source):
            if not source.disabled(v.rule, v.line):
                out.append(v)
    return sorted(out)


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Yield the ``.py`` files under ``paths`` (files or directories)."""
    for p in paths:
        p = Path(p)
        if p.is_dir():
            yield from sorted(
                f for f in p.rglob("*.py") if "egg-info" not in f.parts
            )
        elif p.suffix == ".py":
            yield p


def lint_paths(paths: Iterable[str | Path], config: LintConfig | None = None) -> list[Violation]:
    """Lint every python file under ``paths``; returns sorted violations."""
    config = config or LintConfig()
    out: list[Violation] = []
    for f in iter_python_files(paths):
        text = f.read_text(encoding="utf-8")
        out.extend(lint_source(text, str(f), config))
    return sorted(out)


def format_violations(violations: Iterable[Violation]) -> str:
    """Returns the report body, one ``file:line:col: RULE message`` per line."""
    return "\n".join(v.format() for v in violations)

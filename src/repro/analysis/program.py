"""The program model ``cubism-lint`` runs its rules over.

* :class:`Program` -- every analysed file read and parsed once into a
  :class:`SourceFile` (its text, tree, ``# lint: disable=RULE`` pragmas,
  parent map and functions), the files that do not parse as ``CL000``
  findings, and the one call-resolution policy: a bare ``name(...)``
  call resolves to the first def of that name in load order
  (:attr:`Program.functions`, :meth:`Program.closure`);
* :class:`Rule` and the one registry (:func:`register_rule`,
  :func:`registered_rules`).

Pragma syntax: a ``# lint: disable=RULE[,RULE...]`` comment on a line of
its own disables the rules for the whole file; a trailing pragma
disables them for the enclosing statement (every line of a multi-line
simple statement; only the header lines of a compound statement, so a
pragma on an ``if`` never silences its body).
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from .report import Violation

#: Pragma syntax: ``# lint: disable=CL001`` or ``# lint: disable=CL001,CL005``.
_PRAGMA_RE = re.compile(r"#\s*lint:\s*disable=([A-Za-z0-9_,\s]+)")

_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


@dataclass(eq=False)
class Function:
    """One ``def`` of the analysed program."""

    path: str
    name: str
    node: ast.FunctionDef | ast.AsyncFunctionDef


class SourceFile:
    """A parsed python file plus the metadata every rule reads.

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
        for node in self.nodes(ast.stmt):
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

    # -- structure ------------------------------------------------------

    @cached_property
    def _walk(self) -> list[ast.AST]:
        return list(ast.walk(self.tree))

    def nodes(self, *types: type) -> list:
        """The tree's nodes of ``types``, in ``ast.walk`` order."""
        return [node for node in self._walk if isinstance(node, types)]

    def parents(self) -> dict[ast.AST, ast.AST]:
        """Returns a child -> parent map of the whole tree (cached)."""
        if self._parents is None:
            self._parents = {}
            for node in self._walk:
                for child in ast.iter_child_nodes(node):
                    self._parents[child] = node
        return self._parents

    def enclosing_functions(self, node: ast.AST) -> list[ast.AST]:
        """The defs containing ``node``, innermost first (lambdas are
        transparent)."""
        parents = self.parents()
        out = []
        cur = parents.get(node)
        while cur is not None:
            if isinstance(cur, _FUNC_NODES):
                out.append(cur)
            cur = parents.get(cur)
        return out

    @cached_property
    def functions(self) -> list[Function]:
        """Every def of the file, in ``ast.walk`` order."""
        return [Function(self.path, node.name, node)
                for node in self.nodes(*_FUNC_NODES)]


class Program:
    """Every analysed file, parsed once, and the program's function table.

    ``sources`` maps display paths to parsed files in load order; a file
    that does not parse is left out and reported in ``errors`` as one
    ``CL000`` finding.
    """

    def __init__(self, sources: Mapping[str, str]):
        self.sources: dict[str, SourceFile] = {}
        self.errors: list[Violation] = []
        for path, text in sources.items():
            try:
                self.sources[path] = SourceFile(path, text)
            except SyntaxError as exc:
                self.errors.append(Violation(
                    path, exc.lineno or 1, (exc.offset or 0) + 1, "CL000",
                    f"syntax error: {exc.msg}",
                ))

    @classmethod
    def load(cls, paths: Iterable[str | Path]) -> "Program":
        """Reads and parses every python file under ``paths``.

        Raises :class:`OSError` naming the file when one cannot be read
        or is not UTF-8.
        """
        texts = {}
        for f in iter_python_files(paths):
            try:
                texts[str(f)] = f.read_text(encoding="utf-8")
            except UnicodeDecodeError as exc:
                raise OSError(
                    f"{f}: not UTF-8 ({exc.reason} at byte {exc.start})"
                ) from exc
        return cls(texts)

    @cached_property
    def functions(self) -> dict[str, Function]:
        """Bare name -> the first def of that name in load order: what a
        bare ``name(...)`` call anywhere in the program resolves to."""
        out: dict[str, Function] = {}
        for source in self.sources.values():
            for fn in source.functions:
                out.setdefault(fn.name, fn)
        return out

    def closure(self, roots: Iterable[str]) -> list[Function]:
        """The defs ``roots`` reach through bare-name calls, each once,
        roots included (a name with no def is left out).  Attribute calls
        (``np.sqrt``, methods of runtime objects) are not followed."""
        seen: dict[str, Function] = {}
        stack = list(roots)
        while stack:
            name = stack.pop()
            fn = self.functions.get(name)
            if fn is None or name in seen:
                continue
            seen[name] = fn
            stack.extend(node.func.id for node in ast.walk(fn.node)
                         if isinstance(node, ast.Call)
                         and isinstance(node.func, ast.Name))
        return list(seen.values())

    def unsuppressed(self, violations: Iterable[Violation]) -> list[Violation]:
        """The violations no ``# lint: disable`` pragma covers."""
        return [
            v for v in violations
            if v.path not in self.sources
            or not self.sources[v.path].disabled(v.rule, v.line)
        ]


def call_name(call: ast.Call) -> str | None:
    """Bare target name of a call (``np.sqrt`` -> ``sqrt``), or None."""
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


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


# -- rules ----------------------------------------------------------------


class Rule:
    """Base class of every lint rule.

    Subclasses set ``rule_id``, ``name`` and ``description`` and
    implement :meth:`check`, which takes one :class:`SourceFile`.
    ``paths`` restricts the rule to path patterns (see
    :func:`path_matches`); ``None`` means it applies everywhere, and
    ``scope`` says so in ``--list-rules``.
    """

    rule_id: str = ""
    name: str = ""
    description: str = ""
    paths: tuple[str, ...] | None = None
    scope: str = "all files"

    def check(self, source: SourceFile) -> Iterable[Violation]:
        """Yield the rule's violations in one file."""
        raise NotImplementedError

    def run(self, program: Program, in_scope) -> Iterator[Violation]:
        """Yield the rule's violations in every file of ``program`` for
        which ``in_scope(rule, path)`` holds."""
        for path, source in program.sources.items():
            if in_scope(self, path):
                yield from self.check(source)

    def violation(self, path: str, node, message: str) -> Violation:
        """Returns a :class:`Violation` anchored at ``node``."""
        return Violation(
            path=path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=self.rule_id,
            message=message,
        )


#: The rule registry, keyed by rule id.
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

    The catalogue (:mod:`repro.analysis.rules`) registers itself on
    import; importing it here makes the answer the same whichever module
    the caller loaded first.
    """
    from . import rules  # noqa: F401

    return [REGISTRY[k] for k in sorted(REGISTRY)]

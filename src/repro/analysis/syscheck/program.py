"""Whole-program resource/process facts for the RS rules.

Over the parsed :class:`~repro.analysis.program.Program` and its
function table, compute per-function *facts* --
resource acquisitions with their release/escape structure, lockset
regions with the calls they cover, blocking-call sites and
durable-write sites.  The rules in
:mod:`repro.analysis.syscheck.rules` are thin pattern matches over
these facts.

Bounded: one level of helper substitution (a helper
that *returns* a resource it created makes its call sites
acquisitions; a callee whose body blocks makes its call sites
blocking), resolved through the call graph by bare name with a
receiver-text hint for generic names (``self.cache.get`` resolves to
``ResultCache.get``; ``self._jobs.get`` -- a dict -- resolves to
nothing).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from ..program import (
    Function,
    Program,
    call_name,
    keyword,
    walk_own,
)
from .model import (
    BLOCKING_ATTRS,
    BLOCKING_CALLS,
    BLOCKING_PATH_IO,
    EAGER_KINDS,
    GENERIC_NAMES,
    LOCKLIKE_HINTS,
    QUEUE_RECEIVER_SUFFIXES,
    RELEASERS,
    RESOURCE_CTORS,
    WAIT_ATTRS,
    WITH_RELEASED_KINDS,
)

_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)
_LOOP_NODES = (ast.For, ast.AsyncFor, ast.While)
_COMP_NODES = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _dotted(node: ast.AST) -> str:
    """``a.b.c`` for Name/Attribute chains, '' for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _ctor_kind(call: ast.Call) -> str | None:
    return RESOURCE_CTORS.get(call_name(call))


def _locklike(expr: ast.expr) -> str | None:
    """Source text of a lock-acquiring ``with`` item, else ``None``."""
    if isinstance(expr, ast.Call) and call_name(expr) == "get_lock":
        return _dotted(expr.func.value) + ".get_lock()"
    text = _dotted(expr)
    low = text.lower()
    if text and any(h in low for h in LOCKLIKE_HINTS):
        return text
    return None


def _blocking_reason(call: ast.Call, held: frozenset = frozenset()) -> str | None:
    """Why this call blocks the calling thread, or ``None``.

    ``held`` is the set of held lock texts: waiting on the held lock
    itself (``with cv: cv.wait()``) releases it and is exempt.
    """
    dotted = _dotted(call.func)
    bare = call_name(call)
    if dotted in BLOCKING_CALLS or (not isinstance(call.func, ast.Attribute)
                                    and bare in ("open", "sleep")):
        return f"{dotted or bare}() is blocking IO"
    if not isinstance(call.func, ast.Attribute):
        return None
    attr = call.func.attr
    recv_node = call.func.value
    recv = _dotted(recv_node)
    if attr in BLOCKING_ATTRS:
        # ", ".join(...) / os.path.join(...) are not thread joins.
        if attr == "join" and (
            isinstance(recv_node, ast.Constant)
            or recv.endswith("path")
            or recv in ("os", "posixpath", "ntpath")
        ):
            return None
        return f".{attr}() blocks until the peer yields"
    if attr in WAIT_ATTRS:
        if recv and recv in held:
            return None  # condition wait releases the held lock
        return f".{attr}() parks the calling thread"
    if attr == "get" and not attr.endswith("nowait"):
        low = recv.lower()
        if low.endswith(QUEUE_RECEIVER_SUFFIXES):
            return ".get() blocks on an empty queue"
    if attr in BLOCKING_PATH_IO:
        return f".{attr}() is file IO"
    return None


def _branch_arms(node: ast.AST, stop: ast.AST,
                 parents: dict, var: str | None = None) -> frozenset:
    """Branch arms between ``node`` and ``stop`` (exclusive).

    Each arm is ``(id(ancestor), field)`` for If bodies/orelse, except
    handlers, loop bodies and Try orelse -- the constructs a statement
    may not reach.  An ``if`` whose test mentions ``var`` (the
    ``if handle is not None: handle.close()`` idiom) is not counted.
    """
    arms = set()
    child = node
    cur = parents.get(node)
    while cur is not None and cur is not stop:
        fields = ()
        if isinstance(cur, ast.If):
            fields = ("body", "orelse")
        elif isinstance(cur, ast.ExceptHandler):
            fields = ("body",)
        elif isinstance(cur, _LOOP_NODES):
            fields = ("body", "orelse")
        elif isinstance(cur, ast.Try):
            fields = ("orelse",)
        for f in fields:
            if child in getattr(cur, f, []):
                guarded = (
                    var is not None
                    and isinstance(cur, ast.If)
                    and any(isinstance(n, ast.Name) and n.id == var
                            for n in ast.walk(cur.test))
                )
                if not guarded:
                    arms.add((id(cur), f))
        child = cur
        cur = parents.get(cur)
    return frozenset(arms)


def _call_statements(fn: ast.AST):
    """``(statement, call, targets)`` of each call ``fn`` binds with an
    assignment (``targets`` its targets) or drops as an expression
    statement (``targets`` None)."""
    for node in walk_own(fn):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            yield node, node.value, node.targets
        elif (isinstance(node, ast.AnnAssign)
              and isinstance(node.value, ast.Call)):
            yield node, node.value, [node.target]
        elif isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            yield node, node.value, None


def _enclosing_stmt(node: ast.AST, parents: dict) -> ast.stmt | None:
    cur = node
    while cur is not None and not isinstance(cur, ast.stmt):
        cur = parents.get(cur)
    return cur


@dataclass
class Release:
    node: ast.AST
    line: int
    method: str
    covered_by_finally: bool = False  # finally of a try enclosing the acquire
    finally_after_acq: bool = False   # finally of a try *after* the acquire
    guard_try: ast.Try | None = None
    conditional: bool = False


@dataclass
class Acquisition:
    var: str | None
    kind: str
    call: ast.Call
    stmt: ast.stmt
    started: bool = False       # .start() seen (process/thread kinds)
    escaped: bool = False
    discarded: bool = False     # bare-expression acquire, never bound
    bulk: bool = False          # constructed inside a loop/comprehension
    bulk_guarded: bool = False  # ... whose enclosing try releases handles
    from_helper: str | None = None
    releases: list[Release] = field(default_factory=list)


@dataclass
class LockedCall:
    call: ast.Call
    held: frozenset  # lock texts


@dataclass(eq=False)
class FuncInfo(Function):
    """A function with the facts the analysis passes fill in."""

    acquisitions: list[Acquisition] = field(default_factory=list)
    locked_calls: list[LockedCall] = field(default_factory=list)
    blocking_direct: list[tuple] = field(default_factory=list)
    write_opens: list[ast.Call] = field(default_factory=list)
    path_writes: list[ast.Call] = field(default_factory=list)
    calls_fsync: bool = False
    calls_replace: bool = False
    #: kinds of resources this function creates and hands to its caller
    returned_kinds: frozenset = frozenset()
    returns_started_thread: bool = False


class SysProgram:
    """Parsed sources plus the program-wide fact tables."""

    def __init__(self, program: Program):
        self.program = program
        self.sources = program.sources
        #: the facts of each function of the program, by path
        self._info: dict[Function, FuncInfo] = {
            fn: FuncInfo(**vars(fn))
            for path in sorted(self.sources)
            for fn in self.sources[path].functions
        }
        infos = self.infos()
        # Pass 1: direct facts (needed before helper substitution can
        # resolve resource-returning callees in any order).
        for info in infos:
            self._analyze_direct(info)
            self._returned_resources(info)
        # Pass 2: one-level helper substitution + lockset regions.
        for info in infos:
            self._analyze_helpers(info)
            self._find_locked_calls(info)
        callees = {info: [t for node in walk_own(info.node)
                          if isinstance(node, ast.Call)
                          and (t := self.resolve(node, info)) is not None]
                   for info in infos}
        # Blocking spreads up the call graph to its fixed point: a
        # function blocks through the first of its callees that does.
        self._bearing = {info: info.blocking_direct[0][1] for info in infos
                         if info.blocking_direct}
        changed = True
        while changed:
            changed = False
            for info in infos:
                if info in self._bearing:
                    continue
                target = next((t for t in callees[info]
                               if t in self._bearing), None)
                if target is not None:
                    self._bearing[info] = (f"calls {target.qualname}() "
                                           f"which {self._bearing[target]}")
                    changed = True

    # -- per-function facts --------------------------------------------

    def infos(self) -> list[FuncInfo]:
        """Every function, by path in sorted order."""
        return list(self._info.values())

    def named(self, name: str) -> list[FuncInfo]:
        """The functions defined under bare ``name``."""
        return [self._info[fn] for fn in self.program.functions.get(name, ())]

    def _analyze_direct(self, info: FuncInfo) -> None:
        for node in walk_own(info.node):
            if not isinstance(node, ast.Call):
                continue
            reason = _blocking_reason(node)
            if reason is not None:
                info.blocking_direct.append((node, reason))
            dotted = _dotted(node.func)
            bare = call_name(node)
            if dotted == "os.fsync":
                info.calls_fsync = True
            if dotted in ("os.replace", "os.rename"):
                info.calls_replace = True
            if bare == "open":
                mode = (node.args[1] if len(node.args) > 1
                        else keyword(node, "mode"))
                if (isinstance(mode, ast.Constant)
                        and isinstance(mode.value, str)
                        and mode.value.startswith(("w", "x"))):
                    info.write_opens.append(node)
            if bare in ("write_text", "write_bytes"):
                info.path_writes.append(node)
        acqs: list[Acquisition] = []
        for stmt, call, targets in _call_statements(info.node):
            kind = _ctor_kind(call)
            if kind is None:
                continue
            if targets is None:
                if kind in EAGER_KINDS:
                    # `open(...)` / `SharedMemory(...)` never bound: the
                    # handle is unreachable the moment it is created.
                    acqs.append(Acquisition(
                        var=None, kind=kind, call=call, stmt=stmt,
                        discarded=True,
                    ))
            elif len(targets) == 1 and isinstance(targets[0], ast.Name):
                acqs.append(Acquisition(
                    var=targets[0].id, kind=kind, call=call, stmt=stmt,
                ))
        self._trace(info, acqs)

    def _analyze_helpers(self, info: FuncInfo) -> None:
        """One-level substitution of resource-returning local helpers."""
        extra: list[Acquisition] = []
        for stmt, call, targets in _call_statements(info.node):
            if _ctor_kind(call):
                continue
            helper = self._resource_helper(call, info)
            if helper is None:
                continue
            if targets is None:
                if (helper.returned_kinds & EAGER_KINDS
                        or helper.returns_started_thread):
                    kinds = ",".join(sorted(helper.returned_kinds))
                    extra.append(Acquisition(
                        var=None, kind=kinds or "thread", call=call,
                        stmt=stmt, discarded=True,
                        started=helper.returns_started_thread,
                        from_helper=helper.qualname,
                    ))
                continue
            names: list[str] = []
            if len(targets) == 1 and isinstance(targets[0], ast.Name):
                names = [targets[0].id]
            elif len(targets) == 1 and isinstance(targets[0], ast.Tuple):
                names = [e.id for e in targets[0].elts
                         if isinstance(e, ast.Name)]
            for hk in sorted(helper.returned_kinds):
                for name in names:
                    extra.append(Acquisition(
                        var=name, kind=hk, call=call, stmt=stmt,
                        started=helper.returns_started_thread,
                        from_helper=helper.qualname,
                    ))
        self._trace(info, extra)

    def _trace(self, info: FuncInfo, acqs: list[Acquisition]) -> None:
        """Finds the releases, escapes and loops of new acquisitions."""
        parents = self.sources[info.path].parents()
        for acq in acqs:
            if acq.var is not None:
                self._trace_var(info, acq, parents)
            self._classify_bulk(info, acq, parents)
        info.acquisitions.extend(acqs)

    def _resource_helper(self, call: ast.Call, info: FuncInfo):
        """The resource-returning local helper this call invokes, if any."""
        target = self.resolve(call, info)
        if target is not None and (target.returned_kinds
                                   or target.returns_started_thread):
            return target
        return None

    def _trace_var(self, info: FuncInfo, acq: Acquisition,
                   parents: dict) -> None:
        fn = info.node
        var = acq.var
        releasers = RELEASERS.get(acq.kind, frozenset())
        for node in walk_own(fn):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                recv = node.func.value
                if isinstance(recv, ast.Name) and recv.id == var:
                    attr = node.func.attr
                    if attr in releasers:
                        acq.releases.append(self._release(node, acq, fn,
                                                          parents, var))
                    elif attr == "start":
                        acq.started = True
                    continue  # other method use: neutral, not an escape
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id == var:
                continue
            if isinstance(node, (ast.For, ast.AsyncFor)) and isinstance(
                node.iter, ast.Name
            ) and node.iter.id == var:
                # `for h in handles:` + h.close()/h.unlink() releases the
                # collection bound to `handles` (helper-returned bulk).
                loop_var = (node.target.id
                            if isinstance(node.target, ast.Name) else None)
                if loop_var and any(
                    isinstance(c, ast.Call)
                    and isinstance(c.func, ast.Attribute)
                    and c.func.attr in releasers
                    and isinstance(c.func.value, ast.Name)
                    and c.func.value.id == loop_var
                    for b in node.body for c in ast.walk(b)
                ):
                    acq.releases.append(self._release(node, acq, fn,
                                                      parents, var))
                continue
            if isinstance(node, ast.Name) and node.id == var and isinstance(
                node.ctx, ast.Load
            ):
                if self._escapes(node, parents):
                    acq.escaped = True
        if acq.kind in WITH_RELEASED_KINDS:
            for node in walk_own(fn):
                if isinstance(node, ast.With):
                    for item in node.items:
                        if isinstance(item.context_expr, ast.Name) \
                                and item.context_expr.id == var:
                            acq.releases.append(self._release(
                                node, acq, fn, parents, var))

    def _escapes(self, name: ast.Name, parents: dict) -> bool:
        parent = parents.get(name)
        # receiver of an attribute access (h.buf, h.close()): neutral
        if isinstance(parent, ast.Attribute) and parent.value is name:
            return False
        # (h,), [h], {..: h}, h if cond else .. -- look through one level
        if isinstance(parent, (ast.Tuple, ast.List, ast.Set, ast.Dict,
                               ast.IfExp, ast.Starred)):
            name, parent = parent, parents.get(parent)
        if isinstance(parent, (ast.Call, ast.keyword)):
            return True  # argument to any call transfers ownership
        if isinstance(parent, (ast.Return, ast.Yield, ast.YieldFrom, ast.Raise)):
            return True
        if isinstance(parent, ast.Assign) and parent.value is name:
            return True  # alias / attribute / subscript store
        if isinstance(parent, ast.Subscript):
            # d[h]: key use does not transfer; h[...] neither
            return False
        return False

    def _release(self, node: ast.AST, acq: Acquisition, fn: ast.AST,
                 parents: dict, var: str) -> Release:
        rel = Release(node=node, line=node.lineno,
                      method=getattr(getattr(node, "func", None), "attr",
                                     "for-loop"))
        cur = node
        while cur is not None and cur is not fn:
            parent = parents.get(cur)
            if isinstance(parent, ast.Try) and cur in parent.finalbody:
                try_node = parent
                in_try = any(
                    acq.stmt is s or any(acq.stmt is w for w in ast.walk(s))
                    for s in try_node.body
                )
                if in_try:
                    rel.covered_by_finally = True
                elif acq.stmt.lineno < try_node.lineno:
                    rel.finally_after_acq = True
                    rel.guard_try = try_node
                return rel
            cur = parent
        acq_arms = _branch_arms(acq.stmt, fn, parents)
        rel_stmt = _enclosing_stmt(node, parents) or node
        rel_arms = _branch_arms(rel_stmt, fn, parents, var=var)
        rel.conditional = not rel_arms.issubset(acq_arms)
        return rel

    def _classify_bulk(self, info: FuncInfo, acq: Acquisition,
                       parents: dict) -> None:
        if acq.kind not in EAGER_KINDS:
            return
        cur = acq.call
        loop = None
        while cur is not None and cur is not info.node:
            cur = parents.get(cur)
            if isinstance(cur, _LOOP_NODES + _COMP_NODES):
                loop = cur
                break
        if loop is None:
            return
        acq.bulk = True
        releasers = RELEASERS.get(acq.kind, frozenset())
        cur = loop
        while cur is not None and cur is not info.node:
            cur = parents.get(cur)
            if isinstance(cur, ast.Try):
                cleanup = list(cur.finalbody)
                for h in cur.handlers:
                    cleanup.extend(h.body)
                for stmt in cleanup:
                    for c in ast.walk(stmt):
                        if (isinstance(c, ast.Call)
                                and isinstance(c.func, ast.Attribute)
                                and c.func.attr in releasers):
                            acq.bulk_guarded = True
                            return
        # A helper-returned collection released by the caller inside a
        # try/finally also counts as guarded at the acquiring side when
        # the loop lives inside that same function's try.  (Handled
        # above; nothing more to do here.)

    def risky_between(self, info: FuncInfo, lo: int, hi: int,
                      exclude_receiver: str | None = None) -> bool:
        """Any call/raise/assert (a potential raise) on a line in (lo, hi)?

        ``exclude_receiver`` skips method calls on that name: used for
        process/thread handles, where ``h.start()`` raising means no OS
        state was created and there is nothing to leak.
        """
        for node in walk_own(info.node):
            if not isinstance(node, (ast.Call, ast.Raise, ast.Assert)):
                continue
            if not lo < getattr(node, "lineno", lo) < hi:
                continue
            if (exclude_receiver is not None
                    and isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == exclude_receiver):
                continue
            return True
        return False

    # .. locksets ......................................................

    def _find_locked_calls(self, info: FuncInfo) -> None:
        out: list[LockedCall] = []

        def visit_expr(node: ast.AST, held: frozenset) -> None:
            if isinstance(node, _FUNC_NODES + (ast.Lambda,)):
                return
            if isinstance(node, ast.Call) and held:
                out.append(LockedCall(call=node, held=held))
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.stmt):
                    continue
                visit_expr(child, held)

        def visit_stmt_fields(stmt: ast.stmt, held: frozenset) -> None:
            if isinstance(stmt, _FUNC_NODES):
                return
            for _, value in ast.iter_fields(stmt):
                if isinstance(value, list):
                    if value and all(isinstance(x, ast.stmt) for x in value):
                        visit_block(value, held)
                    else:
                        for item in value:
                            if isinstance(item, ast.ExceptHandler):
                                visit_block(item.body, held)
                            elif isinstance(item, ast.AST):
                                visit_expr(item, held)
                elif isinstance(value, ast.AST):
                    visit_expr(value, held)

        def visit_block(stmts: list, held: frozenset) -> None:
            span: set = set()
            for stmt in stmts:
                cur = held | frozenset(span)
                if isinstance(stmt, (ast.With, ast.AsyncWith)):
                    texts = []
                    for item in stmt.items:
                        visit_expr(item.context_expr, cur)
                        text = _locklike(item.context_expr)
                        if text:
                            texts.append(text)
                    visit_block(stmt.body, cur | frozenset(texts))
                    continue
                if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call) \
                        and isinstance(stmt.value.func, ast.Attribute):
                    attr = stmt.value.func.attr
                    recv = _dotted(stmt.value.func.value)
                    if recv and any(h in recv.lower() for h in LOCKLIKE_HINTS):
                        if attr == "acquire":
                            span.add(recv)
                            continue
                        if attr == "release":
                            span.discard(recv)
                            continue
                visit_stmt_fields(stmt, cur)

        visit_block(list(info.node.body), frozenset())
        info.locked_calls = out

    # .. resource-returning helpers ....................................

    def _returned_resources(self, info: FuncInfo) -> None:
        kinds: set = set()
        started = False
        returned_names: set = set()
        for node in walk_own(info.node):
            if isinstance(node, ast.Return) and node.value is not None:
                for sub in ast.walk(node.value):
                    if isinstance(sub, ast.Name):
                        returned_names.add(sub.id)
                    elif isinstance(sub, ast.Call):
                        k = _ctor_kind(sub)
                        if k is not None:
                            kinds.add(k)
        for acq in info.acquisitions:
            if acq.var is None:
                continue
            direct = acq.var in returned_names
            via_container = False
            if not direct:
                # h appended to a local list that is itself returned
                for node in walk_own(info.node):
                    if (isinstance(node, ast.Call)
                            and isinstance(node.func, ast.Attribute)
                            and node.func.attr in ("append", "add")
                            and isinstance(node.func.value, ast.Name)
                            and node.func.value.id in returned_names
                            and any(isinstance(a, ast.Name) and a.id == acq.var
                                    for a in node.args)):
                        via_container = True
                        break
            if direct or via_container:
                kinds.add(acq.kind)
                if acq.kind == "thread" and acq.started:
                    started = True
        info.returned_kinds = frozenset(kinds)
        info.returns_started_thread = started

    # -- call-graph resolution -----------------------------------------

    def _hints(self, cand: FuncInfo) -> tuple:
        stem = cand.path.rsplit("/", 1)[-1]
        stem = stem[:-3] if stem.endswith(".py") else stem
        hints = [stem.lower()]
        if cand.class_name:
            hints.append(cand.class_name.lower().lstrip("_"))
        return tuple(hints)

    def resolve(self, call: ast.Call, info: FuncInfo) -> FuncInfo | None:
        """The def a call from ``info`` reaches, or None.

        sys-check's resolution policy: a bare call resolves to the one
        def of its name in the caller's file, else to the program's only
        def of a non-generic name; ``self.m()`` to the caller's class; a
        generic method name (``get``, ``put``, ...) only when the
        receiver text names the defining module or class.
        """
        bare = call_name(call)
        if not bare:
            return None
        cands = self.named(bare)
        if not cands:
            return None
        func = call.func
        if isinstance(func, ast.Name):
            same_file = [c for c in cands if c.path == info.path]
            if len(same_file) == 1:
                return same_file[0]
            if len(cands) == 1 and bare not in GENERIC_NAMES:
                return cands[0]
            return None
        recv = _dotted(func.value)
        if recv == "self":
            own = [c for c in cands if c.path == info.path
                   and c.class_name == info.class_name]
            if len(own) == 1:
                return own[0]
            return None
        if bare not in GENERIC_NAMES:
            if len(cands) == 1:
                return cands[0]
            same_file = [c for c in cands if c.path == info.path]
            if len(same_file) == 1:
                return same_file[0]
            return None
        # Generic name (`get`, `put`, ...): require the receiver text to
        # name the defining module or class, so `self.cache.get` finds
        # ResultCache.get while `self._jobs.get` (a dict) finds nothing.
        low = recv.lower()
        hinted = [c for c in cands
                  if any(h and h in low for h in self._hints(c))]
        if len(hinted) == 1:
            return hinted[0]
        return None

    def bearing_reason(self, target: FuncInfo) -> str | None:
        return self._bearing.get(target)

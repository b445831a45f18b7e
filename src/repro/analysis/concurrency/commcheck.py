"""comm-check: static verification of the cluster layer's MPI protocol.

The paper's cluster layer is correct only if three structural properties
hold on *every* rank of the SPMD program (SC13 Section 6):

1. **halo symmetry** -- every non-blocking face send has a matching
   receive for the same ``(neighbor, tag)`` edge on the peer rank;
2. **uniform collectives** -- reductions, scans and barriers are issued
   in identical order on all ranks, so no collective (or call into a
   collective-performing function) may sit under a rank-dependent
   conditional;
3. **endpoint consistency** -- the two ends of a point-to-point edge
   agree on the message tag and payload dtype.

comm-check proves these properties *statically*.  Over the parsed
:class:`~repro.analysis.program.Program` it extracts a per-rank
**communication skeleton** -- every ``comm.send/isend/recv/irecv`` and
collective call site, with symbolic peer, tag and payload-dtype
arguments -- and then runs whole-program rules over the skeleton.  A
call by bare name may reach every def of that name: comm-check resolves
``f(...)`` and ``obj.f(...)`` alike through the program's function
table, so a method that performs a collective is found through any
receiver.

Because ranks execute the same program, symmetry is checked on the
skeleton itself: the set of tags a rank can post must equal the set of
tags a rank can wait for.  Tags are made concrete by a bounded abstract
interpreter that

* enumerates enclosing ``for`` loops over literal ``range(...)`` /
  tuple iterables (the halo code's ``for axis in range(3): for side in
  (-1, 1)``),
* prunes enumerated bindings through statically decidable enclosing
  ``if`` guards,
* inlines module-level pure helper functions (single ``return``
  expression, e.g. ``_face_tag``), and
* substitutes through one level of wrapper calls when a tag/peer is a
  parameter of the enclosing function (e.g. ``HaloExchange._send_frame``).

Whatever cannot be decided statically is treated conservatively: an
un-enumerable tag matches everything, so comm-check reports **zero
findings on correct-but-dynamic protocols** and flags only provable
asymmetries.

Findings are ordinary :class:`~repro.analysis.report.Violation` records
under CC-series rule ids (CC001..CC004), honor ``# lint: disable=CC...``
pragmas, and accumulate in a :class:`~repro.analysis.report.Report`.
Run it with ``python -m repro.analysis --concurrency [paths]``.
"""

from __future__ import annotations

import ast
import copy
import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from ..program import (
    Program,
    Rule,
    SourceFile,
    call_name,
    propagate,
    register_rule,
    registered_rules,
)
from ..report import Report, Violation

#: Method names of the communicator API, by role (mpi4py conventions:
#: lowercase = python objects, capitalized = NumPy arrays).
SEND_METHODS = frozenset({"send", "isend", "Send", "Isend"})
RECV_METHODS = frozenset({"recv", "irecv", "Recv", "Irecv"})
COLLECTIVE_METHODS = frozenset({
    "barrier", "allreduce", "bcast", "gather", "allgather", "exscan",
    "reduce", "scatter", "scan", "alltoall",
})

#: Wildcard marker for peers/tags (``ANY_SOURCE`` / ``ANY_TAG`` / -1).
ANY = "<any>"

#: Bound on enumerated binding combinations per call site -- protocols
#: with larger literal iteration spaces degrade to "not enumerable"
#: rather than blowing up the analysis.
MAX_COMBOS = 512

#: Bound on wrapper call sites substituted per unresolved comm op.
MAX_CALL_SITES = 20


def _is_comm_receiver(expr: ast.expr) -> bool:
    """Is ``expr`` a communicator object reference (``comm``, ``self.comm``)?

    Matching is by name convention: the receiver's dotted path must end
    in a ``comm``-named component.  This keeps the communicator's *own*
    implementation (``self.send(...)`` inside ``SimComm``) out of the
    skeleton.
    """
    try:
        text = ast.unparse(expr)
    except Exception:  # pragma: no cover - unparse failure  # lint: disable=CL005
        return False
    last = text.split(".")[-1]
    return last == "comm" or last.endswith("_comm")


class _NotStatic(Exception):
    """An expression could not be evaluated statically."""


@dataclass(frozen=True)
class CommSite:
    """One communication call site of the extracted skeleton."""

    kind: str  #: "send" | "recv" | "collective"
    method: str  #: communicator method name at the site
    path: str
    lineno: int
    col_offset: int
    func: str  #: bare name of the enclosing function ("" = module level)
    peer: str  #: canonical dest/source text; :data:`ANY` for wildcards
    tag_text: str  #: canonical tag expression text; :data:`ANY` for wildcards
    tags: frozenset[int] | None  #: enumerated concrete tags (None = dynamic)
    rank_conditions: tuple[str, ...]  #: enclosing rank-dependent tests
    dtype: str | None  #: payload dtype evidence, when derivable


@dataclass(frozen=True)
class LocalCall:
    """A call to a locally defined function (for interprocedural checks)."""

    callee: str
    path: str
    lineno: int
    col_offset: int
    rank_conditions: tuple[str, ...]


@dataclass
class CommProgram:
    """The whole-program communication skeleton comm-check rules consume."""

    sites: list[CommSite] = field(default_factory=list)
    local_calls: list[LocalCall] = field(default_factory=list)
    #: bare names of locally defined functions that (transitively)
    #: execute a collective operation
    collective_bearing: set[str] = field(default_factory=set)

    def sends(self) -> list[CommSite]:
        """Returns the point-to-point send sites (list)."""
        return [s for s in self.sites if s.kind == "send"]

    def recvs(self) -> list[CommSite]:
        """Returns the point-to-point receive sites (list)."""
        return [s for s in self.sites if s.kind == "recv"]

    def collectives(self) -> list[CommSite]:
        """Returns the collective call sites (list)."""
        return [s for s in self.sites if s.kind == "collective"]


# -- static expression evaluation ----------------------------------------


_BINOPS = {
    ast.Add: lambda a, b: a + b,
    ast.Sub: lambda a, b: a - b,
    ast.Mult: lambda a, b: a * b,
    ast.FloorDiv: lambda a, b: a // b,
    ast.Mod: lambda a, b: a % b,
    ast.Pow: lambda a, b: a ** b,
}

_CMPOPS = {
    ast.Eq: lambda a, b: a == b,
    ast.NotEq: lambda a, b: a != b,
    ast.Lt: lambda a, b: a < b,
    ast.LtE: lambda a, b: a <= b,
    ast.Gt: lambda a, b: a > b,
    ast.GtE: lambda a, b: a >= b,
}


def _eval_static(node: ast.expr, env: dict, funcs: dict, depth: int = 0):
    """Evaluate a side-effect-free expression statically.

    ``env`` binds names to constants; ``funcs`` maps local pure-function
    names to ``(params, return_expr)`` for inlining.  Raises
    :class:`_NotStatic` for anything outside the supported fragment.
    Returns the evaluated python value.
    """
    if depth > 8:
        raise _NotStatic("recursion bound")
    if isinstance(node, ast.Constant):
        return node.value
    if isinstance(node, ast.Name):
        if node.id in env:
            return env[node.id]
        raise _NotStatic(node.id)
    if isinstance(node, ast.UnaryOp):
        v = _eval_static(node.operand, env, funcs, depth + 1)
        if isinstance(node.op, ast.USub):
            return -v
        if isinstance(node.op, ast.UAdd):
            return +v
        if isinstance(node.op, ast.Not):
            return not v
        raise _NotStatic("unary op")
    if isinstance(node, ast.BinOp):
        fn = _BINOPS.get(type(node.op))
        if fn is None:
            raise _NotStatic("binop")
        return fn(
            _eval_static(node.left, env, funcs, depth + 1),
            _eval_static(node.right, env, funcs, depth + 1),
        )
    if isinstance(node, ast.BoolOp):
        vals = [_eval_static(v, env, funcs, depth + 1) for v in node.values]
        if isinstance(node.op, ast.And):
            result = True
            for v in vals:
                result = v
                if not v:
                    break
            return result
        result = False
        for v in vals:
            result = v
            if v:
                break
        return result
    if isinstance(node, ast.Compare):
        left = _eval_static(node.left, env, funcs, depth + 1)
        for op, comparator in zip(node.ops, node.comparators):
            fn = _CMPOPS.get(type(op))
            if fn is None:
                raise _NotStatic("compare op")
            right = _eval_static(comparator, env, funcs, depth + 1)
            if not fn(left, right):
                return False
            left = right
        return True
    if isinstance(node, ast.IfExp):
        test = _eval_static(node.test, env, funcs, depth + 1)
        branch = node.body if test else node.orelse
        return _eval_static(branch, env, funcs, depth + 1)
    if isinstance(node, ast.Call):
        name = None
        if isinstance(node.func, ast.Name):
            name = node.func.id
        elif isinstance(node.func, ast.Attribute):
            name = node.func.attr
        if name is not None and name in funcs:
            params, ret = funcs[name]
            bound: dict = {}
            for p, a in zip(params, node.args):
                bound[p] = _eval_static(a, env, funcs, depth + 1)
            for kw in node.keywords:
                if kw.arg is None or kw.arg not in params:
                    raise _NotStatic("call keywords")
                bound[kw.arg] = _eval_static(kw.value, env, funcs, depth + 1)
            if len(bound) != len(params):
                raise _NotStatic("unbound params")
            return _eval_static(ret, bound, funcs, depth + 1)
        raise _NotStatic("call")
    raise _NotStatic(type(node).__name__)


def _free_names(node: ast.expr) -> set[str]:
    """Names referenced anywhere inside an expression (set of str)."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


class _Subst(ast.NodeTransformer):
    """Substitute parameter names with caller argument expressions."""

    def __init__(self, mapping: dict[str, ast.expr]):
        self.mapping = mapping

    def visit_Name(self, node: ast.Name):  # noqa: N802 (ast API)
        """Returns the replacement expression for mapped names (ast.expr)."""
        if node.id in self.mapping:
            return copy.deepcopy(self.mapping[node.id])
        return node


def _substituted(expr: ast.expr, mapping: dict[str, ast.expr]) -> ast.expr:
    """Returns a copy of ``expr`` with parameter names substituted."""
    return ast.fix_missing_locations(_Subst(mapping).visit(copy.deepcopy(expr)))


# -- per-file context ----------------------------------------------------


class _FileContext:
    """Extraction context of one parsed file: its constant environment
    and the inlineable pure helper functions."""

    def __init__(self, source: SourceFile):
        self.source = source
        self.parents = source.parents()
        self.consts = source.consts
        self.pure_funcs: dict[str, tuple[list[str], ast.expr]] = {}
        for fn in source.functions:
            pure = self._pure_return(fn.node)
            if pure is not None:
                self.pure_funcs[fn.name] = pure

    @staticmethod
    def _pure_return(fn) -> tuple[list[str], ast.expr] | None:
        """``(params, return_expr)`` for single-return helpers, else None."""
        body = [
            s for s in fn.body
            if not (isinstance(s, ast.Expr) and isinstance(s.value, ast.Constant))
        ]
        if len(body) != 1 or not isinstance(body[0], ast.Return):
            return None
        if body[0].value is None:
            return None
        params = [a.arg for a in fn.args.args]
        return params, body[0].value

    def context_of(self, node: ast.AST):
        """Ancestry-derived context of a call site.

        Returns ``(bindings, guards, rank_conditions)`` where
        ``bindings`` maps enumerable loop variables to their literal
        values, ``guards`` is a list of ``(test, polarity)`` for
        enclosing ``if``/ternary branches, and ``rank_conditions`` the
        unparsed tests that mention a rank.
        """
        bindings: dict[str, list] = {}
        guards: list[tuple[ast.expr, bool]] = []
        rank_conditions: list[str] = []
        prev: ast.AST = node
        cur = self.parents.get(node)
        while cur is not None:
            if isinstance(cur, ast.For):
                values = self._literal_iter(cur.iter)
                if (
                    values is not None
                    and isinstance(cur.target, ast.Name)
                    and cur.target.id not in bindings
                ):
                    bindings[cur.target.id] = values
            elif isinstance(cur, (ast.If, ast.IfExp)):
                body = cur.body if isinstance(cur.body, list) else [cur.body]
                orelse = cur.orelse if isinstance(cur.orelse, list) else [cur.orelse]
                if prev in body:
                    guards.append((cur.test, True))
                elif prev in orelse:
                    guards.append((cur.test, False))
                if prev is not cur.test and self._mentions_rank(cur.test):
                    rank_conditions.append(ast.unparse(cur.test))
            elif isinstance(cur, ast.While):
                if prev in cur.body and self._mentions_rank(cur.test):
                    rank_conditions.append(ast.unparse(cur.test))
            prev, cur = cur, self.parents.get(cur)
        return bindings, guards, tuple(rank_conditions)

    @staticmethod
    def _literal_iter(it: ast.expr) -> list | None:
        """The literal values of an enumerable loop iterable, or None."""
        if (
            isinstance(it, ast.Call)
            and isinstance(it.func, ast.Name)
            and it.func.id == "range"
            and 1 <= len(it.args) <= 3
            and not it.keywords
        ):
            try:
                args = [_eval_static(a, {}, {}) for a in it.args]
            except _NotStatic:
                return None
            if all(isinstance(a, int) for a in args):
                values = list(range(*args))
                return values if len(values) <= MAX_COMBOS else None
            return None
        if isinstance(it, (ast.Tuple, ast.List)):
            try:
                return [_eval_static(e, {}, {}) for e in it.elts]
            except _NotStatic:
                return None
        return None

    @staticmethod
    def _mentions_rank(test: ast.expr) -> bool:
        """Does a conditional test reference a rank identity?"""
        for n in ast.walk(test):
            if isinstance(n, ast.Name) and n.id == "rank":
                return True
            if isinstance(n, ast.Attribute) and n.attr == "rank":
                return True
        return False

    def enumerate_expr(
        self,
        expr: ast.expr,
        bindings: dict[str, list],
        guards: list[tuple[ast.expr, bool]],
        extra_funcs: dict | None = None,
    ) -> frozenset | None:
        """Concrete values of ``expr`` over the binding space, or None.

        Guard tests that evaluate statically prune the binding space
        (combinations on dead branches do not contribute); guards that
        cannot be decided are ignored (conservative over-approximation).
        Returns ``None`` when the expression is not statically
        enumerable.
        """
        funcs = dict(self.pure_funcs)
        if extra_funcs:
            funcs.update(extra_funcs)
        relevant = _free_names(expr)
        for test, _pol in guards:
            relevant |= _free_names(test)
        names = [n for n in relevant if n in bindings]
        spaces = [bindings[n] for n in names]
        total = 1
        for s in spaces:
            total *= max(1, len(s))
        if total > MAX_COMBOS:
            return None
        values = set()
        for combo in itertools.product(*spaces) if names else [()]:
            env = dict(self.consts)
            env.update(dict(zip(names, combo)))
            alive = True
            for test, pol in guards:
                try:
                    holds = bool(_eval_static(test, env, funcs))
                except _NotStatic:
                    continue
                if holds != pol:
                    alive = False
                    break
            if not alive:
                continue
            try:
                values.add(_eval_static(expr, env, funcs))
            except _NotStatic:
                return None
        return frozenset(values)


# -- skeleton extraction -------------------------------------------------


@dataclass
class _RawOp:
    """A comm call site before peer/tag resolution."""

    ctx: _FileContext
    call: ast.Call
    kind: str
    method: str
    peer_ast: ast.expr | None
    tag_ast: ast.expr | None
    payload_ast: ast.expr | None


def _arg_or_kw(call: ast.Call, index: int, name: str) -> ast.expr | None:
    """Positional-or-keyword argument of a call, or None if absent."""
    if len(call.args) > index:
        return call.args[index]
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value
    return None


def _raw_ops(ctx: _FileContext) -> Iterator[_RawOp]:
    """Yield every communicator call site of one file."""
    for node in ctx.source.nodes(ast.Call):
        if not isinstance(node.func, ast.Attribute):
            continue
        method = node.func.attr
        if not _is_comm_receiver(node.func.value):
            continue
        if method in SEND_METHODS:
            yield _RawOp(ctx, node, "send", method,
                         peer_ast=_arg_or_kw(node, 1, "dest"),
                         tag_ast=_arg_or_kw(node, 2, "tag"),
                         payload_ast=_arg_or_kw(node, 0, "obj"))
        elif method in RECV_METHODS:
            yield _RawOp(ctx, node, "recv", method,
                         peer_ast=_arg_or_kw(node, 0, "source"),
                         tag_ast=_arg_or_kw(node, 1, "tag"),
                         payload_ast=None)
        elif method in COLLECTIVE_METHODS:
            yield _RawOp(ctx, node, "collective", method,
                         peer_ast=None, tag_ast=None, payload_ast=None)


def _is_wildcard(expr: ast.expr | None) -> bool:
    """Is a peer/tag expression the mpi wildcard (absent, -1, ANY_*)?"""
    if expr is None:
        return True
    if isinstance(expr, ast.Constant) and expr.value == -1:
        return True
    if isinstance(expr, ast.UnaryOp) and isinstance(expr.op, ast.USub):
        op = expr.operand
        return isinstance(op, ast.Constant) and op.value == 1
    if isinstance(expr, ast.Name) and expr.id in ("ANY_SOURCE", "ANY_TAG"):
        return True
    if isinstance(expr, ast.Attribute) and expr.attr in ("ANY_SOURCE", "ANY_TAG"):
        return True
    return False


def _canonical(expr: ast.expr | None) -> str:
    """Canonical display text of a peer/tag expression (str)."""
    if expr is None:
        return ANY
    text = ast.unparse(expr)
    return text[5:] if text.startswith("self.") else text


def _dtype_name(node: ast.expr) -> str | None:
    """Canonical dtype name of a dtype-valued expression, or None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _dtype_in_expr(expr: ast.expr) -> str | None:
    """Payload dtype evidence inside an expression subtree, or None."""
    for n in ast.walk(expr):
        if isinstance(n, ast.keyword) and n.arg == "dtype":
            name = _dtype_name(n.value)
            if name is not None:
                return name
        if (
            isinstance(n, ast.Call)
            and isinstance(n.func, ast.Attribute)
            and n.func.attr == "astype"
            and n.args
        ):
            name = _dtype_name(n.args[0])
            if name is not None:
                return name
    return None


def _local_dtype_of(ctx: _FileContext, fn, name: str) -> str | None:
    """Dtype evidence from ``name = ...`` assignments in ``fn``, or None."""
    if fn is None:
        return None
    found = None
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            t = node.targets[0]
            if isinstance(t, ast.Name) and t.id == name:
                evidence = _dtype_in_expr(node.value)
                if evidence is not None:
                    found = evidence
    return found


def _send_dtype(ctx: _FileContext, op: _RawOp) -> str | None:
    """Payload dtype evidence of a send site, or None."""
    if op.payload_ast is None:
        return None
    direct = _dtype_in_expr(op.payload_ast)
    if direct is not None:
        return direct
    if isinstance(op.payload_ast, ast.Name):
        fn = ctx.source.enclosing_function(op.call)
        return _local_dtype_of(ctx, fn, op.payload_ast.id)
    return None


def _recv_dtype(ctx: _FileContext, op: _RawOp) -> str | None:
    """Destination-buffer dtype evidence of a receive site, or None.

    Recognizes the fill idiom ``buf[...] = comm.recv(...)`` where
    ``buf`` was constructed with an explicit ``dtype=`` in the same
    function.
    """
    parent = ctx.parents.get(op.call)
    if not isinstance(parent, ast.Assign) or len(parent.targets) != 1:
        return None
    target = parent.targets[0]
    if isinstance(target, ast.Subscript) and isinstance(target.value, ast.Name):
        fn = ctx.source.enclosing_function(op.call)
        return _local_dtype_of(ctx, fn, target.value.id)
    return None


def _resolve_site(
    ctx: _FileContext,
    op: _RawOp,
    contexts: dict[str, _FileContext],
) -> list[CommSite]:
    """Resolve one raw op into concrete skeleton sites.

    Peer/tag expressions that are parameters of the enclosing function
    are substituted through each call site of that function (one level),
    so thin wrappers like ``HaloExchange._send_frame`` do not hide the
    protocol from the analysis.  Returns one :class:`CommSite` per
    resolution (a wrapper called from N places yields up to N sites).
    """
    fn = ctx.source.enclosing_function(op.call)
    fn_name = fn.name if fn is not None else ""
    bindings, guards, rank_conds = ctx.context_of(op.call)

    def build(tag_ast, peer_ast, extra_ctx: _FileContext | None = None,
              extra_bindings=None, extra_guards=None, extra_conds=()):
        eval_ctx = extra_ctx or ctx
        b = dict(extra_bindings or {})
        b.update(bindings)
        g = list(guards) + list(extra_guards or [])
        if op.kind == "collective":
            tags, tag_text = None, ANY
        elif _is_wildcard(tag_ast):
            tags, tag_text = None, ANY
        else:
            tags = eval_ctx.enumerate_expr(tag_ast, b, g,
                                           extra_funcs=ctx.pure_funcs)
            tag_text = _canonical(tag_ast)
        if op.kind == "collective":
            peer = ANY
        elif _is_wildcard(peer_ast):
            peer = ANY
        else:
            peer = _canonical(peer_ast)
        return CommSite(
            kind=op.kind, method=op.method, path=ctx.source.path,
            lineno=op.call.lineno, col_offset=op.call.col_offset,
            func=fn_name, peer=peer,
            tag_text=tag_text, tags=tags,
            rank_conditions=tuple(rank_conds) + tuple(extra_conds),
            dtype=_send_dtype(ctx, op) if op.kind == "send" else (
                _recv_dtype(ctx, op) if op.kind == "recv" else None),
        )

    site = build(op.tag_ast, op.peer_ast)
    needs_subst = (
        fn is not None
        and op.kind in ("send", "recv")
        and site.tags is None
        and site.tag_text is not ANY
    )
    if needs_subst:
        params = [a.arg for a in fn.args.args]
        unresolved = _free_names(op.tag_ast) & set(params)
        if unresolved:
            derived = _substitute_through_callers(
                ctx, op, fn, params, contexts, build
            )
            if derived:
                return derived
    return [site]


def _substitute_through_callers(
    ctx: _FileContext,
    op: _RawOp,
    fn,
    params: list[str],
    contexts: dict[str, _FileContext],
    build,
) -> list[CommSite]:
    """Re-resolve a param-dependent op at each caller of its function."""
    out: list[CommSite] = []
    seen = 0
    for cctx in contexts.values():
        for node in cctx.source.nodes(ast.Call):
            if call_name(node) != fn.name:
                continue
            skip_self = (isinstance(node.func, ast.Attribute)
                         and params[:1] == ["self"])
            caller_fn = cctx.source.enclosing_function(node)
            if caller_fn is fn:
                continue  # recursion: do not substitute into itself
            seen += 1
            if seen > MAX_CALL_SITES:
                return out
            pos_params = params[1:] if skip_self else params
            mapping: dict[str, ast.expr] = {}
            for p, a in zip(pos_params, node.args):
                mapping[p] = a
            for kw in node.keywords:
                if kw.arg in params:
                    mapping[kw.arg] = kw.value
            tag_ast = _substituted(op.tag_ast, mapping)
            peer_ast = (
                _substituted(op.peer_ast, mapping)
                if op.peer_ast is not None else None
            )
            cbind, cguards, cconds = cctx.context_of(node)
            out.append(build(
                tag_ast, peer_ast, extra_ctx=cctx, extra_bindings=cbind,
                extra_guards=cguards, extra_conds=cconds,
            ))
    return out


def build_program(sources: Program | dict[str, str]) -> CommProgram:
    """Build the communication skeleton of a program.

    ``sources`` is a :class:`~repro.analysis.program.Program` or a
    mapping of display paths to source text; files that fail to parse
    contribute nothing (the loader reports their CL000).  Returns the
    populated :class:`CommProgram`.
    """
    if not isinstance(sources, Program):
        sources = Program(sources)
    program = CommProgram()
    contexts = {path: _FileContext(sf) for path, sf in sources.sources.items()}
    raw = [(ctx, op) for ctx in contexts.values() for op in _raw_ops(ctx)]
    for ctx, op in raw:
        program.sites.extend(_resolve_site(ctx, op, contexts))

    # A call by bare name may reach every def of that name.
    defs = sources.functions
    direct = {site.func for site in program.sites
              if site.kind == "collective" and site.func}
    bearing = propagate(
        [fn for same in defs.values() for fn in same],
        {fn: "" for name in direct for fn in defs.get(name, ())},
        lambda fn: (callee for node in ast.walk(fn.node)
                    if isinstance(node, ast.Call)
                    for callee in defs.get(call_name(node), ())),
    )
    program.collective_bearing = {fn.name for fn in bearing}

    for ctx in contexts.values():
        for node in ctx.source.nodes(ast.Call):
            if call_name(node) not in defs:
                continue
            _b, _g, conds = ctx.context_of(node)
            program.local_calls.append(LocalCall(
                callee=call_name(node), path=ctx.source.path,
                lineno=node.lineno, col_offset=node.col_offset,
                rank_conditions=conds,
            ))
    return program


# -- program rules -------------------------------------------------------


def _tag_label(tags: Iterable[int]) -> str:
    """Compact display of a tag set (str)."""
    return ", ".join(str(t) for t in sorted(tags))


def _unmatched(rule: Rule, ends: list[CommSite], partners: list[CommSite],
               peer: str, partner: str, missing_clause: str):
    """Yield a finding for each of ``ends`` whose enumerated tags no
    partner endpoint covers; partners with dynamic or wildcard tags
    match everything."""
    partner_any = any(p.tags is None for p in partners)
    covered = {t for p in partners if p.tags is not None for t in p.tags}
    for e in ends:
        if not partners:
            yield rule.violation(
                e.path, e, f"{e.method}({peer}={e.peer}) has no {partner} "
                           "anywhere in the analyzed program",
            )
            continue
        if e.tags is None or partner_any:
            continue
        missing = set(e.tags) - covered
        if missing:
            yield rule.violation(
                e.path, e,
                f"{e.method}({peer}={e.peer}, tag={e.tag_text}) "
                + missing_clause.format(_tag_label(missing)),
            )


@register_rule
class UnmatchedSend(Rule):
    """CC001: every posted send must have a matching receive.

    Under SPMD symmetry the set of tags any rank can post must be
    covered by the set of tags ranks wait for; a send whose enumerated
    tag no receive expects is a dropped-receive (the message is never
    consumed and its sender's peer deadlocks waiting on the reverse
    edge) or a mis-tagged endpoint.  Receives with dynamic or wildcard
    tags match everything (conservative).
    """

    family = "comm"
    rule_id = "CC001"
    name = "unmatched-send"
    description = (
        "p2p send whose (neighbor, tag) edge no receive in the program "
        "matches -- dropped or mis-tagged halo receive"
    )

    def check(self, program: CommProgram) -> Iterable[Violation]:
        return _unmatched(
            self, program.sends(), program.recvs(), "dest", "receive",
            "posts tag(s) {{{}}} that no receive in the program matches "
            "(dropped or mis-tagged recv breaks halo send/recv symmetry)",
        )


@register_rule
class UnmatchedRecv(Rule):
    """CC002: every posted receive must have a matching send.

    A receive whose enumerated tag no send can post blocks until the
    communicator timeout on every rank that executes it -- the static
    shadow of the deadlock the runtime watchdog reports.  Sends with
    dynamic tags match everything (conservative).
    """

    family = "comm"
    rule_id = "CC002"
    name = "unmatched-recv"
    description = (
        "p2p receive waiting for a (source, tag) edge no send in the "
        "program posts -- guaranteed stall"
    )

    def check(self, program: CommProgram) -> Iterable[Violation]:
        return _unmatched(
            self, program.recvs(), program.sends(), "source", "send",
            "waits for tag(s) {{{}}} that no send in the program posts "
            "(unmatched edge: the wait can only end in a timeout)",
        )


@register_rule
class RankDependentCollective(Rule):
    """CC003: collectives must execute identically on every rank.

    A collective (or a call into a function that transitively performs
    one) under a rank-dependent conditional means some ranks enter the
    rendezvous and others do not -- the canonical SPMD deadlock.  The
    check is interprocedural: the call graph propagates
    "performs-a-collective" through locally defined functions.
    """

    family = "comm"
    rule_id = "CC003"
    name = "rank-dependent-collective"
    description = (
        "collective or barrier issued under a rank-dependent "
        "conditional -- collective order diverges across ranks"
    )

    def check(self, program: CommProgram) -> Iterable[Violation]:
        seen: set[tuple[str, int, int]] = set()
        for site in program.collectives():
            if site.rank_conditions:
                key = (site.path, site.lineno, site.col_offset)
                if key in seen:
                    continue
                seen.add(key)
                yield self.violation(
                    site.path, site,
                    f"collective {site.method}() under rank-dependent "
                    f"condition {site.rank_conditions[0]!r}; every rank "
                    "must issue the same collectives in the same order",
                )
        for call in program.local_calls:
            if not call.rank_conditions:
                continue
            if call.callee not in program.collective_bearing:
                continue
            key = (call.path, call.lineno, call.col_offset)
            if key in seen:
                continue
            seen.add(key)
            yield self.violation(
                call.path, call,
                f"call to {call.callee}() (which performs collectives) "
                f"under rank-dependent condition "
                f"{call.rank_conditions[0]!r}; the collective order "
                "diverges across ranks",
            )


@register_rule
class EndpointDtypeMismatch(Rule):
    """CC004: matched endpoints must agree on the payload dtype.

    When both ends of a tag-matched edge carry static dtype evidence --
    an explicit ``dtype=`` on the sent buffer and on the receive-side
    destination buffer -- the two must name the same dtype; a mismatch
    reinterprets bytes across the storage/compute precision boundary.
    """

    family = "comm"
    rule_id = "CC004"
    name = "endpoint-dtype-mismatch"
    description = (
        "send and tag-matched receive carry conflicting payload-dtype "
        "evidence"
    )

    def check(self, program: CommProgram) -> Iterable[Violation]:
        sends = [s for s in program.sends() if s.dtype is not None]
        for r in program.recvs():
            if r.dtype is None:
                continue
            for s in sends:
                if s.tags is not None and r.tags is not None:
                    if not set(s.tags) & set(r.tags):
                        continue
                elif s.tag_text != r.tag_text:
                    continue
                if s.dtype != r.dtype:
                    yield self.violation(
                        r.path, r,
                        f"receive buffer dtype {r.dtype} != sent payload "
                        f"dtype {s.dtype} ({s.path}:{s.lineno}); endpoints "
                        "of one edge must agree on the payload dtype",
                    )


# -- entry points --------------------------------------------------------


def analyze(program: Program) -> tuple[CommProgram, Report]:
    """comm-check ``program``; returns ``(skeleton, report)``.

    ``checks_run`` counts (site, rule) pairs examined.
    """
    comm = build_program(program)
    rules = [cls() for cls in registered_rules("comm")]
    # A wrapper's site resolves once per caller: the same finding twice.
    found = set(program.unsuppressed(v for rule in rules
                                     for v in rule.check(comm)))
    return comm, Report("comm", sorted(found), len(comm.sites) * len(rules))


def check_sources(sources: dict[str, str]) -> Report:
    """comm-check a mapping of display path -> source text (report)."""
    return analyze(Program(sources))[1]

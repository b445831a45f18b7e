"""Whole-program kernel extraction for the static performance analyzer.

Over the parsed :class:`~repro.analysis.program.Program`, the declared
hot-path kernels (:data:`repro.analysis.perfcheck.model.HOT_KERNELS`)
are resolved to their defining functions by ``(module-suffix, name)``.
Each resolved kernel carries

* its transitive **local helper closure** over the bare-name call graph
  (``weno5`` pulls in ``_weno5_minus_raw``; ``hlle_flux`` pulls in
  ``_hlle_combine``, ``einfeldt_wave_speeds``, ``sound_speed``, ...),
  which is the scan scope of the CP rules.  Kernel-check resolves only
  bare ``name(...)`` calls, each to the first def of that name in load
  order: attribute calls are ``np.*`` ufuncs or methods of runtime
  objects (sanitizers, ring buffers), not kernel arithmetic; and
* a **static arithmetic estimate**: FLOPs per output point counted off
  the AST (each arithmetic node and elementwise ufunc call is one vector
  op per point; literal-iterable loops multiply; local calls inline
  recursively) and bytes per point counted as distinct load/store
  operand terminals at 8 B compute precision -- the same accounting
  convention as the shared :data:`repro.perf.kernels.KERNEL_ARITHMETIC`
  table, so rule CP006 can cross-check the two.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable

from ..program import Function, Program, call_name, path_matches
from .model import KernelSpec

#: Recursion bound of the local-call inlining in the FLOP counter.
MAX_INLINE_DEPTH = 6

#: Bound on literal loop multipliers (larger literal spaces degrade to 1).
MAX_LOOP_MULTIPLIER = 64

#: Calls that move or reinterpret data without arithmetic (0 FLOP) and
#: without allocating a *hidden* temporary the CP003 accounting should
#: charge (layout conversions are the mixed-precision contract itself).
_DATA_MOVEMENT = frozenset({
    "astype", "ascontiguousarray", "asfortranarray", "moveaxis",
    "swapaxes", "reshape", "ravel", "transpose", "copy", "copyto",
    "empty", "empty_like", "zeros", "zeros_like", "ones", "ones_like",
    "full", "full_like", "array", "asarray", "dtype", "float", "int",
    "tuple", "len", "range", "isinstance",
})

#: Elementwise ufuncs: one vector op per point.
ELEMENTWISE = frozenset({
    "sqrt", "abs", "absolute", "fabs", "maximum", "minimum", "fmin",
    "fmax", "where", "exp", "log", "log2", "log10", "power", "add",
    "subtract", "multiply", "divide", "true_divide", "negative", "square",
    "sign", "clip", "hypot", "copysign", "mod", "floor_divide",
    "reciprocal", "moveaxis", "swapaxes", "stack", "concatenate",
})

#: Reduction methods/functions: one op per point (the paper's running
#: max in the SOS kernel).
_REDUCTIONS = frozenset({"max", "min", "sum", "prod", "amax", "amin",
                         "nanmax", "nanmin"})


@dataclass
class KernelInfo:
    """A resolved hot-path kernel plus its analysis artifacts."""

    spec: KernelSpec
    entry: Function
    #: bare names of the transitive local helper closure (kernel included)
    closure: tuple[str, ...] = ()
    counted_flops: float = 0.0
    counted_bytes: float = 0.0

    @property
    def counted_intensity(self) -> float:
        """Statically counted arithmetic intensity (FLOP/byte)."""
        if self.counted_bytes <= 0:
            return 0.0
        return self.counted_flops / self.counted_bytes


@dataclass
class PerfProgram:
    """Everything the CP rules consume: the kernels and the call graph."""

    program: Program
    #: bare name -> its first def in load order
    functions: dict[str, Function] = field(default_factory=dict)
    kernels: list[KernelInfo] = field(default_factory=list)


def _callees(fn: ast.AST, functions: dict[str, Function]) -> set[str]:
    """Bare names of locally defined functions called by name in ``fn``."""
    return {
        node.func.id for node in ast.walk(fn)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id in functions
    }


def _closure(root: str, functions: dict[str, Function]) -> tuple[str, ...]:
    """Transitive bare-name call closure of ``root`` (root included)."""
    seen: list[str] = []
    stack = [root]
    while stack:
        name = stack.pop()
        if name in seen or name not in functions:
            continue
        seen.append(name)
        for callee in sorted(_callees(functions[name].node, functions)):
            if callee not in seen:
                stack.append(callee)
    return tuple(seen)


# -- static FLOP counting -------------------------------------------------


def _loop_multiplier(node: ast.For, int_consts: dict[str, int]) -> int:
    """Iteration count of a literal-iterable loop (1 when unknown)."""
    it = node.iter
    if isinstance(it, (ast.Tuple, ast.List)):
        n = len(it.elts)
        return n if 1 <= n <= MAX_LOOP_MULTIPLIER else 1
    if (
        isinstance(it, ast.Call)
        and isinstance(it.func, ast.Name)
        and it.func.id == "range"
        and 1 <= len(it.args) <= 2
        and not it.keywords
    ):
        vals = []
        for a in it.args:
            if isinstance(a, ast.Constant) and isinstance(a.value, int):
                vals.append(a.value)
            elif isinstance(a, ast.Name) and a.id in int_consts:
                vals.append(int_consts[a.id])
            else:
                return 1
        n = len(range(*vals))
        return n if 1 <= n <= MAX_LOOP_MULTIPLIER else 1
    return 1


def count_flops(
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
    functions: dict[str, Function],
    int_consts: dict[str, int],
    _depth: int = 0,
    _stack: frozenset[str] = frozenset(),
) -> float:
    """Static per-point FLOP estimate of one function body.

    Each arithmetic AST node (binop, comparison, non-constant negation)
    and each elementwise/reduction ufunc call counts as one vector op per
    output point; loops over literal iterables multiply their body;
    calls to locally defined functions inline the callee's count
    (bounded depth, cycle-safe).
    """

    def stmt_count(stmts: Iterable[ast.stmt]) -> float:
        total = 0.0
        for s in stmts:
            total += one_stmt(s)
        return total

    def one_stmt(s: ast.stmt) -> float:
        if isinstance(s, ast.For):
            mult = _loop_multiplier(s, int_consts)
            # The iterable is evaluated once; when it is a local generator
            # (the tile walk of the directional sweeps) its body is where
            # the arithmetic lives.
            return (expr_count(s.iter) + mult * stmt_count(s.body)
                    + stmt_count(s.orelse))
        if isinstance(s, ast.While):
            return stmt_count(s.body)
        if isinstance(s, ast.If):
            return expr_count(s.test) + stmt_count(s.body) + stmt_count(s.orelse)
        if isinstance(s, (ast.With, ast.Try)):
            return stmt_count(getattr(s, "body", []))
        if isinstance(s, ast.Assign):
            return expr_count(s.value)
        if isinstance(s, ast.AnnAssign):
            return expr_count(s.value) if s.value is not None else 0.0
        if isinstance(s, ast.AugAssign):
            return 1.0 + expr_count(s.value)
        if isinstance(s, (ast.Return, ast.Expr)):
            return expr_count(s.value) if s.value is not None else 0.0
        if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return stmt_count(s.body)  # nested defs run inline (closures)
        return 0.0

    def expr_count(e: ast.expr | None) -> float:
        if e is None or isinstance(e, ast.Constant):
            return 0.0
        total = 0.0
        if isinstance(e, ast.BinOp):
            total += 1.0 + expr_count(e.left) + expr_count(e.right)
        elif isinstance(e, ast.UnaryOp):
            inner = expr_count(e.operand)
            cost = 0.0 if isinstance(e.operand, ast.Constant) else 1.0
            total += cost + inner
        elif isinstance(e, ast.Compare):
            # ``is`` / ``is not`` pick a path, they are not arithmetic
            # (the allocation count of CP003 leaves them out too).
            total += sum(not isinstance(op, (ast.Is, ast.IsNot))
                         for op in e.ops) + expr_count(e.left)
            for c in e.comparators:
                total += expr_count(c)
        elif isinstance(e, ast.Call):
            total += _call_cost(e)
            for a in e.args:
                total += expr_count(a)
            for kw in e.keywords:
                total += expr_count(kw.value)
        elif isinstance(e, ast.IfExp):
            total += expr_count(e.test) + expr_count(e.body) + expr_count(e.orelse)
        elif isinstance(e, (ast.Tuple, ast.List, ast.Set)):
            for el in e.elts:
                total += expr_count(el)
        elif isinstance(e, ast.Subscript):
            total += expr_count(e.value)
        elif isinstance(e, ast.Attribute):
            total += expr_count(e.value)
        elif isinstance(e, ast.BoolOp):
            for v in e.values:
                total += expr_count(v)
        elif isinstance(e, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
            total += expr_count(e.elt)
        return total

    def _call_cost(call: ast.Call) -> float:
        name = call_name(call)
        if name is None or name in _DATA_MOVEMENT:
            return 0.0
        is_bare = isinstance(call.func, ast.Name)
        if (
            is_bare
            and name in functions
            and name not in _stack
            and _depth < MAX_INLINE_DEPTH
        ):
            return count_flops(
                functions[name].node, functions, int_consts,
                _depth=_depth + 1, _stack=_stack | {name},
            )
        if name in ELEMENTWISE or name in _REDUCTIONS:
            return 1.0
        return 0.0

    return stmt_count(fn.body)


# -- static operand (byte) counting ---------------------------------------


def count_operand_bytes(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> float:
    """Distinct load/store operand terminals of a kernel body x 8 B.

    Loads: distinct subscript patterns read anywhere in the body
    (``W_l[RHO]``, ``v[..., 0:n]``) plus parameters used directly as
    operands.  Stores: distinct subscript-assignment targets, ``out=``
    keyword arguments, augmented-assignment targets, and returned value
    expressions.  The convention matches the byte accounting of
    :data:`repro.perf.kernels.KERNEL_ARITHMETIC` (one compute-precision
    word per operand per point).
    """
    params = {a.arg for a in fn.args.args if a.arg not in ("self", "cls")}
    params |= {a.arg for a in fn.args.kwonlyargs}
    loads: set[str] = set()
    stores: set[str] = set()
    subscripted: set[str] = set()

    def _param_operands(e: ast.expr | None) -> None:
        # A bare parameter counts as a streamed operand only where it is
        # an *arithmetic* operand; attribute probes / shape queries and
        # data-movement call arguments are not per-point traffic.
        if e is None:
            return
        for sub in ast.walk(e):
            if isinstance(sub, ast.Name) and sub.id in params:
                loads.add(sub.id)

    for node in ast.walk(fn):
        if isinstance(node, ast.Subscript):
            try:
                key = ast.unparse(node)
            except (ValueError, RecursionError):  # pragma: no cover - unparse failure
                continue
            if isinstance(node.value, ast.Name):
                subscripted.add(node.value.id)
            if isinstance(node.ctx, ast.Store):
                stores.add(key)
            else:
                loads.add(key)
        elif isinstance(node, ast.BinOp):
            _param_operands(node.left)
            _param_operands(node.right)
        elif isinstance(node, ast.UnaryOp):
            _param_operands(node.operand)
        elif isinstance(node, ast.Compare):
            _param_operands(node.left)
            for c in node.comparators:
                _param_operands(c)
        elif isinstance(node, ast.Call):
            name = call_name(node)
            if name is not None and name not in _DATA_MOVEMENT:
                for a in node.args:
                    _param_operands(a)
                for kw in node.keywords:
                    if kw.arg != "out":
                        _param_operands(kw.value)
        elif isinstance(node, ast.keyword) and node.arg == "out":
            try:
                stores.add(ast.unparse(node.value))
            except (ValueError, RecursionError):  # pragma: no cover - unparse failure
                continue
        elif isinstance(node, ast.AugAssign):
            # In-place accumulation into a *streamed* target (a subscript
            # view or a parameter) is a store; accumulating into a local
            # scratch name is the discipline itself, already charged when
            # the scratch was written elsewhere.
            target_is_param = (
                isinstance(node.target, ast.Name) and node.target.id in params
            )
            if isinstance(node.target, ast.Subscript) or target_is_param:
                try:
                    stores.add(ast.unparse(node.target))
                except (ValueError, RecursionError):  # pragma: no cover - unparse failure
                    continue
        elif isinstance(node, ast.Return) and node.value is not None:
            elts = (
                node.value.elts
                if isinstance(node.value, ast.Tuple)
                else [node.value]
            )
            for e in elts:
                if isinstance(e, ast.Constant):
                    continue
                try:
                    stores.add(ast.unparse(e))
                except (ValueError, RecursionError):  # pragma: no cover - unparse failure
                    continue
    # A parameter already streamed through counted subscript operands
    # (``U[RHO]`` ...) must not be double-charged as a bare load.
    loads -= subscripted & params
    # A name that is both loaded and stored (in-place update) is one
    # logical operand streamed twice; count it on both sides.
    return 8.0 * (len(loads) + len(stores))


# -- program assembly -----------------------------------------------------


def build_program(
    sources: Program | dict[str, str],
    specs: tuple[KernelSpec, ...],
) -> PerfProgram:
    """Resolve the declared kernels of a program.

    ``sources`` is a :class:`~repro.analysis.program.Program` or a
    mapping of display paths to source text; files that fail to parse
    contribute nothing (the loader reports their CL000).  Kernels whose
    module/function cannot be found are skipped -- the manifest reports
    what was actually resolved.
    """
    if not isinstance(sources, Program):
        sources = Program(sources)
    program = PerfProgram(
        sources, {name: same[0] for name, same in sources.functions.items()})
    for spec in specs:
        entry = next((
            fn for path, source in sources.sources.items()
            if path_matches(path, spec.module)
            for fn in source.functions if fn.name == spec.name
        ), None)
        if entry is None:
            continue
        info = KernelInfo(spec=spec, entry=entry)
        info.closure = _closure(spec.name, program.functions)
        consts = sources.sources[entry.path].consts
        ints = {k: v for k, v in consts.items() if isinstance(v, int)}
        info.counted_flops = count_flops(entry.node, program.functions, ints)
        info.counted_bytes = count_operand_bytes(entry.node)
        program.kernels.append(info)
    return program

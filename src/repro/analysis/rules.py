"""The ``cubism-lint`` rule catalogue (CL001, CL005-CL007, CL009, CL011,
CL012 and CP003).

Each rule encodes one contract the paper's solver design depends on;
the docstrings below are the normative description (also surfaced by
``python -m repro.analysis --list-rules``).  The CL rules read one file
at a time; CP003 reads the declared hot-path kernels and the defs they
call.  Path scopes are the defaults tuned to this repository -- override
them through :class:`repro.analysis.lint.LintConfig`.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, Iterator

from .program import Rule, SourceFile, call_name, path_matches, register_rule
from .report import Violation

#: Attribute names of raw numpy float dtypes covered by CL001.
_RAW_FLOAT_ATTRS = {"float32", "float64", "single", "double", "half", "float16"}

#: Docstring tokens accepted as return-contract documentation (CL006).
_RETURN_DOC_RE = re.compile(r"(?i)\breturn|shape|dtype|->")

#: Logging-ish call names that make a broad handler acceptable (CL005).
_LOG_CALLS = {
    "warn", "warning", "error", "exception", "critical", "debug",
    "info", "log", "print",
}


def _is_np_attr(node: ast.AST, attrs: set[str]) -> bool:
    """Is ``node`` an ``np.<attr>`` / ``numpy.<attr>`` access in ``attrs``?"""
    return (
        isinstance(node, ast.Attribute)
        and node.attr in attrs
        and isinstance(node.value, ast.Name)
        and node.value.id in ("np", "numpy")
    )


@register_rule
class NoRawFloatDtypes(Rule):
    """CL001: no raw ``np.float32`` / ``np.float64`` dtype literals.

    Storage/compute precision is a single global contract
    (``STORAGE_DTYPE`` / ``COMPUTE_DTYPE`` in ``repro.physics.state``,
    paper Section 5's mixed-precision scheme); naming the numpy dtype
    inline re-decides that contract locally and is how silent downcasts
    are born.  Scope: solver layers; ``compression/`` and ``sim/``
    diagnostics are exempt by configuration.
    """

    rule_id = "CL001"
    name = "raw-float-dtype"
    description = (
        "use STORAGE_DTYPE/COMPUTE_DTYPE from repro.physics.state instead "
        "of raw np.float32/np.float64"
    )
    paths = ("core/", "node/", "cluster/", "physics/", "repro/cli.py")

    def check(self, source: SourceFile) -> Iterable[Violation]:
        for node in source.nodes(ast.Attribute):
            if _is_np_attr(node, _RAW_FLOAT_ATTRS):
                yield self.violation(
                    source.path,
                    node,
                    f"raw dtype np.{node.attr}; use "
                    "STORAGE_DTYPE/COMPUTE_DTYPE from repro.physics.state",
                )


@register_rule
class NoSilentBroadExcept(Rule):
    """CL005: no bare ``except:`` or silent ``except Exception``.

    A production driver serving many campaign runs must never eat a
    numerics error silently; broad handlers are allowed only when they
    re-raise or log/record what they caught.
    """

    rule_id = "CL005"
    name = "silent-broad-except"
    description = "bare/broad except must re-raise or log"

    @staticmethod
    def _is_broad(handler: ast.ExceptHandler) -> bool:
        t = handler.type
        if t is None:
            return True
        names = t.elts if isinstance(t, ast.Tuple) else [t]
        for n in names:
            if isinstance(n, ast.Name) and n.id in ("Exception", "BaseException"):
                return True
        return False

    @staticmethod
    def _handles_visibly(handler: ast.ExceptHandler) -> bool:
        for node in ast.walk(handler):
            if isinstance(node, ast.Raise):
                return True
            if isinstance(node, ast.Call) and call_name(node) in _LOG_CALLS:
                return True
        return False

    def check(self, source: SourceFile) -> Iterable[Violation]:
        for node in source.nodes(ast.ExceptHandler):
            if self._is_broad(node) and not self._handles_visibly(node):
                kind = "bare except" if node.type is None else "broad except"
                yield self.violation(
                    source.path,
                    node,
                    f"{kind} without re-raise or logging hides numerics "
                    "failures; narrow it or handle visibly",
                )


@register_rule
class ReturnContractDocumented(Rule):
    """CL006: public kernel-layer functions document their return contract.

    Every public module-level function in ``physics/`` and ``core/``
    that returns a value must say *what* comes back -- shape, dtype or
    an explicit "Returns ..." -- in its docstring.  These are the
    functions whose array contracts the three solver layers are built
    on; an undocumented return shape is an interface bug waiting for a
    refactor.
    """

    rule_id = "CL006"
    name = "undocumented-return-contract"
    description = (
        "public physics/core functions must document return shape/dtype"
    )
    paths = ("physics/", "core/")

    @staticmethod
    def _returns_value(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
        """Does the function itself (not nested defs) return a value?"""
        stack: list[ast.AST] = list(fn.body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
                continue
            if isinstance(node, ast.Return) and node.value is not None:
                if not (
                    isinstance(node.value, ast.Constant)
                    and node.value.value is None
                ):
                    return True
            stack.extend(ast.iter_child_nodes(node))
        return False

    def check(self, source: SourceFile) -> Iterable[Violation]:
        for node in source.tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("_"):
                continue
            if not self._returns_value(node):
                continue
            doc = ast.get_docstring(node)
            if doc is None or not _RETURN_DOC_RE.search(doc):
                yield self.violation(
                    source.path,
                    node,
                    f"public function {node.name}() returns a value but its "
                    "docstring documents no return shape/dtype contract",
                )


@register_rule
class NoUninitializedRead(Rule):
    """CL007: ``np.empty`` arrays must be written before they are read.

    ``np.empty`` hands back whatever bytes the allocator had; reading it
    before full assignment is a non-deterministic-garbage hazard.  The
    check is a conservative first-use analysis: after
    ``x = np.empty(...)`` the first reference to ``x`` must be a store
    (``x[...] = ``, an ``out=x`` keyword, or passing ``x`` to a filling
    routine) -- an arithmetic / reduction / return use first is flagged.
    """

    rule_id = "CL007"
    name = "uninitialized-read"
    description = "np.empty result read before assignment"

    @staticmethod
    def _empty_assigns(fn_body: list[ast.stmt]) -> Iterator[tuple[str, ast.Assign]]:
        for stmt in fn_body:
            if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
                continue
            target = stmt.targets[0]
            if not isinstance(target, ast.Name):
                continue
            call = stmt.value
            if (
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr in ("empty", "empty_like")
                and isinstance(call.func.value, ast.Name)
                and call.func.value.id in ("np", "numpy")
            ):
                yield target.id, stmt

    def _first_use_violation(
        self,
        source: SourceFile,
        scope: ast.AST,
        name: str,
        assign: ast.Assign,
    ) -> Violation | None:
        parents = source.parents()
        after = (assign.lineno, assign.col_offset)
        uses = [
            n
            for n in ast.walk(scope)
            if isinstance(n, ast.Name)
            and n.id == name
            and isinstance(n.ctx, ast.Load)
            and (n.lineno, n.col_offset) > after
        ]
        if not uses:
            return None
        first = min(uses, key=lambda n: (n.lineno, n.col_offset))
        parent = parents.get(first)
        # Safe first uses: subscript store, out= keyword, call argument
        # (out-parameter idiom), attribute assignment targets.
        if isinstance(parent, ast.Subscript):
            if isinstance(parent.ctx, ast.Store):
                return None
            # Subscript load: reading uninitialized elements.
            return self.violation(
                source.path, first,
                f"'{name}' (np.empty) is read before any element is assigned",
            )
        if isinstance(parent, (ast.keyword, ast.Call)):
            return None
        if isinstance(parent, (ast.BinOp, ast.UnaryOp, ast.Compare, ast.Return, ast.Attribute)):
            return self.violation(
                source.path, first,
                f"'{name}' (np.empty) is read before any element is assigned",
            )
        return None

    def check(self, source: SourceFile) -> Iterable[Violation]:
        scopes = [source.tree] + source.nodes(ast.FunctionDef,
                                              ast.AsyncFunctionDef)
        for scope in scopes:
            for name, assign in self._empty_assigns(scope.body):
                v = self._first_use_violation(source, scope, name, assign)
                if v is not None:
                    yield v


#: Timing functions of the ``time`` module covered by CL009.  The
#: deadline clock ``time.monotonic`` is deliberately excluded: timeout
#: arithmetic (e.g. the simulated communicator's deadlock guards) is not
#: phase measurement.
_TIMING_FNS = {"perf_counter", "perf_counter_ns", "time", "time_ns"}


@register_rule
class NoRawTimingCalls(Rule):
    """CL009: no raw ``time.perf_counter()`` / ``time.time()`` timing.

    Every measured second must be visible to the telemetry exporters and
    the run scorecard, so phase timing in the solver layers flows through
    :mod:`repro.telemetry` -- ``Tracer.span`` for phases,
    ``repro.telemetry.clock.now`` / ``wall_now`` for raw stamps.  A
    direct ``time.perf_counter()`` call is a timing side channel the
    trace cannot see.  Scope: the four solver/compression layers;
    ``repro/telemetry`` itself is the sanctioned owner of :mod:`time`.
    """

    rule_id = "CL009"
    name = "raw-timing-call"
    description = (
        "raw time.perf_counter()/time.time() outside repro/telemetry; use "
        "Tracer spans or repro.telemetry.clock helpers"
    )
    paths = ("cluster/", "node/", "core/", "compression/")

    @staticmethod
    def _timing_names(tree: ast.AST) -> tuple[set[str], set[str]]:
        """Returns (module aliases of ``time``, from-imported fn names)."""
        aliases: set[str] = set()
        from_names: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    if a.name == "time":
                        aliases.add(a.asname or "time")
            elif isinstance(node, ast.ImportFrom) and node.module == "time":
                for a in node.names:
                    if a.name in _TIMING_FNS:
                        from_names.add(a.asname or a.name)
        return aliases, from_names

    def check(self, source: SourceFile) -> Iterable[Violation]:
        aliases, from_names = self._timing_names(source.tree)
        if not aliases and not from_names:
            return
        for node in source.nodes(ast.Call):
            fn = node.func
            if (
                isinstance(fn, ast.Attribute)
                and fn.attr in _TIMING_FNS
                and isinstance(fn.value, ast.Name)
                and fn.value.id in aliases
            ):
                yield self.violation(
                    source.path,
                    node,
                    f"raw {fn.value.id}.{fn.attr}() timing; route it "
                    "through repro.telemetry (Tracer.span or clock.now/"
                    "wall_now)",
                )
            elif isinstance(fn, ast.Name) and fn.id in from_names:
                yield self.violation(
                    source.path,
                    node,
                    f"raw time-module call {fn.id}(); route it through "
                    "repro.telemetry (Tracer.span or clock.now/wall_now)",
                )


@register_rule
class UnsynchronizedSharedMutation(Rule):
    """CL011: shared mutable state in ``cluster/`` mutates under a lock.

    The cluster runtime executes every rank on a thread of one process,
    so module-level mutable objects and variables of an enclosing
    function mutated from a nested function (thread bodies, callbacks)
    are *shared across rank threads*.  Mutating them -- item assignment,
    ``del``, or a mutating method call (``append``/``update``/...) --
    outside a ``with <lock>`` block is a data race between rank
    threads.  State that is safe by construction (e.g. per-rank slots of a results list) carries
    a trailing ``# lint: disable=CL011`` stating why.
    """

    rule_id = "CL011"
    name = "unsynchronized-shared-mutation"
    description = (
        "module-level or enclosing-scope mutable state mutated from "
        "cluster/ code without holding a lock"
    )
    paths = ("cluster/",)

    #: Method names that mutate their receiver in place.
    _MUTATORS = frozenset({
        "append", "add", "update", "pop", "popitem", "extend", "remove",
        "clear", "setdefault", "discard", "insert",
    })
    #: Lock-ish tokens in a ``with`` context expression.
    _LOCK_RE = re.compile(r"(?i)lock|_cv\b|condition|mutex|semaphore")

    @staticmethod
    def _module_mutables(tree: ast.Module) -> set[str]:
        """Module-level names bound to mutable containers (set of str)."""
        out: set[str] = set()
        for stmt in tree.body:
            targets: list[ast.expr] = []
            value = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            if not targets or value is None:
                continue
            mutable = isinstance(value, (ast.Dict, ast.List, ast.Set)) or (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id in ("dict", "list", "set", "defaultdict",
                                      "deque", "Counter")
            )
            if not mutable:
                continue
            for t in targets:
                if isinstance(t, ast.Name):
                    out.add(t.id)
        return out

    def _mutations(self, tree: ast.Module) -> Iterator[tuple[ast.AST, ast.expr, str]]:
        """Yield ``(anchor, mutated_base_expr, verb)`` for every mutation."""
        for node in ast.walk(tree):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                for t in targets:
                    if isinstance(t, ast.Subscript):
                        yield node, t.value, "item assignment"
            elif isinstance(node, ast.Delete):
                for t in node.targets:
                    if isinstance(t, ast.Subscript):
                        yield node, t.value, "del"
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in self._MUTATORS
            ):
                yield node, node.func.value, f".{node.func.attr}()"

    @staticmethod
    def _root_name(expr: ast.expr) -> str | None:
        """Leftmost name of an attribute/subscript chain, or None."""
        while isinstance(expr, (ast.Attribute, ast.Subscript)):
            expr = expr.value
        return expr.id if isinstance(expr, ast.Name) else None

    @staticmethod
    def _bound_names(fn: ast.AST) -> set[str]:
        """Names bound directly in a function body (params + assignments)."""
        out = {a.arg for a in fn.args.args + fn.args.kwonlyargs}
        if fn.args.vararg:
            out.add(fn.args.vararg.arg)
        if fn.args.kwarg:
            out.add(fn.args.kwarg.arg)
        for node in ast.walk(fn):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node is not fn:
                out.add(node.name)
                continue
            if isinstance(node, ast.Assign):
                for t in node.targets:
                    if isinstance(t, ast.Name):
                        out.add(t.id)
            elif isinstance(node, (ast.AnnAssign, ast.For)):
                t = node.target
                if isinstance(t, ast.Name):
                    out.add(t.id)
            elif isinstance(node, ast.withitem):
                if isinstance(node.optional_vars, ast.Name):
                    out.add(node.optional_vars.id)
        return out

    def _under_lock(self, node: ast.AST, parents) -> bool:
        cur = parents.get(node)
        while cur is not None:
            if isinstance(cur, (ast.With, ast.AsyncWith)):
                for item in cur.items:
                    if self._LOCK_RE.search(ast.unparse(item.context_expr)):
                        return True
            cur = parents.get(cur)
        return False

    def check(self, source: SourceFile) -> Iterable[Violation]:
        parents = source.parents()
        module_mutables = self._module_mutables(source.tree)
        bound_cache: dict[ast.AST, set[str]] = {}
        for anchor, base, verb in self._mutations(source.tree):
            name = self._root_name(base)
            if name is None or name == "self":
                continue
            fns = source.enclosing_functions(anchor)
            if not fns:
                continue  # import-time construction, single-threaded
            inner_bound = bound_cache.setdefault(
                fns[0], self._bound_names(fns[0])
            )
            shared = None
            if name in inner_bound:
                pass  # function-local state: not shared
            elif any(
                name in bound_cache.setdefault(fn, self._bound_names(fn))
                for fn in fns[1:]
            ):
                shared = "enclosing-scope (cross-thread)"
            elif name in module_mutables:
                shared = "module-level"
            if shared is None:
                continue
            if self._under_lock(anchor, parents):
                continue
            yield self.violation(
                source.path,
                anchor,
                f"unsynchronized {verb} on {shared} state "
                f"{ast.unparse(base)!r}; hold a lock or justify with a "
                "trailing '# lint: disable=CL011'",
            )


@register_rule
class NoBarePrintInLibrary(Rule):
    """CL012: library code does not ``print()``; it logs structured events.

    A production campaign multiplexes many runs onto shared processes,
    and a bare ``print()`` from deep inside the solver layers is an
    unattributed, unparsable stdout line the moment two runs interleave.
    Library code routes run-time reporting through the logfmt logger of
    :mod:`repro.telemetry.log` (``get_logger(...).info/warn/...``),
    which stamps every line with a timestamp, level and component name.
    Command-line front ends (files named ``cli.py`` or ``__main__.py``)
    are the user-facing surface and keep ``print()``; anything else that
    must write raw text (a table renderer handed an explicit stream,
    say) justifies it with a trailing ``# lint: disable=CL012``.
    """

    rule_id = "CL012"
    name = "bare-print-in-library"
    description = (
        "bare print() in library code; route it through "
        "repro.telemetry.log (CLI modules cli.py/__main__.py exempt)"
    )

    #: File basenames that are CLI front ends (print is their job).
    _CLI_BASENAMES = frozenset({"cli.py", "__main__.py"})

    def check(self, source: SourceFile) -> Iterable[Violation]:
        basename = source.path.replace("\\", "/").rsplit("/", 1)[-1]
        if basename in self._CLI_BASENAMES:
            return
        for node in source.nodes(ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id == "print":
                yield self.violation(
                    source.path,
                    node,
                    "bare print() in library code; use "
                    "repro.telemetry.log.get_logger(...) (or justify "
                    "with a trailing '# lint: disable=CL012')",
                )


#: The declared hot-path kernels, ``(module path suffix, function name)``:
#: the RHS stages (WENO, HLLE, CONV/BACK, SOS), their block and box
#: wrappers, UP, the ghost fill, and the compression layer's FWT, DEC and
#: ENC.  A kernel and the defs it reaches through bare-name calls are
#: CP003's scan scope.
HOT_KERNELS: tuple[tuple[str, str], ...] = (
    *(("physics/weno.py", k) for k in ("weno5", "weno5_fused", "weno3")),
    *(("physics/riemann.py", k) for k in ("hlle_flux", "einfeldt_wave_speeds",
                                          "hllc_flux")),
    *(("physics/eos.py", k) for k in (
        "conserved_to_primitive", "primitive_to_conserved", "pressure",
        "total_energy", "sound_speed", "max_characteristic_velocity")),
    ("physics/equations.py", "compute_rhs"),
    *(("core/kernels.py", k) for k in (
        "gather_conv", "scatter_aos", "rhs_kernel", "rhs_kernel_slices",
        "sos_kernel", "cell_pressure", "update_stage")),
    ("core/timestepper.py", "advance"),
    ("node/ghosts.py", "fill_block_ghosts"),
    ("compression/wavelet.py", "fwt3d"),
    ("compression/wavelet.py", "iwt3d"),
    ("compression/decimation.py", "decimate"),
    ("compression/encoder.py", "pack_planes"),
    ("compression/encoder.py", "unpack_planes"),
)

#: Elementwise ufuncs and reductions: an array temporary per call unless
#: it writes to ``out=``.
_UFUNCS = frozenset({
    "sqrt", "abs", "absolute", "fabs", "maximum", "minimum", "fmin",
    "fmax", "where", "exp", "log", "log2", "log10", "power", "add",
    "subtract", "multiply", "divide", "true_divide", "negative", "square",
    "sign", "clip", "hypot", "copysign", "mod", "floor_divide",
    "reciprocal", "moveaxis", "swapaxes", "stack", "concatenate",
    "max", "min", "sum", "prod", "amax", "amin", "nanmax", "nanmin",
})

#: CP003 fires at or above this many allocating array ops per function ...
ALLOC_THRESHOLD = 12

#: ... unless at least ``alloc / DISCIPLINE_RATIO`` ops are disciplined
#: (``out=``, in-place augmented assignment, subscript store, copyto).
DISCIPLINE_RATIO = 4


def _alloc_discipline(fn: ast.AST) -> tuple[int, int]:
    """(allocating array ops, disciplined ops) of one function body.

    Index arithmetic inside subscript slices and ``is``/``is not``
    identity checks are scalar bookkeeping, not array temporaries, and
    are excluded from the allocation count.
    """
    in_slice = {id(sub) for node in ast.walk(fn)
                if isinstance(node, ast.Subscript)
                for sub in ast.walk(node.slice)}
    alloc = disciplined = 0
    for node in ast.walk(fn):
        if id(node) in in_slice:
            continue
        if isinstance(node, ast.BinOp):
            alloc += 1
        elif isinstance(node, ast.UnaryOp):
            alloc += not isinstance(node.operand, ast.Constant)
        elif isinstance(node, ast.Compare):
            alloc += not all(isinstance(op, (ast.Is, ast.IsNot))
                             for op in node.ops)
        elif isinstance(node, ast.Call):
            has_out = any(kw.arg == "out" for kw in node.keywords)
            if has_out or call_name(node) == "copyto":
                disciplined += 1
            elif call_name(node) in _UFUNCS:
                alloc += 1
        elif isinstance(node, ast.AugAssign):
            disciplined += 1
        elif isinstance(node, ast.Assign):
            disciplined += sum(isinstance(t, ast.Subscript)
                               for t in node.targets)
    return alloc, disciplined


@register_rule
class HiddenTemporaries(Rule):
    """CP003: chained ufunc expressions allocating many intermediates.

    Every un-disciplined array binop/ufunc call in a NumPy kernel
    allocates (and streams) a hidden temporary; the paper's micro-fused
    kernels exist precisely to avoid those passes.  A declared hot-path
    kernel (:data:`HOT_KERNELS`), or a def it reaches through bare-name
    calls (:meth:`~repro.analysis.program.Program.closure`), whose
    allocating-op count reaches :data:`ALLOC_THRESHOLD` with less than
    one disciplined op (``out=`` / in-place / workspace store) per
    :data:`DISCIPLINE_RATIO` allocations is flagged.
    """

    rule_id = "CP003"
    name = "hidden-temporaries"
    description = (
        "kernel-path function allocating many intermediate arrays per "
        "call with no out=/workspace reuse (Weno5Workspace idiom)"
    )
    scope = "hot-path kernels"

    def run(self, program, in_scope) -> Iterator[Violation]:
        roots = [name for module, name in HOT_KERNELS
                 if any(fn.name == name
                        for path, source in program.sources.items()
                        if path_matches(path, module)
                        for fn in source.functions)]
        for fn in program.closure(roots):
            if not in_scope(self, fn.path):
                continue
            alloc, disciplined = _alloc_discipline(fn.node)
            if alloc >= ALLOC_THRESHOLD and disciplined * DISCIPLINE_RATIO < alloc:
                yield self.violation(
                    fn.path, fn.node,
                    f"{fn.name}() allocates ~{alloc} intermediate "
                    f"arrays per call ({disciplined} disciplined ops); "
                    "thread out=/workspace buffers through the hot "
                    "expression chain (Weno5Workspace idiom)",
                )

"""CP-series rules of the static hot-path performance analyzer.

Two whole-program rules hold the declared hot-path kernels
(:data:`~repro.analysis.perfcheck.model.HOT_KERNELS`) to their
allocation and arithmetic contracts:

* **CP003 hidden-temporaries** -- a kernel-path function allocates many
  intermediate arrays per call with (almost) no ``out=`` / workspace /
  in-place discipline, against the ``Weno5Workspace`` / ``SliceRing``
  idiom of the fused kernels.
* **CP006 intensity-divergence** -- the statically counted arithmetic
  intensity of a kernel diverges more than 2x from the shared roofline
  table :data:`repro.perf.kernels.KERNEL_ARITHMETIC` -- either the
  kernel grew arithmetic the model does not know about, or the model is
  stale.

The dtype contract (float32 in, float32 out) is held at run time by the
kernels' dtype tests, not here.  All findings are
:class:`~repro.analysis.report.Violation` records, honor
``# lint: disable=CPxxx`` pragmas and accumulate in a
:class:`~repro.analysis.report.Report`.  Run with
``python -m repro.analysis --perf [paths]``.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from ..program import (
    Function,
    Program,
    Rule,
    call_name,
    register_rule,
    registered_rules,
)
from ..report import Report, Violation
from .model import HOT_KERNELS, KernelSpec, modeled_arithmetic
from .program import _REDUCTIONS, ELEMENTWISE, PerfProgram, build_program

#: CP003 fires at or above this many allocating array ops per function.
ALLOC_THRESHOLD = 12

#: ... unless at least ``alloc / DISCIPLINE_RATIO`` ops are disciplined
#: (``out=``, in-place augmented assignment, subscript store, copyto).
DISCIPLINE_RATIO = 4

#: CP006 fires when counted and modeled intensity diverge beyond this.
INTENSITY_TOLERANCE = 2.0


# -- scan-scope helpers ---------------------------------------------------


def _unique_functions(program: PerfProgram) -> Iterator[Function]:
    """Each function in scope exactly once (kernels + helper closures)."""
    names = dict.fromkeys(n for info in program.kernels for n in info.closure)
    return (program.functions[name] for name in names)


# -- CP003: hidden-temporary accounting -----------------------------------


def _alloc_discipline(fn: ast.AST) -> tuple[int, int]:
    """(allocating array ops, disciplined ops) of one function body.

    Index arithmetic inside subscript slices and ``is``/``is not``
    identity checks are scalar bookkeeping, not array temporaries, and
    are excluded from the allocation count.
    """
    in_slice: set[int] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Subscript):
            for sub in ast.walk(node.slice):
                in_slice.add(id(sub))
    alloc = 0
    disciplined = 0
    for node in ast.walk(fn):
        if id(node) in in_slice:
            continue
        if isinstance(node, ast.BinOp):
            alloc += 1
        elif isinstance(node, ast.UnaryOp):
            if not isinstance(node.operand, ast.Constant):
                alloc += 1
        elif isinstance(node, ast.Compare):
            if all(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops):
                continue
            alloc += 1
        elif isinstance(node, ast.Call):
            name = call_name(node)
            has_out = any(kw.arg == "out" for kw in node.keywords)
            if name == "copyto":
                disciplined += 1
            elif name in ELEMENTWISE or name in _REDUCTIONS:
                if has_out:
                    disciplined += 1
                else:
                    alloc += 1
            elif has_out:
                disciplined += 1
        elif isinstance(node, ast.AugAssign):
            disciplined += 1
        elif isinstance(node, ast.Assign):
            for t in node.targets:
                if isinstance(t, ast.Subscript):
                    disciplined += 1
    return alloc, disciplined


@register_rule
class HiddenTemporaries(Rule):
    """CP003: chained ufunc expressions allocating many intermediates.

    Every un-disciplined array binop/ufunc call in a NumPy kernel
    allocates (and streams) a hidden temporary; the paper's micro-fused
    kernels exist precisely to avoid those passes.  A function whose
    allocating-op count reaches :data:`ALLOC_THRESHOLD` with less than
    one disciplined op (``out=`` / in-place / workspace store) per
    :data:`DISCIPLINE_RATIO` allocations is flagged.
    """

    family = "perf"
    rule_id = "CP003"
    name = "hidden-temporaries"
    description = (
        "kernel-path function allocating many intermediate arrays per "
        "call with no out=/workspace reuse (Weno5Workspace idiom)"
    )

    def check(self, program: PerfProgram) -> Iterable[Violation]:
        for entry in _unique_functions(program):
            alloc, disciplined = _alloc_discipline(entry.node)
            if alloc >= ALLOC_THRESHOLD and disciplined * DISCIPLINE_RATIO < alloc:
                yield self.violation(
                    entry.path, entry.node,
                    f"{entry.name}() allocates ~{alloc} intermediate "
                    f"arrays per call ({disciplined} disciplined ops); "
                    "thread out=/workspace buffers through the hot "
                    "expression chain (Weno5Workspace idiom)",
                )


# -- CP006: arithmetic-intensity cross-check ------------------------------


@register_rule
class IntensityDivergence(Rule):
    """CP006: counted vs modeled arithmetic intensity diverge > 2x.

    The AST-level FLOP/operand count of a kernel (same per-point
    accounting convention as :data:`repro.perf.kernels.KERNEL_ARITHMETIC`)
    must stay within :data:`INTENSITY_TOLERANCE` of the roofline table;
    a divergence means either the kernel gained arithmetic the
    performance model does not account for, or the model table is stale
    -- both invalidate the perf-trajectory projections.
    """

    family = "perf"
    rule_id = "CP006"
    name = "intensity-divergence"
    description = (
        "statically counted arithmetic intensity of a kernel diverges "
        ">2x from the shared roofline model table"
    )

    def check(self, program: PerfProgram) -> Iterable[Violation]:
        for info in program.kernels:
            model = modeled_arithmetic(info.spec)
            if model is None or info.counted_bytes <= 0:
                continue
            counted = info.counted_intensity
            modeled = model.intensity
            if counted <= 0 or modeled <= 0:
                continue
            ratio = max(counted, modeled) / min(counted, modeled)
            if ratio > INTENSITY_TOLERANCE:
                yield self.violation(
                    info.entry.path, info.entry.node,
                    f"{info.spec.name}(): counted intensity "
                    f"{counted:.3f} FLOP/B vs modeled {modeled:.3f} "
                    f"(table key {info.spec.model_key!r}) -- "
                    f"{ratio:.1f}x divergence; kernel and "
                    "repro.perf.kernels.KERNEL_ARITHMETIC are out of "
                    "sync",
                )


# -- entry points ---------------------------------------------------------


def check_program(kernels: PerfProgram) -> Report:
    """Run every perf rule over a kernel program; returns the report.

    Violations honor ``# lint: disable=CPxxx`` pragmas in the analyzed
    sources; ``checks_run`` counts (function, rule) scan pairs plus the
    per-kernel cross-checks.
    """
    rules = [cls() for cls in registered_rules("perf")]
    scanned = len(list(_unique_functions(kernels)))
    found = set(kernels.program.unsuppressed(v for rule in rules
                                             for v in rule.check(kernels)))
    return Report("perf", sorted(found),
                  scanned * len(rules) + len(kernels.kernels))


def analyze(
    program: Program,
    specs: tuple[KernelSpec, ...] = HOT_KERNELS,
) -> tuple[PerfProgram, Report]:
    """kernel-check ``program``; returns ``(kernels, report)`` -- what the
    CLI needs to emit both the findings and the kernel manifest."""
    kernels = build_program(program, specs)
    return kernels, check_program(kernels)


def check_sources(
    sources: dict[str, str],
    specs: tuple[KernelSpec, ...] = HOT_KERNELS,
) -> Report:
    """perfcheck a mapping of display path -> source text (report)."""
    return analyze(Program(sources), specs)[1]

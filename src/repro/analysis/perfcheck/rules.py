"""CP-series rules of the static hot-path performance analyzer.

Four whole-program rules hold the declared hot-path kernels
(:data:`~repro.analysis.perfcheck.model.HOT_KERNELS`) to their dtype,
allocation and arithmetic contracts (CP004 / CP005 certified kernels for
a ``numba`` backend that was decided against; retired with it):

* **CP001 silent-promotion** -- a float32 and a float64 operand provably
  meet in one expression (dtype propagation per
  :mod:`~repro.analysis.perfcheck.dtypes`); the mix silently doubles the
  memory traffic of the whole expression chain.
* **CP002 strong-scalar** -- a dtype-less ``np.asarray(scalar)`` /
  ``np.float64(x)`` creates a *strong* float64 scalar array (NEP 50)
  that promotes every float32 expression it touches.
* **CP003 hidden-temporaries** -- a kernel-path function allocates many
  intermediate arrays per call with (almost) no ``out=`` / workspace /
  in-place discipline, against the ``Weno5Workspace`` / ``SliceRing``
  idiom of the fused kernels.
* **CP006 intensity-divergence** -- the statically counted arithmetic
  intensity of a kernel diverges more than 2x from the shared roofline
  table :data:`repro.perf.kernels.KERNEL_ARITHMETIC` -- either the
  kernel grew arithmetic the model does not know about, or the model is
  stale.

All findings are :class:`~repro.analysis.lint.Violation` records, honor
``# lint: disable=CPxxx`` pragmas and accumulate in a
:class:`~repro.analysis.perfcheck.report.PerfReport`.  Run with
``python -m repro.analysis --perf [paths]``.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, Iterator

from ..lint import Violation, iter_python_files
from .dtypes import ELEMENTWISE, infer
from .model import HOT_KERNELS, KernelSpec, modeled_arithmetic
from .program import (
    _REDUCTIONS,
    FunctionEntry,
    PerfProgram,
    _call_name,
    build_program,
)
from .report import PerfReport

#: CP003 fires at or above this many allocating array ops per function.
ALLOC_THRESHOLD = 12

#: ... unless at least ``alloc / DISCIPLINE_RATIO`` ops are disciplined
#: (``out=``, in-place augmented assignment, subscript store, copyto).
DISCIPLINE_RATIO = 4

#: CP006 fires when counted and modeled intensity diverge beyond this.
INTENSITY_TOLERANCE = 2.0


class PerfRule:
    """Base class of whole-program perfcheck rules (CP-series)."""

    rule_id: str = ""
    name: str = ""
    description: str = ""

    def check(self, program: PerfProgram) -> Iterable[Violation]:
        """Yield the rule's findings over the kernel program."""
        raise NotImplementedError

    def violation(self, path: str, node: ast.AST, message: str) -> Violation:
        """Returns a :class:`Violation` anchored at an AST node."""
        return Violation(
            path=path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=self.rule_id,
            message=message,
        )


#: The open perf-rule registry, keyed by rule id.
PERF_REGISTRY: dict[str, type[PerfRule]] = {}


def register_perf_rule(cls: type[PerfRule]) -> type[PerfRule]:
    """Class decorator adding a perf rule to the registry."""
    if not cls.rule_id:
        raise ValueError(f"perf rule {cls.__name__} has no rule_id")
    if cls.rule_id in PERF_REGISTRY and PERF_REGISTRY[cls.rule_id] is not cls:
        raise ValueError(f"duplicate perf rule id {cls.rule_id}")
    PERF_REGISTRY[cls.rule_id] = cls
    return cls


def registered_perf_rules() -> list[type[PerfRule]]:
    """Returns the registered perf-rule classes in id order."""
    return [PERF_REGISTRY[k] for k in sorted(PERF_REGISTRY)]


# -- scan-scope helpers ---------------------------------------------------


def _unique_functions(program: PerfProgram) -> Iterator[FunctionEntry]:
    """Each function in scope exactly once (kernels + helper closures)."""
    seen: set[tuple[str, str]] = set()
    for info in program.kernels:
        for name in info.closure:
            entry = program.functions.get(name)
            if entry is None:
                continue
            key = (entry.path, entry.name)
            if key in seen:
                continue
            seen.add(key)
            yield entry


# -- CP001 / CP002: dtype propagation -------------------------------------


@register_perf_rule
class SilentPromotion(PerfRule):
    """CP001: provable float32/float64 mix inside one expression.

    Dtype labels propagate from explicit evidence only (``dtype=``
    keywords, ``astype``, the ``COMPUTE_DTYPE``/``STORAGE_DTYPE``
    contract names, layer helpers); a finding therefore means the
    promotion is certain, not merely possible.
    """

    rule_id = "CP001"
    name = "silent-promotion"
    description = (
        "float32 and float64 operands provably meet in one kernel "
        "expression -- the silent upcast doubles memory traffic"
    )

    def check(self, program: PerfProgram) -> Iterable[Violation]:
        for entry in _unique_functions(program):
            for promo in infer(entry.fn).promotions:
                yield self.violation(
                    entry.path, promo.node,
                    f"silent {promo.left}/{promo.right} promotion in "
                    f"{entry.name}(): pin one operand to the contract "
                    "dtype (COMPUTE_DTYPE / STORAGE_DTYPE)",
                )


@register_perf_rule
class StrongScalarContamination(PerfRule):
    """CP002: dtype-less scalar-array construction in a kernel body.

    ``np.asarray(0.5)`` / ``np.float64(x)`` produce float64 scalar
    *arrays*, which NEP 50 treats as strong: unlike plain python floats
    they promote every float32 array they meet.  Kernel bodies must pass
    python scalars through unwrapped or pin an explicit ``dtype=``.
    """

    rule_id = "CP002"
    name = "strong-scalar"
    description = (
        "dtype-less np.asarray/np.array/np.float64 of a python scalar "
        "in a kernel body -- a strong float64 scalar that contaminates "
        "float32 expressions"
    )

    def check(self, program: PerfProgram) -> Iterable[Violation]:
        for entry in _unique_functions(program):
            for ev in infer(entry.fn).strong_scalars:
                yield self.violation(
                    entry.path, ev.node,
                    f"{ev.func}() wraps a python scalar into a strong "
                    f"float64 array inside {entry.name}(); pass the bare "
                    "scalar (weak under NEP 50) or pin dtype=",
                )


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
            name = _call_name(node)
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


@register_perf_rule
class HiddenTemporaries(PerfRule):
    """CP003: chained ufunc expressions allocating many intermediates.

    Every un-disciplined array binop/ufunc call in a NumPy kernel
    allocates (and streams) a hidden temporary; the paper's micro-fused
    kernels exist precisely to avoid those passes.  A function whose
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

    def check(self, program: PerfProgram) -> Iterable[Violation]:
        for entry in _unique_functions(program):
            alloc, disciplined = _alloc_discipline(entry.fn)
            if alloc >= ALLOC_THRESHOLD and disciplined * DISCIPLINE_RATIO < alloc:
                yield self.violation(
                    entry.path, entry.fn,
                    f"{entry.name}() allocates ~{alloc} intermediate "
                    f"arrays per call ({disciplined} disciplined ops); "
                    "thread out=/workspace buffers through the hot "
                    "expression chain (Weno5Workspace idiom)",
                )


# -- CP006: arithmetic-intensity cross-check ------------------------------


@register_perf_rule
class IntensityDivergence(PerfRule):
    """CP006: counted vs modeled arithmetic intensity diverge > 2x.

    The AST-level FLOP/operand count of a kernel (same per-point
    accounting convention as :data:`repro.perf.kernels.KERNEL_ARITHMETIC`)
    must stay within :data:`INTENSITY_TOLERANCE` of the roofline table;
    a divergence means either the kernel gained arithmetic the
    performance model does not account for, or the model table is stale
    -- both invalidate the perf-trajectory projections.
    """

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
                    info.entry.path, info.entry.fn,
                    f"{info.spec.name}(): counted intensity "
                    f"{counted:.3f} FLOP/B vs modeled {modeled:.3f} "
                    f"(table key {info.spec.model_key!r}) -- "
                    f"{ratio:.1f}x divergence; kernel and "
                    "repro.perf.kernels.KERNEL_ARITHMETIC are out of "
                    "sync",
                )


# -- entry points ---------------------------------------------------------


def check_program(program: PerfProgram) -> PerfReport:
    """Run every registered perf rule; returns the report.

    Violations honor ``# lint: disable=CPxxx`` pragmas in the analyzed
    sources; ``checks_run`` counts (function, rule) scan pairs plus the
    per-kernel cross-checks.
    """
    report = PerfReport()
    rules = [cls() for cls in registered_perf_rules()]
    scanned = len(list(_unique_functions(program)))
    report.checks_run = scanned * len(rules) + len(program.kernels)
    out: list[Violation] = []
    for rule in rules:
        for v in rule.check(program):
            source = program.sources.get(v.path)
            if source is not None and source.disabled(v.rule, v.line):
                continue
            out.append(v)
    report.violations = sorted(set(out))
    return report


def check_sources(
    sources: dict[str, str],
    specs: tuple[KernelSpec, ...] = HOT_KERNELS,
) -> PerfReport:
    """perfcheck a mapping of display path -> source text (report)."""
    return check_program(build_program(sources, specs))


def check_paths(
    paths: Iterable[str | Path],
    specs: tuple[KernelSpec, ...] = HOT_KERNELS,
) -> PerfReport:
    """perfcheck every python file under ``paths``; returns the report."""
    sources = {
        str(f): f.read_text(encoding="utf-8") for f in iter_python_files(paths)
    }
    return check_sources(sources, specs)


def analyze_paths(
    paths: Iterable[str | Path],
    specs: tuple[KernelSpec, ...] = HOT_KERNELS,
) -> tuple[PerfProgram, PerfReport]:
    """Build the program and run the rules in one step.

    Returns ``(program, report)`` -- what the CLI needs to emit both the
    findings and the kernel manifest from a single parse.
    """
    sources = {
        str(f): f.read_text(encoding="utf-8") for f in iter_python_files(paths)
    }
    program = build_program(sources, specs)
    return program, check_program(program)

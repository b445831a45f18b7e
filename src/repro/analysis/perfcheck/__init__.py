"""kernel-check: static hot-path performance analyzer (CP-series).

Whole-program abstract interpretation over the solver's hot-path
modules (WENO, Riemann, EOS, RHS assembly, block kernels, time stepper,
ghost exchange) that holds each declared kernel to its contracts.  Four
rules -- CP001 silent float32/float64 promotion, CP002 strong-scalar
contamination, CP003 hidden-temporary accounting, CP006
counted-vs-modeled arithmetic-intensity divergence -- produce :class:`~repro.analysis.lint.Violation` findings
plus a machine-readable ``kernel_manifest.json``.  Run with
``python -m repro.analysis --perf``; see ``docs/analysis.md``.
"""

from .dtypes import DtypeInference, Promotion, StrongScalar, infer
from .manifest import (
    MANIFEST_SCHEMA,
    build_kernel_manifest,
    native_entry_points,
    write_kernel_manifest,
)
from .model import (
    HOT_KERNELS,
    HOT_MODULES,
    KernelSpec,
    modeled_arithmetic,
)
from .program import (
    FunctionEntry,
    KernelInfo,
    PerfProgram,
    build_program,
    count_flops,
    count_operand_bytes,
)
from .report import PerfReport
from .rules import (
    ALLOC_THRESHOLD,
    INTENSITY_TOLERANCE,
    PERF_REGISTRY,
    PerfRule,
    analyze_paths,
    check_paths,
    check_program,
    check_sources,
    register_perf_rule,
    registered_perf_rules,
)

__all__ = [
    "ALLOC_THRESHOLD",
    "DtypeInference",
    "FunctionEntry",
    "HOT_KERNELS",
    "HOT_MODULES",
    "INTENSITY_TOLERANCE",
    "KernelInfo",
    "KernelSpec",
    "MANIFEST_SCHEMA",
    "PERF_REGISTRY",
    "PerfProgram",
    "PerfReport",
    "PerfRule",
    "Promotion",
    "StrongScalar",
    "analyze_paths",
    "build_kernel_manifest",
    "build_program",
    "check_paths",
    "check_program",
    "check_sources",
    "count_flops",
    "count_operand_bytes",
    "infer",
    "modeled_arithmetic",
    "native_entry_points",
    "register_perf_rule",
    "registered_perf_rules",
    "write_kernel_manifest",
]

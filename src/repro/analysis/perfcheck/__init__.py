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

from ..._exports import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "dtypes": ("DtypeInference", "Promotion", "StrongScalar", "infer"),
    "manifest": (
        "MANIFEST_SCHEMA", "build_kernel_manifest", "native_entry_points",
        "write_kernel_manifest",
    ),
    "model": (
        "HOT_KERNELS", "HOT_MODULES", "KernelSpec", "modeled_arithmetic",
    ),
    "program": (
        "FunctionEntry", "KernelInfo", "PerfProgram", "build_program",
        "count_flops", "count_operand_bytes",
    ),
    "report": ("PerfReport",),
    "rules": (
        "ALLOC_THRESHOLD", "INTENSITY_TOLERANCE", "PERF_REGISTRY", "PerfRule",
        "analyze_paths", "check_paths", "check_program", "check_sources",
        "register_perf_rule", "registered_perf_rules",
    ),
})

"""kernel-check: static hot-path performance analyzer (CP-series).

Whole-program abstract interpretation over the solver's hot-path
modules (WENO, Riemann, EOS, RHS assembly, block kernels, time stepper,
ghost exchange) that holds each declared kernel to its contracts.  Two
rules -- CP003 hidden-temporary accounting and CP006 counted-vs-modeled
arithmetic-intensity divergence -- produce
:class:`~repro.analysis.report.Violation` findings, and
``--manifest-out`` writes a machine-readable ``kernel_manifest.json``.
Run with ``python -m repro.analysis --perf``; see ``docs/analysis.md``.
"""

from ..._exports import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "manifest": (
        "MANIFEST_SCHEMA", "build_kernel_manifest", "native_entry_points",
        "write_kernel_manifest",
    ),
    "model": (
        "HOT_KERNELS", "KernelSpec", "modeled_arithmetic",
    ),
    "program": (
        "KernelInfo", "PerfProgram", "build_program", "count_flops",
        "count_operand_bytes",
    ),
    "rules": (
        "ALLOC_THRESHOLD", "INTENSITY_TOLERANCE", "analyze", "check_program",
        "check_sources",
    ),
})

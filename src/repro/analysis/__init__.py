"""Solver-aware static analysis and runtime numerics sanitation.

The paper's performance story rests on contracts this package enforces by
machine instead of by convention:

* **mixed precision** -- float32 AoS block *storage*, float64 SoA
  *compute* (paper Section 5), expressed through ``STORAGE_DTYPE`` /
  ``COMPUTE_DTYPE`` in :mod:`repro.physics.state`;
* **stencil geometry** -- the WENO5 ghost width of exactly
  :data:`repro.core.block.GHOSTS` cells and the 6-slice ring buffers of
  :data:`repro.core.ringbuffer.RING_DEPTH`;
* **numerical sanity** -- the quasi-conservative (Gamma, Pi) advection
  must never produce NaN/Inf, negative density or negative pressure
  mid-collapse.

Three static families, rule sets over one program model
(:mod:`repro.analysis.program`: each file parsed once, one function
table, one rule registry, one :class:`Report` type), twelve rules in
all -- the ones that have caught something in this repository:

* :mod:`repro.analysis.lint` + :mod:`repro.analysis.rules` --
  ``cubism-lint``, per-file rules CL001, CL005-CL007, CL009, CL011 and
  CL012 with ``# lint: disable=RULE`` pragmas.  Run it as
  ``python -m repro.analysis src/repro`` (or the ``cubism-lint`` script).
* :mod:`repro.analysis.perfcheck` -- **kernel-check**, a static hot-path
  performance analyzer (rules CP003 and CP006, ``python -m
  repro.analysis --perf``) that holds the declared hot-path kernels to
  their allocation and arithmetic contracts and, on request, writes the
  machine-readable ``kernel_manifest.json``.
* :mod:`repro.analysis.syscheck` -- **sys-check**, a static
  resource-lifecycle analyzer for the multi-process layers (rules
  RS001, RS003 and RS006, ``python -m repro.analysis --sys``), plus
  :class:`ResourceLedger`, the runtime leak sanitizer the test suite
  wraps around every cluster/service/chaos test.

``python -m repro.analysis --all`` runs the three static families in one
pass and emits a single merged report with a worst-of exit code.

Beside them, the runtime checkers: :mod:`repro.analysis.sanitizer` --
:class:`NumericsSanitizer`, an off / warn / raise policy that hooks into
the core kernels, the time stepper and the cluster driver, accumulating
a per-run :class:`ViolationReport` -- and
:mod:`repro.analysis.concurrency`, a vector-clock race detector +
deadlock watchdog for the thread-based runtime (CC101/CC102,
``--concurrency-check`` on runs).

The names below resolve on first use: the runtime imports the sanitizer
and the race tracker, never the static analysers beside them.

See ``docs/analysis.md`` for the full rule catalogue and usage.
"""

from .._exports import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "concurrency": (
        "ConcurrencyViolationError",
        "ConcurrencyWarning",
        "RaceTracker",
        "make_tracker",
    ),
    "perfcheck": (
        "HOT_KERNELS",
        "KernelSpec",
        "build_kernel_manifest",
        "check_sources as perf_check_sources",
        "write_kernel_manifest",
    ),
    "syscheck": (
        "LeakError",
        "ResourceLedger",
        "check_sources as sys_check_sources",
    ),
    "lint": (
        "LintConfig",
        "format_violations",
        "lint_source",
    ),
    "program": (
        "Program",
        "Rule",
        "SourceFile",
        "analyze",
        "register_rule",
        "registered_rules",
    ),
    "report": ("Report", "Violation"),
    "sanitizer": (
        "POLICIES",
        "NumericsSanitizer",
        "NumericsViolation",
        "NumericsViolationError",
        "NumericsWarning",
        "ViolationReport",
        "make_sanitizer",
    ),
})

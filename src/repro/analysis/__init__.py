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

Three parts:

* :mod:`repro.analysis.lint` + :mod:`repro.analysis.rules` --
  ``cubism-lint``, an AST-based checker with a pluggable rule registry
  (rules CL001..CL011) and ``# lint: disable=RULE`` pragmas.  Run it as
  ``python -m repro.analysis src/repro`` (or the ``cubism-lint`` script).
* :mod:`repro.analysis.sanitizer` -- :class:`NumericsSanitizer`, a
  runtime checker with an off / warn / raise policy that hooks into the
  core kernels, the time stepper and the cluster driver, accumulating a
  per-run :class:`ViolationReport`.
* :mod:`repro.analysis.concurrency` -- the cluster layer's concurrency
  analysis: **comm-check**, a static whole-program MPI protocol verifier
  (rules CC001..CC004, ``python -m repro.analysis --concurrency``), and
  a dynamic vector-clock race detector + deadlock watchdog for the
  thread-based runtime (CC101/CC102, ``--concurrency-check`` on runs).
* :mod:`repro.analysis.perfcheck` -- **kernel-check**, a static hot-path
  performance analyzer (rules CP001..CP003 and CP006, ``python -m
  repro.analysis --perf``) that holds the declared hot-path kernels to
  their contracts and emits the machine-readable
  ``kernel_manifest.json``.
* :mod:`repro.analysis.syscheck` -- **sys-check**, a static
  resource-lifecycle and process-safety analyzer for the multi-process
  layers (rules RS001..RS007, ``python -m repro.analysis --sys``), plus
  :class:`ResourceLedger`, the runtime leak sanitizer the test suite
  wraps around every cluster/service/chaos test.

``python -m repro.analysis --all`` runs all four static families in one
pass and emits a single merged report with a worst-of exit code.

The names below resolve on first use: the runtime imports the sanitizer
and the race tracker, never the static analysers beside them.

See ``docs/analysis.md`` for the full rule catalogue and usage.
"""

from .._exports import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "concurrency": (
        "ConcurrencyReport",
        "ConcurrencyViolationError",
        "ConcurrencyWarning",
        "RaceTracker",
        "check_paths",
        "check_sources",
        "make_tracker",
        "registered_program_rules",
    ),
    "perfcheck": (
        "HOT_KERNELS",
        "KernelSpec",
        "PerfReport",
        "build_kernel_manifest",
        "check_paths as perf_check_paths",
        "check_sources as perf_check_sources",
        "registered_perf_rules",
        "write_kernel_manifest",
    ),
    "syscheck": (
        "LeakError",
        "ResourceLedger",
        "SysReport",
        "registered_sys_rules",
        "check_paths as sys_check_paths",
        "check_sources as sys_check_sources",
    ),
    "lint": (
        "LintConfig",
        "Rule",
        "SourceFile",
        "Violation",
        "format_violations",
        "lint_paths",
        "lint_source",
        "registered_rules",
    ),
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

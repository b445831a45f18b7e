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

One static lint over one program model
(:mod:`repro.analysis.program`: each file parsed once, one call-resolution
policy, one rule registry, one :class:`Report` type):
:mod:`repro.analysis.lint` + :mod:`repro.analysis.rules` --
``cubism-lint``, rules CL001, CL005-CL007, CL009, CL011, CL012 and CP003
(hidden temporaries in the declared hot-path kernels) with
``# lint: disable=RULE`` pragmas.  Run it as
``python -m repro.analysis src/repro`` (or the ``cubism-lint`` script).

Beside it, the runtime checkers: :mod:`repro.analysis.sanitizer` --
:class:`NumericsSanitizer`, an off / warn / raise policy that hooks into
the core kernels, the time stepper and the cluster driver, accumulating
a per-run :class:`ViolationReport`; :class:`ResourceLedger`
(:mod:`repro.analysis.ledger`), the leak sanitizer the test suite wraps
around the multi-process tests; and the cluster runtime's deadlock
watchdog (:class:`repro.cluster.mpi_sim.DeadlockError`), which lives in
the communicator it watches.

The names below resolve on first use: the runtime imports the sanitizer,
never the lint beside it.

See ``docs/analysis.md`` for the full rule catalogue and usage.
"""

from .._exports import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "ledger": ("LeakError", "ResourceLedger"),
    "lint": (
        "LintConfig",
        "analyze",
        "format_violations",
        "lint_source",
    ),
    "program": (
        "Program",
        "Rule",
        "SourceFile",
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

"""Declarative V&V subsystem: golden-baseline physics regression suite.

Verification & validation against canonical problems (see
``docs/validation.md``):

* :mod:`repro.validation.cases` -- the case registry (exact Riemann
  shock tubes, acoustic-wave convergence order, interface-advection
  oscillation bounds, Rayleigh single-bubble collapse, conservation
  drift audits);
* :mod:`repro.validation.baselines` -- the golden-baseline JSON store
  with per-metric tolerances, hard physical bounds and environment
  stamping;
* :mod:`repro.validation.runner` -- ``check`` / ``record`` / ``diff``
  execution and the scorecard;
* :mod:`repro.validation.cli` -- ``python -m repro.validation`` (also
  ``python -m repro.cli validate``), exiting nonzero on any breach.

Driver-backed cases run with the numerics sanitizer and telemetry
enabled, so a validation run doubles as integration coverage of both.
"""

from .._exports import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "baselines": (
        "DEFAULT_BASELINE_DIR", "CaseBaseline", "MetricDiff", "MetricSpec",
        "baseline_path", "compare", "environment_stamp", "load_baseline",
        "save_baseline",
    ),
    "cases": ("CASES", "SUITES", "ValidationCase", "get_case", "suite_cases"),
    "cli": ("main",),
    "runner": (
        "CaseRun", "format_scorecard", "run_case", "run_suite",
        "scorecard_rows", "suite_passed",
    ),
})

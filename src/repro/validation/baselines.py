"""Golden-baseline store for the V&V suite.

A baseline is one JSON file per case under ``validation/baselines/``
holding the recorded metric values plus an environment stamp (numpy and
python versions, the mixed-precision dtype policy and the git revision
the values were recorded at).  Tolerances are *not* stored in the
baseline: they are part of the case definition
(:class:`MetricSpec`, see :mod:`repro.validation.cases`), so loosening a
contract is a reviewed code change rather than a data edit.

Checking compares each measured metric against

* the recorded value, within ``atol + rtol * |recorded|`` -- the
  regression contract; and
* optional hard ``lo``/``hi`` bounds -- the physics contract (e.g. the
  measured convergence order must stay >= 2.5 regardless of what was
  recorded).

Hard bounds are enforced in every mode, including ``record``: a baseline
that violates its own physics contract cannot be recorded.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass, field

import numpy as np

from ..container import write_atomic
from ..physics.state import COMPUTE_DTYPE, STORAGE_DTYPE

#: Directory of the committed golden baselines.
DEFAULT_BASELINE_DIR = os.path.join(os.path.dirname(__file__), "baselines")

#: Baseline-file schema version (bump on incompatible layout changes).
BASELINE_FORMAT = 1


@dataclass(frozen=True)
class MetricSpec:
    """Acceptance contract of one scalar case metric.

    ``rtol``/``atol`` bound the deviation from the *recorded* baseline
    value; ``lo``/``hi`` are hard physical bounds on the measured value
    itself, checked independently of any baseline.
    """

    name: str
    rtol: float = 0.0  #: relative tolerance vs the recorded value
    atol: float = 0.0  #: absolute tolerance vs the recorded value
    lo: float | None = None  #: hard lower bound on the measured value
    hi: float | None = None  #: hard upper bound on the measured value
    description: str = ""  #: one-line meaning, shown in the catalogue

    @property
    def compares_baseline(self) -> bool:
        """Whether this metric is checked against a recorded value."""
        return self.rtol > 0.0 or self.atol > 0.0


@dataclass(frozen=True)
class MetricDiff:
    """Outcome of checking one measured metric against its contract."""

    spec: MetricSpec
    measured: float
    baseline: float | None  #: recorded value (None if absent)
    status: str  #: ``"pass"`` or ``"fail"``
    reason: str = ""  #: human-readable failure cause (empty on pass)

    @property
    def passed(self) -> bool:
        """Whether the metric satisfied its full contract."""
        return self.status == "pass"

    @property
    def delta(self) -> float:
        """Measured minus recorded value (nan without a baseline)."""
        if self.baseline is None:
            return float("nan")
        return self.measured - self.baseline


@dataclass
class CaseBaseline:
    """The recorded golden values of one validation case."""

    case: str
    metrics: dict[str, float] = field(default_factory=dict)
    environment: dict = field(default_factory=dict)

    def to_json(self) -> str:
        """Serialize to the committed JSON layout (stable key order)."""
        doc = {
            "format": BASELINE_FORMAT,
            "case": self.case,
            "metrics": {k: self.metrics[k] for k in sorted(self.metrics)},
            "environment": self.environment,
        }
        return json.dumps(doc, indent=2, sort_keys=False) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "CaseBaseline":
        """Parse a baseline file; raises ``ValueError`` on bad layout."""
        doc = json.loads(text)
        if doc.get("format") != BASELINE_FORMAT:
            raise ValueError(
                f"unsupported baseline format {doc.get('format')!r} "
                f"(expected {BASELINE_FORMAT})"
            )
        return cls(
            case=str(doc["case"]),
            metrics={k: float(v) for k, v in doc["metrics"].items()},
            environment=dict(doc.get("environment", {})),
        )


def environment_stamp() -> dict:
    """The provenance stamp written into every recorded baseline."""
    rev = "unknown"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        if proc.returncode == 0 and proc.stdout.strip():
            rev = proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        rev = "unknown"
    return {
        "numpy": np.__version__,
        "python": ".".join(str(v) for v in sys.version_info[:3]),
        "storage_dtype": np.dtype(STORAGE_DTYPE).name,
        "compute_dtype": np.dtype(COMPUTE_DTYPE).name,
        "git_rev": rev,
    }


def baseline_path(case: str, baseline_dir: str | None = None) -> str:
    """Path of the baseline JSON file of ``case``."""
    return os.path.join(baseline_dir or DEFAULT_BASELINE_DIR, f"{case}.json")


def save_baseline(
    baseline: CaseBaseline, baseline_dir: str | None = None
) -> str:
    """Write a baseline file (creating the directory); returns its path.

    Atomic (:func:`repro.container.write_atomic`): baselines gate the
    validation suite, so a half-written JSON must never be observable.
    """
    path = baseline_path(baseline.case, baseline_dir)
    write_atomic(path, baseline.to_json().encode())
    return path


def load_baseline(
    case: str, baseline_dir: str | None = None
) -> CaseBaseline | None:
    """Load the recorded baseline of ``case``; ``None`` if not recorded."""
    path = baseline_path(case, baseline_dir)
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return CaseBaseline.from_json(fh.read())


def compare(
    measured: dict[str, float],
    baseline: CaseBaseline | None,
    specs: tuple[MetricSpec, ...],
) -> list[MetricDiff]:
    """Check measured metrics against their contracts; returns the diffs.

    Every spec yields exactly one :class:`MetricDiff`.  A metric fails if
    it was not measured, is non-finite, violates a hard bound, or (for
    specs with a baseline tolerance) deviates from the recorded value by
    more than ``atol + rtol * |recorded|`` -- including the case of a
    missing recorded value, which in ``check`` mode means the committed
    baselines are stale.
    """
    out: list[MetricDiff] = []
    for spec in specs:
        rec = baseline.metrics.get(spec.name) if baseline is not None else None
        if spec.name not in measured:
            out.append(MetricDiff(spec, float("nan"), rec, "fail",
                                  "metric not measured"))
            continue
        m = float(measured[spec.name])
        reasons: list[str] = []
        if not np.isfinite(m):
            reasons.append("non-finite measurement")
        else:
            if spec.lo is not None and m < spec.lo:
                reasons.append(f"below hard bound lo={spec.lo:g}")
            if spec.hi is not None and m > spec.hi:
                reasons.append(f"above hard bound hi={spec.hi:g}")
            if spec.compares_baseline:
                if rec is None:
                    reasons.append("no recorded baseline value")
                else:
                    tol = spec.atol + spec.rtol * abs(rec)
                    if abs(m - rec) > tol:
                        reasons.append(
                            f"|delta|={abs(m - rec):.3g} > tol={tol:.3g}"
                        )
        out.append(
            MetricDiff(
                spec, m, rec,
                "pass" if not reasons else "fail",
                "; ".join(reasons),
            )
        )
    return out

"""Runtime numerics sanitizer for the solver's state invariants.

The quasi-conservative (Gamma, Pi) scheme must never produce NaN/Inf,
negative density, negative ``Gamma`` or negative pressure mid-collapse
(paper Section 3; the EOS inversion divides by ``Gamma`` and the sound
speed takes a square root).  :class:`NumericsSanitizer` checks a block's
post-stage state for exactly those conditions, plus the storage-dtype
contract on block writes, under a configurable policy:

``off``
    No sanitizer is constructed at all (:func:`make_sanitizer` returns
    ``None``), so production hot loops carry a single ``is None`` test
    and no checking overhead.
``warn``
    Violations are recorded in the per-run :class:`ViolationReport` and
    emitted as :class:`NumericsWarning`; the run continues.
``raise``
    The first violation raises :class:`NumericsViolationError` carrying
    the block-level findings.

Hook points cover every kernel path of the step loop:
:func:`repro.core.kernels.update_stage` (post-UP state and storage
dtype), :meth:`repro.node.solver.NodeSolver.evaluate_rhs` (per-block RHS
finiteness), :meth:`repro.node.solver.NodeSolver.max_sos` (per-block SOS
finiteness), :func:`repro.cluster.driver._dump` (FWT input fields),
:meth:`repro.core.timestepper.TimeStepper.advance` (array-level stage
checks), :func:`repro.cluster.driver._set_up` (initial condition) and
:func:`repro.cluster.driver._advance` (per-stage context), surfaced
through ``RunResult.sanitizer_report`` and the ``run --sanitize`` CLI
flag.  Findings are localized to the block index and the offending
quantity name (:attr:`NumericsViolation.field`).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from ..physics.eos import pressure
from ..physics.state import (
    ENERGY,
    GAMMA,
    NAMES,
    NQ,
    PI,
    RHO,
    RHOU,
    RHOV,
    RHOW,
    COMPUTE_DTYPE,
    STORAGE_DTYPE,
)

#: Valid sanitizer policies.
POLICIES = ("off", "warn", "raise")


class NumericsWarning(RuntimeWarning):
    """Warning category used by the ``warn`` policy."""


@dataclass(frozen=True)
class NumericsViolation:
    """One numerics-contract violation observed at runtime."""

    check: str  #: "non_finite" | "negative_density" | "negative_gamma" | "negative_pressure" | "storage_dtype"
    where: str  #: run context, e.g. "step 12 stage 1" or "initial condition"
    block: tuple[int, int, int] | None  #: block index, if block-resolved
    count: int  #: number of offending cells (1 for dtype violations)
    worst: float  #: most extreme offending value (nan for non-finite)
    #: offending quantity name(s), comma-joined from
    #: :data:`repro.physics.state.NAMES` (or a caller-supplied label such
    #: as ``"sos"``); ``None`` when the quantity axis cannot be resolved.
    field: str | None = None

    def format(self) -> str:
        """Returns a one-line human-readable description."""
        loc = f" block {self.block}" if self.block is not None else ""
        fld = f" field {self.field}" if self.field else ""
        return (
            f"{self.check} at {self.where}{loc}{fld}: {self.count} "
            f"cell(s), worst {self.worst:g}"
        )


class NumericsViolationError(RuntimeError):
    """Raised by the ``raise`` policy; carries the block-level findings."""

    kind = "numerics"

    def __init__(self, violations: list[NumericsViolation]):
        self.violations = list(violations)
        super().__init__(
            "numerics sanitizer: "
            + "; ".join(v.format() for v in self.violations)
        )


@dataclass
class ViolationReport:
    """Accumulated findings of one run (or one rank of a run)."""

    violations: list[NumericsViolation] = field(default_factory=list)
    checks_run: int = 0

    def __len__(self) -> int:
        return len(self.violations)

    def by_check(self) -> dict[str, int]:
        """Returns violation counts keyed by check name."""
        out: dict[str, int] = {}
        for v in self.violations:
            out[v.check] = out.get(v.check, 0) + 1
        return out

    def summary(self) -> str:
        """Returns a one-line summary suitable for diagnostics output."""
        if not self.violations:
            return f"numerics sanitizer: clean ({self.checks_run} checks)"
        parts = ", ".join(f"{k}={n}" for k, n in sorted(self.by_check().items()))
        return (
            f"numerics sanitizer: {len(self.violations)} violation(s) in "
            f"{self.checks_run} checks ({parts})"
        )

    @classmethod
    def merged(cls, reports: list["ViolationReport"]) -> "ViolationReport":
        """Returns the union of per-rank reports (cluster reduction)."""
        out = cls()
        for r in reports:
            out.violations.extend(r.violations)
            out.checks_run += r.checks_run
        return out


class NumericsSanitizer:
    """Checks post-stage solver state against the numerics contracts.

    Parameters
    ----------
    policy:
        ``"warn"`` or ``"raise"`` (``"off"`` is expressed by *not*
        constructing a sanitizer; see :func:`make_sanitizer`).
    p_min:
        Pressure floor; states with ``p < p_min`` are violations.  The
        stiffened-gas liquid tolerates small negative absolute pressure,
        but the paper's collapse runs treat ``p < 0`` as divergence.
    """

    def __init__(self, policy: str = "warn", p_min: float = 0.0):
        if policy not in POLICIES:
            raise ValueError(
                f"unknown sanitizer policy {policy!r}; choose from {POLICIES}"
            )
        self.policy = policy
        self.p_min = float(p_min)
        self.report = ViolationReport()
        self.context = "unspecified"

    def set_context(self, context: str) -> None:
        """Set the run context stamped onto subsequent findings."""
        self.context = context

    # -- checks ---------------------------------------------------------

    def _finite_violations(
        self,
        arr: np.ndarray,
        where: str,
        block: tuple[int, int, int] | None,
        field: str | None = None,
    ) -> list[NumericsViolation]:
        """Finiteness findings of one array, localized to quantity names.

        Returns an empty list for finite data, else a single
        ``non_finite`` violation.  When ``field`` is not supplied and the
        array carries the trailing quantity axis, the offending quantity
        names are resolved from :data:`repro.physics.state.NAMES` and
        comma-joined into :attr:`NumericsViolation.field`.
        """
        finite = np.isfinite(arr)
        if finite.all():
            return []
        if field is None and arr.ndim >= 1 and arr.shape[-1] == NQ:
            bad = ~finite
            field = ",".join(
                NAMES[q] for q in range(NQ) if bad[..., q].any()
            )
        return [
            NumericsViolation(
                check="non_finite",
                where=where,
                block=block,
                count=int(arr.size - finite.sum()),
                worst=float("nan"),
                field=field,
            )
        ]

    def check_finite(
        self,
        arr: np.ndarray,
        where: str | None = None,
        block: tuple[int, int, int] | None = None,
        field: str | None = None,
    ) -> list[NumericsViolation]:
        """Finiteness-only check for non-state arrays; returns findings.

        Used by the RHS / SOS / FWT hook sites, whose arrays are time
        derivatives, reductions or single scalar fields: the state
        invariants (positive density, pressure floor) do not apply there,
        only the no-NaN/Inf contract.  ``field`` labels findings whose
        quantity cannot be inferred from the array shape (e.g. ``"sos"``
        for the speed-of-sound reduction, ``"p"`` for the pressure dump).
        """
        if self.policy == "off":
            return []
        found = self._finite_violations(
            np.asarray(arr), where or self.context, block, field
        )
        self.report.checks_run += 1
        self._handle(found)
        return found

    def check_state(
        self,
        aos: np.ndarray,
        where: str | None = None,
        block: tuple[int, int, int] | None = None,
    ) -> list[NumericsViolation]:
        """Check one AoS state array ``(..., NQ)``; returns the findings.

        Runs the finiteness check on any array; the density / Gamma /
        pressure invariants additionally require the trailing quantity
        axis, so shape-agnostic callers (the array-level time stepper)
        degrade gracefully.
        """
        if self.policy == "off":
            return []
        aos = np.asarray(aos)
        where = where or self.context
        found: list[NumericsViolation] = list(
            self._finite_violations(aos, where, block)
        )
        if not found and aos.ndim >= 1 and aos.shape[-1] == NQ:
            f = np.asarray(aos, dtype=COMPUTE_DTYPE)
            rho = f[..., RHO]
            if (rho <= 0.0).any():
                found.append(
                    NumericsViolation(
                        check="negative_density",
                        where=where,
                        block=block,
                        count=int((rho <= 0.0).sum()),
                        worst=float(rho.min()),
                        field="rho",
                    )
                )
            G = f[..., GAMMA]
            if (G < 0.0).any():
                found.append(
                    NumericsViolation(
                        check="negative_gamma",
                        where=where,
                        block=block,
                        count=int((G < 0.0).sum()),
                        worst=float(G.min()),
                        field="Gamma",
                    )
                )
            if not found:
                p = pressure(
                    rho, f[..., RHOU], f[..., RHOV], f[..., RHOW],
                    f[..., ENERGY], G, f[..., PI],
                )
                if (p < self.p_min).any():
                    found.append(
                        NumericsViolation(
                            check="negative_pressure",
                            where=where,
                            block=block,
                            count=int((p < self.p_min).sum()),
                            worst=float(p.min()),
                            field="p",
                        )
                    )
        self.report.checks_run += 1
        self._handle(found)
        return found

    def check_block_write(
        self,
        aos: np.ndarray,
        where: str | None = None,
        block: tuple[int, int, int] | None = None,
    ) -> list[NumericsViolation]:
        """Check the storage-dtype contract of a block write."""
        if self.policy == "off":
            return []
        self.report.checks_run += 1
        if aos.dtype == np.dtype(STORAGE_DTYPE):
            return []
        found = [
            NumericsViolation(
                check="storage_dtype",
                where=where or self.context,
                block=block,
                count=1,
                worst=float(np.dtype(aos.dtype).itemsize),
            )
        ]
        self._handle(found)
        return found

    # -- policy ---------------------------------------------------------

    def _handle(self, found: list[NumericsViolation]) -> None:
        if not found:
            return
        self.report.violations.extend(found)
        if self.policy == "raise":
            raise NumericsViolationError(found)
        for v in found:
            warnings.warn(v.format(), NumericsWarning, stacklevel=3)


def make_sanitizer(policy: str, p_min: float = 0.0) -> NumericsSanitizer | None:
    """Returns a sanitizer for ``policy``, or ``None`` for ``"off"``.

    Returning ``None`` (rather than a no-op object) keeps the ``off``
    policy free of any per-block call overhead: hook sites guard with a
    single ``if sanitizer is not None``.
    """
    if policy not in POLICIES:
        raise ValueError(
            f"unknown sanitizer policy {policy!r}; choose from {POLICIES}"
        )
    if policy == "off":
        return None
    return NumericsSanitizer(policy=policy, p_min=p_min)

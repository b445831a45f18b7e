"""Tests of the runtime numerics sanitizer (repro.analysis.sanitizer)."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.analysis import (
    NumericsSanitizer,
    NumericsViolationError,
    NumericsWarning,
    ViolationReport,
    make_sanitizer,
)
from repro.cluster import Simulation
from repro.core.timestepper import make_stepper
from repro.physics.eos import LIQUID
from repro.physics.state import ENERGY, NQ, RHO, STORAGE_DTYPE
from repro.sim.config import SimulationConfig
from repro.sim.diagnostics import format_sanitizer_report
from repro.sim.ic import uniform


def clean_state(shape=(4, 4, 4)):
    """A quiescent liquid AoS state that passes every check."""
    aos = np.zeros(shape + (NQ,), dtype=STORAGE_DTYPE)
    aos[..., 0] = 1000.0  # rho
    aos[..., 4] = 1.0e5  # E (pure internal energy here)
    aos[..., 5] = LIQUID.G
    aos[..., 6] = LIQUID.P
    return aos


# -- construction & policy ----------------------------------------------


def test_make_sanitizer_off_returns_none():
    assert make_sanitizer("off") is None


def test_make_sanitizer_invalid_policy_raises():
    with pytest.raises(ValueError, match="policy"):
        make_sanitizer("strict")
    with pytest.raises(ValueError, match="policy"):
        NumericsSanitizer(policy="bogus")


def test_off_policy_config_has_no_report():
    cfg = SimulationConfig(cells=16, block_size=8, max_steps=1)
    res = Simulation(cfg, uniform()).run()
    assert res.sanitizer_report is None
    assert all(rr.sanitizer_report is None for rr in res.rank_results)


def test_config_rejects_unknown_sanitize_policy():
    with pytest.raises(ValueError, match="sanitize"):
        SimulationConfig(cells=16, block_size=8, sanitize="bogus")


# -- check_state ----------------------------------------------------------


def test_clean_state_produces_no_findings():
    s = NumericsSanitizer(policy="raise")
    assert s.check_state(clean_state()) == []
    assert len(s.report) == 0
    assert s.report.checks_run == 1


def test_nan_detected_and_counted():
    s = NumericsSanitizer(policy="warn")
    aos = clean_state()
    aos[0, 0, 0, RHO] = np.nan
    aos[1, 1, 1, 1] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NumericsWarning)
        found = s.check_state(aos, where="unit test", block=(0, 0, 0))
    assert [v.check for v in found] == ["non_finite"]
    assert found[0].count == 2
    assert found[0].block == (0, 0, 0)
    assert "unit test" in found[0].format()


def test_negative_density_and_gamma_detected():
    s = NumericsSanitizer(policy="warn")
    aos = clean_state()
    aos[0, 0, 0, 0] = -1.0
    aos[0, 0, 1, 5] = -0.5
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NumericsWarning)
        found = s.check_state(aos)
    assert {v.check for v in found} == {"negative_density", "negative_gamma"}


def test_negative_pressure_detected_with_floor():
    s = NumericsSanitizer(policy="warn", p_min=0.0)
    aos = clean_state()
    aos[2, 2, 2, 4] = -1.0e7  # energy low enough for p < 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NumericsWarning)
        found = s.check_state(aos)
    assert [v.check for v in found] == ["negative_pressure"]
    assert found[0].worst < 0.0


def test_raise_policy_raises_with_findings():
    s = NumericsSanitizer(policy="raise")
    aos = clean_state()
    aos[0, 0, 0, 0] = np.nan
    with pytest.raises(NumericsViolationError) as err:
        s.check_state(aos, where="stage 1", block=(1, 2, 3))
    assert err.value.violations[0].check == "non_finite"
    assert "block (1, 2, 3)" in str(err.value)


def test_warn_policy_emits_numerics_warning_and_continues():
    s = NumericsSanitizer(policy="warn")
    aos = clean_state()
    aos[0, 0, 0, 0] = np.nan
    with warnings.catch_warnings(record=True) as wlist:
        warnings.simplefilter("always")
        found = s.check_state(aos)
    assert len(found) == 1
    assert any(issubclass(w.category, NumericsWarning) for w in wlist)
    assert len(s.report) == 1


def test_shape_agnostic_finiteness_check():
    # Arrays without a trailing NQ axis still get the finiteness check.
    s = NumericsSanitizer(policy="raise")
    assert s.check_state(np.ones((5, 5))) == []
    with pytest.raises(NumericsViolationError):
        s.check_state(np.asarray([1.0, np.nan]))


# -- check_block_write ----------------------------------------------------


def test_block_write_dtype_contract():
    s = NumericsSanitizer(policy="raise")
    assert s.check_block_write(clean_state()) == []
    with pytest.raises(NumericsViolationError) as err:
        s.check_block_write(clean_state().astype(np.float64), block=(0, 0, 0))
    assert err.value.violations[0].check == "storage_dtype"


# -- report ---------------------------------------------------------------


def test_report_merge_and_summary():
    r1 = ViolationReport()
    s = NumericsSanitizer(policy="warn")
    aos = clean_state()
    aos[0, 0, 0, 0] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NumericsWarning)
        s.check_state(aos)
    merged = ViolationReport.merged([r1, s.report])
    assert len(merged) == 1
    assert merged.by_check() == {"non_finite": 1}
    assert "1 violation(s)" in merged.summary()
    rendered = format_sanitizer_report(merged)
    assert "non_finite" in rendered
    assert format_sanitizer_report(None) == "numerics sanitizer: off"


# -- timestepper hook -----------------------------------------------------


def test_timestepper_advance_checks_stages():
    stepper = make_stepper("rk3")
    U = np.ones(8)

    def bad_rhs(u):
        out = np.zeros_like(u)
        out[0] = np.nan
        return out

    with pytest.raises(NumericsViolationError) as err:
        stepper.advance(U, bad_rhs, 0.1,
                        sanitizer=NumericsSanitizer(policy="raise"))
    assert "stage 1" in err.value.violations[0].where


def test_timestepper_advance_unchanged_without_sanitizer():
    stepper = make_stepper("rk3")
    U = np.linspace(1.0, 2.0, 16)
    out = stepper.advance(U, lambda u: -u, 0.01)
    ref = stepper.advance(U, lambda u: -u, 0.01,
                          sanitizer=NumericsSanitizer(policy="raise"))
    np.testing.assert_array_equal(out, ref)


# -- driver integration ---------------------------------------------------


def test_driver_clean_run_with_raise_policy():
    cfg = SimulationConfig(cells=16, block_size=8, max_steps=3,
                           sanitize="raise")
    res = Simulation(cfg, uniform()).run()
    assert len(res.records) == 3
    assert res.sanitizer_report is not None
    assert len(res.sanitizer_report) == 0
    assert res.sanitizer_report.checks_run > 0


def nan_ic():
    base = uniform()

    def fn(z, y, x):
        W = base(z, y, x)
        W[0, 0, 0, 0] = np.nan
        return W

    return fn


def test_driver_nan_ic_raises_with_block_report():
    cfg = SimulationConfig(cells=16, block_size=8, max_steps=3,
                           sanitize="raise")
    with pytest.raises(NumericsViolationError) as err:
        Simulation(cfg, nan_ic()).run()
    v = err.value.violations[0]
    assert v.check == "non_finite"
    assert v.where == "initial condition"
    assert v.block is not None


def test_driver_warn_policy_records_and_completes():
    # Negative pressure in a stiffened liquid keeps the sound speed real,
    # so the run completes while the sanitizer records every violation.
    cfg = SimulationConfig(cells=16, block_size=8, max_steps=2,
                           sanitize="warn")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NumericsWarning)
        res = Simulation(cfg, uniform(p=-50.0)).run()
    assert len(res.records) == 2
    assert res.sanitizer_report.by_check().get("negative_pressure", 0) > 0


# -- kernel-path mutation localization ------------------------------------
#
# Inject a defect into each instrumented kernel path (RHS, UP, SOS, FWT)
# and assert that the sanitizer in "raise" mode localizes the failure to
# the path, the block index, and the offending field name.


class TestKernelPathLocalization:
    @staticmethod
    def _config(**overrides):
        base = dict(cells=16, block_size=8, max_steps=2, sanitize="raise")
        base.update(overrides)
        return SimulationConfig(**base)

    def _run_expecting_violation(self, monkeypatch, target, replacement,
                                 **config_overrides):
        monkeypatch.setattr(target, replacement)
        with pytest.raises(NumericsViolationError) as err:
            Simulation(self._config(**config_overrides), uniform()).run()
        return err.value.violations[0]

    def test_rhs_nan_localized_to_block_and_field(self, monkeypatch):
        from repro.node.solver import NodeSolver

        orig = NodeSolver._rhs_for_box

        def bad_rhs(self, plan, remote_provider=None):
            orig(self, plan, remote_provider)
            # The node layer sweeps a box of blocks into their slots of
            # its RHS array: poison every block of the box.
            plan.rhs[:, 0, :, 0, :, 0, RHO] = np.nan

        v = self._run_expecting_violation(
            monkeypatch, "repro.node.solver.NodeSolver._rhs_for_box", bad_rhs
        )
        assert v.check == "non_finite"
        assert "RHS" in v.where
        assert v.block is not None
        assert v.field == "rho"

    def test_up_negative_pressure_localized(self, monkeypatch):
        from repro.core.kernels import update_stage as orig

        def bad_up(u_aos, residual_aos, rhs_aos, a, b, dt, **kw):
            # A finite but catastrophic energy sink: passes the RHS
            # finiteness check, drives p < 0 in the UP block write.
            rhs_aos = rhs_aos.copy()
            rhs_aos[0, 0, 0, ENERGY] = -1.0e12
            return orig(u_aos, residual_aos, rhs_aos, a, b, dt, **kw)

        v = self._run_expecting_violation(
            monkeypatch, "repro.node.solver.update_stage", bad_up
        )
        assert v.check == "negative_pressure"
        assert "stage" in v.where
        assert v.block is not None
        assert v.field == "p"

    def test_sos_nan_localized(self, monkeypatch):
        from repro.core.kernels import sos_kernel as orig

        calls = {"n": 0}

        def bad_sos(block_aos, scratch=None):
            calls["n"] += 1
            if calls["n"] == 3:
                return float("nan")
            return orig(block_aos, scratch)

        v = self._run_expecting_violation(
            monkeypatch, "repro.node.solver.sos_kernel", bad_sos
        )
        assert v.check == "non_finite"
        assert "SOS" in v.where
        assert v.block is not None
        assert v.field == "sos"

    def test_fwt_nan_localized_to_quantity(self, monkeypatch, tmp_path):
        from repro.sim.diagnostics import pressure_field as orig

        def bad_pressure(fld):
            out = np.asarray(orig(fld)).copy()
            out[0, 0, 0] = np.nan
            return out

        v = self._run_expecting_violation(
            monkeypatch, "repro.cluster.driver.pressure_field", bad_pressure,
            dump_interval=1, dump_dir=str(tmp_path),
        )
        assert v.check == "non_finite"
        assert "FWT" in v.where
        assert v.field == "p"


def test_off_policy_zero_overhead_paths():
    # "off" is expressed structurally: no sanitizer object exists, so the
    # hook sites reduce to a single `is None` test.
    from repro.core.kernels import update_stage

    u = clean_state((8, 8, 8))
    res = np.zeros_like(u)
    rhs = np.zeros(u.shape, dtype=np.float64)
    # Must not raise and must not require any sanitizer machinery.
    update_stage(u, res, rhs, 0.0, 1.0, 1e-3, sanitizer=None)
    assert make_sanitizer("off") is None

"""Tests of the V&V subsystem (repro.validation).

Covers the baseline store and tolerance semantics, the case registry,
the runner modes (record / check / diff), the committed golden
baselines, the CLI (both entry points), and the acceptance property
that a deliberately perturbed flux makes the suite fail with a
readable per-metric diff.
"""

import json

import numpy as np
import pytest

from repro.validation import (
    CASES,
    SUITES,
    CaseBaseline,
    MetricSpec,
    baseline_path,
    compare,
    environment_stamp,
    format_scorecard,
    get_case,
    load_baseline,
    run_case,
    run_suite,
    save_baseline,
    scorecard_rows,
    suite_cases,
    suite_passed,
)
from repro.validation.cli import main as validation_main


# -- tolerance semantics --------------------------------------------------


class TestCompare:
    def _baseline(self, **metrics):
        return CaseBaseline(case="unit", metrics=metrics)

    def test_within_rtol_passes(self):
        spec = MetricSpec("m", rtol=0.01)
        (d,) = compare({"m": 1.005}, self._baseline(m=1.0), (spec,))
        assert d.passed
        assert d.reason == ""
        assert d.delta == pytest.approx(0.005)

    def test_outside_rtol_fails_with_readable_reason(self):
        spec = MetricSpec("m", rtol=0.01)
        (d,) = compare({"m": 1.02}, self._baseline(m=1.0), (spec,))
        assert not d.passed
        assert "delta" in d.reason and "tol" in d.reason

    def test_atol_and_rtol_combine(self):
        spec = MetricSpec("m", rtol=0.01, atol=0.05)
        (d,) = compare({"m": 1.055}, self._baseline(m=1.0), (spec,))
        assert d.passed  # tol = 0.05 + 0.01*1.0 = 0.06

    def test_hard_bounds_enforced_independently_of_baseline(self):
        spec = MetricSpec("order", rtol=0.5, lo=2.5)
        (d,) = compare({"order": 2.0}, self._baseline(order=2.0), (spec,))
        assert not d.passed
        assert "lo=2.5" in d.reason

    def test_hard_upper_bound(self):
        spec = MetricSpec("osc", hi=1e-3)
        (d,) = compare({"osc": 2e-3}, None, (spec,))
        assert not d.passed
        assert "hi=0.001" in d.reason

    def test_bound_only_metric_needs_no_baseline(self):
        spec = MetricSpec("violations", hi=0.0)
        (d,) = compare({"violations": 0.0}, None, (spec,))
        assert d.passed

    def test_missing_measurement_fails(self):
        spec = MetricSpec("m", rtol=0.01)
        (d,) = compare({}, self._baseline(m=1.0), (spec,))
        assert not d.passed
        assert "not measured" in d.reason
        assert np.isnan(d.measured)

    def test_nonfinite_measurement_fails(self):
        spec = MetricSpec("m", rtol=0.01)
        (d,) = compare({"m": float("nan")}, self._baseline(m=1.0), (spec,))
        assert not d.passed
        assert "non-finite" in d.reason

    def test_missing_recorded_value_fails_compared_metric(self):
        spec = MetricSpec("m", rtol=0.01)
        (d,) = compare({"m": 1.0}, self._baseline(), (spec,))
        assert not d.passed
        assert "no recorded baseline" in d.reason


# -- baseline store -------------------------------------------------------


class TestBaselineStore:
    def test_roundtrip_via_files(self, tmp_path):
        bl = CaseBaseline(
            case="unit", metrics={"b": 2.0, "a": 1.0},
            environment=environment_stamp(),
        )
        path = save_baseline(bl, str(tmp_path))
        assert path == baseline_path("unit", str(tmp_path))
        loaded = load_baseline("unit", str(tmp_path))
        assert loaded.case == "unit"
        assert loaded.metrics == {"a": 1.0, "b": 2.0}
        assert loaded.environment["numpy"] == np.__version__

    def test_json_layout_is_stable(self, tmp_path):
        bl = CaseBaseline(case="unit", metrics={"z": 1.0, "a": 2.0})
        doc = json.loads(bl.to_json())
        assert doc["format"] == 1
        assert list(doc["metrics"]) == ["a", "z"]  # sorted keys

    def test_unsupported_format_rejected(self):
        with pytest.raises(ValueError, match="format"):
            CaseBaseline.from_json('{"format": 99, "case": "x", "metrics": {}}')

    def test_load_missing_returns_none(self, tmp_path):
        assert load_baseline("nope", str(tmp_path)) is None

    def test_environment_stamp_records_dtype_policy(self):
        env = environment_stamp()
        assert env["storage_dtype"] == "float32"
        assert env["compute_dtype"] == "float64"
        assert set(env) >= {"numpy", "python", "git_rev"}


# -- case registry --------------------------------------------------------


class TestRegistry:
    def test_names_match_keys_and_metrics_unique(self):
        for name, case in CASES.items():
            assert case.name == name
            metric_names = [m.name for m in case.metrics]
            assert len(metric_names) == len(set(metric_names))
            assert case.suites and set(case.suites) <= set(SUITES)

    def test_smoke_is_subset_of_full(self):
        smoke = {c.name for c in suite_cases("smoke")}
        full = {c.name for c in suite_cases("full")}
        assert smoke < full

    def test_get_case_unknown_lists_catalogue(self):
        with pytest.raises(ValueError, match="riemann_sod"):
            get_case("nope")

    def test_every_case_has_committed_baseline(self):
        """The committed golden store is complete: every case has a
        baseline file carrying every baseline-compared metric."""
        for case in CASES.values():
            bl = load_baseline(case.name)
            assert bl is not None, f"no committed baseline for {case.name}"
            for spec in case.metrics:
                if spec.compares_baseline:
                    assert spec.name in bl.metrics, (
                        f"{case.name} baseline missing {spec.name}"
                    )

    def test_convergence_order_contract_is_at_least_2_5(self):
        """Acceptance: the measured WENO5 convergence order is recorded
        in the committed baseline and hard-bounded >= 2.5."""
        case = get_case("acoustic_convergence")
        (order_spec,) = [m for m in case.metrics if m.name == "order"]
        assert order_spec.lo == 2.5
        assert load_baseline(case.name).metrics["order"] >= 2.5


# -- runner modes (on the cheapest case: acoustic, ~0.3 s) ----------------


class TestRunnerModes:
    CASE = "acoustic_convergence"

    def test_record_then_check_roundtrip(self, tmp_path):
        case = get_case(self.CASE)
        rec = run_case(case, mode="record", baseline_dir=str(tmp_path))
        assert rec.passed and rec.baseline_found
        chk = run_case(case, mode="check", baseline_dir=str(tmp_path))
        assert chk.passed
        assert chk.metrics == rec.metrics  # deterministic case

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            run_case(get_case(self.CASE), mode="bogus")

    def test_check_without_baseline_fails_compared_metrics(self, tmp_path):
        run = run_case(get_case(self.CASE), mode="check",
                       baseline_dir=str(tmp_path))
        assert not run.baseline_found
        assert not run.passed
        assert any("no recorded baseline" in d.reason for d in run.failures)

    def test_tampered_baseline_fails_with_readable_diff(self, tmp_path):
        case = get_case(self.CASE)
        run_case(case, mode="record", baseline_dir=str(tmp_path))
        bl = load_baseline(case.name, str(tmp_path))
        bl.metrics["l1_err_24"] *= 1.01  # outside rtol=1.5e-3
        save_baseline(bl, str(tmp_path))
        run = run_case(case, mode="check", baseline_dir=str(tmp_path))
        assert not run.passed
        (fail,) = [d for d in run.failures if d.spec.name == "l1_err_24"]
        assert "tol" in fail.reason
        card = format_scorecard([run])
        assert "FAIL" in card and "l1_err_24" in card

    def test_diff_mode_reports_without_mutating_store(self, tmp_path):
        case = get_case(self.CASE)
        run = run_case(case, mode="diff", baseline_dir=str(tmp_path))
        assert not run.baseline_found
        assert load_baseline(case.name, str(tmp_path)) is None
        rows = scorecard_rows([run])
        assert {r["metric"] for r in rows} == {m.name for m in case.metrics}


# -- fast committed-baseline checks (full smoke runs in CI + slow tests) --


class TestCommittedBaselines:
    @pytest.mark.parametrize("name", ["acoustic_convergence",
                                      "conservation_drift"])
    def test_fast_cases_pass_against_committed_store(self, name):
        run = run_case(get_case(name), mode="check")
        assert run.passed, format_scorecard([run])

    @pytest.mark.slow
    def test_smoke_suite_passes_against_committed_store(self):
        runs = run_suite(suite_cases("smoke"), mode="check")
        assert suite_passed(runs), format_scorecard(runs)

    @pytest.mark.slow
    def test_full_suite_passes_against_committed_store(self):
        runs = run_suite(suite_cases("full"), mode="check")
        assert suite_passed(runs), format_scorecard(runs)


# -- acceptance: a perturbed flux must fail the suite ---------------------


class TestPerturbedFlux:
    def test_wave_speed_perturbation_breaches_tolerances(
        self, tmp_path, monkeypatch
    ):
        """Scaling the Einfeldt wave-speed estimates by 1% changes the
        numerical dissipation enough to breach the regression
        tolerances, and the scorecard names the breached metrics.

        Pinned to the NumPy kernels: the mutant is planted in
        ``riemann.einfeldt_wave_speeds``, which the compiled sweeps never
        call.  They are covered transitively -- the NumPy path kills the
        mutant here, and ``TestNativeBitIdentity`` holds the compiled
        path byte-equal to the NumPy path."""
        import repro.physics.riemann as riemann
        from repro import native

        monkeypatch.setattr(native, "lib", None)
        case = get_case("acoustic_convergence")
        run_case(case, mode="record", baseline_dir=str(tmp_path))

        orig = riemann.einfeldt_wave_speeds

        def perturbed(*args, **kwargs):
            s_l, s_r = orig(*args, **kwargs)
            return s_l * 1.01, s_r * 1.01

        monkeypatch.setattr(riemann, "einfeldt_wave_speeds", perturbed)
        run = run_case(case, mode="check", baseline_dir=str(tmp_path))
        assert not run.passed
        breached = {d.spec.name for d in run.failures}
        assert breached & {"l1_err_24", "l1_err_48"}
        card = format_scorecard([run])
        assert "FAIL" in card and "delta" in card


# -- CLI (both entry points) ----------------------------------------------


class TestCli:
    def test_list_exits_zero_and_prints_catalogue(self, capsys):
        assert validation_main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in CASES:
            assert name in out

    def test_unknown_case_is_usage_error(self, capsys):
        assert validation_main(["--case", "nope", "--check"]) == 2
        assert "error" in capsys.readouterr().err

    def test_record_check_and_scorecard_out(self, tmp_path, capsys):
        score = tmp_path / "scorecard.txt"
        rc = validation_main([
            "--case", "acoustic_convergence", "--record",
            "--baseline-dir", str(tmp_path),
            "--scorecard-out", str(score),
        ])
        assert rc == 0
        assert "validation scorecard" in score.read_text()
        rc = validation_main([
            "--case", "acoustic_convergence", "--check",
            "--baseline-dir", str(tmp_path),
        ])
        assert rc == 0

    def test_check_without_baselines_exits_one_but_diff_zero(self, tmp_path,
                                                             capsys):
        flags = ["--case", "acoustic_convergence",
                 "--baseline-dir", str(tmp_path)]
        assert validation_main(flags + ["--check"]) == 1
        assert validation_main(flags + ["--diff"]) == 0

    def test_repro_cli_forwards_validate(self, capsys):
        from repro.cli import main as repro_main

        assert repro_main(["validate", "--list"]) == 0
        assert "validation case catalogue" in capsys.readouterr().out

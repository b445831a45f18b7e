"""Tests for the checkpointed campaign runner (repro.sim.campaign)."""

import numpy as np
import pytest

from repro.cluster.driver import Simulation
from repro.resilience import FaultPlan, FaultSpec
from repro.sim.campaign import Campaign
from repro.sim.cloud import Bubble
from repro.sim.config import SimulationConfig
from repro.sim.ic import cloud_collapse

IC = cloud_collapse([Bubble((0.5, 0.5, 0.5), 0.2)], p_liquid=1000.0)


def base_config(**kw):
    d = dict(cells=16, block_size=8, max_steps=1, diag_interval=1)
    d.update(kw)
    return SimulationConfig(**d)


class TestSegmentedEquivalence:
    def test_bit_exact_vs_uninterrupted(self, tmp_path):
        full = Simulation(base_config(max_steps=6), IC).run()
        campaign = Campaign(base_config(), IC, str(tmp_path))
        result = campaign.run(total_steps=6, segment_steps=2)
        np.testing.assert_array_equal(result.final_field, full.final_field)

    def test_records_continuous(self, tmp_path):
        campaign = Campaign(base_config(), IC, str(tmp_path))
        result = campaign.run(total_steps=5, segment_steps=2)
        assert [r.step for r in result.records] == [1, 2, 3, 4, 5]
        assert len(result.segments) == 3
        assert result.segments[-1].checkpoint is None  # no trailing ckpt

    def test_diagnostics_match_uninterrupted(self, tmp_path):
        full = Simulation(base_config(max_steps=6), IC).run()
        campaign = Campaign(base_config(), IC, str(tmp_path))
        result = campaign.run(total_steps=6, segment_steps=3)
        np.testing.assert_allclose(
            result.series("max_pressure"), full.series("max_pressure"),
            rtol=1e-12,
        )

    def test_rank_count_changes_between_segments(self, tmp_path):
        full = Simulation(base_config(max_steps=4), IC).run()
        campaign = Campaign(base_config(), IC, str(tmp_path))
        result = campaign.run(
            total_steps=4, segment_steps=2, ranks_per_segment=[1, 2]
        )
        np.testing.assert_array_equal(result.final_field, full.final_field)
        assert [s.ranks for s in result.segments] == [1, 2]

    def test_checkpoints_written(self, tmp_path):
        campaign = Campaign(base_config(), IC, str(tmp_path))
        result = campaign.run(total_steps=4, segment_steps=2)
        ck = result.segments[0].checkpoint
        assert ck is not None and ck.endswith("campaign_step000002.rck")
        import os

        assert os.path.exists(ck)

    def test_invalid_steps(self, tmp_path):
        campaign = Campaign(base_config(), IC, str(tmp_path))
        with pytest.raises(ValueError):
            campaign.run(total_steps=0, segment_steps=1)

    def test_single_segment_degenerates_to_plain_run(self, tmp_path):
        full = Simulation(base_config(max_steps=3), IC).run()
        campaign = Campaign(base_config(), IC, str(tmp_path))
        result = campaign.run(total_steps=3, segment_steps=10)
        np.testing.assert_array_equal(result.final_field, full.final_field)
        assert len(result.segments) == 1


class TestCampaignHardening:
    def test_segment_statuses_recorded(self, tmp_path):
        campaign = Campaign(base_config(), IC, str(tmp_path))
        result = campaign.run(total_steps=4, segment_steps=2)
        assert result.ok
        assert result.error is None
        assert [s.status for s in result.segments] == ["ok", "ok"]
        assert [s.attempts for s in result.segments] == [1, 1]
        assert result.completed_steps == 4

    def test_failed_segment_retries_from_last_checkpoint(self, tmp_path):
        # One crash addressed inside segment 2; the campaign must retry
        # the segment from the boundary checkpoint and stay bit-exact.
        full = Simulation(base_config(max_steps=6), IC).run()
        plan = FaultPlan(seed=21, faults=[
            FaultSpec(kind="rank_crash", step=4, max_hits=1),
        ])
        campaign = Campaign(base_config(max_recoveries=2), IC,
                            str(tmp_path), fault_plan=plan)
        result = campaign.run(total_steps=6, segment_steps=2)
        assert result.ok
        assert [s.status for s in result.segments] == \
            ["ok", "retried", "ok"]
        assert result.segments[1].attempts == 2
        np.testing.assert_array_equal(result.final_field, full.final_field)
        assert [r.step for r in result.records] == [1, 2, 3, 4, 5, 6]
        np.testing.assert_allclose(
            result.series("max_pressure"), full.series("max_pressure"),
            rtol=1e-12,
        )

    def test_exhausted_segment_returns_partial_result(self, tmp_path):
        # An unlimited crash in segment 2 exhausts the retry budget; the
        # campaign keeps segment 1's results instead of losing them.
        plan = FaultPlan(seed=22, faults=[
            FaultSpec(kind="rank_crash", step=3, max_hits=0),
        ])
        campaign = Campaign(base_config(max_recoveries=1), IC,
                            str(tmp_path), fault_plan=plan)
        result = campaign.run(total_steps=6, segment_steps=2)
        assert not result.ok
        assert "segment 1" in result.error
        assert [s.status for s in result.segments] == ["ok", "failed"]
        assert result.segments[1].attempts == 2
        assert result.completed_steps == 2
        assert [r.step for r in result.records] == [1, 2]
        # The partial field matches the uninterrupted run at step 2.
        ref = Simulation(base_config(max_steps=2), IC).run()
        np.testing.assert_array_equal(result.final_field, ref.final_field)

    def test_zero_recoveries_fails_at_once(self, tmp_path):
        plan = FaultPlan(seed=23, faults=[
            FaultSpec(kind="rank_crash", step=1, max_hits=1),
        ])
        campaign = Campaign(base_config(max_recoveries=0), IC,
                            str(tmp_path), fault_plan=plan)
        result = campaign.run(total_steps=2, segment_steps=2)
        assert not result.ok
        assert result.segments[0].attempts == 1

    def test_non_retryable_segment_fails_at_once(self, tmp_path):
        # A segment whose failure would recur spends no recovery.
        # Negative ambient pressure: the sanitizer raises at the IC.
        bad_ic = cloud_collapse([Bubble((0.5, 0.5, 0.5), 0.2)],
                                p_liquid=-50.0)
        campaign = Campaign(base_config(sanitize="raise"), bad_ic,
                            str(tmp_path))
        result = campaign.run(total_steps=2, segment_steps=2)
        assert not result.ok
        assert result.segments[0].attempts == 1

    def test_engine_campaign_requires_icspec(self, tmp_path):
        with pytest.raises(ValueError, match="ICSpec"):
            Campaign(base_config(), IC, str(tmp_path), engine=object())

    @pytest.mark.tier2
    def test_engine_fanout_matches_inline(self, tmp_path):
        from repro.service import ICSpec, JobEngine, ServiceConfig

        spec = ICSpec("cloud_collapse",
                      {"bubbles": [[0.5, 0.5, 0.5, 0.2]],
                       "p_liquid": 1000.0})
        inline = Campaign(base_config(), IC,
                          str(tmp_path / "inline")).run(4, 2)
        svc = ServiceConfig(workers=1, workdir=str(tmp_path / "svc"))
        with JobEngine(svc) as engine:
            campaign = Campaign(base_config(), spec,
                                str(tmp_path / "seg"), engine=engine)
            result = campaign.run(total_steps=4, segment_steps=2)
        assert result.ok
        np.testing.assert_array_equal(result.final_field,
                                      inline.final_field)
        assert [r.step for r in result.records] == \
            [r.step for r in inline.records]
        np.testing.assert_allclose(
            result.series("max_pressure"), inline.series("max_pressure"),
            rtol=1e-12,
        )

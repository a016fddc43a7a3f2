"""Tests for multi-night continuous operation: churn, checkpoints, resume."""

import random

import pytest

from repro.core.policies import SchedulerConfig
from repro.durability.snapshot import SnapshotStore
from repro.sim.campaign import (
    CAMPAIGN_SNAPSHOT_KIND,
    ContinuousCampaign,
    capacity_planning_report,
)
from repro.sim.churn import FleetChurnModel


def night_dicts(result):
    return [record.to_dict() for record in result.nights]


class TestContinuousOperation:
    def test_same_seed_same_campaign(self):
        first = ContinuousCampaign(seed=21).run(3)
        second = ContinuousCampaign(seed=21).run(3)
        assert night_dicts(first) == night_dicts(second)

    def test_backlog_and_arrivals_flow_across_nights(self):
        result = ContinuousCampaign(
            seed=22, arrival_rate_per_hour=80.0, churn=FleetChurnModel()
        ).run(4)
        assert len(result.nights) == 4
        assert result.total_submitted > 0
        # Job-level conservation: everything submitted either finished
        # or is still in the final backlog.
        assert (
            result.total_jobs_completed + len(result.final_backlog)
            == result.total_submitted
        )

    def test_churn_changes_the_fleet(self):
        churned = ContinuousCampaign(
            seed=23,
            churn=FleetChurnModel(
                leave_probability=0.4, max_joins_per_night=3
            ),
        ).run(4)
        assert any(
            n.joined or n.departed for n in churned.nights[1:]
        ), "an aggressive churn model should move the fleet"
        sizes = {n.fleet_size for n in churned.nights}
        assert len(sizes) > 1


class TestKillAndResume:
    def test_resumed_campaign_equals_uninterrupted(self, tmp_path):
        baseline = ContinuousCampaign(
            seed=24, churn=FleetChurnModel(), arrival_rate_per_hour=60.0
        ).run(5)

        class Killed(RuntimeError):
            pass

        def kill_after(night):
            def hook(_campaign, night_index, _record):
                if night_index >= night:
                    raise Killed

            return hook

        ckpt = tmp_path / "store"
        with pytest.raises(Killed):
            ContinuousCampaign(
                seed=24,
                churn=FleetChurnModel(),
                arrival_rate_per_hour=60.0,
                checkpoint_dir=ckpt,
            ).run(5, on_night=kill_after(1))

        resumed = ContinuousCampaign(
            seed=24,
            churn=FleetChurnModel(),
            arrival_rate_per_hour=60.0,
            checkpoint_dir=ckpt,
        ).run(5, resume=True)
        assert resumed.resumed_from_night == 2
        assert night_dicts(resumed) == night_dicts(baseline)
        assert [j.job_id for j in resumed.final_backlog] == [
            j.job_id for j in baseline.final_backlog
        ]
        assert resumed.pending_arrivals == baseline.pending_arrivals

    def test_resume_without_checkpoint_starts_fresh(self, tmp_path):
        result = ContinuousCampaign(
            seed=25, checkpoint_dir=tmp_path / "empty"
        ).run(2, resume=True)
        assert result.resumed_from_night is None
        assert len(result.nights) == 2

    def test_corrupt_latest_checkpoint_falls_back(self, tmp_path):
        ckpt = tmp_path / "store"
        baseline = ContinuousCampaign(seed=26).run(4)
        ContinuousCampaign(seed=26, checkpoint_dir=ckpt).run(3)
        store = SnapshotStore(ckpt)
        ids = store.snapshot_ids()
        newest = ckpt / f"snap-{ids[-1]:06d}.json"
        raw = newest.read_bytes()
        newest.write_bytes(raw[: len(raw) // 2])

        resumed = ContinuousCampaign(
            seed=26, checkpoint_dir=ckpt
        ).run(4, resume=True)
        # Fell back one night (the corrupt night-3 checkpoint is
        # skipped), re-ran it identically, and continued.
        assert resumed.resumed_from_night == 2
        assert night_dicts(resumed) == night_dicts(baseline)

    def test_checkpoints_are_pruned(self, tmp_path):
        ckpt = tmp_path / "store"
        ContinuousCampaign(
            seed=27, checkpoint_dir=ckpt, keep_snapshots=2
        ).run(5)
        store = SnapshotStore(ckpt)
        assert len(store) == 2
        assert (
            store.latest(kind=CAMPAIGN_SNAPSHOT_KIND) is not None
        )


class TestResumeConfig:
    """A checkpoint records its scheduler config; resume honours it."""

    class Killed(RuntimeError):
        pass

    def killed_run(self, ckpt, config, *, after=0):
        def hook(_campaign, night_index, _record):
            if night_index >= after:
                raise self.Killed

        with pytest.raises(self.Killed):
            ContinuousCampaign(
                seed=30, jobs_per_night=6, checkpoint_dir=ckpt,
                scheduler=config,
            ).run(3, on_night=hook)

    def test_checkpoint_records_config(self, tmp_path):
        config = SchedulerConfig(kernel="python", warm_start=True)
        self.killed_run(tmp_path, config)
        state = SnapshotStore(tmp_path).latest(kind=CAMPAIGN_SNAPSHOT_KIND)
        assert state.state["scheduler_config"] == config.to_dict()

    @pytest.mark.parametrize(
        ("saved", "resumed", "field"),
        [
            (SchedulerConfig(), SchedulerConfig(pods=2), "pods"),
            (
                SchedulerConfig(),
                SchedulerConfig(policy="energy-aware"),
                "policy",
            ),
            (
                SchedulerConfig(pods=2, pod_workers=1),
                SchedulerConfig(pods=2, pod_assign="hash", pod_workers=1),
                "pod_assign",
            ),
        ],
    )
    def test_mismatched_resume_raises(self, tmp_path, saved, resumed, field):
        self.killed_run(tmp_path, saved)
        campaign = ContinuousCampaign(
            seed=30, jobs_per_night=6, checkpoint_dir=tmp_path,
            scheduler=resumed,
        )
        with pytest.raises(ValueError) as excinfo:
            campaign.run(3, resume=True)
        message = str(excinfo.value)
        assert field in message
        assert repr(getattr(saved, field)) in message
        assert repr(getattr(resumed, field)) in message

    def test_matching_resume_with_other_free_knobs_is_identical(
        self, tmp_path
    ):
        config = SchedulerConfig(kernel="python", warm_start=True)
        baseline = ContinuousCampaign(
            seed=30, jobs_per_night=6, scheduler=config
        ).run(3)
        self.killed_run(tmp_path, config)
        # Kernel and warm start never change a schedule, so they may
        # differ from the checkpoint's.
        resumed = ContinuousCampaign(
            seed=30, jobs_per_night=6, checkpoint_dir=tmp_path,
            scheduler=SchedulerConfig(kernel="numpy"),
        ).run(3, resume=True)
        assert resumed.resumed_from_night == 1
        assert night_dicts(resumed) == night_dicts(baseline)

    def test_checkpoint_without_config_resumes_as_before(self, tmp_path):
        baseline = ContinuousCampaign(seed=30, jobs_per_night=6).run(3)
        self.killed_run(tmp_path / "new", SchedulerConfig(warm_start=True))
        state = SnapshotStore(tmp_path / "new").latest(
            kind=CAMPAIGN_SNAPSHOT_KIND
        ).state
        del state["scheduler_config"]
        SnapshotStore(tmp_path / "old").save(CAMPAIGN_SNAPSHOT_KIND, state)
        resumed = ContinuousCampaign(
            seed=30, jobs_per_night=6, checkpoint_dir=tmp_path / "old",
            scheduler=SchedulerConfig(pods=1),
        ).run(3, resume=True)
        assert resumed.resumed_from_night == 1
        assert night_dicts(resumed) == night_dicts(baseline)


class TestCapacityPlanning:
    def test_report_shape_and_verdict(self):
        campaign = ContinuousCampaign(seed=28, arrival_rate_per_hour=30.0)
        result = campaign.run(3)
        report = capacity_planning_report(
            result, window_hours=campaign.window_hours
        )
        assert report["nights"] == 3
        assert len(report["rows"]) == 3
        for row in report["rows"]:
            assert 0.0 <= row["window_utilization"]
        assert report["total_submitted"] == result.total_submitted
        assert isinstance(report["keeps_up"], bool)
        assert report["throughput_jobs_per_night"] > 0

    def test_window_hours_validated(self):
        result = ContinuousCampaign(seed=29).run(1)
        with pytest.raises(ValueError, match="window_hours"):
            capacity_planning_report(result, window_hours=0.0)


class TestChurnModel:
    def test_apply_is_deterministic(self):
        from repro.workloads.mixes import paper_testbed

        fleet = paper_testbed(seed=1).phones
        model = FleetChurnModel(leave_probability=0.3, max_joins_per_night=2)
        first = model.apply(fleet, night_index=1, rng=random.Random(5))
        second = model.apply(fleet, night_index=1, rng=random.Random(5))
        assert first.joined == second.joined
        assert first.departed == second.departed
        assert [p.phone_id for p in first.phones] == [
            p.phone_id for p in second.phones
        ]

    def test_min_fleet_floor_holds(self):
        from repro.workloads.mixes import paper_testbed

        fleet = paper_testbed(seed=1).phones
        model = FleetChurnModel(
            leave_probability=1.0, max_joins_per_night=0, min_fleet=4
        )
        rng = random.Random(0)
        for night in range(1, 6):
            event = model.apply(fleet, night_index=night, rng=rng)
            fleet = event.phones
        assert len(fleet) >= 4

    def test_drift_stays_in_unit_interval(self):
        model = FleetChurnModel(habit_drift_sigma=0.5)
        probs = [0.5] * 24
        rng = random.Random(9)
        for _ in range(50):
            probs = model.drift_hourly_probabilities(probs, rng=rng)
        assert all(0.0 <= p <= 1.0 for p in probs)


class TestCampaignPolicySelection:
    def test_sharded_campaign_rejects_non_default_policy(self):
        with pytest.raises(ValueError, match="cwc-greedy"):
            ContinuousCampaign(
                scheduler=SchedulerConfig(pods=2, policy="energy-aware")
            )

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown scheduling policy"):
            ContinuousCampaign(scheduler=SchedulerConfig(policy="round-robin"))

    def test_monolithic_campaign_runs_alternative_policy(self):
        result = ContinuousCampaign(
            seed=7,
            jobs_per_night=6,
            scheduler=SchedulerConfig(policy="energy-aware"),
        ).run(1)
        assert len(result.nights) == 1
        assert (
            result.total_jobs_completed + len(result.final_backlog)
            == result.total_submitted
        )

    def test_default_policy_campaign_unchanged(self):
        explicit = ContinuousCampaign(
            seed=7,
            jobs_per_night=6,
            scheduler=SchedulerConfig(policy="cwc-greedy", warm_start=True),
        ).run(1)
        implicit = ContinuousCampaign(seed=7, jobs_per_night=6).run(1)
        assert night_dicts(explicit) == night_dicts(implicit)

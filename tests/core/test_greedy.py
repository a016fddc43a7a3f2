"""End-to-end tests for the CWC greedy scheduler."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.baselines import EqualSplitScheduler, RoundRobinScheduler
from repro.core.greedy import CwcScheduler, Scheduler
from repro.core.lp_bound import solve_relaxed_makespan

from ..conftest import make_instance


class TestCwcScheduler:
    def test_produces_valid_schedule(self, small_instance):
        schedule = CwcScheduler().schedule(small_instance)
        schedule.validate(small_instance)

    def test_implements_protocol(self):
        assert isinstance(CwcScheduler(), Scheduler)
        assert CwcScheduler().name == "cwc-greedy"

    def test_last_result_populated(self, small_instance):
        scheduler = CwcScheduler()
        assert scheduler.last_result is None
        scheduler.schedule(small_instance)
        assert scheduler.last_result is not None
        assert scheduler.last_result.packer_passes >= 1

    def test_beats_baselines_on_heterogeneous_fleet(self):
        instance = make_instance(
            n_breakable=10, n_atomic=5, n_phones=6, seed=42
        )
        greedy = CwcScheduler().schedule(instance)
        greedy_makespan = greedy.predicted_makespan_ms(instance)
        for baseline in (EqualSplitScheduler(), RoundRobinScheduler()):
            other = baseline.schedule(instance)
            assert other.predicted_makespan_ms(instance) >= greedy_makespan * 0.99

    def test_respects_lp_lower_bound(self):
        for seed in (1, 7, 23):
            instance = make_instance(seed=seed)
            schedule = CwcScheduler().schedule(instance)
            makespan = schedule.predicted_makespan_ms(instance)
            bound = solve_relaxed_makespan(instance).makespan_ms
            assert makespan >= bound - 1e-6

    def test_single_phone_everything_on_it(self, single_phone_instance):
        schedule = CwcScheduler().schedule(single_phone_instance)
        schedule.validate(single_phone_instance)
        assert set(a.phone_id for a in schedule) == {"p0"}

    def test_prefers_whole_placements(self):
        """With ample parallel capacity, most jobs should stay unsplit
        (the paper reports ~90% on its workload)."""
        instance = make_instance(
            n_breakable=20, n_atomic=10, n_phones=8, seed=5
        )
        schedule = CwcScheduler().schedule(instance)
        assert schedule.unsplit_fraction() >= 0.6

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_always_valid_on_random_instances(self, seed):
        instance = make_instance(seed=seed)
        schedule = CwcScheduler().schedule(instance)
        schedule.validate(instance)

    def test_atomic_only_workload(self):
        instance = make_instance(n_breakable=0, n_atomic=6, seed=11)
        schedule = CwcScheduler().schedule(instance)
        schedule.validate(instance)
        assert all(count == 0 for count in schedule.partition_counts().values())

    def test_load_is_balanced(self):
        """No phone should finish wildly after the others when jobs are
        plentiful and divisible."""
        instance = make_instance(
            n_breakable=12, n_atomic=0, n_phones=4, seed=2, b_range=(1.0, 3.0)
        )
        schedule = CwcScheduler().schedule(instance)
        finishes = [
            schedule.predicted_finish_ms(instance, p.phone_id)
            for p in instance.phones
        ]
        busy = [f for f in finishes if f > 0]
        assert max(busy) <= min(busy) * 2.0 + 1.0


class TestSchedulerComparisons:
    def test_equal_split_splits_everything_breakable(self, small_instance):
        schedule = EqualSplitScheduler().schedule(small_instance)
        counts = schedule.partition_counts()
        for job in small_instance.breakable_jobs():
            assert counts[job.job_id] == len(small_instance.phones)

    def test_round_robin_never_splits(self, small_instance):
        schedule = RoundRobinScheduler().schedule(small_instance)
        assert all(c == 0 for c in schedule.partition_counts().values())

"""Tests for the binary capacity search (Section 5)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import capacity
from repro.core.capacity import (
    CapacitySearch,
    CapacitySearchResult,
    capacity_bounds,
)
from repro.core.packing import GreedyPacker, PackingResult
from repro.core.schedule import Assignment

from ..conftest import campaign_shaped_instance, make_instance


class TestBounds:
    def test_bounds_are_ordered(self, small_instance):
        lower, upper = capacity_bounds(small_instance)
        assert 0 < lower <= upper

    def test_upper_bound_is_worst_phone_total(self, small_instance):
        _, upper = capacity_bounds(small_instance)
        worst = max(
            sum(
                small_instance.cost(p.phone_id, j.job_id)
                for j in small_instance.jobs
            )
            for p in small_instance.phones
        )
        assert upper == pytest.approx(worst)

    def test_lower_bound_is_aggregate_rate(self, single_phone_instance):
        # With one phone the magical bin is that phone without exe costs.
        lower, _ = capacity_bounds(single_phone_instance)
        expected = sum(
            job.input_kb
            * (
                single_phone_instance.b("p0")
                + single_phone_instance.c("p0", job.job_id)
            )
            for job in single_phone_instance.jobs
        )
        assert lower == pytest.approx(expected)

    def test_more_phones_lower_bound_shrinks(self):
        small = make_instance(n_phones=2, seed=9)
        # Same jobs, more phones -> aggregate rate grows -> bound shrinks.
        big = make_instance(n_phones=6, seed=9)
        assert capacity_bounds(big)[0] < capacity_bounds(small)[0]


class TestSearch:
    def test_search_returns_valid_schedule(self, small_instance):
        result = CapacitySearch().run(small_instance)
        result.schedule.validate(small_instance)
        assert result.lower_bound_ms <= result.capacity_ms
        assert result.capacity_ms <= result.upper_bound_ms + 1e-6

    def test_search_beats_upper_bound(self, small_instance):
        """With several phones the minimised capacity should be well
        below packing everything on the worst phone."""
        result = CapacitySearch().run(small_instance)
        assert result.max_height_ms < result.upper_bound_ms * 0.9

    def test_found_capacity_is_nearly_minimal(self, small_instance):
        """Packing at (found capacity - 2 epsilon) must fail, otherwise
        the bisection stopped too early."""
        epsilon = 1.0
        result = CapacitySearch(epsilon_ms=epsilon).run(small_instance)
        tighter = GreedyPacker(small_instance).pack(
            result.capacity_ms - 2 * epsilon
        )
        # Either infeasible, or feasible with essentially the same height
        # (the greedy is not monotone in C, so allow the latter).
        if tighter.feasible:
            assert tighter.max_height_ms >= result.max_height_ms - 2 * epsilon

    def test_iterations_bounded(self, small_instance, monkeypatch):
        monkeypatch.setattr(capacity, "_MAX_BISECTION_STEPS", 10)
        result = CapacitySearch().run(small_instance)
        assert result.bisection_steps <= 10

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            CapacitySearch(epsilon_ms=0.0)

    def test_single_phone_schedule_uses_it(self, single_phone_instance):
        result = CapacitySearch().run(single_phone_instance)
        result.schedule.validate(single_phone_instance)
        assert set(result.schedule.phone_ids) == {"p0"}

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=1000))
    def test_search_is_deterministic(self, seed):
        instance = make_instance(seed=seed)
        first = CapacitySearch().run(instance)
        second = CapacitySearch().run(instance)
        assert first.capacity_ms == second.capacity_ms
        assert [
            (a.phone_id, a.job_id, a.input_kb) for a in first.schedule
        ] == [(a.phone_id, a.job_id, a.input_kb) for a in second.schedule]


class TestRowBuiltSchedules:
    """Packs record plain rows; ``Assignment``s are built on first read."""

    @pytest.fixture
    def built(self, monkeypatch):
        """Counts ``Assignment`` constructions."""
        counter = {"n": 0}
        post_init = Assignment.__post_init__

        def counting(self):
            counter["n"] += 1
            post_init(self)

        monkeypatch.setattr(Assignment, "__post_init__", counting)
        return counter

    @pytest.mark.parametrize("kernel", ["python", "numpy"])
    @pytest.mark.parametrize("seed", range(4))
    def test_discarded_packs_build_no_assignments(self, built, kernel, seed):
        instance = campaign_shaped_instance(seed)
        search = CapacitySearch(kernel=kernel)
        cold = search.run(instance)
        warm = search.run(instance, warm_hint_ms=cold.capacity_ms)
        assert cold.packer_passes > 1 and warm.packer_passes >= 1
        assert built["n"] == 0
        for result in (cold, warm):
            before = built["n"]
            schedule = result.schedule
            assert built["n"] - before == len(schedule)
            assert result.schedule is schedule
            assert built["n"] - before == len(result.schedule)
            schedule.validate(instance)

    def test_scheduler_round_builds_one_schedule(self, built):
        from repro.core.greedy import CwcScheduler

        instance = campaign_shaped_instance(7)
        schedule = CwcScheduler().schedule(instance)
        assert built["n"] == len(schedule)

    @pytest.mark.parametrize("input_kb", [0.0, -5.0, float("nan")])
    def test_row_validation_is_deferred_not_dropped(self, input_kb):
        rows = (("p0", "j0", "primes", input_kb, True),)
        packed = PackingResult(True, 10.0, rows=rows)
        with pytest.raises(ValueError, match="input_kb"):
            packed.schedule
        searched = CapacitySearchResult(
            rows=rows,
            capacity_ms=10.0,
            max_height_ms=10.0,
            lower_bound_ms=1.0,
            upper_bound_ms=20.0,
        )
        with pytest.raises(ValueError, match="input_kb"):
            searched.schedule

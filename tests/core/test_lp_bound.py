"""Tests for the LP-relaxation lower bound (Fig. 13 machinery)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.greedy import CwcScheduler
from repro.core.instance import SchedulingInstance
from repro.core.lp_bound import solve_relaxed_makespan
from repro.core.model import Job, JobKind, PhoneSpec
from repro.core.prediction import RuntimePredictor

from ..conftest import make_instance


def simple_instance(n_phones=2, jobs=None):
    phones = tuple(
        PhoneSpec(phone_id=f"p{i}", cpu_mhz=1000.0) for i in range(n_phones)
    )
    predictor = RuntimePredictor.from_reference_phone(phones[0], {"t": 1.0})
    jobs = jobs or [Job("j0", "t", JobKind.BREAKABLE, 0.0, 100.0)]
    b = {p.phone_id: 1.0 for p in phones}
    return SchedulingInstance.build(jobs, phones, b, predictor)


class TestAnalyticCases:
    def test_single_phone_single_job_exact(self):
        """One phone, no executable: bound equals L * (b + c)."""
        instance = simple_instance(n_phones=1)
        solution = solve_relaxed_makespan(instance)
        assert solution.makespan_ms == pytest.approx(200.0, rel=1e-6)

    def test_two_identical_phones_halve_the_work(self):
        instance = simple_instance(n_phones=2)
        solution = solve_relaxed_makespan(instance)
        assert solution.makespan_ms == pytest.approx(100.0, rel=1e-6)

    def test_executable_cost_included_when_whole(self):
        """Single phone: u must be 1, so the exe term is fully paid."""
        jobs = [Job("j0", "t", JobKind.BREAKABLE, 50.0, 100.0)]
        instance = simple_instance(n_phones=1, jobs=jobs)
        solution = solve_relaxed_makespan(instance)
        # 50*1 + 100*(1+1) = 250
        assert solution.makespan_ms == pytest.approx(250.0, rel=1e-6)

    def test_atomic_u_sums_to_one(self):
        jobs = [Job("a0", "t", JobKind.ATOMIC, 10.0, 100.0)]
        instance = simple_instance(n_phones=3, jobs=jobs)
        solution = solve_relaxed_makespan(instance)
        assert solution.u.sum(axis=0)[0] == pytest.approx(1.0, abs=1e-6)

    def test_heterogeneous_bandwidth_shifts_load(self):
        phones = (
            PhoneSpec(phone_id="fast", cpu_mhz=1000.0),
            PhoneSpec(phone_id="slow", cpu_mhz=1000.0),
        )
        predictor = RuntimePredictor.from_reference_phone(phones[0], {"t": 1.0})
        jobs = [Job("j0", "t", JobKind.BREAKABLE, 0.0, 100.0)]
        instance = SchedulingInstance.build(
            jobs, phones, {"fast": 1.0, "slow": 9.0}, predictor
        )
        solution = solve_relaxed_makespan(instance)
        fast_index = [p.phone_id for p in instance.phones].index("fast")
        fast_share = solution.l_kb[fast_index, 0]
        assert fast_share > 50.0  # the fast link takes the majority


class TestBoundProperties:
    def test_coverage_constraint_satisfied(self, small_instance):
        solution = solve_relaxed_makespan(small_instance)
        totals = solution.l_kb.sum(axis=0)
        for j, job in enumerate(small_instance.jobs):
            assert totals[j] == pytest.approx(job.input_kb, rel=1e-6)

    def test_solution_shape(self, small_instance):
        """One row per phone; ``u`` follows ``l`` where the LP folds it."""
        solution = solve_relaxed_makespan(small_instance)
        shape = (len(small_instance.phones), len(small_instance.jobs))
        assert solution.l_kb.shape == solution.u.shape == shape
        kinds = {job.is_atomic for job in small_instance.jobs}
        assert kinds == {True, False}
        for j, job in enumerate(small_instance.jobs):
            column_l = solution.l_kb[:, j]
            column_u = solution.u[:, j]
            assert column_l.sum() == pytest.approx(job.input_kb, rel=1e-9)
            if job.is_atomic:
                assert column_u.sum() == pytest.approx(1.0, abs=1e-9)
            else:
                np.testing.assert_allclose(
                    column_u, column_l / job.input_kb, rtol=0, atol=1e-12
                )

    def test_linking_constraint_satisfied(self, small_instance):
        solution = solve_relaxed_makespan(small_instance)
        for i in range(len(small_instance.phones)):
            for j, job in enumerate(small_instance.jobs):
                assert (
                    solution.l_kb[i, j]
                    <= job.input_kb * solution.u[i, j] + 1e-6
                )

    def test_bound_below_greedy(self):
        for seed in (2, 5, 19, 77):
            instance = make_instance(seed=seed)
            greedy = CwcScheduler().schedule(instance)
            makespan = greedy.predicted_makespan_ms(instance)
            bound = solve_relaxed_makespan(instance).makespan_ms
            assert bound <= makespan + 1e-6

    def test_variables_within_bounds(self, small_instance):
        solution = solve_relaxed_makespan(small_instance)
        assert np.all(solution.u >= -1e-9)
        assert np.all(solution.u <= 1.0 + 1e-9)
        assert np.all(solution.l_kb >= -1e-6)

    def test_makespan_positive(self, small_instance):
        assert solve_relaxed_makespan(small_instance).makespan_ms > 0


class TestBoundPropertyRandomised:
    """The LP bound must sit below the greedy makespan on any instance."""

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_phones=st.integers(min_value=1, max_value=5),
        n_breakable=st.integers(min_value=1, max_value=5),
        n_atomic=st.integers(min_value=0, max_value=3),
    )
    def test_bound_below_greedy_random_instances(
        self, seed, n_phones, n_breakable, n_atomic
    ):
        instance = make_instance(
            seed=seed,
            n_phones=n_phones,
            n_breakable=n_breakable,
            n_atomic=n_atomic,
        )
        greedy = CwcScheduler().schedule(instance)
        makespan = greedy.predicted_makespan_ms(instance)
        bound = solve_relaxed_makespan(instance).makespan_ms
        assert bound <= makespan * (1 + 1e-9) + 1e-6

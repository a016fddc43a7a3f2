"""Edge cases for the pod-aggregated LP relaxation (lp_bound.py)."""

import numpy as np
import pytest

from repro.core.greedy import CwcScheduler
from repro.core.instance import SchedulingInstance
from repro.core.lp_bound import (
    solve_pod_relaxed_makespan,
    solve_relaxed_makespan,
)
from repro.core.model import Job, JobKind, PhoneSpec
from repro.core.pod import partition_phones
from repro.core.prediction import RuntimePredictor

from ..conftest import make_instance


def uniform_instance(n_phones=2, jobs=None, b=None):
    phones = tuple(
        PhoneSpec(phone_id=f"p{i}", cpu_mhz=1000.0) for i in range(n_phones)
    )
    predictor = RuntimePredictor.from_reference_phone(phones[0], {"t": 1.0})
    jobs = jobs or [Job("j0", "t", JobKind.BREAKABLE, 0.0, 100.0)]
    b = b or {p.phone_id: 1.0 for p in phones}
    return SchedulingInstance.build(jobs, phones, b, predictor)


class TestPodCoverValidation:
    def test_empty_pod_rejected(self, small_instance):
        with pytest.raises(ValueError, match="empty"):
            solve_pod_relaxed_makespan(small_instance, ((0, 1), (), (2, 3)))

    def test_no_pods_rejected(self, small_instance):
        with pytest.raises(ValueError, match="at least one pod"):
            solve_pod_relaxed_makespan(small_instance, ())

    def test_overlapping_pods_rejected(self, small_instance):
        with pytest.raises(ValueError, match="more than one pod"):
            solve_pod_relaxed_makespan(small_instance, ((0, 1), (1, 2, 3)))

    def test_out_of_range_position_rejected(self, small_instance):
        with pytest.raises(ValueError, match="outside"):
            solve_pod_relaxed_makespan(small_instance, ((0, 1, 2, 99),))


class TestPodBoundSemantics:
    def test_single_phone_pod_is_exact(self):
        """One phone, one singleton pod: bound equals L * (b + c)."""
        instance = uniform_instance(n_phones=1)
        solution = solve_pod_relaxed_makespan(instance, ((0,),))
        assert solution.makespan_ms == pytest.approx(200.0, rel=1e-6)
        assert solution.l_kb.shape == (1, 1)
        assert solution.l_kb[0, 0] == pytest.approx(100.0, rel=1e-6)

    def test_singleton_pods_match_full_lp(self):
        """Every pod a single phone: the exact LP's closed-form optimum.

        ``b`` is in ms/KB; ``c = 1`` ms/KB on every phone here.  Two
        identical phones share ``E b + L (b + c)`` of work evenly,
        whether the job is breakable or atomic.  With different ``b``
        a breakable job's load on phone ``i`` is ``l_i k_i`` where
        ``k_i = E b_i / L + b_i + c``, so the optimum balances the two
        rates: ``L k_0 k_1 / (k_0 + k_1)``.
        """
        E, L, c, b = 40.0, 100.0, 1.0, 3.0
        even = (E * b + L * (b + c)) / 2
        k0, k1 = (E * b_i / L + b_i + c for b_i in (1.0, 3.0))
        cases = [
            ({"p0": b, "p1": b}, JobKind.BREAKABLE, even),
            ({"p0": b, "p1": b}, JobKind.ATOMIC, even),
            ({"p0": 1.0, "p1": 3.0}, JobKind.BREAKABLE, L * k0 * k1 / (k0 + k1)),
        ]
        for rates, kind, optimum in cases:
            jobs = [Job("j0", "t", kind, E, L)]
            instance = uniform_instance(n_phones=2, jobs=jobs, b=rates)
            solution = solve_relaxed_makespan(instance)
            assert solution.makespan_ms == pytest.approx(optimum, rel=1e-9)
            pods = solve_pod_relaxed_makespan(instance, ((0,), (1,)))
            assert pods.makespan_ms == pytest.approx(optimum, rel=1e-9)

    def test_pod_bound_never_exceeds_full_lp(self, small_instance):
        """Aggregation only relaxes: T_pod <= T_full_lp <= makespan."""
        pods = partition_phones(len(small_instance.phones), 2)
        pod_bound = solve_pod_relaxed_makespan(small_instance, pods)
        full_bound = solve_relaxed_makespan(small_instance)
        assert pod_bound.makespan_ms <= full_bound.makespan_ms * (1 + 1e-9)
        schedule = CwcScheduler().schedule(small_instance)
        makespan = schedule.predicted_makespan_ms(small_instance)
        assert pod_bound.makespan_ms <= makespan * (1 + 1e-9)

    def test_uniform_pod_splits_work_across_copies(self):
        """Two identical phones in one pod halve the single job."""
        instance = uniform_instance(n_phones=2)
        solution = solve_pod_relaxed_makespan(instance, ((0, 1),))
        assert solution.makespan_ms == pytest.approx(100.0, rel=1e-6)

    def test_atomic_jobs_keep_unit_coverage(self):
        jobs = [Job("a0", "t", JobKind.ATOMIC, 10.0, 100.0)]
        instance = uniform_instance(n_phones=4, jobs=jobs)
        solution = solve_pod_relaxed_makespan(instance, ((0, 1), (2, 3)))
        assert solution.u.sum(axis=0)[0] == pytest.approx(1.0, abs=1e-6)

    def test_degenerate_zero_bandwidth_phone(self):
        """b_i = 0 phones are legal: shipping is free, not infeasible."""
        instance = uniform_instance(
            n_phones=2, b={"p0": 0.0, "p1": 5.0}
        )
        solution = solve_pod_relaxed_makespan(instance, ((0, 1),))
        assert np.isfinite(solution.makespan_ms)
        assert solution.makespan_ms >= 0.0

    def test_fuzzed_instances_respect_sandwich(self):
        for seed in (3, 11, 27):
            instance = make_instance(
                n_phones=6, n_breakable=5, n_atomic=2, seed=seed
            )
            pods = partition_phones(6, 3)
            pod_bound = solve_pod_relaxed_makespan(instance, pods)
            schedule = CwcScheduler().schedule(instance)
            makespan = schedule.predicted_makespan_ms(instance)
            assert pod_bound.makespan_ms <= makespan * (1 + 1e-9)

    def test_solver_failure_raises_runtime_error(
        self, small_instance, monkeypatch
    ):
        import repro.core.lp_bound as lp_bound

        class _Fail:
            status = 2
            message = "synthetic failure"
            success = False

        monkeypatch.setattr(
            lp_bound, "linprog", lambda *args, **kwargs: _Fail()
        )
        with pytest.raises(RuntimeError, match="pod LP relaxation failed"):
            solve_pod_relaxed_makespan(
                small_instance,
                partition_phones(len(small_instance.phones), 2),
            )

"""Tests for the Oracle facade: filtering, collection, round replay."""

import dataclasses

import pytest

from repro.core.capacity import CapacitySearch, capacity_bounds
from repro.core.greedy import CwcScheduler
from repro.core.instance import SchedulingInstance
from repro.core.model import Job, JobKind, PhoneSpec
from repro.core.prediction import RuntimePredictor, TaskProfile
from repro.core.schedule import Schedule
from repro.sim.entities import FleetGroundTruth
from repro.sim.server import CentralServer
from repro.sim.trace import Span, SpanKind, TimelineTrace
from repro.sim.server import RunResult
from repro.verify import Oracle
from repro.verify.invariants import InvariantViolation

PROFILES = {"primes": TaskProfile("primes", 10.0, 800.0)}


def small_instance(n_phones=3, n_jobs=4):
    phones = tuple(
        PhoneSpec(phone_id=f"p{i}", cpu_mhz=800.0 + 100.0 * i)
        for i in range(n_phones)
    )
    jobs = tuple(
        Job(f"j{i}", "primes", JobKind.BREAKABLE, 30.0, 400.0 + 50.0 * i)
        for i in range(n_jobs)
    )
    b = {p.phone_id: 2.0 for p in phones}
    return SchedulingInstance.build(jobs, phones, b, RuntimePredictor(PROFILES))


def run_simulation(record_instances=True, scheduler=None, **sizes):
    instance = small_instance(**sizes)
    server = CentralServer(
        instance.phones,
        FleetGroundTruth(PROFILES),
        RuntimePredictor(PROFILES),
        scheduler if scheduler is not None else CwcScheduler(),
        {p.phone_id: 2.0 for p in instance.phones},
        record_instances=record_instances,
    )
    return instance.jobs, server.run(instance.jobs)


class TestFiltering:
    def test_unknown_invariant_rejected(self):
        with pytest.raises(ValueError, match="unknown invariant"):
            Oracle(include=["no-such-check"])
        with pytest.raises(ValueError, match="unknown invariant"):
            Oracle(exclude=["no-such-check"])

    def test_include_restricts(self):
        oracle = Oracle(include=["conservation"])
        bad = RunResult(trace=TimelineTrace(), rounds=[])
        job = Job("j", "primes", JobKind.BREAKABLE, 10.0, 100.0)
        with pytest.raises(InvariantViolation, match="not conserved"):
            oracle.check_run(bad, (job,))
        # copy-before-execute excluded by the include list: a trace that
        # only violates that invariant passes.
        trace = TimelineTrace()
        trace.add_span(Span("p", "j", SpanKind.EXECUTE, 0.0, 10.0, input_kb=1.0))
        oracle.check_run(RunResult(trace=trace, rounds=[]), ())

    def test_exclude_skips(self):
        oracle = Oracle(exclude=["copy-before-execute"])
        trace = TimelineTrace()
        trace.add_span(Span("p", "j", SpanKind.EXECUTE, 0.0, 10.0, input_kb=1.0))
        oracle.check_run(RunResult(trace=trace, rounds=[]), ())


class TestCollectMode:
    def test_collect_returns_all_violations(self):
        trace = TimelineTrace()
        trace.add_span(Span("p", "j", SpanKind.EXECUTE, 0.0, 10.0, input_kb=1.0))
        job = Job("j", "primes", JobKind.BREAKABLE, 10.0, 100.0)
        violations = Oracle().check_run(
            RunResult(trace=trace, rounds=[]), (job,), collect=True
        )
        names = {v.invariant for v in violations}
        assert "conservation" in names
        assert "copy-before-execute" in names

    def test_raise_mode_raises_first(self):
        trace = TimelineTrace()
        trace.add_span(Span("p", "j", SpanKind.EXECUTE, 0.0, 10.0, input_kb=1.0))
        with pytest.raises(InvariantViolation):
            Oracle().check_run(RunResult(trace=trace, rounds=[]), ())

    def test_clean_run_collects_nothing(self):
        jobs, result = run_simulation()
        assert Oracle().check_run(result, jobs, collect=True) == []


class TestCheckRounds:
    def test_recorded_rounds_validate(self):
        jobs, result = run_simulation(record_instances=True)
        assert result.rounds, "simulation recorded no rounds"
        for record in result.rounds:
            assert record.instance is not None
            assert record.capacity_ms > 0
        assert Oracle().check_rounds(result, collect=True) == []

    def test_unrecorded_rounds_skip(self):
        jobs, result = run_simulation(record_instances=False)
        for record in result.rounds:
            assert record.instance is None
        assert Oracle().check_rounds(result, collect=True) == []


class TestCheckShardedRounds:
    """A certified sharded round is held to its own pod-LP floor."""

    @pytest.fixture(scope="class")
    def sharded_run(self):
        from repro.core.sharding import ShardedScheduler

        _, result = run_simulation(
            scheduler=ShardedScheduler(pods=2, pod_workers=None),
            n_phones=8,
            n_jobs=8,
        )
        record = result.rounds[0]
        assert record.pods == 2
        assert record.search.lp_floor_ms is not None
        return result

    def test_certified_rounds_pass(self, sharded_run):
        assert Oracle().check_rounds(sharded_run, collect=True) == []

    def test_floor_above_the_makespan_is_flagged(self, sharded_run):
        record = sharded_run.rounds[0]
        inflated = dataclasses.replace(
            record.search, lp_floor_ms=2 * record.predicted_makespan_ms
        )
        tampered = dataclasses.replace(
            sharded_run, rounds=[dataclasses.replace(record, search=inflated)]
        )
        violations = Oracle().check_rounds(tampered, collect=True)
        assert [v.invariant for v in violations] == ["lp-sandwich"]
        assert "undercuts the LP lower bound" in violations[0].message


class TestCheckSchedule:
    def test_search_result_validates(self):
        instance = small_instance()
        search = CapacitySearch().run(instance)
        lower, upper = capacity_bounds(instance)
        violations = Oracle().check_schedule(
            instance,
            search.schedule,
            capacity_ms=search.capacity_ms,
            upper_bound_ms=upper,
            predicted_makespan_ms=search.schedule.predicted_makespan_ms(
                instance
            ),
            collect=True,
        )
        assert violations == []

    def test_unknown_job_recorded_as_coverage_violation(self):
        instance = small_instance()
        search = CapacitySearch().run(instance)
        ghost = dataclasses.replace(
            search.schedule.assignments[0], job_id="ghost-job"
        )
        bad = Schedule(search.schedule.assignments + (ghost,))
        violations = Oracle(include=["coverage"]).check_schedule(
            instance, bad, collect=True
        )
        assert [v.invariant for v in violations] == ["coverage"]
        assert "unknown job 'ghost-job'" in violations[0].message

    def test_capacity_violation_detected(self):
        instance = small_instance()
        search = CapacitySearch().run(instance)
        with pytest.raises(InvariantViolation, match="above the converged"):
            Oracle(include=["capacity-soundness"]).check_schedule(
                instance, search.schedule, capacity_ms=1.0
            )

    def test_wrong_prediction_detected(self):
        instance = small_instance()
        search = CapacitySearch().run(instance)
        with pytest.raises(InvariantViolation, match="does not match"):
            Oracle(include=["makespan-prediction"]).check_schedule(
                instance, search.schedule, predicted_makespan_ms=1.0
            )

    def test_impossible_upper_bound_detected(self):
        instance = small_instance()
        search = CapacitySearch().run(instance)
        with pytest.raises(InvariantViolation, match="exceeds the greedy"):
            Oracle(include=["lp-sandwich"]).check_schedule(
                instance, search.schedule, upper_bound_ms=1.0
            )

    def test_lp_lower_bound_holds(self):
        from repro.core.lp_bound import solve_relaxed_makespan

        instance = small_instance()
        search = CapacitySearch().run(instance)
        lp = solve_relaxed_makespan(instance)
        violations = Oracle(include=["lp-sandwich"]).check_schedule(
            instance,
            search.schedule,
            lower_bound_ms=lp.makespan_ms,
            collect=True,
        )
        assert violations == []

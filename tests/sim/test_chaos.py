"""Tests for chaos injection and the resilient central server."""

import random

import pytest

from repro.core.greedy import CwcScheduler
from repro.core.migration import FailureKind
from repro.core.model import Job, JobKind, PhoneSpec
from repro.core.prediction import RuntimePredictor, TaskProfile
from repro.netmodel.links import DegradationSchedule
from repro.sim.chaos import (
    BandwidthDegradation,
    ChaosMonkey,
    ChaosPlan,
    CpuSlowdown,
    ResiliencePolicy,
    ResultCorruption,
    TaskCrash,
)
from repro.sim.entities import FleetGroundTruth
from repro.sim.failures import FailurePlan, PlannedFailure
from repro.sim.metrics import compute_resilience_report
from repro.sim.server import CentralServer
from repro.sim.validation import check_run_invariants


def make_setup(n_phones=3, alpha=0.5):
    phones = tuple(
        PhoneSpec(phone_id=f"p{i}", cpu_mhz=800.0 + 200.0 * i)
        for i in range(n_phones)
    )
    profiles = {"primes": TaskProfile("primes", 10.0, 800.0)}
    truth = FleetGroundTruth(profiles)
    predictor = RuntimePredictor(profiles, alpha=alpha)
    b = {p.phone_id: 2.0 for p in phones}
    return phones, truth, predictor, b


def make_jobs(n=4, input_kb=500.0):
    return tuple(
        Job(f"b{i}", "primes", JobKind.BREAKABLE, 40.0, input_kb)
        for i in range(n)
    )


def run_server(phones, truth, predictor, b, jobs, **kwargs):
    server = CentralServer(
        phones, truth, predictor, CwcScheduler(), b, **kwargs
    )
    result = server.run(jobs)
    check_run_invariants(result, jobs)
    return result


def total_input(jobs):
    return sum(j.input_kb for j in jobs)


def completed_kb(result):
    return sum(c.input_kb for c in result.trace.completions)


class TestDegradationSchedule:
    def test_empty_schedule_is_identity(self):
        schedule = DegradationSchedule()
        assert not schedule
        assert schedule.factor_at(0.0) == 1.0
        assert schedule.worst_factor() == 1.0

    def test_segment_boundaries(self):
        schedule = DegradationSchedule([(100.0, 200.0, 4.0)])
        assert schedule.factor_at(99.9) == 1.0
        assert schedule.factor_at(100.0) == 4.0  # start inclusive
        assert schedule.factor_at(199.9) == 4.0
        assert schedule.factor_at(200.0) == 1.0  # end exclusive

    def test_open_ended_segment(self):
        schedule = DegradationSchedule([(50.0, None, 3.0)])
        assert schedule.factor_at(1e12) == 3.0

    def test_overlapping_segments_compound(self):
        schedule = DegradationSchedule(
            [(0.0, 100.0, 2.0), (50.0, 150.0, 3.0)]
        )
        assert schedule.factor_at(75.0) == 6.0
        assert schedule.worst_factor() == 6.0

    def test_validation(self):
        with pytest.raises(ValueError):
            DegradationSchedule([(-1.0, 10.0, 2.0)])
        with pytest.raises(ValueError):
            DegradationSchedule([(10.0, 5.0, 2.0)])
        with pytest.raises(ValueError):
            DegradationSchedule([(0.0, 10.0, 0.0)])


class TestChaosPlan:
    def test_empty_plan(self):
        plan = ChaosPlan.none()
        assert plan.is_empty
        assert plan.fault_count() == 0
        assert plan.phone_ids() == frozenset()

    def test_fault_count_and_phone_ids(self):
        plan = ChaosPlan(
            failures=[PlannedFailure("a", 10.0)],
            slowdowns=[CpuSlowdown("b", 0.0, 2.0)],
            crashes=[TaskCrash("c", 5.0)],
        )
        assert plan.fault_count() == 3
        assert plan.phone_ids() == frozenset({"a", "b", "c"})

    def test_compute_schedule_compiled_per_phone(self):
        plan = ChaosPlan(
            slowdowns=[CpuSlowdown("a", 100.0, 5.0, duration_ms=50.0)]
        )
        schedule = plan.compute_schedule("a")
        assert schedule.factor_at(120.0) == 5.0
        assert plan.compute_schedule("other") is None

    def test_merged(self):
        a = ChaosPlan(slowdowns=[CpuSlowdown("a", 0.0, 2.0)])
        b = ChaosPlan(crashes=[TaskCrash("b", 5.0)])
        merged = a.merged(b)
        assert merged.fault_count() == 2

    def test_dict_round_trip(self):
        plan = ChaosPlan(
            failures=[
                PlannedFailure("a", 10.0, online=False, rejoin_after_ms=5.0)
            ],
            slowdowns=[CpuSlowdown("b", 0.0, 2.0, duration_ms=100.0)],
            bandwidth=[BandwidthDegradation("c", 1.0, 3.0)],
            crashes=[TaskCrash("d", 5.0)],
            corruptions=[ResultCorruption("e", 6.0)],
        )
        restored = ChaosPlan.from_dict(plan.to_dict())
        assert restored.to_dict() == plan.to_dict()

    def test_invalid_slowdown_rejected(self):
        with pytest.raises(ValueError):
            CpuSlowdown("a", -1.0, 2.0)
        with pytest.raises(ValueError):
            CpuSlowdown("a", 0.0, 0.0)
        with pytest.raises(ValueError):
            CpuSlowdown("a", 0.0, 2.0, duration_ms=0.0)


class TestResiliencePolicy:
    def test_default_disables_everything(self):
        policy = ResiliencePolicy()
        assert not policy.active

    def test_hardened_profile(self):
        policy = ResiliencePolicy.hardened()
        assert policy.active
        assert policy.speculate
        assert policy.max_retries > 0
        assert not policy.verify_results
        assert ResiliencePolicy.hardened(verify_results=True).verify_results

    def test_validation(self):
        with pytest.raises(ValueError):
            ResiliencePolicy(straggler_factor=1.0)
        with pytest.raises(ValueError):
            ResiliencePolicy(dispatch_timeout_factor=0.5)
        with pytest.raises(ValueError):
            ResiliencePolicy(max_retries=-1)
        with pytest.raises(ValueError, match="straggler"):
            ResiliencePolicy(speculate=True)


class TestChaosMonkey:
    def test_zero_rates_sample_empty_plan(self):
        monkey = ChaosMonkey()
        plan = monkey.sample_plan(
            ["a", "b"], duration_ms=600_000.0, rng=random.Random(1)
        )
        assert plan.is_empty

    def test_same_seed_same_plan(self):
        monkey = ChaosMonkey(
            flap_probability=0.5,
            straggler_probability=0.5,
            bandwidth_probability=0.5,
            crash_rate=1.0,
            corruption_rate=0.5,
        )
        ids = [f"p{i}" for i in range(10)]
        plan_a = monkey.sample_plan(
            ids, duration_ms=600_000.0, rng=random.Random(7)
        )
        plan_b = monkey.sample_plan(
            ids, duration_ms=600_000.0, rng=random.Random(7)
        )
        assert plan_a.to_dict() == plan_b.to_dict()
        assert not plan_a.is_empty

    def test_sampled_flapping_is_valid(self):
        """Sampled fail/rejoin cycles satisfy FailurePlan's stream rules."""
        monkey = ChaosMonkey(flap_probability=1.0, max_flap_cycles=3)
        plan = monkey.sample_plan(
            [f"p{i}" for i in range(20)],
            duration_ms=600_000.0,
            rng=random.Random(3),
        )
        assert len(plan.failures) >= 20  # every phone flaps at least once


class TestInertByDefault:
    def test_empty_chaos_and_default_policy_change_nothing(self):
        jobs = make_jobs()
        baseline = run_server(*make_setup(), jobs)
        chaosless = run_server(
            *make_setup(),
            jobs,
            chaos=ChaosPlan.none(),
            resilience=ResiliencePolicy(),
        )
        assert chaosless.trace.spans == baseline.trace.spans
        assert chaosless.trace.completions == baseline.trace.completions
        assert chaosless.measured_makespan_ms == baseline.measured_makespan_ms


class TestStragglersAndSpeculation:
    def chaos(self):
        # p0 silently becomes 10x slower for the whole run; the
        # scheduler still believes its clock-derived speed.
        return ChaosPlan(slowdowns=[CpuSlowdown("p0", 0.0, 10.0)])

    def test_straggler_detected(self):
        result = run_server(
            *make_setup(),
            make_jobs(),
            chaos=self.chaos(),
            resilience=ResiliencePolicy(straggler_factor=2.0),
        )
        assert result.trace.resilience_events_of("straggler_detected")
        assert not result.unfinished_jobs

    def test_speculation_reduces_makespan(self):
        jobs = make_jobs()
        without = run_server(
            *make_setup(),
            jobs,
            chaos=self.chaos(),
            resilience=ResiliencePolicy(straggler_factor=2.0),
        )
        with_spec = run_server(
            *make_setup(),
            jobs,
            chaos=self.chaos(),
            resilience=ResiliencePolicy(
                straggler_factor=2.0, speculate=True
            ),
        )
        assert with_spec.trace.resilience_events_of("speculation_launched")
        assert (
            with_spec.measured_makespan_ms < without.measured_makespan_ms
        )
        assert completed_kb(with_spec) == pytest.approx(total_input(jobs))

    def test_speculation_credits_each_partition_once(self):
        jobs = make_jobs()
        result = run_server(
            *make_setup(),
            jobs,
            chaos=self.chaos(),
            resilience=ResiliencePolicy(straggler_factor=2.0, speculate=True),
        )
        won = result.trace.resilience_events_of("speculation_won")
        launched = result.trace.resilience_events_of("speculation_launched")
        assert len(won) <= len(launched)
        assert completed_kb(result) == pytest.approx(total_input(jobs))

    def test_losing_backup_is_not_credited(self):
        # p0 runs 3x slow: the watchdog fires at 2x its prediction and
        # backs the job up on idle p1, but the primary has only 1x to
        # go while the backup must copy and execute from scratch.  The
        # primary wins, the backup is cancelled, credit stays single.
        phones, truth, predictor, b = make_setup(n_phones=2)
        jobs = tuple(
            Job(f"a{i}", "primes", JobKind.ATOMIC, 40.0, 500.0)
            for i in range(2)
        )
        result = run_server(
            phones, truth, predictor, b, jobs,
            chaos=ChaosPlan(slowdowns=[CpuSlowdown("p0", 0.0, 3.0)]),
            resilience=ResiliencePolicy(straggler_factor=2.0, speculate=True),
        )
        (launched,) = result.trace.resilience_events_of("speculation_launched")
        (won,) = result.trace.resilience_events_of("primary_won")
        assert won.job_id == launched.job_id
        assert won.phone_id != launched.phone_id
        assert not result.trace.resilience_events_of("speculation_won")
        assert result.trace.wasted_work_ms() > 0.0
        credits = [
            c.phone_id
            for c in result.trace.completions
            if c.job_id == won.job_id
        ]
        assert credits == [won.phone_id]
        assert completed_kb(result) == pytest.approx(total_input(jobs))

    def test_losing_copies_counted_as_wasted_work(self):
        result = run_server(
            *make_setup(),
            make_jobs(),
            chaos=self.chaos(),
            resilience=ResiliencePolicy(straggler_factor=2.0, speculate=True),
        )
        if result.trace.resilience_events_of("speculation_won"):
            assert result.trace.wasted_work_ms() > 0.0


class TestTimeouts:
    def test_degraded_copy_times_out_and_work_completes(self):
        jobs = make_jobs()
        chaos = ChaosPlan(
            bandwidth=[
                BandwidthDegradation(
                    "p0", 0.0, 20.0, duration_ms=30_000.0
                )
            ]
        )
        result = run_server(
            *make_setup(),
            jobs,
            chaos=chaos,
            resilience=ResiliencePolicy(
                dispatch_timeout_factor=4.0,
                max_retries=3,
                retry_backoff_ms=100.0,
            ),
        )
        assert result.trace.resilience_events_of("timeout")
        assert result.trace.resilience_events_of("retry")
        assert completed_kb(result) + sum(
            j.input_kb for j in result.unfinished_jobs
        ) == pytest.approx(total_input(jobs))


class TestCrashes:
    def test_crash_mid_execution_is_retried(self):
        phones, truth, predictor, b = make_setup(n_phones=1)
        jobs = (Job("j", "primes", JobKind.BREAKABLE, 40.0, 500.0),)
        # Copy takes (40+500)*2 = 1080 ms; the crash lands mid-execute.
        chaos = ChaosPlan(crashes=[TaskCrash("p0", 3_000.0)])
        result = run_server(
            phones, truth, predictor, b, jobs,
            chaos=chaos,
            resilience=ResiliencePolicy(
                max_retries=2, retry_backoff_ms=100.0
            ),
        )
        assert result.trace.chaos_of("task_crash")[0].detail == "hit"
        assert result.trace.resilience_events_of("retry")
        assert not result.unfinished_jobs
        assert completed_kb(result) == pytest.approx(500.0)

    def test_crash_without_retry_budget_falls_to_next_round(self):
        phones, truth, predictor, b = make_setup(n_phones=1)
        jobs = (Job("j", "primes", JobKind.BREAKABLE, 40.0, 500.0),)
        chaos = ChaosPlan(crashes=[TaskCrash("p0", 3_000.0)])
        result = run_server(
            phones, truth, predictor, b, jobs, chaos=chaos
        )
        assert result.trace.resilience_events_of("gave_up")
        assert len(result.rounds) == 2  # rescheduled, then completed
        assert completed_kb(result) == pytest.approx(500.0)

    def test_crash_on_idle_phone_is_noop(self):
        result = run_server(
            *make_setup(),
            make_jobs(),
            chaos=ChaosPlan(crashes=[TaskCrash("p0", 1e9)]),
        )
        assert result.trace.chaos_of("task_crash")[0].detail == "no-op"
        assert not result.trace.resilience_events_of("retry")


class TestVerification:
    def corrupting_chaos(self):
        return ChaosPlan(corruptions=[ResultCorruption("p0", 0.0)])

    def test_corruption_silently_aggregated_without_verification(self):
        payloads = []
        phones, truth, predictor, b = make_setup()
        server = CentralServer(
            phones, truth, predictor, CwcScheduler(), b,
            chaos=self.corrupting_chaos(),
            on_result=lambda job, task, pid, kb, payload: payloads.append(
                payload
            ),
        )
        result = server.run(make_jobs())
        assert not result.unfinished_jobs
        assert any(p[0] == "corrupt" for p in payloads)

    def test_verification_catches_corruption(self):
        payloads = []
        phones, truth, predictor, b = make_setup()
        server = CentralServer(
            phones, truth, predictor, CwcScheduler(), b,
            chaos=self.corrupting_chaos(),
            resilience=ResiliencePolicy(verify_results=True, max_retries=2),
            on_result=lambda job, task, pid, kb, payload: payloads.append(
                payload
            ),
        )
        jobs = make_jobs()
        result = server.run(jobs)
        check_run_invariants(result, jobs)
        assert result.trace.resilience_events_of("verify_mismatch")
        # The corrupted copy was retried: every credited payload is true.
        assert all(p[0] == "ok" for p in payloads)
        assert completed_kb(result) == pytest.approx(total_input(jobs))

    def test_exhausted_retries_quarantine_the_partition(self):
        phones, truth, predictor, b = make_setup(n_phones=2)
        jobs = make_jobs(n=2)
        result = run_server(
            phones, truth, predictor, b, jobs,
            chaos=self.corrupting_chaos(),
            resilience=ResiliencePolicy(verify_results=True, max_retries=0),
        )
        assert result.trace.resilience_events_of("quarantined")
        # Quarantined work re-enters via F_A and completes next round.
        assert len(result.rounds) >= 2
        assert completed_kb(result) == pytest.approx(total_input(jobs))

    def test_single_phone_fleet_skips_verification(self):
        phones, truth, predictor, b = make_setup(n_phones=1)
        jobs = (Job("j", "primes", JobKind.BREAKABLE, 40.0, 500.0),)
        result = run_server(
            phones, truth, predictor, b, jobs,
            resilience=ResiliencePolicy(verify_results=True),
        )
        assert result.trace.resilience_events_of("verify_skipped")
        assert not result.trace.resilience_events_of("verify_launched")
        assert completed_kb(result) == pytest.approx(500.0)

    def test_failed_task_list_tracks_new_failure_kinds(self):
        from repro.core.migration import FailedTaskList

        failed = FailedTaskList()
        job = Job("j", "primes", JobKind.BREAKABLE, 40.0, 500.0)
        failed.record_crashed(job, 200.0)
        failed.record_quarantined(job, 300.0)
        counts = failed.counts_by_kind()
        assert counts[FailureKind.CRASH] == 1
        assert counts[FailureKind.QUARANTINE] == 1
        drained = failed.drain()
        assert len(drained) == 1
        assert drained[0].input_kb == pytest.approx(500.0)


class TestFlapping:
    def test_flapping_phone_run_completes(self):
        jobs = make_jobs(n=6)
        plan = FailurePlan.flapping(
            "p0", first_ms=2_000.0, down_ms=4_000.0, up_ms=6_000.0, cycles=3
        )
        result = run_server(
            *make_setup(),
            jobs,
            chaos=ChaosPlan(failures=plan),
        )
        assert len(result.trace.resilience_events_of("rejoin")) == 3
        assert completed_kb(result) + sum(
            j.input_kb for j in result.unfinished_jobs
        ) + sum(
            f.processed_kb for f in result.trace.failures
        ) == pytest.approx(total_input(jobs))

    def test_offline_flapping_with_hardened_server(self):
        jobs = make_jobs(n=6)
        plan = FailurePlan.flapping(
            "p0",
            first_ms=2_000.0,
            down_ms=3_000.0,
            up_ms=8_000.0,
            cycles=2,
            online=False,
        )
        result = run_server(
            *make_setup(),
            jobs,
            chaos=ChaosPlan(failures=plan),
            resilience=ResiliencePolicy.hardened(),
        )
        assert result.trace.chaos_of("unplug")
        assert not result.unfinished_jobs


class TestResilienceReport:
    def hardened_chaotic_run(self, seed=11):
        phones, truth, predictor, b = make_setup(n_phones=4)
        monkey = ChaosMonkey(
            flap_probability=0.5,
            straggler_probability=0.5,
            straggler_factor_range=(4.0, 8.0),
            crash_rate=0.5,
            corruption_rate=0.5,
            flap_down_range_ms=(3_000.0, 10_000.0),
            flap_up_range_ms=(5_000.0, 15_000.0),
        )
        chaos = monkey.sample_plan(
            [p.phone_id for p in phones],
            duration_ms=60_000.0,
            rng=random.Random(seed),
        )
        jobs = make_jobs(n=6)
        result = run_server(
            phones, truth, predictor, b, jobs,
            chaos=chaos,
            resilience=ResiliencePolicy.hardened(verify_results=True),
        )
        return result

    def test_report_counts_match_trace(self):
        result = self.hardened_chaotic_run()
        report = compute_resilience_report(result)
        assert report.total_faults_injected == len(result.trace.chaos)
        assert report.failures_detected == len(result.trace.failures)
        assert report.completed_partitions == len(result.trace.completions)
        assert report.makespan_ms == result.measured_makespan_ms
        assert 0.0 <= report.wasted_fraction <= 1.0

    def test_makespan_inflation_against_baseline(self):
        result = self.hardened_chaotic_run()
        report = compute_resilience_report(
            result, baseline_makespan_ms=result.measured_makespan_ms / 2
        )
        assert report.makespan_inflation == pytest.approx(2.0)
        assert compute_resilience_report(result).makespan_inflation == 0.0

    def test_same_seed_byte_identical_report_json(self):
        """Satellite: seeded determinism, byte-for-byte."""
        report_a = compute_resilience_report(self.hardened_chaotic_run())
        report_b = compute_resilience_report(self.hardened_chaotic_run())
        assert report_a.to_json() == report_b.to_json()

    def test_different_seed_differs(self):
        report_a = compute_resilience_report(self.hardened_chaotic_run(11))
        report_b = compute_resilience_report(
            self.hardened_chaotic_run(12)
        )
        assert report_a.to_json() != report_b.to_json()

    def test_summary_lines_render(self):
        report = compute_resilience_report(self.hardened_chaotic_run())
        lines = report.summary_lines()
        assert lines[0] == "resilience report:"
        assert any("faults injected" in line for line in lines)

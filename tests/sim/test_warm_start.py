"""Warm-started rescheduling through the simulated central server.

With ``CwcScheduler(warm_start=True)`` the capacity search at every
non-initial scheduling instant is seeded with the previous round's
capacity.  The run must be *observably identical* to a cold run — same
schedules, same simulated timeline — while issuing strictly fewer
Algorithm-1 packs whenever the hint lands inside the new bracket.

Two rescheduling shapes are covered:

* a **second wave** of overnight work arriving mid-round (Section 3.3's
  job-arrival instant): the new wave resembles the first, the previous
  capacity is a near-optimal hint, and the warm search skips most
  probes;
* a **phone failure**: the reschedule covers only the failed phone's
  leftovers, the old capacity is a poor (or infeasible) hint, and the
  warm search must degrade gracefully to the cold result.
"""

import pytest

from repro.core.greedy import CwcScheduler
from repro.core.model import Job, JobKind, PhoneSpec
from repro.core.prediction import RuntimePredictor, TaskProfile
from repro.core.serialize import schedule_to_dict
from repro.sim.entities import FleetGroundTruth
from repro.sim.failures import FailurePlan, PlannedFailure
from repro.sim.server import CentralServer


def make_setup(n_phones=4):
    phones = tuple(
        PhoneSpec(phone_id=f"p{i}", cpu_mhz=800.0 + 200.0 * i)
        for i in range(n_phones)
    )
    profiles = {
        "primes": TaskProfile("primes", 10.0, 800.0),
        "blur": TaskProfile("blur", 20.0, 800.0),
    }
    truth = FleetGroundTruth(profiles, deviation_sigma=0.0, seed=1)
    predictor = RuntimePredictor(profiles)
    b = {p.phone_id: 2.0 for p in phones}
    return phones, truth, predictor, b


def make_batch(tag):
    jobs = [
        Job(f"{tag}b{i}", "primes", JobKind.BREAKABLE, 40.0, 700.0)
        for i in range(6)
    ]
    jobs += [
        Job(f"{tag}a{i}", "blur", JobKind.ATOMIC, 80.0, 250.0)
        for i in range(3)
    ]
    return tuple(jobs)


def run_two_waves(*, warm_start: bool):
    """First wave scheduled at t=0; a look-alike second wave arrives
    during round 0 and is batched into one rescheduling instant."""
    phones, truth, predictor, b = make_setup()
    server = CentralServer(
        phones, truth, predictor, CwcScheduler(warm_start=warm_start), b
    )
    arrivals = [(10.0 + i, job) for i, job in enumerate(make_batch("w2-"))]
    return server.run(make_batch("w1-"), arrivals=arrivals)


def run_with_failure(*, warm_start: bool):
    phones, truth, predictor, b = make_setup()
    plan = FailurePlan([PlannedFailure("p1", 2000.0, online=True)])
    server = CentralServer(
        phones,
        truth,
        predictor,
        CwcScheduler(warm_start=warm_start),
        b,
        failure_plan=plan,
    )
    return server.run(make_batch("w1-"))


@pytest.fixture(scope="module")
def wave_runs():
    return run_two_waves(warm_start=False), run_two_waves(warm_start=True)


@pytest.fixture(scope="module")
def failure_runs():
    return run_with_failure(warm_start=False), run_with_failure(
        warm_start=True
    )


def assert_observably_identical(cold, warm):
    assert len(warm.rounds) == len(cold.rounds)
    for cold_round, warm_round in zip(cold.rounds, warm.rounds):
        assert schedule_to_dict(warm_round.schedule) == schedule_to_dict(
            cold_round.schedule
        )
        assert warm_round.scheduled_at_ms == cold_round.scheduled_at_ms
        assert warm_round.job_ids == cold_round.job_ids
    assert warm.measured_makespan_ms == cold.measured_makespan_ms
    assert len(warm.trace.spans) == len(cold.trace.spans)


class TestSecondWaveArrival:
    def test_arrival_forces_a_second_round(self, wave_runs):
        cold, warm = wave_runs
        assert len(cold.rounds) == 2
        assert len(cold.rounds[1].job_ids) == 9

    def test_warm_run_is_observably_identical(self, wave_runs):
        cold, warm = wave_runs
        assert_observably_identical(cold, warm)
        assert not warm.unfinished_jobs

    def test_warm_start_engages_only_at_rescheduling_instants(
        self, wave_runs
    ):
        cold, warm = wave_runs
        assert not warm.rounds[0].warm_started
        assert warm.rounds[1].warm_started
        assert not any(r.warm_started for r in cold.rounds)

    def test_warm_start_reduces_packs_at_the_rescheduling_instant(
        self, wave_runs
    ):
        cold, warm = wave_runs
        assert (
            warm.rounds[0].search.packer_passes
            == cold.rounds[0].search.packer_passes
        )
        assert (
            warm.rounds[1].search.packer_passes
            < cold.rounds[1].search.packer_passes
        )

    def test_round_records_carry_scheduling_diagnostics(self, wave_runs):
        for result in wave_runs:
            for record in result.rounds:
                assert record.scheduling_wall_ms >= 0.0
                assert record.search.packer_passes >= 1
                assert record.search.bisection_steps >= 1


class TestFailureDegradesGracefully:
    """The failure reschedule covers a small leftover workload, so the
    previous capacity is a poor hint; correctness must not depend on
    hint quality."""

    def test_failure_forces_rescheduling(self, failure_runs):
        cold, warm = failure_runs
        assert len(cold.rounds) > 1

    def test_warm_run_is_observably_identical(self, failure_runs):
        cold, warm = failure_runs
        assert_observably_identical(cold, warm)
        assert not warm.unfinished_jobs

    def test_useless_hint_costs_at_most_its_verification_pack(
        self, failure_runs
    ):
        cold, warm = failure_runs
        for cold_round, warm_round in zip(cold.rounds[1:], warm.rounds[1:]):
            assert (
                warm_round.search.packer_passes
                <= cold_round.search.packer_passes + 1
            )

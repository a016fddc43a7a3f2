"""Extension bench: proactive availability-aware scheduling.

Section 3.1 suggests per-user unplug profiles can steer work away from
phones likely to fail.  This bench quantifies the payoff: run the same
workload under the same stochastic unplug pattern with (a) the plain
greedy scheduler and (b) the availability-aware wrapper, and compare
rescheduling overhead and total makespan.
"""

import random

from repro.core.availability import AvailabilityAwareScheduler
from repro.core.greedy import CwcScheduler
from repro.core.prediction import RuntimePredictor
from repro.netmodel.measurement import measure_fleet
from repro.profiling.forecast import AvailabilityForecast
from repro.sim.entities import FleetGroundTruth
from repro.sim.failures import FailurePlan, PlannedFailure
from repro.sim.server import CentralServer
from repro.workloads.mixes import (
    evaluation_workload,
    paper_task_profiles,
    paper_testbed,
)


def _risky_fleet_run(scheduler_factory, *, seed=7):
    """Run the workload on a fleet where 1/3 of phones are flaky."""
    testbed = paper_testbed()
    rng = random.Random(seed)
    flaky = set(
        rng.sample([p.phone_id for p in testbed.phones], 6)
    )
    profiles = {
        p.phone_id: ([0.25] * 24 if p.phone_id in flaky else [0.01] * 24)
        for p in testbed.phones
    }
    forecast = AvailabilityForecast(profiles)

    # The actual failures follow the same risk pattern the forecast saw.
    plan = FailurePlan(
        PlannedFailure(pid, rng.uniform(30_000.0, 500_000.0), online=True)
        for pid in sorted(flaky)
        if rng.random() < 0.6
    )

    task_profiles = paper_task_profiles()
    truth = FleetGroundTruth(task_profiles, deviation_sigma=0.03, seed=seed)
    predictor = RuntimePredictor(task_profiles)
    b = measure_fleet(testbed.links)
    server = CentralServer(
        testbed.phones,
        truth,
        predictor,
        scheduler_factory(forecast),
        b,
        failure_plan=plan,
    )
    return server.run(evaluation_workload())


def test_bench_availability_aware_vs_plain(once):
    def run_both():
        plain = _risky_fleet_run(lambda forecast: CwcScheduler())
        aware = _risky_fleet_run(
            lambda forecast: AvailabilityAwareScheduler(
                CwcScheduler(),
                forecast,
                start_hour=0.0,
                expected_duration_hours=1.0,
                min_survival=0.1,
                risk_aversion=1.5,
            )
        )
        return plain, aware

    plain, aware = once(run_both)
    print(
        f"\nplain greedy: makespan {plain.measured_makespan_ms / 1000:.0f} s, "
        f"reschedule overhead {plain.reschedule_overhead_ms / 1000:.0f} s, "
        f"{len(plain.trace.failures)} failures"
    )
    print(
        f"availability-aware: makespan {aware.measured_makespan_ms / 1000:.0f} s, "
        f"reschedule overhead {aware.reschedule_overhead_ms / 1000:.0f} s, "
        f"{len(aware.trace.failures)} failures"
    )
    assert not plain.unfinished_jobs
    assert not aware.unfinished_jobs
    # Steering work off flaky phones must cut the rework their failures
    # cause: the one thing the wrapper exists to do (seed 7 is
    # deterministic).
    assert aware.reschedule_overhead_ms < plain.reschedule_overhead_ms

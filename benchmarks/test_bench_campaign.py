"""Extension bench: CWC as a week-long overnight service.

Runs five nights on the paper testbed with realistic unplug failures
and adaptive bandwidth re-measurement, printing per-night makespans,
failures, and prediction error (which should collapse after the first
nights as the predictor learns the fleet).  Each night is one
``CentralServer`` run; unfinished work joins the next night's queue.
"""

import random

from repro.core.greedy import CwcScheduler
from repro.core.prediction import RuntimePredictor
from repro.netmodel.scheduler import MeasurementScheduler
from repro.sim.entities import FleetGroundTruth
from repro.sim.failures import RandomUnplugModel
from repro.sim.server import CentralServer
from repro.workloads.mixes import (
    evaluation_workload,
    paper_task_profiles,
    paper_testbed,
)

MS_PER_DAY = 24.0 * 3_600_000.0


def test_bench_five_night_campaign(once):
    def run_campaign():
        testbed = paper_testbed()
        profiles = paper_task_profiles()
        truth = FleetGroundTruth(profiles, deviation_sigma=0.06, seed=3)
        predictor = RuntimePredictor(profiles, alpha=1.0)
        scheduler = CwcScheduler()
        unplug = RandomUnplugModel([0.02] * 6 + [0.25] + [0.08] * 17)
        measurement = MeasurementScheduler()
        rng = random.Random(8)
        phone_ids = [phone.phone_id for phone in testbed.phones]
        backlog = ()
        results = []
        for night in range(5):
            jobs = backlog + evaluation_workload(
                seed=300 + night, instances_per_task=15
            )
            b = measurement.measure_due(testbed.links, night * MS_PER_DAY)
            plan = unplug.sample_plan(
                phone_ids, start_hour=0.0, duration_hours=6.0, rng=rng
            )
            result = CentralServer(
                testbed.phones, truth, predictor, scheduler, b,
                failure_plan=plan,
            ).run(jobs)
            backlog = result.unfinished_jobs
            results.append(result)
        return results, backlog

    results, backlog = once(run_campaign)
    print("\nnight  makespan(s)  failures  overhead(s)  prediction error")
    errors = []
    for night, result in enumerate(results):
        measured = result.measured_makespan_ms
        errors.append(abs(result.predicted_makespan_ms - measured) / measured)
        print(
            f"{night:5d}  {measured / 1000:10.1f}"
            f"  {len(result.trace.failures):8d}"
            f"  {result.reschedule_overhead_ms / 1000:10.1f}"
            f"  {errors[-1] * 100:8.2f}%"
        )
    assert not backlog
    assert errors[-1] <= max(errors[0], 0.02)

"""Extension bench: CWC as a week-long overnight service.

Runs five nights on the paper testbed with realistic unplug failures
and adaptive bandwidth re-measurement, printing per-night makespans,
failures, and prediction error (which should collapse after the first
nights as the predictor learns the fleet).  Each night is one
``CentralServer`` run; unfinished work joins the next night's queue.

``campaign_shaped_searches`` replays the capacity searches a campaign
runs at every scheduling instant, at its two shapes: the testbed's 18
phones with one job (most rescheduling rounds) and with 20 jobs.
"""

import random
import statistics
import time

from repro.core.capacity import CapacitySearch
from repro.core.greedy import CwcScheduler
from repro.core.instance import SchedulingInstance
from repro.netmodel.measurement import measure_fleet
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


#: Fixed searches of ``campaign_shaped_searches``: one-job and 20-job
#: instances drawn from the evaluation workload, and timed passes.
_SINGLE_JOB_INSTANCES = 20
_TWENTY_JOB_INSTANCES = 4
_SEARCH_PASSES = 5


def _campaign_shaped_instances():
    testbed = paper_testbed()
    predictor = RuntimePredictor(paper_task_profiles())
    b = measure_fleet(testbed.links)
    jobs = evaluation_workload(seed=2012)
    rng = random.Random(2012)
    shapes = [(job,) for job in rng.sample(jobs, _SINGLE_JOB_INSTANCES)]
    shapes += [
        tuple(rng.sample(jobs, 20)) for _ in range(_TWENTY_JOB_INSTANCES)
    ]
    return [
        SchedulingInstance.build(shape, testbed.phones, b, predictor)
        for shape in shapes
    ]


def test_bench_campaign_shaped_searches(record_scheduler_bench):
    """Cold and warm searches at the campaign's two shapes.

    Each instance is searched cold, then warm with the cold capacity as
    the hint, as the next scheduling instant of a warm-started campaign
    would.  The counters are deterministic (CI pins them exactly);
    ``search_s`` is the median wall time of a pass over every search.
    """
    instances = _campaign_shaped_instances()
    search = CapacitySearch()

    def one_pass():
        results = []
        for instance in instances:
            cold = search.run(instance)
            warm = search.run(instance, warm_hint_ms=cold.capacity_ms)
            results += [cold, warm]
        return results

    walls = []
    for _ in range(_SEARCH_PASSES):
        started = time.perf_counter()
        results = one_pass()
        walls.append(time.perf_counter() - started)
    assert {result.kernel for result in results} == {"python"}
    record_scheduler_bench(
        "campaign_shaped_searches",
        phones=len(instances[0].phones),
        searches=len(results),
        packer_passes=sum(result.packer_passes for result in results),
        bisection_steps=sum(result.bisection_steps for result in results),
        capacity_ms=round(sum(result.capacity_ms for result in results), 1),
        search_s=round(statistics.median(walls), 4),
    )
    print(
        f"\ncampaign-shaped searches ({len(results)}): median pass "
        f"{statistics.median(walls) * 1000:.1f} ms"
    )

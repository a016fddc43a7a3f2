#!/usr/bin/env python3
"""Nightly IT log auditing — the paper's third example application.

Section 3.2: "the IT department in an enterprise can gather machine
logs throughout the day and analyze them for certain types of failures
at night."  This example operates CWC as a service over a working week:

* each day produces fresh machine logs from a few server fleets;
* each night the central server re-measures bandwidth, samples that
  night's unplug failures, and schedules the analysis jobs over the
  phone fleet — one runtime predictor carries its learning across
  nights;
* one night's analysis is additionally executed *for real* through the
  phone sandboxes, and the distributed failure report is verified
  against a single-machine scan.

Run:  python examples/it_log_audit.py
"""

import random

from repro.core import CwcScheduler, Job, JobKind
from repro.core.instance import SchedulingInstance
from repro.core.prediction import RuntimePredictor, TaskProfile
from repro.netmodel import measure_fleet
from repro.runtime import TaskRegistry
from repro.sim import (
    CentralServer,
    FleetGroundTruth,
    RandomUnplugModel,
    RealExecutionRunner,
    direct_results,
)
from repro.workloads import machine_log, paper_testbed, text_size_kb

FLEETS = ("web-tier", "db-tier", "batch-tier")
REFERENCE_MHZ = 806.0


def nightly_log_jobs(day: int, rng: random.Random):
    """One analysis job per server fleet, with that day's log volume."""
    logs = {
        f"{fleet}-day{day}": machine_log(
            rng.randint(15_000, 40_000), rng, failure_rate=0.04
        )
        for fleet in FLEETS
    }
    jobs = tuple(
        Job(
            job_id=name,
            task="loganalysis",
            kind=JobKind.BREAKABLE,
            executable_kb=60.0,
            input_kb=text_size_kb(text),
        )
        for name, text in logs.items()
    )
    return jobs, logs


def main() -> None:
    rng = random.Random(42)
    testbed = paper_testbed()
    profiles = {"loganalysis": TaskProfile("loganalysis", 20.0, REFERENCE_MHZ)}
    truth = FleetGroundTruth(profiles, deviation_sigma=0.05, seed=9)
    predictor = RuntimePredictor(profiles, alpha=1.0)

    # Overnight failure risk: quiet until 6 AM, then wake-ups.
    unplug = RandomUnplugModel([0.02] * 6 + [0.2, 0.3] + [0.1] * 16)

    nights = [nightly_log_jobs(day, rng) for day in range(5)]
    scheduler = CwcScheduler()
    plan_rng = random.Random(17)
    phone_ids = [phone.phone_id for phone in testbed.phones]

    print("night  jobs  makespan  failures  overhead  prediction error")
    for night, (jobs, _) in enumerate(nights):
        b = measure_fleet(testbed.links)
        plan = unplug.sample_plan(
            phone_ids, start_hour=0.0, duration_hours=6.0, rng=plan_rng
        )
        result = CentralServer(
            testbed.phones, truth, predictor, scheduler, b, failure_plan=plan
        ).run(jobs)
        assert not result.unfinished_jobs
        measured = result.measured_makespan_ms
        error = abs(result.predicted_makespan_ms - measured) / measured
        print(
            f"{night:5d}  {len(jobs):4d}  "
            f"{measured / 1000:7.1f}s  "
            f"{len(result.trace.failures):8d}  "
            f"{result.reschedule_overhead_ms / 1000:7.1f}s  "
            f"{error * 100:6.2f}%"
        )

    # Execute the last night for real and verify the report.
    jobs, logs = nights[-1]
    registry = TaskRegistry()
    registry.load("repro.workloads.loganalysis:LogAnalysisTask")
    b = measure_fleet(testbed.links)
    instance = SchedulingInstance.build(jobs, testbed.phones, b, predictor)
    schedule = CwcScheduler().schedule(instance)
    runner = RealExecutionRunner(registry, [p.phone_id for p in testbed.phones])
    outcome = runner.run(schedule, logs)
    reference = direct_results(
        registry, {name: ("loganalysis", text) for name, text in logs.items()}
    )

    print("\nfinal night's failure report (distributed == direct):")
    for name in sorted(logs):
        report = outcome.results[name]
        assert report == reference[name]
        top = sorted(report.counts.items(), key=lambda kv: -kv[1])[:3]
        summary = ", ".join(f"{sig}:{count}" for sig, count in top)
        print(f"  {name:18s} {report.lines_scanned:6d} lines  [{summary}]  OK")


if __name__ == "__main__":
    main()

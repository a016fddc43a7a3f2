"""Fleet-scale scheduler benchmarks (1 000 phones × 5 000 jobs).

The paper's testbed is 18 phones; the ROADMAP's north star is an
enterprise fleet.  These benches measure the full scheduling pass —
instance build, capacity bounds, bisection, packing — at a scale three
orders of magnitude past the paper, and pin the hot-path overhaul's
speedup against the frozen pre-optimisation reference
(:mod:`repro.core._reference`).

Two scales are used deliberately:

* **mid scale** (72 phones × 600 jobs) — large enough that the
  reference's O(P·J²) bound computation and O(items × bins) packing
  dominate, small enough that it still finishes; both paths run here
  and the speedup ratio is recorded (acceptance floor: 5×);
* **fleet scale** (1 000 phones × 5 000 jobs) — the reference would
  take hours (its bounds alone are ~2.5 × 10¹⁰ operations), so only
  the optimised path runs; its absolute wall time is the tracked
  trajectory number.

Headline numbers land in ``BENCH_scheduler.json`` via the
``record_scheduler_bench`` fixture.  The fleet-scale pass runs first
in this file: it is the tracked trajectory number, and running it
before the reference search's seconds of hot scalar Python keeps
single-core thermal drift out of the recorded figure.  It does not run
first in a pytest run that collects other benches before this file: CI's
``bench-smoke`` job runs ``test_bench_core.py`` and
``test_bench_campaign.py`` ahead of it, which added about 0.4 s to the
pass on a shared 2-vCPU host.
"""

import dataclasses
import time

from repro.core._reference import ReferenceCapacitySearch
from repro.core.capacity import CapacitySearch
from repro.core.instance import SchedulingInstance
from repro.core.prediction import RuntimePredictor
from repro.core.serialize import schedule_to_dict
from repro.netmodel.measurement import measure_fleet
from repro.workloads.mixes import (
    evaluation_workload,
    paper_task_profiles,
    paper_testbed,
)

#: Acceptance floor for the optimised-vs-reference full-pass ratio.
MIN_SPEEDUP = 5.0


def _fleet_instance(n_phones: int, n_jobs: int) -> SchedulingInstance:
    """A synthetic fleet built by replicating the paper testbed."""
    testbed = paper_testbed()
    base = len(testbed.phones)
    copies = (n_phones + base - 1) // base
    phones = [
        dataclasses.replace(phone, phone_id=f"{phone.phone_id}-c{copy}")
        for copy in range(copies)
        for phone in testbed.phones
    ][:n_phones]
    base_b = measure_fleet(testbed.links)
    b = {
        f"{pid}-c{copy}": value
        for pid, value in base_b.items()
        for copy in range(copies)
    }
    workload = len(evaluation_workload())
    repeats = (n_jobs + workload - 1) // workload
    jobs = [
        dataclasses.replace(job, job_id=f"{job.job_id}-r{repeat}")
        for repeat in range(repeats)
        for job in evaluation_workload(seed=150 + repeat)
    ][:n_jobs]
    predictor = RuntimePredictor(paper_task_profiles())
    return SchedulingInstance.build(jobs, tuple(phones), b, predictor)


def test_bench_fleet_scale_full_pass(record_scheduler_bench):
    """1 000 phones × 5 000 jobs through the whole optimised path."""
    started = time.perf_counter()
    instance = _fleet_instance(n_phones=1000, n_jobs=5000)
    build_s = time.perf_counter() - started

    started = time.perf_counter()
    lower, upper = instance.capacity_bounds()
    bounds_s = time.perf_counter() - started
    assert 0.0 < lower <= upper

    started = time.perf_counter()
    result = CapacitySearch().run(instance)
    search_s = time.perf_counter() - started

    result.schedule.validate(instance)
    assert result.kernel == "numpy", "auto kernel should pick numpy here"
    assert result.shortcircuit_skips > 0, (
        "certificates never fired at fleet scale — the dead zone is back"
    )
    # Distinct rate rows the search materialised: one list per phone
    # class it touched (read without materialising the rest).
    row_lists = len(
        {id(row) for row in instance.per_kb_rows()._rows if row is not None}
    )
    record_scheduler_bench(
        "fleet_scale_full_pass",
        phones=len(instance.phones),
        jobs=len(instance.jobs),
        build_s=round(build_s, 2),
        bounds_s=round(bounds_s, 2),
        search_s=round(search_s, 2),
        total_s=round(build_s + bounds_s + search_s, 2),
        capacity_ms=round(result.capacity_ms, 1),
        packer_passes=result.packer_passes,
        bisection_steps=result.bisection_steps,
        shortcircuit_skips=result.shortcircuit_skips,
        phone_classes=len(instance.phone_classes()[1]),
        c_rows=len(instance.c_class_rows()[0]),
        per_kb_row_lists=row_lists,
        kernel=result.kernel,
    )
    print(
        f"\nfleet scale (1000x5000): build {build_s:.1f}s, "
        f"bounds {bounds_s:.1f}s, search {search_s:.1f}s "
        f"({result.packer_passes} packs, "
        f"{result.shortcircuit_skips} certificate skips, "
        f"kernel={result.kernel})"
    )


def test_bench_mid_scale_speedup_vs_reference(record_scheduler_bench):
    """Optimised vs frozen reference, same instance, same schedule."""
    instance = _fleet_instance(n_phones=72, n_jobs=600)

    started = time.perf_counter()
    optimised = CapacitySearch().run(instance)
    optimised_s = time.perf_counter() - started

    started = time.perf_counter()
    reference = ReferenceCapacitySearch().run(instance)
    reference_s = time.perf_counter() - started

    assert schedule_to_dict(optimised.schedule) == schedule_to_dict(
        reference.schedule
    ), "hot-path overhaul changed the schedule"
    assert optimised.capacity_ms == reference.capacity_ms

    speedup = reference_s / optimised_s
    record_scheduler_bench(
        "mid_scale_full_pass",
        phones=len(instance.phones),
        jobs=len(instance.jobs),
        optimised_s=round(optimised_s, 3),
        reference_s=round(reference_s, 3),
        speedup=round(speedup, 1),
        packer_passes=optimised.packer_passes,
        bisection_steps=optimised.bisection_steps,
        kernel=optimised.kernel,
    )
    print(
        f"\nmid scale (72x600): optimised {optimised_s:.2f}s, "
        f"reference {reference_s:.2f}s, speedup {speedup:.1f}x"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"full-pass speedup {speedup:.1f}x below the {MIN_SPEEDUP:.0f}x floor"
    )


def test_bench_warm_start_rescheduling(record_scheduler_bench):
    """Warm-started rescheduling at mid scale: fewer packs, same bytes."""
    instance = _fleet_instance(n_phones=72, n_jobs=600)
    # A rescheduling instant: a tail of the workload on the same fleet.
    tail_jobs = instance.jobs[: len(instance.jobs) // 4]
    tail = SchedulingInstance(
        jobs=tail_jobs,
        phones=instance.phones,
        b_ms_per_kb=instance.b_ms_per_kb,
        c_ms_per_kb={
            (phone.phone_id, job.job_id): instance.c(
                phone.phone_id, job.job_id
            )
            for phone in instance.phones
            for job in tail_jobs
        },
    )
    search = CapacitySearch()

    started = time.perf_counter()
    cold = search.run(tail)
    cold_s = time.perf_counter() - started

    # The next scheduling instant re-plans the same residual workload
    # seeded with the previous round's converged capacity — exactly what
    # ``CwcScheduler(warm_start=True)`` feeds forward.  (A hint from the
    # *full* 600-job instance would land above the feasibility
    # certificate's threshold and save nothing the certificate doesn't.)
    started = time.perf_counter()
    warm = search.run(tail, warm_hint_ms=cold.capacity_ms)
    warm_s = time.perf_counter() - started

    assert schedule_to_dict(warm.schedule) == schedule_to_dict(cold.schedule)
    assert warm.packer_passes < cold.packer_passes
    record_scheduler_bench(
        "warm_start_rescheduling",
        phones=len(tail.phones),
        jobs=len(tail.jobs),
        cold_s=round(cold_s, 3),
        warm_s=round(warm_s, 3),
        cold_packs=cold.packer_passes,
        warm_packs=warm.packer_passes,
        assumed_feasible=warm.assumed_feasible,
    )
    print(
        f"\nwarm start (72x150 reschedule): cold {cold.packer_passes} packs "
        f"{cold_s:.2f}s, warm {warm.packer_passes} packs {warm_s:.2f}s"
    )

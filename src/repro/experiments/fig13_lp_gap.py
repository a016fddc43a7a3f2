"""Figure 13: greedy scheduler vs the LP-relaxation lower bound.

The paper generates 1000 random configurations — ``b_i`` uniform in
[1, 70] ms/KB (the measured extremes), ``c_ij`` from the testbed
phones, the same 150-task workload — and compares the greedy makespan
with the LP relaxation's.  Anchor: the greedy median is ≈18 % worse
than the (loose) lower bound, i.e. within ≈18 % of optimal or better.
"""

from __future__ import annotations

import random

from ..analysis.stats import EmpiricalCdf, percentile
from ..analysis.tables import render_cdf_series, render_table
from ..core.greedy import CwcScheduler
from ..core.instance import SchedulingInstance
from ..core.lp_bound import solve_relaxed_makespan
from ..core.prediction import RuntimePredictor
from ..workloads.mixes import (
    evaluation_workload,
    paper_task_profiles,
    paper_testbed,
)
from .base import ExperimentReport

__all__ = ["run", "random_configuration_gaps"]


def random_configuration_gaps(
    *,
    configurations: int = 1000,
    seed: int = 13,
    workload_seed: int = 150,
    b_range_ms: tuple[float, float] = (1.0, 70.0),
) -> list[tuple[float, float]]:
    """(greedy makespan, relaxed makespan) per random configuration."""
    if configurations < 1:
        raise ValueError("configurations must be >= 1")
    testbed = paper_testbed()
    jobs = evaluation_workload(seed=workload_seed)
    predictor = RuntimePredictor(paper_task_profiles())
    scheduler = CwcScheduler()
    rng = random.Random(seed)
    pairs: list[tuple[float, float]] = []
    for _ in range(configurations):
        b = {
            phone.phone_id: rng.uniform(*b_range_ms) for phone in testbed.phones
        }
        instance = SchedulingInstance.build(jobs, testbed.phones, b, predictor)
        greedy_makespan = scheduler.schedule(instance).predicted_makespan_ms(
            instance
        )
        relaxed = solve_relaxed_makespan(instance).makespan_ms
        pairs.append((greedy_makespan, relaxed))
    return pairs


def run(*, configurations: int = 200, seed: int = 13) -> ExperimentReport:
    """Regenerate the Fig. 13 CDFs and the median optimality gap.

    Defaults to 200 configurations (≈20 s on a 2-vCPU x86_64 host);
    pass 1000 to match the paper exactly — the statistics are stable
    well before that.
    """
    pairs = random_configuration_gaps(configurations=configurations, seed=seed)
    gaps = [greedy / relaxed - 1.0 for greedy, relaxed in pairs]
    violations = sum(1 for greedy, relaxed in pairs if greedy < relaxed - 1e-6)

    greedy_cdf = EmpiricalCdf([greedy / 1000 for greedy, _ in pairs])
    relaxed_cdf = EmpiricalCdf([relaxed / 1000 for _, relaxed in pairs])

    rendered = "\n\n".join(
        (
            render_cdf_series(greedy_cdf.points(), label="greedy makespan (s)"),
            render_cdf_series(relaxed_cdf.points(), label="relaxed makespan (s)"),
            render_table(
                ("statistic", "value"),
                [
                    ("configurations", len(pairs)),
                    ("median gap", f"{percentile(gaps, 50.0) * 100:.1f}%"),
                    ("p90 gap", f"{percentile(gaps, 90.0) * 100:.1f}%"),
                    ("bound violations", violations),
                ],
                title="Figure 13 — greedy vs LP-relaxation makespans",
            ),
        )
    )

    return ExperimentReport(
        experiment_id="fig13",
        title="Scheduler optimality gap over random configurations",
        paper_claim=(
            "median greedy makespan ~18% above the LP-relaxation lower bound "
            "over 1000 random b_i configurations"
        ),
        measured={
            "configurations": float(len(pairs)),
            "median_gap": percentile(gaps, 50.0),
            "p90_gap": percentile(gaps, 90.0),
            "max_gap": max(gaps),
            "bound_violations": float(violations),
        },
        rendered=rendered,
    )

"""Shortest-expected-completion baseline policy.

Classic list scheduling: jobs in descending best-case cost (LPT
order), each placed whole on the phone whose queue finishes soonest
after taking it.  It is heterogeneity-aware — unlike the paper's
round-robin and equal-split baselines it reads ``b_i`` and ``c_ij`` —
but it never splits breakable jobs and never searches capacities, so
it brackets CWC greedy from a different direction than the oblivious
Section-6 baselines do: same information, strictly less machinery.
"""

from __future__ import annotations

from ...obs.telemetry import NULL_TELEMETRY
from ...obs.tracing import maybe_span
from ..instance import SchedulingInstance
from ..schedule import Schedule, ScheduleBuilder
from .base import sorted_jobs_by_cost

__all__ = ["ShortestExpectedCompletionPolicy"]


class ShortestExpectedCompletionPolicy:
    """Whole-job LPT onto the earliest-finishing phone."""

    name = "shortest-expected"

    #: No capacity search ran, so there are no search diagnostics.
    last_result = None

    def __init__(self, *, telemetry=None) -> None:
        self._tel = telemetry if telemetry is not None else NULL_TELEMETRY

    def schedule(self, instance: SchedulingInstance) -> Schedule:
        """Place each job on the phone that completes it soonest."""
        tel = self._tel
        tracer = tel.tracer if tel.enabled else None
        with maybe_span(
            tracer,
            "schedule",
            category="scheduler",
            scheduler=self.name,
            jobs=len(instance.jobs),
            phones=len(instance.phones),
        ):
            return self._build(instance)

    def _build(self, instance: SchedulingInstance) -> Schedule:
        finish = {phone.phone_id: 0.0 for phone in instance.phones}
        builder = ScheduleBuilder()
        for job in sorted_jobs_by_cost(instance):
            best = min(
                instance.phones,
                key=lambda phone: (
                    finish[phone.phone_id]
                    + instance.cost(phone.phone_id, job.job_id),
                    instance.phone_position(phone.phone_id),
                ),
            )
            finish[best.phone_id] += instance.cost(
                best.phone_id, job.job_id
            )
            builder.place(
                best.phone_id, job.job_id, job.task, job.input_kb, whole=True
            )
        return builder.build()

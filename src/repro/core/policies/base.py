"""Helpers shared by the non-default scheduling policies.

The CWC paper evaluates exactly one scheduler — the greedy CBP packer
inside a capacity search — and argues it is "good enough" for phone
fleets.  The alternative policies in this package (energy-aware,
shortest-expected completion) are plain
:class:`~repro.core.greedy.Scheduler` implementations — ``name`` plus
``schedule(instance) -> Schedule`` — that place whole jobs in LPT
order; this module holds the ordering and knob validation they share.
"""

from __future__ import annotations

import math

from ..instance import SchedulingInstance


def sorted_jobs_by_cost(instance: SchedulingInstance) -> list:
    """Jobs in descending best-case whole-job cost (LPT order).

    Ties break on ``job_id`` so the order — and therefore every policy
    built on it — is deterministic for a given instance.
    """

    def best_cost(job) -> float:
        return min(
            instance.cost(phone.phone_id, job.job_id)
            for phone in instance.phones
        )

    return sorted(
        instance.jobs, key=lambda job: (-best_cost(job), job.job_id)
    )


def check_fraction(name: str, value: float) -> float:
    """Validate a (0, 1] fraction knob shared by the policies."""
    if not math.isfinite(value) or not 0.0 < value <= 1.0:
        raise ValueError(f"{name} must lie in (0, 1], got {value!r}")
    return float(value)

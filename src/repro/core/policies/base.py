"""The pluggable scheduling-policy interface.

The CWC paper evaluates exactly one scheduler — the greedy CBP packer
inside a capacity search — and argues it is "good enough" for phone
fleets.  The related work disagrees on *what to optimise*: replication
policies for stochastic jobs on unreliable workers (Hsu–Huang–Shieh)
and energy-aware profit-maximising scheduling (Li et al.) both trade
makespan for other objectives.  This module extracts the interface all
of them share so the simulator, the fuzzer, and the tournament harness
(:mod:`repro.verify.tournament`) can treat scheduling policies as
interchangeable competitors.

A :class:`SchedulingPolicy` is a
:class:`~repro.core.greedy.Scheduler` — ``name`` plus
``schedule(instance) -> Schedule`` — extended with one optional output
channel: ``last_replicas``, a tuple of :class:`ReplicaDirective`
records describing whole jobs the policy wants the server to run
redundantly.  The directives deliberately live *outside* the
:class:`~repro.core.schedule.Schedule`:
:meth:`~repro.core.schedule.Schedule.validate` (and the oracle's
conservation invariants) require every byte covered exactly once, so
proactive duplication rides the server's existing speculative-backup
machinery — first result wins, rivals are cancelled, work is credited
exactly once — rather than the schedule's coverage accounting.

:class:`~repro.core.greedy.CwcScheduler` is the *default* policy: it
satisfies this protocol unchanged (``last_replicas`` is always empty)
and its schedules stay byte-identical to every release since PR 2,
which the differential harness and the fuzz digests enforce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from ..greedy import Scheduler
from ..instance import SchedulingInstance
from ..schedule import Schedule

__all__ = ["ReplicaDirective", "SchedulingPolicy"]


@dataclass(frozen=True, slots=True)
class ReplicaDirective:
    """Ask the server to run one whole job redundantly on ``phone_id``.

    Only jobs placed whole on a single phone can be replicated (a split
    job's partitions already race no one; duplicating one partition
    would double-credit its bytes).  The server validates the target at
    dispatch time and silently skips directives it cannot honour — a
    policy plans against the round's instance, but phones can fail
    between planning and dispatch.
    """

    phone_id: str
    job_id: str

    def __post_init__(self) -> None:
        if not self.phone_id:
            raise ValueError("phone_id must be a non-empty string")
        if not self.job_id:
            raise ValueError("job_id must be a non-empty string")


@runtime_checkable
class SchedulingPolicy(Scheduler, Protocol):
    """A scheduler that may also request proactive replication.

    ``last_replicas`` holds the directives attached to the most recent
    ``schedule()`` call; schedulers that never replicate expose an
    empty tuple.  The server reads the attribute duck-typed (plain
    schedulers without it still work), but every scheduler built by
    :meth:`repro.core.policies.SchedulerConfig.build` satisfies this
    protocol.
    """

    last_replicas: tuple[ReplicaDirective, ...]


def whole_assignments(schedule: Schedule) -> list[tuple[str, str]]:
    """``(phone_id, job_id)`` pairs for jobs placed whole on one phone."""
    pairs: list[tuple[str, str]] = []
    for phone_id in schedule.phone_ids:
        for assignment in schedule.for_phone(phone_id):
            if assignment.whole:
                pairs.append((phone_id, assignment.job_id))
    return pairs


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

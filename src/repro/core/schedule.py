"""Schedules: the output of every CWC scheduler.

A :class:`Schedule` maps each phone to an ordered list of
:class:`Assignment` records.  Each assignment is one partition ``l_ij``
of a job's input (possibly the whole input).  Cost accounting follows
the paper's quadratic program: the executable shipping term
``E_j * b_i`` is paid once per (phone, job) pair — ``u_ij`` is an
indicator — while every KB of input pays ``b_i + c_ij``.

The number of partitions a job was split into (Figure 12b) and the
predicted makespan (compared against the measured makespan in the
prototype evaluation, Figure 12a) are both derived here.
"""

from __future__ import annotations

import math
from collections import defaultdict
from collections.abc import Iterable
from dataclasses import dataclass

from .instance import SchedulingInstance

__all__ = [
    "Assignment",
    "Schedule",
    "ScheduleBuilder",
    "InfeasibleScheduleError",
    "Row",
]

#: One placement as a plain tuple, ``Assignment``'s fields in order:
#: ``(phone_id, job_id, task, input_kb, whole)``.  The packers record
#: these and pod workers ship them; :meth:`Schedule.from_rows` turns
#: them into validated :class:`Assignment` records.
Row = tuple[str, str, str, float, bool]


class InfeasibleScheduleError(Exception):
    """Raised when a scheduler cannot produce a valid schedule."""


@dataclass(frozen=True, slots=True)
class Assignment:
    """One input partition of one job placed on one phone.

    ``input_kb`` is ``l_ij`` for this partition; ``whole`` records
    whether this partition is the job's entire input (used for the
    partition-count statistics of Figure 12b, where an unsplit job is
    reported as having zero partitions).
    """

    phone_id: str
    job_id: str
    task: str
    input_kb: float
    whole: bool

    def __post_init__(self) -> None:
        if not math.isfinite(self.input_kb) or self.input_kb <= 0:
            raise ValueError(f"input_kb must be finite and > 0, got {self.input_kb!r}")


class Schedule:
    """An ordered placement of job partitions onto phones."""

    def __init__(self, assignments: Iterable[Assignment]) -> None:
        self._assignments = tuple(assignments)
        per_phone: dict[str, list[Assignment]] = defaultdict(list)
        for assignment in self._assignments:
            per_phone[assignment.phone_id].append(assignment)
        self._per_phone = {
            phone_id: tuple(items) for phone_id, items in per_phone.items()
        }

    @classmethod
    def from_rows(cls, rows: Iterable[Row]) -> "Schedule":
        """Build a schedule from placement rows (see :data:`Row`)."""
        return cls([Assignment(*row) for row in rows])

    # -- structure ---------------------------------------------------------

    @property
    def assignments(self) -> tuple[Assignment, ...]:
        return self._assignments

    @property
    def phone_ids(self) -> tuple[str, ...]:
        return tuple(self._per_phone)

    def for_phone(self, phone_id: str) -> tuple[Assignment, ...]:
        """Ordered assignments for one phone (empty if none)."""
        return self._per_phone.get(phone_id, ())

    def __len__(self) -> int:
        return len(self._assignments)

    def __iter__(self):
        return iter(self._assignments)

    # -- statistics ----------------------------------------------------------

    def assigned_kb(self, job_id: str) -> float:
        return sum(a.input_kb for a in self._assignments if a.job_id == job_id)

    def partition_counts(self) -> dict[str, int]:
        """Number of partitions per job, in the paper's convention.

        A job assigned whole to a single phone counts as **0** partitions
        (Figure 12b: "an input partition of 0 indicates that the task was
        atomically assigned to a single phone"); a job split into *n*
        pieces counts as *n*.
        """
        raw: dict[str, int] = defaultdict(int)
        whole: dict[str, bool] = {}
        for a in self._assignments:
            raw[a.job_id] += 1
            whole[a.job_id] = a.whole and raw[a.job_id] == 1
        return {
            job_id: 0 if (count == 1 and whole[job_id]) else count
            for job_id, count in raw.items()
        }

    def unsplit_fraction(self) -> float:
        """Fraction of jobs that were not partitioned (≈0.9 in the paper)."""
        counts = self.partition_counts()
        if not counts:
            return 1.0
        return sum(1 for c in counts.values() if c == 0) / len(counts)

    # -- cost accounting -------------------------------------------------

    def predicted_finish_ms(self, instance: SchedulingInstance, phone_id: str) -> float:
        """Predicted completion time of one phone's whole queue.

        The executable term is paid once per (phone, job) pair, matching
        the ``u_ij`` indicator in the paper's program SCH.
        """
        total = 0.0
        shipped: set[str] = set()
        b = instance.b(phone_id)
        for a in self.for_phone(phone_id):
            job = instance.job(a.job_id)
            if a.job_id not in shipped:
                total += job.executable_kb * b
                shipped.add(a.job_id)
            total += a.input_kb * (b + instance.c(phone_id, a.job_id))
        return total

    def predicted_makespan_ms(self, instance: SchedulingInstance) -> float:
        """Predicted makespan ``T`` — the maximum over phone finish times."""
        if not self._per_phone:
            return 0.0
        return max(
            self.predicted_finish_ms(instance, phone_id)
            for phone_id in self._per_phone
        )

    # -- validation --------------------------------------------------------

    def validate(
        self, instance: SchedulingInstance, *, tol_kb: float = 1e-6
    ) -> None:
        """Check the SCH constraints; raise ``InfeasibleScheduleError``.

        * every job's input is fully covered (``sum_i l_ij = L_j``);
        * atomic jobs are placed whole on exactly one phone
          (``sum_i u_ij = 1``);
        * every assignment references a phone and job in the instance.

        Linear in jobs + assignments: one pass groups each job's pieces
        in assignment order, so every job's ``assigned`` total is summed
        over the same floats in the same order as :meth:`assigned_kb`.
        """
        known_phones = {p.phone_id for p in instance.phones}
        pieces_by_job: dict[str, list[Assignment]] = {}
        for a in self._assignments:
            if a.phone_id not in known_phones:
                raise InfeasibleScheduleError(
                    f"assignment references unknown phone {a.phone_id!r}"
                )
            pieces = pieces_by_job.get(a.job_id)
            if pieces is None:
                try:
                    instance.job(a.job_id)
                except KeyError:
                    raise InfeasibleScheduleError(
                        f"assignment references unknown job {a.job_id!r}"
                    ) from None
                pieces = pieces_by_job[a.job_id] = []
            pieces.append(a)
        for job in instance.jobs:
            pieces = pieces_by_job.get(job.job_id, [])
            assigned = sum(a.input_kb for a in pieces)
            if abs(assigned - job.input_kb) > tol_kb:
                raise InfeasibleScheduleError(
                    f"job {job.job_id!r}: assigned {assigned} KB of "
                    f"{job.input_kb} KB input"
                )
            if job.is_atomic:
                if len(pieces) != 1 or not pieces[0].whole:
                    raise InfeasibleScheduleError(
                        f"atomic job {job.job_id!r} must be one whole assignment, "
                        f"got {len(pieces)} pieces"
                    )


class ScheduleBuilder:
    """Mutable accumulator used by schedulers while placing partitions."""

    def __init__(self) -> None:
        self._assignments: list[Assignment] = []

    def place(
        self,
        phone_id: str,
        job_id: str,
        task: str,
        input_kb: float,
        *,
        whole: bool,
    ) -> Assignment:
        assignment = Assignment(
            phone_id=phone_id,
            job_id=job_id,
            task=task,
            input_kb=input_kb,
            whole=whole,
        )
        self._assignments.append(assignment)
        return assignment

    def build(self) -> Schedule:
        return Schedule(self._assignments)

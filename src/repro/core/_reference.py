"""Frozen pre-optimisation scheduler path (reference implementation).

This module preserves, verbatim in behaviour, the original Algorithm-1
packer and capacity bisection as they existed before the scheduler
hot-path overhaul: every ``b_i + c_ij`` cost is re-derived through dict
lookups, the job table is scanned linearly on every :func:`_ref_cost`
call, the item list is fully re-sorted after every partial placement,
all opened bins are re-scanned per placement, and the capacity bounds
are recomputed from scratch on every call.

It exists for two reasons and must not be "improved":

* **golden-schedule equivalence** — the optimised
  :class:`~repro.core.packing.GreedyPacker` and
  :class:`~repro.core.capacity.CapacitySearch` are required to produce
  schedules identical to this reference on any instance
  (``tests/core/test_golden_schedule.py``);
* **speedup accounting** — ``benchmarks/test_bench_fleet_scale.py``
  times this reference against the optimised path and records the
  ratio in ``BENCH_scheduler.json``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .instance import SchedulingInstance
from .model import MIN_PARTITION_KB, Job, completion_time
from .packing import PackingResult
from .schedule import InfeasibleScheduleError, ScheduleBuilder

__all__ = [
    "reference_capacity_bounds",
    "ReferenceGreedyPacker",
    "ReferenceCapacitySearch",
]


def _ref_job(instance: SchedulingInstance, job_id: str) -> Job:
    """The original linear-scan job lookup."""
    for job in instance.jobs:
        if job.job_id == job_id:
            return job
    raise KeyError(f"no job {job_id!r} in instance")


def _ref_cost(
    instance: SchedulingInstance,
    phone_id: str,
    job_id: str,
    input_kb: float | None = None,
) -> float:
    """Equation (1) through the original dict-chain lookups."""
    job = _ref_job(instance, job_id)
    x = job.input_kb if input_kb is None else input_kb
    return completion_time(
        job.executable_kb,
        x,
        instance.b_ms_per_kb[phone_id],
        instance.c_ms_per_kb[(phone_id, job_id)],
    )


def reference_capacity_bounds(
    instance: SchedulingInstance,
) -> tuple[float, float]:
    """The original (lower, upper) bracket, recomputed on every call."""
    upper = max(
        sum(
            _ref_cost(instance, phone.phone_id, job.job_id)
            for job in instance.jobs
        )
        for phone in instance.phones
    )
    lower = 0.0
    for job in instance.jobs:
        aggregate_rate = sum(
            1.0
            / (
                instance.b_ms_per_kb[phone.phone_id]
                + instance.c_ms_per_kb[(phone.phone_id, job.job_id)]
            )
            for phone in instance.phones
            if instance.b_ms_per_kb[phone.phone_id]
            + instance.c_ms_per_kb[(phone.phone_id, job.job_id)]
            > 0
        )
        if aggregate_rate > 0:
            lower += job.input_kb / aggregate_rate
    lower = min(lower, upper)
    return lower, upper


@dataclass(slots=True)
class _Item:
    job: Job
    remaining_kb: float
    key_ms: float = field(default=0.0)

    @property
    def is_whole(self) -> bool:
        return math.isclose(self.remaining_kb, self.job.input_kb)


@dataclass(slots=True)
class _Bin:
    phone_id: str
    height_ms: float = 0.0
    shipped_jobs: set[str] = field(default_factory=set)


class ReferenceGreedyPacker:
    """The original Algorithm-1 packer (sorted list + full bin rescan)."""

    def __init__(
        self,
        instance: SchedulingInstance,
        *,
        min_partition_kb: float = MIN_PARTITION_KB,
        ram=None,
    ) -> None:
        if min_partition_kb <= 0:
            raise ValueError("min_partition_kb must be > 0")
        self._instance = instance
        self._min_partition_kb = min_partition_kb
        self._ram = ram
        slowest = min(
            instance.phones, key=lambda p: (p.cpu_mhz, p.phone_id)
        )
        self._slowest_id = slowest.phone_id

    def pack(self, capacity_ms: float) -> PackingResult:
        if capacity_ms <= 0:
            return PackingResult(feasible=False, capacity_ms=capacity_ms)

        instance = self._instance
        items = [
            _Item(job=job, remaining_kb=job.input_kb) for job in instance.jobs
        ]
        self._resort(items)
        bins: list[_Bin] = []
        unopened = [phone.phone_id for phone in instance.phones]
        builder = ScheduleBuilder()

        while items:
            placed = self._pack_into_opened(items, bins, builder, capacity_ms)
            if placed:
                continue
            if not unopened:
                return PackingResult(feasible=False, capacity_ms=capacity_ms)
            opened = self._open_bin_for(items[0], unopened, bins, capacity_ms)
            if opened is None:
                return PackingResult(feasible=False, capacity_ms=capacity_ms)
            if not self._pack_item_into_bin(
                items, 0, opened, builder, capacity_ms
            ):
                return PackingResult(feasible=False, capacity_ms=capacity_ms)

        max_height = max((b.height_ms for b in bins), default=0.0)
        return PackingResult(
            feasible=True,
            capacity_ms=capacity_ms,
            rows=tuple(
                (a.phone_id, a.job_id, a.task, a.input_kb, a.whole)
                for a in builder.build()
            ),
            max_height_ms=max_height,
            opened_bins=len(bins),
        )

    def _resort(self, items: list[_Item]) -> None:
        for item in items:
            c_s = self._instance.c_ms_per_kb[
                (self._slowest_id, item.job.job_id)
            ]
            item.key_ms = item.remaining_kb * c_s
        items.sort(key=lambda item: (-item.key_ms, item.job.job_id))

    def _exe_cost(self, bin_: _Bin, job: Job) -> float:
        if job.job_id in bin_.shipped_jobs:
            return 0.0
        return job.executable_kb * self._instance.b_ms_per_kb[bin_.phone_id]

    def _per_kb(self, phone_id: str, job: Job) -> float:
        return (
            self._instance.b_ms_per_kb[phone_id]
            + self._instance.c_ms_per_kb[(phone_id, job.job_id)]
        )

    def _fit_kb(self, bin_: _Bin, item: _Item, capacity_ms: float) -> float:
        job = item.job
        headroom = capacity_ms - bin_.height_ms - self._exe_cost(bin_, job)
        if headroom <= 0:
            return 0.0
        per_kb = self._per_kb(bin_.phone_id, job)
        if per_kb <= 0:
            max_kb = item.remaining_kb
        else:
            max_kb = headroom / per_kb
        if self._ram is not None:
            max_kb = self._ram.clamp_fit(bin_.phone_id, max_kb)
            if job.is_atomic and max_kb < item.remaining_kb:
                return 0.0
        if max_kb >= item.remaining_kb * (1.0 - 1e-9):
            return item.remaining_kb
        if job.is_atomic:
            return 0.0
        if max_kb < self._min_partition_kb:
            return 0.0
        if item.remaining_kb - max_kb < self._min_partition_kb:
            max_kb = item.remaining_kb - self._min_partition_kb
            if max_kb < self._min_partition_kb:
                return 0.0
        return max_kb

    def _pack_into_opened(
        self,
        items: list[_Item],
        bins: list[_Bin],
        builder: ScheduleBuilder,
        capacity_ms: float,
    ) -> bool:
        if not bins:
            return False
        for index, item in enumerate(items):
            candidates = [
                bin_
                for bin_ in bins
                if self._fit_kb(bin_, item, capacity_ms) > 0
            ]
            if not candidates:
                continue
            target = min(candidates, key=lambda b: (b.height_ms, b.phone_id))
            return self._pack_item_into_bin(
                items, index, target, builder, capacity_ms
            )
        return False

    def _pack_item_into_bin(
        self,
        items: list[_Item],
        index: int,
        bin_: _Bin,
        builder: ScheduleBuilder,
        capacity_ms: float,
    ) -> bool:
        item = items[index]
        job = item.job
        size_kb = self._fit_kb(bin_, item, capacity_ms)
        if size_kb <= 0:
            return False
        packed_whole_input = item.is_whole and math.isclose(
            size_kb, item.remaining_kb
        )
        cost = self._exe_cost(bin_, job) + size_kb * self._per_kb(
            bin_.phone_id, job
        )
        bin_.height_ms += cost
        bin_.shipped_jobs.add(job.job_id)
        builder.place(
            bin_.phone_id,
            job.job_id,
            job.task,
            size_kb,
            whole=packed_whole_input,
        )
        if math.isclose(size_kb, item.remaining_kb):
            del items[index]
        else:
            item.remaining_kb -= size_kb
            self._resort(items)
        return True

    def _open_bin_for(
        self,
        item: _Item,
        unopened: list[str],
        bins: list[_Bin],
        capacity_ms: float,
    ) -> _Bin | None:
        job = item.job

        def eq1_cost(phone_id: str) -> float:
            return _ref_cost(
                self._instance, phone_id, job.job_id, item.remaining_kb
            )

        for phone_id in sorted(unopened, key=lambda pid: (eq1_cost(pid), pid)):
            candidate = _Bin(phone_id=phone_id)
            if self._fit_kb(candidate, item, capacity_ms) > 0:
                unopened.remove(phone_id)
                bins.append(candidate)
                return candidate
        return None


class ReferenceCapacitySearch:
    """The original bisection: fresh bounds, a pack at every step."""

    def __init__(
        self,
        *,
        epsilon_ms: float = 1.0,
        max_iterations: int = 60,
        min_partition_kb: float | None = None,
        ram=None,
    ) -> None:
        if epsilon_ms <= 0:
            raise ValueError("epsilon_ms must be > 0")
        if max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        self._epsilon_ms = epsilon_ms
        self._max_iterations = max_iterations
        self._min_partition_kb = min_partition_kb
        self._ram = ram

    def run(self, instance: SchedulingInstance):
        from .capacity import CapacitySearchResult

        packer_kwargs = {"ram": self._ram}
        if self._min_partition_kb is not None:
            packer_kwargs["min_partition_kb"] = self._min_partition_kb
        packer = ReferenceGreedyPacker(instance, **packer_kwargs)

        lower, upper = reference_capacity_bounds(instance)
        best: PackingResult | None = None
        iterations = 0

        seed = packer.pack(upper * (1.0 + 1e-9) + 1e-9)
        iterations += 1
        if not seed.feasible:
            raise InfeasibleScheduleError(
                "greedy packing failed even at the upper-bound capacity "
                f"({upper:.3f} ms); the instance is malformed or an atomic "
                "job violates a resource constraint on every phone"
            )
        best = seed

        while upper - lower > self._epsilon_ms and iterations < self._max_iterations:
            mid = (lower + upper) / 2.0
            attempt = packer.pack(mid)
            iterations += 1
            if attempt.feasible:
                upper = mid
                best = attempt
            else:
                lower = mid

        assert best is not None and best.schedule is not None
        bounds = reference_capacity_bounds(instance)
        return CapacitySearchResult(
            rows=best.rows,
            capacity_ms=best.capacity_ms,
            max_height_ms=best.max_height_ms,
            lower_bound_ms=bounds[0],
            upper_bound_ms=bounds[1],
            packer_passes=iterations,
            bisection_steps=iterations,
        )

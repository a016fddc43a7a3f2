"""Algorithm 1: greedy packing for the complementary bin-packing problem.

The paper attacks the NP-hard makespan problem SCH through its
complementary bin-packing problem (CBP): pack all job inputs into at
most ``|P|`` bins (phones) of capacity ``C`` (milliseconds of predicted
work, Equation 1), minimising the maximum bin height.  This module
implements the inner loop — *can all items be packed with capacity
``C``?* — exactly as Algorithm 1 prescribes:

1. keep items sorted in decreasing order of remaining local execution
   time ``R_j * c_sj`` on the slowest phone ``s``;
2. repeatedly find the *first* (largest) item that fits in any opened
   bin and pack it into the minimum-height bin that accepts it,
   preferring to pack the item whole and otherwise packing the largest
   partition that fits;
3. when nothing fits, open the bin (phone) that would run the largest
   item with the smallest Equation-1 cost;
4. fail if items remain and no bin can be opened.

Cost accounting matches program SCH: a phone pays the executable
shipping cost ``E_j * b_i`` only for the *first* partition of job ``j``
it receives (``u_ij`` is an indicator variable).

Atomic jobs are never partitioned — they either fit whole or the
capacity is infeasible.  Breakable jobs are never split below
``MIN_PARTITION_KB`` (the cost model's own unit of account), which also
guarantees termination of the packing loop.

Hot-path structure
------------------
The placement loop is the innermost loop of the whole system — the
capacity bisection calls :meth:`GreedyPacker.pack` dozens of times per
scheduling instant — so this implementation avoids the naive
O(items × bins) rescan per placement without changing a single packing
decision:

* **dense costs** — ``b_i``, ``c_sj`` and ``b_i + c_ij`` come from the
  instance's position-indexed arrays, not per-call dict chains;
* **min-height bin index** — opened bins are kept sorted by
  ``(height, phone_id)``; scanning that order and taking the *first*
  bin that accepts an item yields exactly the minimum-height fitting
  bin Algorithm 1 asks for, usually after probing one or two bins;
* **incremental item keys** — only the item just split changes its sort
  key, so it alone is re-inserted (``bisect.insort``) instead of
  re-keying and re-sorting the whole list;
* **failure marks** — once an item fails to fit in every opened bin it
  is skipped until something that could change that verdict happens.
  Bin heights only ever grow, and a bin's shipped-executable set only
  affects the fit of its own job (whose mark is cleared the moment the
  item shrinks), so the only event that can turn "fits nowhere" into
  "fits somewhere" is a *new* bin opening — marks are therefore epoch
  stamps invalidated by bin openings.
* **cached opening costs** — a bin opening (Line 15) evaluates
  Equation 1 over every unopened phone.  Each packer builds, on a job's
  first opening, the job's ``E_j * b_i`` and ``b_i + c_ij`` lists by
  phone position (the same float products the cost expression
  computes), so an opening is one list comprehension of
  ``exe + remaining * rate`` and a C-level ``min``.  Unopened phones
  are kept in ``phone_id`` order, so the *first* minimal cost is the
  ``(cost, phone_id)`` minimum Algorithm 1's tie-break asks for; the
  rare path (the cheapest phone rejects) walks the rest in that same
  order, sorted stably by cost;
* **one fit per placement** — the size ``_fit_kb`` computed while
  choosing a bin (at opening, or in the scan over opened bins) goes
  straight into the placement, and a fresh bin enters the sorted list
  once, at its post-placement height;
* **rows, not records** — placements are recorded as plain
  ``(phone_id, job_id, task, input_kb, whole)`` tuples
  (:data:`~repro.core.schedule.Row`).  A capacity search runs a dozen
  packs and keeps one, so :class:`PackingResult` builds its
  :class:`~repro.core.schedule.Assignment` records (and their
  validation) only when ``schedule`` is first read.

``tests/core/test_golden_schedule.py`` pins this packer to the frozen
pre-optimisation reference (:mod:`repro.core._reference`) schedule for
byte-for-byte equality.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from functools import cached_property

from .instance import SchedulingInstance
from .model import MIN_PARTITION_KB, Job
from .schedule import Row, Schedule

__all__ = ["GreedyPacker", "PackingResult"]


@dataclass(slots=True)
class _Item:
    """A job together with the input that is still unpacked."""

    job: Job
    job_pos: int
    remaining_kb: float
    #: Sort key: remaining execution time on the slowest phone.
    key_ms: float = field(default=0.0)
    #: Epoch (bin-opening count) at which this item last failed to fit
    #: in every opened bin; -1 means "unknown, must be probed".
    failed_epoch: int = field(default=-1)

    @property
    def is_whole(self) -> bool:
        return math.isclose(self.remaining_kb, self.job.input_kb)


@dataclass(slots=True)
class _Bin:
    """One opened phone: its accumulated height and shipped executables."""

    phone_id: str
    phone_pos: int
    height_ms: float = 0.0
    shipped_jobs: set[str] = field(default_factory=set)


@dataclass(frozen=True)
class PackingResult:
    """Outcome of one packing attempt at a fixed capacity.

    A feasible collecting pack records its placements as plain
    :data:`~repro.core.schedule.Row` tuples in ``rows``; ``schedule``
    builds (and validates) the :class:`~repro.core.schedule.Assignment`
    records from them on first read, so a pack whose result is
    discarded builds none.  Both are ``None`` for infeasible and
    verdict-only packs.
    """

    feasible: bool
    capacity_ms: float
    rows: tuple[Row, ...] | None = None
    max_height_ms: float = 0.0
    opened_bins: int = 0

    @cached_property
    def schedule(self) -> Schedule | None:
        return None if self.rows is None else Schedule.from_rows(self.rows)


def _item_key(item: _Item) -> tuple[float, str]:
    return (-item.key_ms, item.job.job_id)


def _bin_key(bin_: _Bin) -> tuple[float, str]:
    return (bin_.height_ms, bin_.phone_id)


class GreedyPacker:
    """Runs Algorithm 1 at a fixed bin capacity.

    Parameters
    ----------
    instance:
        The scheduling instance (jobs, phones, ``b_i``, ``c_ij``).
    min_partition_kb:
        Smallest breakable-job partition the packer will create.
    """

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
        #: Always-on pack statistics: plain attribute updates cheap
        #: enough for the kernel hot path (two clock reads per pack,
        #: against packs that cost fractions of a millisecond at
        #: minimum).  The capacity search forwards these into the
        #: telemetry registry when a facade is armed.
        self.packs_issued = 0
        self.last_pack_wall_ms = 0.0
        self.total_pack_wall_ms = 0.0
        self.last_pack_feasible = False
        self.last_pack_bins = 0
        #: Optional RamConstraint (footnote 4: l_ij <= r_i).
        self._ram = ram
        self._slowest_id = instance.slowest_phone().phone_id
        # Dense, position-indexed views shared with the instance.
        self._b = instance.b_vector()
        self._per_kb_rows = instance.per_kb_rows()
        self._c_slowest = instance.c_row(
            instance.phone_position(self._slowest_id)
        )
        # Fleet-wide best (smallest) per-KB rate per job.  Taking a
        # minimum involves no arithmetic, so numpy is exact here; the
        # values feed the *conservative* height cutoffs below, which
        # only ever skip bins that would certainly reject an item.
        self._min_per_kb = instance.per_kb_matrix().min(axis=0).tolist()
        # The cheapest placement any item could ever need: the smallest
        # first-partition at the fleet's best rate.  Once every opened
        # bin is fuller than (capacity - this), no placement can happen.
        self._universal_min_need = min(
            (
                min(job.input_kb, min_partition_kb)
                * self._min_per_kb[pos]
                * (1.0 - 1e-9)
                for pos, job in enumerate(instance.jobs)
            ),
            default=0.0,
        )
        self._phone_ids = [phone.phone_id for phone in instance.phones]
        #: Phone positions in ``phone_id`` order.  A bin opening scans
        #: the unopened phones in this order and takes the first minimal
        #: cost, which breaks equal Equation-1 costs by the smallest
        #: ``phone_id``.
        self._by_id = sorted(
            range(len(self._phone_ids)), key=self._phone_ids.__getitem__
        )
        #: Per-job opening costs by phone position, built on a job's
        #: first bin opening: ``(E_j * b_i, b_i + c_ij)`` lists, the
        #: same float products Equation 1 evaluates.
        self._open_costs: list[tuple[list[float], list[float]] | None] = [
            None
        ] * len(instance.jobs)

    # -- public API --------------------------------------------------------

    def pack(self, capacity_ms: float) -> PackingResult:
        """Attempt to pack every job within bins of ``capacity_ms``."""
        started = time.perf_counter()
        result = self._pack_impl(capacity_ms)
        self._note_pack(result, started)
        return result

    def _note_pack(self, result: PackingResult, started_s: float) -> None:
        wall_ms = (time.perf_counter() - started_s) * 1000.0
        self.packs_issued += 1
        self.last_pack_wall_ms = wall_ms
        self.total_pack_wall_ms += wall_ms
        self.last_pack_feasible = result.feasible
        self.last_pack_bins = result.opened_bins

    def _pack_impl(self, capacity_ms: float) -> PackingResult:
        if capacity_ms <= 0:
            return PackingResult(feasible=False, capacity_ms=capacity_ms)

        instance = self._instance
        c_s = self._c_slowest
        items = [
            _Item(
                job=job,
                job_pos=pos,
                remaining_kb=job.input_kb,
                key_ms=job.input_kb * c_s[pos],
            )
            for pos, job in enumerate(instance.jobs)
        ]
        items.sort(key=_item_key)
        #: Opened bins, always sorted by (height_ms, phone_id).
        bins: list[_Bin] = []
        #: Unopened phone positions, kept in phone_id order.
        unopened = self._by_id.copy()
        #: Bin-opening epoch; bumping it invalidates all failure marks.
        epoch = 0
        rows: list[Row] = []

        while items:
            if self._pack_into_opened(items, bins, epoch, rows, capacity_ms):
                continue
            if not unopened:
                return PackingResult(feasible=False, capacity_ms=capacity_ms)
            opened = self._open_bin_for(items[0], unopened, capacity_ms)
            if opened is None:
                return PackingResult(feasible=False, capacity_ms=capacity_ms)
            epoch += 1
            # Pack the largest item into the bin just opened, at the
            # size the opening already fitted.
            self._pack_item_into_bin(
                items, 0, opened[0], opened[1], bins, rows, fresh=True
            )

        max_height = max((b.height_ms for b in bins), default=0.0)
        return PackingResult(
            feasible=True,
            capacity_ms=capacity_ms,
            max_height_ms=max_height,
            opened_bins=len(bins),
            rows=tuple(rows),
        )

    # -- internals -----------------------------------------------------------

    def _exe_cost(self, bin_: _Bin, job: Job) -> float:
        """Executable shipping cost, zero if this bin already holds it."""
        if job.job_id in bin_.shipped_jobs:
            return 0.0
        return job.executable_kb * self._b[bin_.phone_pos]

    def _fit_kb(self, bin_: _Bin, item: _Item, capacity_ms: float) -> float:
        """Largest partition of ``item`` that fits in ``bin_`` (0 if none).

        For atomic items the answer is all-or-nothing.  For breakable
        items, the returned size is capped at the remaining input and
        floored at the minimum partition granularity.
        """
        job = item.job
        headroom = capacity_ms - bin_.height_ms - self._exe_cost(bin_, job)
        if headroom <= 0:
            return 0.0
        per_kb = self._per_kb_rows[bin_.phone_pos][item.job_pos]
        if per_kb <= 0:  # free transfer and compute: everything fits
            max_kb = item.remaining_kb
        else:
            max_kb = headroom / per_kb
        if self._ram is not None:
            # Footnote 4: a partition must fit in the phone's memory.
            max_kb = self._ram.clamp_fit(bin_.phone_id, max_kb)
            if job.is_atomic and max_kb < item.remaining_kb:
                return 0.0
        # Tolerate one part in 10^9 so exact-fit capacities (e.g. the
        # search's upper bound) are not rejected by rounding error.
        if max_kb >= item.remaining_kb * (1.0 - 1e-9):
            return item.remaining_kb
        if job.is_atomic:
            return 0.0
        if max_kb < self._min_partition_kb:
            return 0.0
        # Never leave a sliver smaller than the granularity behind.
        if item.remaining_kb - max_kb < self._min_partition_kb:
            max_kb = item.remaining_kb - self._min_partition_kb
            if max_kb < self._min_partition_kb:
                return 0.0
        return max_kb

    def _pack_into_opened(
        self,
        items: list[_Item],
        bins: list[_Bin],
        epoch: int,
        rows: list[Row],
        capacity_ms: float,
    ) -> bool:
        """Line 4: first item in L that fits in any opened bin.

        Packs it into the minimum-height bin that accepts it and returns
        True; returns False when no (item, opened bin) pair fits.  Items
        whose failure mark is current are skipped without re-probing —
        nothing that happened since can have made them fit (see module
        docstring).  ``bins`` is sorted by ``(height, phone_id)``, so
        the first bin that accepts an item *is* Algorithm 1's
        minimum-height fitting bin.
        """
        if not bins:
            return False
        # Global cutoff: the emptiest bin cannot host even the cheapest
        # conceivable placement — nothing fits, skip the whole scan.
        if bins[0].height_ms > capacity_ms - self._universal_min_need:
            return False
        min_partition = self._min_partition_kb
        min_per_kb = self._min_per_kb
        for index, item in enumerate(items):
            if item.failed_epoch == epoch:
                continue
            # Per-item cutoff: accepting this item needs headroom of at
            # least its smallest legal placement at the fleet's best
            # rate (executable cost >= 0 ignored — conservative).  Bins
            # are sorted by height, so past the cutoff every remaining
            # bin certainly rejects and the old full scan would have
            # returned no candidates for them anyway.
            x = item.remaining_kb
            if not item.job.is_atomic and x > min_partition:
                x = min_partition
            h_max = capacity_ms - x * min_per_kb[item.job_pos] * (1.0 - 1e-9)
            for bin_ in bins:
                if bin_.height_ms > h_max:
                    break
                size_kb = self._fit_kb(bin_, item, capacity_ms)
                if size_kb > 0:
                    self._pack_item_into_bin(
                        items, index, bin_, size_kb, bins, rows
                    )
                    return True
            item.failed_epoch = epoch
        return False

    def _pack_item_into_bin(
        self,
        items: list[_Item],
        index: int,
        bin_: _Bin,
        size_kb: float,
        bins: list[_Bin],
        rows: list[Row],
        *,
        fresh: bool = False,
    ) -> None:
        """Pack ``size_kb`` of items[index] into ``bin_``.

        ``size_kb`` is the caller's ``_fit_kb`` verdict (> 0).  A
        ``fresh`` bin is not in ``bins`` yet and is inserted once, at
        its post-placement height.
        """
        item = items[index]
        job = item.job
        close = math.isclose(size_kb, item.remaining_kb)
        packed_whole_input = close and item.is_whole
        cost = self._exe_cost(bin_, job) + size_kb * (
            self._per_kb_rows[bin_.phone_pos][item.job_pos]
        )
        if not fresh:
            # The bin's sort key is about to change: pull it out of the
            # sorted index and re-insert it at its new height.  Keys
            # are unique (phone_id breaks height ties), so bisect finds
            # the bin.
            del bins[bisect_left(bins, _bin_key(bin_), key=_bin_key)]
        bin_.height_ms += cost
        bin_.shipped_jobs.add(job.job_id)
        insort(bins, bin_, key=_bin_key)
        rows.append(
            (bin_.phone_id, job.job_id, job.task, size_kb, packed_whole_input)
        )
        if close:
            del items[index]  # line 8: packed as a whole (of what remained)
        else:
            # Line 10: reinsert the remainder.  Only this item's key
            # changed, so one insort restores the exact order a full
            # re-sort would produce (keys are unique — job_id ties).
            del items[index]
            item.remaining_kb -= size_kb
            item.key_ms = item.remaining_kb * self._c_slowest[item.job_pos]
            item.failed_epoch = -1
            insort(items, item, key=_item_key)

    def _job_open_costs(self, job_pos: int) -> tuple[list[float], list[float]]:
        """``(E_j * b_i, b_i + c_ij)`` by phone position for one job."""
        costs = self._open_costs[job_pos]
        if costs is None:
            exe_kb = self._instance.jobs[job_pos].executable_kb
            costs = self._open_costs[job_pos] = (
                [exe_kb * b for b in self._b],
                self._instance.per_kb_matrix()[:, job_pos].tolist(),
            )
        return costs

    def _open_bin_for(
        self, item: _Item, unopened: list[int], capacity_ms: float
    ) -> tuple[_Bin, float] | None:
        """Line 15: open the best unopened bin for the largest item.

        The best bin is the phone that would run the item with the
        minimum Equation-1 cost.  If the item does not fit there (not
        even a minimum partition), the remaining unopened bins are tried
        in increasing order of that cost before giving up.  Returns the
        new bin (not yet in the sorted bin list) and the size fitted
        into it, and removes its phone from ``unopened``.
        """
        exe_b, per_kb = self._job_open_costs(item.job_pos)
        remaining = item.remaining_kb
        # Fast path: the cheapest phone almost always accepts a freshly
        # opened bin.  ``unopened`` is in phone_id order, so the first
        # minimal cost is the (cost, phone_id) minimum.
        costs = [exe_b[pos] + remaining * per_kb[pos] for pos in unopened]
        best_k = costs.index(min(costs))
        pos = unopened[best_k]
        candidate = _Bin(phone_id=self._phone_ids[pos], phone_pos=pos)
        size_kb = self._fit_kb(candidate, item, capacity_ms)
        if size_kb > 0:
            del unopened[best_k]
            return candidate, size_kb
        # Rare path: the cheapest phone rejects (RAM / atomic job too
        # large).  Try the rest in (cost, phone_id) order; the sort is
        # stable over the phone_id order of ``unopened``.
        rest = sorted(
            (k for k in range(len(unopened)) if k != best_k),
            key=costs.__getitem__,
        )
        for k in rest:
            pos = unopened[k]
            candidate = _Bin(phone_id=self._phone_ids[pos], phone_pos=pos)
            size_kb = self._fit_kb(candidate, item, capacity_ms)
            if size_kb > 0:
                del unopened[k]
                return candidate, size_kb
        return None

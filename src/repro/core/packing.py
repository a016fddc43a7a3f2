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

* **flat state** — a pack holds no per-item or per-bin objects.  Items
  are per-job-position ``remaining``/failure-epoch/cutoff lists plus
  one list of ``(-key_ms, job_id, job_pos)`` tuples sorted by
  Algorithm 1's order; opened bins are one list of ``(height_ms, phone_id,
  phone_pos)`` tuples sorted by ``(height, phone_id)``; shipped
  executables are one set of ``(phone_pos, job_pos)`` pairs.  Keys are
  unique (``job_id`` / ``phone_id`` break ties), so ``bisect.insort``
  orders the tuples in C and never compares positions;
* **dense costs** — ``b_i``, ``c_sj`` and ``b_i + c_ij`` come from the
  instance's position-indexed arrays, and a phone's class-shared per-KB
  row is fetched once per packer, when its bin first opens;
* **min-height bin scan** — walking the sorted bins and taking the
  *first* bin that accepts an item yields exactly the minimum-height
  fitting bin Algorithm 1 asks for, usually after probing one or two
  bins;
* **incremental item order** — only the item just split changes its
  sort key, so it alone is re-inserted instead of re-sorting the list;
* **failure marks** — once an item fails to fit in every opened bin it
  is skipped until something that could change that verdict happens.
  Bin heights only ever grow, and a bin's shipped executables only
  affect the fit of their own job (whose mark is cleared the moment the
  item shrinks), so the only event that can turn "fits nowhere" into
  "fits somewhere" is a *new* bin opening — marks are therefore epoch
  stamps invalidated by bin openings;
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
* **one fit rule on plain values** — :func:`fit_kb` takes the bin's
  headroom and rate and the item's remaining size, and both kernels
  call it.  The size it returns while choosing a bin goes straight into
  the placement, and a fresh bin enters the sorted list once, at its
  post-placement height;
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
from bisect import insort
from dataclasses import dataclass
from functools import cached_property

from .instance import SchedulingInstance
from .model import MIN_PARTITION_KB
from .schedule import Row, Schedule

__all__ = ["GreedyPacker", "PackingResult", "fit_kb"]


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


def fit_kb(
    headroom_ms: float,
    per_kb: float,
    remaining_kb: float,
    atomic: bool,
    min_partition_kb: float,
    cap_kb: float | None,
) -> float:
    """Largest partition of an item that fits a bin (0 if none).

    ``headroom_ms`` is the bin's capacity left after its height and the
    job's executable shipping cost (zero if the bin already holds the
    executable), ``per_kb`` the bin's Equation-1 rate for the job and
    ``cap_kb`` its phone's RAM cap (footnote 4), or None.  Atomic items
    fit whole or not at all; a breakable item's partition is capped at
    the remaining input and never smaller than ``min_partition_kb``,
    nor leaves a smaller sliver behind.
    """
    if headroom_ms <= 0:
        return 0.0
    if per_kb <= 0:  # free transfer and compute: everything fits
        max_kb = remaining_kb
    else:
        max_kb = headroom_ms / per_kb
    if cap_kb is not None:
        max_kb = min(max_kb, cap_kb)
        if atomic and max_kb < remaining_kb:
            return 0.0
    # Tolerate one part in 10^9 so exact-fit capacities (e.g. the
    # search's upper bound) are not rejected by rounding error.
    if max_kb >= remaining_kb * (1.0 - 1e-9):
        return remaining_kb
    if atomic or max_kb < min_partition_kb:
        return 0.0
    # Never leave a sliver smaller than the granularity behind.
    if remaining_kb - max_kb < min_partition_kb:
        max_kb = remaining_kb - min_partition_kb
        if max_kb < min_partition_kb:
            return 0.0
    return max_kb


def _min_need_ms(
    remaining_kb: float, atomic: bool, min_partition_kb: float, rate: float
) -> float:
    """Headroom below which no bin can take the item's smallest placement.

    The smallest legal placement (the whole remainder if atomic or
    below one minimum partition) at the fleet's best rate ``rate``,
    less one part in 10^9; executable costs (>= 0) are ignored, so the
    cutoff is conservative.
    """
    x = remaining_kb
    if not atomic and x > min_partition_kb:
        x = min_partition_kb
    return x * rate * (1.0 - 1e-9)


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
        self._phone_ids = [phone.phone_id for phone in instance.phones]
        #: Footnote 4's RAM cap (``l_ij <= r_i``) by phone position, from
        #: the optional RamConstraint ``ram`` (None: unconstrained).
        self._ram_caps = (
            [None] * len(self._phone_ids)
            if ram is None
            else [ram.clamp_fit(pid, math.inf) for pid in self._phone_ids]
        )
        slowest_id = instance.slowest_phone().phone_id
        # Dense, position-indexed views shared with the instance.
        self._b = instance.b_vector()
        self._per_kb_rows = instance.per_kb_rows()
        self._c_slowest = instance.c_row(instance.phone_position(slowest_id))
        jobs = instance.jobs
        self._job_ids = [job.job_id for job in jobs]
        self._tasks = [job.task for job in jobs]
        self._input_kb = [job.input_kb for job in jobs]
        self._exe_kb = [job.executable_kb for job in jobs]
        self._atomic = [job.is_atomic for job in jobs]
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
                min(x, min_partition_kb) * rate * (1.0 - 1e-9)
                for x, rate in zip(self._input_kb, self._min_per_kb)
            ),
            default=0.0,
        )
        #: Phone positions in ``phone_id`` order.  A bin opening scans
        #: the unopened phones in this order and takes the first minimal
        #: cost, which breaks equal Equation-1 costs by the smallest
        #: ``phone_id``.
        self._by_id = sorted(
            range(len(self._phone_ids)), key=self._phone_ids.__getitem__
        )
        #: Per-KB row by phone position, fetched from the instance's
        #: class-shared rows when the phone's bin first opens.
        self._bin_rows: list[list[float] | None] = [None] * len(
            self._phone_ids
        )
        #: Per-job opening costs by phone position, built on a job's
        #: first bin opening: ``(E_j * b_i, b_i + c_ij)`` lists, the
        #: same float products Equation 1 evaluates.
        self._open_costs: list[tuple[list[float], list[float]] | None] = [
            None
        ] * len(jobs)

    def _item_order(self) -> list[tuple[float, str, int]]:
        """Algorithm 1's starting item order, capacity-independent.

        ``(-key_ms, job_id, job_pos)`` tuples in decreasing remaining
        time on the slowest phone ``s``, ties by ``job_id``.
        """
        return sorted(
            (-(x * c_s), job_id, pos)
            for pos, (x, c_s, job_id) in enumerate(
                zip(self._input_kb, self._c_slowest, self._job_ids)
            )
        )

    @cached_property
    def _items0(self) -> list[tuple[float, str, int]]:
        """Every pack's starting item order (built on the first pack)."""
        return self._item_order()

    @cached_property
    def _need0(self) -> list[float]:
        """Every pack's starting cutoffs: ``_min_need_ms`` of each input."""
        return [
            _min_need_ms(x, atomic, self._min_partition_kb, rate)
            for x, atomic, rate in zip(
                self._input_kb, self._atomic, self._min_per_kb
            )
        ]

    # -- public API --------------------------------------------------------

    def pack(self, capacity_ms: float) -> PackingResult:
        """Attempt to pack every job within bins of ``capacity_ms``."""
        if capacity_ms <= 0:
            return PackingResult(feasible=False, capacity_ms=capacity_ms)

        isclose = math.isclose
        min_partition = self._min_partition_kb
        caps = self._ram_caps
        b = self._b
        exe_kb = self._exe_kb
        atomic = self._atomic
        input_kb = self._input_kb
        bin_rows = self._bin_rows
        remaining = input_kb.copy()
        #: Per-item cutoff: a bin taller than ``capacity - need`` cannot
        #: take the item's smallest placement.
        need = self._need0.copy()
        #: Epoch (bin-opening count) at which each item last failed to
        #: fit every opened bin; -1 means "must be probed".
        failed = [-1] * len(remaining)
        items = self._items0.copy()
        #: Opened bins, always sorted by (height_ms, phone_id).
        bins: list[tuple[float, str, int]] = []
        shipped: set[tuple[int, int]] = set()
        #: Unopened phone positions, kept in phone_id order.
        unopened = self._by_id.copy()
        #: Bin-opening epoch; bumping it invalidates all failure marks.
        epoch = 0
        rows: list[Row] = []
        # Global cutoff: once the emptiest bin is taller than this, it
        # cannot host even the cheapest conceivable placement.
        full = capacity_ms - self._universal_min_need

        while items:
            # Line 4: the first item in L that fits an opened bin, into
            # the minimum-height bin that accepts it.  Items whose
            # failure mark is current are skipped without re-probing.
            hit = -1
            if bins and bins[0][0] <= full:
                for index, (_, _, pos) in enumerate(items):
                    if failed[pos] == epoch:
                        continue
                    # Bins are sorted by height, so past the item's
                    # cutoff every remaining bin certainly rejects.
                    h_max = capacity_ms - need[pos]
                    rem = remaining[pos]
                    for bin_index, (height, _, ppos) in enumerate(bins):
                        if height > h_max:
                            break
                        headroom = capacity_ms - height
                        if (ppos, pos) not in shipped:
                            headroom -= exe_kb[pos] * b[ppos]
                        size_kb = fit_kb(
                            headroom,
                            bin_rows[ppos][pos],
                            rem,
                            atomic[pos],
                            min_partition,
                            caps[ppos],
                        )
                        if size_kb > 0:
                            hit = index
                            break
                    if hit >= 0:
                        break
                    failed[pos] = epoch
            if hit >= 0:
                height, phone_id, ppos = bins.pop(bin_index)
                per_kb = bin_rows[ppos][pos]
            else:
                # Line 15: open a bin for the largest item, and pack it
                # there at the size the opening fitted.
                if not unopened:
                    return PackingResult(
                        feasible=False, capacity_ms=capacity_ms
                    )
                hit = 0
                pos = items[0][2]
                opened = self._open_bin(
                    pos, remaining[pos], unopened, capacity_ms
                )
                if opened is None:
                    return PackingResult(
                        feasible=False, capacity_ms=capacity_ms
                    )
                ppos, size_kb = opened
                epoch += 1
                height = 0.0
                phone_id = self._phone_ids[ppos]
                row = bin_rows[ppos]
                if row is None:
                    row = bin_rows[ppos] = self._per_kb_rows[ppos]
                per_kb = row[pos]

            # Place ``size_kb`` of item ``pos`` into bin ``ppos``; a
            # fresh bin enters the sorted list once, here.
            rem = remaining[pos]
            close = isclose(size_kb, rem)
            if (ppos, pos) in shipped:
                # A shipped executable would add an exact 0.0, and
                # ``0.0 + y == y`` bitwise for the non-negative term.
                cost = size_kb * per_kb
            else:
                cost = exe_kb[pos] * b[ppos] + size_kb * per_kb
                shipped.add((ppos, pos))
            insort(bins, (height + cost, phone_id, ppos))
            _, job_id, _ = items.pop(hit)
            rows.append(
                (
                    phone_id,
                    job_id,
                    self._tasks[pos],
                    size_kb,
                    close and isclose(rem, input_kb[pos]),
                )
            )
            if not close:
                # Line 10: reinsert the remainder.  Only this item's
                # key changed, so one insort restores the exact order a
                # full re-sort would produce (keys are unique).
                remaining[pos] = rem = rem - size_kb
                failed[pos] = -1
                # Only a split item (breakable) gets here, and its
                # cutoff depends on the remainder only below one
                # minimum partition.
                if rem <= min_partition:
                    need[pos] = _min_need_ms(
                        rem, False, min_partition, self._min_per_kb[pos]
                    )
                insort(items, (-(rem * self._c_slowest[pos]), job_id, pos))

        return PackingResult(
            feasible=True,
            capacity_ms=capacity_ms,
            max_height_ms=bins[-1][0] if bins else 0.0,
            opened_bins=len(bins),
            rows=tuple(rows),
        )

    # -- internals -----------------------------------------------------------

    def _open_bin(
        self,
        job_pos: int,
        remaining_kb: float,
        unopened: list[int],
        capacity_ms: float,
    ) -> tuple[int, float] | None:
        """Line 15: open the best unopened bin for the largest item.

        The best bin is the phone that would run the item with the
        minimum Equation-1 cost.  If the item does not fit there (not
        even a minimum partition), the remaining unopened bins are tried
        in increasing order of that cost before giving up.  Returns the
        opened phone's position and the size fitted into it, and removes
        the phone from ``unopened``.
        """
        costs = self._open_costs[job_pos]
        if costs is None:
            exe_kb = self._exe_kb[job_pos]
            costs = self._open_costs[job_pos] = (
                [exe_kb * b for b in self._b],
                self._instance.per_kb_matrix()[:, job_pos].tolist(),
            )
        exe_b, per_kb = costs
        # Fast path: the cheapest phone almost always accepts a freshly
        # opened bin.  ``unopened`` is in phone_id order, so the first
        # minimal cost is the (cost, phone_id) minimum.
        costs = [exe_b[pos] + remaining_kb * per_kb[pos] for pos in unopened]
        order = [costs.index(min(costs))]
        for k in order:
            pos = unopened[k]
            size_kb = fit_kb(
                capacity_ms - exe_b[pos],
                per_kb[pos],
                remaining_kb,
                self._atomic[job_pos],
                self._min_partition_kb,
                self._ram_caps[pos],
            )
            if size_kb > 0:
                del unopened[k]
                return pos, size_kb
            if len(order) == 1:
                # Rare path: the cheapest phone rejects (RAM / atomic
                # job too large).  The loop goes on over the rest in
                # (cost, phone_id) order; the sort is stable over the
                # phone_id order of ``unopened``.
                order += sorted(
                    (j for j in range(len(unopened)) if j != k),
                    key=costs.__getitem__,
                )
        return None

"""NumPy-vectorized backend for Algorithm 1 (the greedy CBP packer).

:class:`VectorGreedyPacker` produces schedules *byte-identical* to
:class:`~repro.core.packing.GreedyPacker` (and therefore to the frozen
reference in :mod:`repro.core._reference`) while replacing the packer's
per-placement Python scans with dense float64 array operations.  The
scalar backend stays the exact oracle; this module is pure mechanism.

Dense mirrors
-------------
The kernel mirrors the packer's authoritative Python structures in
preallocated arrays that are repaired in place on every placement:

* the sorted item order as an ``intp`` position array (``_order_buf``),
  shifted exactly as the list's ``insort`` moves the split remainder;
* the sorted bin list as parallel height / phone-position / opening-
  epoch arrays (``_bh_buf`` / ``_bpos_buf`` / ``_bep_buf``);
* per-job remaining sizes, failure-mark epochs, and a dense
  ``phones × jobs`` shipped-executable mask;
* static per-instance matrices: the Equation-1 ``b_i + c_ij`` per-KB
  rates (:meth:`SchedulingInstance.per_kb_matrix`), executable sizes,
  atomicity flags, and optional per-phone RAM caps.

Scan strategy
-------------
Each scan (Line 4 of Algorithm 1: first unmarked item that fits in an
opened bin) runs in two stages:

* **scalar head** — the first few walked items are probed with the
  shared scalar fit rule (:func:`~repro.core.packing.fit_kb`), bin by
  bin with the scalar walk's early cutoff.  Scans on feasible packs
  almost always place one of these items, and a handful of ~1 µs
  scalar probes beats any array call overhead;
* **vectorized tail** — if the head fails, the remaining walked items
  are processed in geometrically growing row chunks, each chunk
  evaluating the entire fit test (headroom, per-KB rate, whole-fit
  tolerance, minimum-partition and sliver rules, RAM clamp, shipped-
  executable discount) as one 2-D ``items × candidate bins`` float64
  block.  Row-major ``argmax`` over the block is the scalar's "first
  item that fits, into its first accepting bin".

The tail exploits one pruning fact, which keeps the blocks narrow on
infeasible packs: a failure mark proves the item fits *no bin that
existed when the mark was set*, and that verdict is monotone — bin
heights only grow, and a bin's executable discount for the item can
only appear by packing a partition of the item itself, which resets
the mark.  (The fit verdict is monotone in headroom: the sliver rule's
``remaining - minimum`` branch does not depend on headroom, so growth
never turns a rejection into a fit.)  An item marked at epoch ``e``
therefore only needs probing against bins opened after ``e``; older
columns are dropped as provably rejecting.

Bin opening (Line 15) is one fused Equation-1 array expression over
the unopened phones with an exact-equality ``phone_id`` tie-break.
The size fitted at opening goes straight into the placement, which
inserts the fresh bin into the sorted list and its mirrors once, at
its post-placement height.  Collecting packs record plain placement
rows, as the scalar kernel does (see :mod:`repro.core.packing`), so
``Assignment`` records are built only for the schedule a caller reads.

Why this is byte-identical
--------------------------
Elementwise IEEE-754 float64 arithmetic is bit-identical between numpy
and scalar Python, and every vectorized expression reproduces the
scalar operation order term for term, so each computed (item, bin) fit
verdict matches the scalar verdict exactly; every *skipped* pair is
one the pruning argument proves the scalar probe would also reject.
The sizes actually placed are still computed by the shared scalar fit
rule on plain Python floats and placed by ``_place_and_sync``, which
follows the scalar kernel's placement statement for statement — the
arrays only decide which probes to run and which items to skip.

``tests/core/test_packing_vec.py`` pins this kernel pack-by-pack to the
scalar backend, and ``tests/core/test_golden_schedule.py`` pins full
capacity searches under both kernels to the frozen reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .instance import SchedulingInstance
from .model import MIN_PARTITION_KB, Job
from .packing import GreedyPacker, PackingResult, fit_kb
from .schedule import Row

__all__ = ["VectorGreedyPacker"]

#: Walked items probed with the scalar fit rule before switching to 2-D
#: blocks.  Feasible-pack scans nearly always place one of these.
_SCALAR_HEAD = 4

#: First vectorized row-chunk size; grows geometrically afterwards.
_CHUNK_ROWS = 128


@dataclass(slots=True)
class _Item:
    """A job together with the input that is still unpacked."""

    job: Job
    job_pos: int
    remaining_kb: float


@dataclass(slots=True)
class _Bin:
    """One opened phone: its height, per-KB row and shipped executables."""

    phone_id: str
    phone_pos: int
    row: list[float]
    height_ms: float = 0.0
    shipped_jobs: set[str] = field(default_factory=set)


class VectorGreedyPacker(GreedyPacker):
    """Algorithm 1 with dense-array scans and probes.

    Drop-in replacement for :class:`GreedyPacker`; same constructor,
    same :meth:`pack` contract, byte-identical schedules.
    """

    def __init__(
        self,
        instance: SchedulingInstance,
        *,
        min_partition_kb: float = MIN_PARTITION_KB,
        ram=None,
    ) -> None:
        super().__init__(
            instance, min_partition_kb=min_partition_kb, ram=ram
        )
        jobs = instance.jobs
        n_phones = len(instance.phones)
        self._pkb_mat = instance.per_kb_matrix()
        #: Job-major contiguous view for the per-job unopened-phone
        #: gather in bin opening (same floats, faster access pattern);
        #: cached on the instance so repeated packer constructions —
        #: rounds, probe batches — share one copy.
        self._pkb_t = instance.per_kb_matrix_t()
        self._b_arr = instance.b_array()
        self._min_per_kb_arr = np.asarray(
            self._min_per_kb, dtype=np.float64
        )
        self._atomic_arr = np.asarray(
            [job.is_atomic for job in jobs], dtype=bool
        )
        self._exe_arr, self._input_arr = instance.job_load_arrays()
        #: Any zero per-KB rate forces the "free transfer" fit branch.
        self._any_free = bool((self._pkb_mat <= 0).any())
        self._ram_arr = (
            None
            if ram is None
            else np.asarray(self._ram_caps, dtype=np.float64)
        )
        #: shipped[i, j] — phone position i already holds job j's
        #: executable (the dense mirror of each bin's shipped set).
        self._shipped = np.empty((n_phones, len(jobs)), dtype=bool)
        # Preallocated per-pack mirrors (item slot == job position;
        # items only shrink, so slots are stable within a pack).  They
        # start uninitialised: each pack rewrites them before reading.
        self._rem = np.empty(len(jobs))
        self._mark_epoch = np.empty(len(jobs), dtype=np.intp)
        self._order_buf = np.empty(len(jobs), dtype=np.intp)
        self._order_n = 0
        self._epoch = 0
        self._bh_buf = np.empty(n_phones)
        self._bpos_buf = np.empty(n_phones, dtype=np.intp)
        self._bep_buf = np.empty(n_phones, dtype=np.intp)
        self._bn = 0
        self._open_epoch_by_pos = np.empty(n_phones, dtype=np.intp)
        self._un_buf = np.empty(n_phones, dtype=np.intp)
        self._un_n = 0
        self._un_ids: list[str] = []
        #: Lexicographic rank of each phone_id; equal-cost ties in bin
        #: opening resolve by smallest rank == smallest phone_id.
        ranks = np.zeros(n_phones, dtype=np.intp)
        ranks[self._by_id] = np.arange(n_phones, dtype=np.intp)
        self._id_rank = ranks
        #: Static per-item "minimum need" — the cost the shortest bin
        #: must be able to absorb before the item can fit anywhere —
        #: and the per-pack headroom cutoff derived from it.
        #: ``_hcut[pos]`` holds ``capacity - x·min_per_kb·(1-1e-9)``
        #: for every live item (reset vectorized at pack start, patched
        #: with the identical scalar expression on splits), so both
        #: scan stages read one float where they used to recompute a
        #: three-op expression per walked item.
        x0 = np.where(
            self._atomic_arr | (self._input_arr <= min_partition_kb),
            self._input_arr,
            min_partition_kb,
        )
        self._need0_ms = x0 * self._min_per_kb_arr * (1.0 - 1e-9)
        self._hcut = np.empty(len(jobs))
        #: Item objects by job position, built once: ``pack`` resets
        #: their remaining sizes instead of reconstructing 5 000 objects.
        self._slot_item = [
            _Item(job=job, job_pos=pos, remaining_kb=job.input_kb)
            for pos, job in enumerate(jobs)
        ]
        #: Every pack starts from the scalar kernel's item order.
        order = self._item_order()
        self._order0 = np.asarray(
            [pos for _, _, pos in order], dtype=np.intp
        )
        #: Sort-key mirror of ``_order_buf``: ``_okey_buf[i]`` is
        #: ``-key_ms`` of the item at order position ``i`` (ascending,
        #: ties broken by job_id in ``_order_buf`` itself).  Kept in
        #: lockstep with every order shift so split reinsertion is one
        #: C ``searchsorted`` over floats instead of a Python-level
        #: binary search through item objects.
        self._okey0 = np.asarray(
            [neg_key for neg_key, _, _ in order], dtype=np.float64
        )
        self._okey_buf = np.empty(len(jobs))
        self._unopened0 = np.arange(n_phones, dtype=np.intp)
        #: Items marked in the current epoch always form a *prefix* of
        #: the sorted order: a scan marks exactly the items it walks
        #: past before its hit, and a split remainder (always unmarked)
        #: re-sorts at or after the hit position.  This pointer is the
        #: prefix length, so the walk set is the ``order[ptr:]`` view
        #: and a walk position ``k`` IS list index ``ptr + k``.
        self._mark_ptr = 0
        #: Preallocated gather targets for ``_open_bin_vec``.
        self._open_cost_buf = np.empty(n_phones)
        self._open_exe_buf = np.empty(n_phones)

    # -- public API --------------------------------------------------------

    def pack(
        self, capacity_ms: float, *, collect: bool = True
    ) -> PackingResult:
        """Run Algorithm 1 at ``capacity_ms``.

        ``collect=False`` runs the identical placement sequence but
        skips recording placements, returning a verdict-only result
        (``rows`` and ``schedule`` are None).  The capacity search uses this for
        bisection probes whose schedules would be discarded anyway,
        and materialises the winning capacity with one collecting
        pack at the end.
        """
        if capacity_ms <= 0:
            return PackingResult(feasible=False, capacity_ms=capacity_ms)

        instance = self._instance
        n_jobs = len(self._slot_item)
        for item, input_kb in zip(self._slot_item, self._input_kb):
            item.remaining_kb = input_kb
        self._rem[:] = self._input_arr
        self._mark_epoch.fill(-1)
        self._order_buf[:n_jobs] = self._order0
        self._okey_buf[:n_jobs] = self._okey0
        self._order_n = n_jobs
        np.subtract(capacity_ms, self._need0_ms, out=self._hcut)
        self._epoch = 0
        self._mark_ptr = 0
        self._bn = 0
        self._un_buf[:] = self._unopened0
        self._un_n = len(instance.phones)
        self._un_ids = self._phone_ids.copy()
        self._shipped[:, :] = False

        bins: list[_Bin] = []
        rows: list[Row] | None = [] if collect else None

        while self._order_n:
            if self._scan_opened(bins, rows, capacity_ms):
                continue
            if not self._un_ids:
                return PackingResult(feasible=False, capacity_ms=capacity_ms)
            first = self._slot_item[self._order_buf[0]]
            opened = self._open_bin_vec(first, capacity_ms)
            if opened is None:
                return PackingResult(feasible=False, capacity_ms=capacity_ms)
            # The fresh bin enters the sorted list at its post-placement
            # height, with the size the opening already fitted.
            self._place_and_sync(
                0, opened[0], None, bins, rows, capacity_ms, opened[1]
            )

        max_height = max((b.height_ms for b in bins), default=0.0)
        return PackingResult(
            feasible=True,
            capacity_ms=capacity_ms,
            max_height_ms=float(max_height),
            opened_bins=len(bins),
            rows=tuple(rows) if collect else None,
        )

    # -- internals -----------------------------------------------------------

    def _fit(self, bin_: _Bin, item: _Item, capacity_ms: float) -> float:
        """:func:`~repro.core.packing.fit_kb` of ``item`` in ``bin_``."""
        pos, ppos = item.job_pos, bin_.phone_pos
        headroom = capacity_ms - bin_.height_ms
        if item.job.job_id not in bin_.shipped_jobs:
            headroom -= self._exe_kb[pos] * self._b[ppos]
        return fit_kb(
            headroom,
            bin_.row[pos],
            item.remaining_kb,
            self._atomic[pos],
            self._min_partition_kb,
            self._ram_caps[ppos],
        )

    def _place_and_sync(
        self,
        index,
        bin_,
        src,
        bins,
        rows,
        capacity_ms,
        size_kb=None,
    ) -> bool:
        """The scalar kernel's placement fused with mirror repair.

        Replicates the parent's placement statement for statement (same
        :func:`~repro.core.packing.fit_kb` floats, same ``math.isclose``
        whole-placement test, same unique-key insertion points), but
        takes the bin's list index ``src`` from the caller — every
        caller already knows it; ``None`` marks a fresh bin that is not
        in the list yet — and works directly on the order array: the
        item is ``order[index]``'s slot, and the remainder reinsertion
        point comes from a binary search over the order mirror itself.
        ``size_kb`` forwards a probe's already-computed fit, when the
        caller has one.
        """
        order = self._order_buf
        pos = int(order[index])
        item = self._slot_item[pos]
        job = item.job
        jid = job.job_id
        ppos = bin_.phone_pos
        if size_kb is None:
            size_kb = self._fit(bin_, item, capacity_ms)
        if size_kb <= 0:
            return False
        close = math.isclose(size_kb, item.remaining_kb)
        packed_whole_input = close and math.isclose(
            item.remaining_kb, self._input_kb[pos]
        )
        # A shipped executable would contribute an exact 0.0, and
        # ``0.0 + y == y`` bitwise for the non-negative transfer term.
        if jid in bin_.shipped_jobs:
            cost = size_kb * bin_.row[pos]
        else:
            cost = job.executable_kb * self._b[ppos] + size_kb * bin_.row[pos]
        bin_.height_ms += cost
        bin_.shipped_jobs.add(jid)
        # Slot the bin by its unique (height, phone_id) key: binary
        # search over the height mirror, with equal heights resolved by
        # the precomputed lexicographic phone-id ranks — the exact slot
        # the parent's ``insort`` would pick.  Equal heights are common
        # on replicated fleets (identical phones fill identically), so
        # a tie run is bounded by a second binary search, never walked.
        bh, bp, be = self._bh_buf, self._bpos_buf, self._bep_buf
        nb = self._bn
        h = bin_.height_ms
        ranks = self._id_rank
        if src is None:
            # A fresh bin is inserted once, at its grown height.
            arr = bh[:nb]
            dst = int(arr.searchsorted(h, "left"))
            if dst < nb and arr[dst] == h:
                q = int(arr.searchsorted(h, "right"))
                dst += int(ranks[bp[dst:q]].searchsorted(ranks[ppos], "left"))
            bins.insert(dst, bin_)
            bh[dst + 1 : nb + 1] = bh[dst:nb]
            bp[dst + 1 : nb + 1] = bp[dst:nb]
            be[dst + 1 : nb + 1] = be[dst:nb]
            self._bn = nb + 1
        # Heights only grow, so an opened bin can only move right:
        # instead of the parent's delete + re-``insort`` (two full-tail
        # shifts on the mirrors), rotate the ``(src, dst]`` window left
        # by one.  Most placements grow the shortest bin by less than
        # the gap to its neighbour, where the cheap test below resolves
        # ``dst == src`` with no array traffic at all.  ``h == bh[src]``
        # (zero-cost placement) keeps the unique key, hence the exact
        # same slot.  The right-neighbour height is read from the bin
        # object — a plain float attribute, same value the ``bh``
        # mirror holds — while the old own height must come from the
        # mirror (``bin_`` has already grown).
        elif (
            src + 1 >= nb
            or h < bins[src + 1].height_ms
            or h == bh[src]
        ):
            dst = src
        else:
            arr = bh[:nb]
            p = int(arr.searchsorted(h, "left"))
            if p < nb and arr[p] == h:
                q = int(arr.searchsorted(h, "right"))
                p += int(ranks[bp[p:q]].searchsorted(ranks[ppos], "left"))
            # The stale entry at ``src`` (height < h) sits left of the
            # insertion point and vanishes, shifting it down by one.
            dst = p - 1
            if dst > src:
                del bins[src]
                bins.insert(dst, bin_)
                bh[src:dst] = bh[src + 1 : dst + 1]
                bp[src:dst] = bp[src + 1 : dst + 1]
                be[src:dst] = be[src + 1 : dst + 1]
        bh[dst] = h
        bp[dst] = ppos
        be[dst] = self._open_epoch_by_pos[ppos]
        if rows is not None:
            rows.append(
                (bin_.phone_id, jid, job.task, size_kb, packed_whole_input)
            )
        self._shipped[bin_.phone_pos, pos] = True
        n = self._order_n
        okey = self._okey_buf
        if close:
            # Packed as a whole (of what remained): retire the slot.
            order[index : n - 1] = order[index + 1 : n]
            okey[index : n - 1] = okey[index + 1 : n]
            self._order_n = n - 1
        else:
            # Reinsert the remainder; one insertion restores the exact
            # order a full re-sort would produce (job_id-unique keys).
            # The remainder's key can only shrink, so its ``-key_ms``
            # tuple can only grow: every slot left of ``index`` sorts
            # strictly before it, and the search need only cover
            # ``order[index+1:n]``.  Position ``q`` there maps to
            # ``q - 1`` once the old entry vanishes — exactly the
            # parent's post-delete ``insort`` slot.
            item.remaining_kb = rem_kb = item.remaining_kb - size_kb
            neg_key = -(rem_kb * self._c_slowest[pos])
            tail = okey[index + 1 : n]
            j = int(tail.searchsorted(neg_key, "left"))
            if j < tail.size and tail[j] == neg_key:
                # Equal float keys: resolve by job_id, exactly the
                # tuple order ``insort`` applies.  The run can be long
                # on replicated workloads, so bound it with a second
                # binary search and bisect job_ids inside it.
                hi = int(tail.searchsorted(neg_key, "right"))
                slots = self._slot_item
                while j < hi:
                    mid = (j + hi) // 2
                    it = slots[int(order[index + 1 + mid])]
                    if it.job.job_id < jid:
                        j = mid + 1
                    else:
                        hi = mid
            new_index = index + j
            if index < new_index:
                order[index:new_index] = order[index + 1 : new_index + 1]
                okey[index:new_index] = okey[index + 1 : new_index + 1]
            order[new_index] = pos
            okey[new_index] = neg_key
            self._rem[pos] = rem_kb
            self._mark_epoch[pos] = -1
            minp = self._min_partition_kb
            x = rem_kb if rem_kb <= minp else minp
            self._hcut[pos] = capacity_ms - x * self._min_per_kb[pos] * (
                1.0 - 1e-9
            )
        return True

    def _scan_opened(
        self,
        bins: list[_Bin],
        rows: list[Row] | None,
        capacity_ms: float,
    ) -> bool:
        """Line 4 of Algorithm 1: first item that fits an opened bin.

        Mirrors the scalar kernel's Line-4 scan decision for
        decision; see the module docstring for the scalar-head /
        vectorized-tail split and why the batched marking and
        stale-column pruning are exact.
        """
        if not bins:
            return False
        h0 = bins[0].height_ms
        if h0 > capacity_ms - self._universal_min_need:
            return False
        epoch = self._epoch
        marks = self._mark_epoch
        ptr = self._mark_ptr
        # Marked items form a prefix of the order (see ``_mark_ptr``),
        # so the walk set is a zero-copy suffix view and a walk
        # position ``k`` doubles as list index ``ptr + k``.
        sel = self._order_buf[ptr : self._order_n]
        if sel.size == 0:
            return False
        hcut = self._hcut

        # Scalar head: probe the first few walked items exactly as the
        # scalar scan would.  The per-item headroom cutoff is the
        # maintained ``_hcut`` value — same floats the scalar walk
        # recomputes from the item each time.
        head = min(_SCALAR_HEAD, sel.size)
        for k in range(head):
            pos = int(sel[k])
            h_max = hcut[pos]
            if h0 > h_max:
                marks[pos] = epoch
                self._mark_ptr = ptr + k + 1
                continue
            item = self._slot_item[pos]
            hit = None
            for bidx, bin_ in enumerate(bins):
                if bin_.height_ms > h_max:
                    break
                size_kb = self._fit(bin_, item, capacity_ms)
                if size_kb > 0:
                    hit = bin_
                    break
            if hit is not None:
                return self._place_and_sync(
                    ptr + k,
                    hit,
                    bidx,
                    bins,
                    rows,
                    capacity_ms,
                    size_kb=size_kb,
                )
            marks[pos] = epoch
            self._mark_ptr = ptr + k + 1

        # Vectorized tail: growing row chunks of 2-D fit blocks.  Marks
        # are written only up to the hit (the exact set the scalar walk
        # passes), keeping the marked-prefix invariant intact.
        start = head
        chunk = _CHUNK_ROWS
        while start < sel.size:
            stop = min(sel.size, start + chunk)
            s = sel[start:stop]
            off = None
            h_probe = hcut[s]
            hopeless = h0 > h_probe
            s_probe = s
            if hopeless.any():
                if hopeless.all():
                    marks[s] = epoch
                    self._mark_ptr = ptr + stop
                    start = stop
                    chunk = sel.size
                    continue
                keep = ~hopeless
                off = np.nonzero(keep)[0]
                s_probe = s[keep]
                h_probe = h_probe[keep]
            hit = self._probe_block(s_probe, h_probe, bins, capacity_ms)
            if hit is not None:
                row, col = hit
                # Everything walked before the fit — hopeless rows and
                # probed-rejected rows alike — carries a fresh mark,
                # just as the scalar scan leaves them.
                chunk_idx = row if off is None else int(off[row])
                if chunk_idx:
                    marks[s[:chunk_idx]] = epoch
                index = ptr + start + chunk_idx
                self._mark_ptr = index
                return self._place_and_sync(
                    index, bins[col], col, bins, rows, capacity_ms
                )
            marks[s] = epoch
            self._mark_ptr = ptr + stop
            start = stop
            # Hits beyond the first chunk are vanishingly rare (the
            # scalar head plus one chunk catch essentially all of
            # them), and a scan that finds nothing must walk every
            # remaining row anyway — most scans here are the full
            # prove-nothing-fits walk before a bin opening.  Finish in
            # a single block rather than paying per-chunk launch
            # overhead on a geometric ramp.
            chunk = sel.size
        return False

    def _probe_block(
        self,
        sel: np.ndarray,
        h_probe: np.ndarray,
        bins: list[_Bin],
        capacity_ms: float,
    ) -> tuple[int, int] | None:
        """One ``items × bins`` fit block; first (row, bin index) hit.

        Columns are restricted to bins opened after the oldest mark in
        the chunk — provably the only bins any stale-marked row can
        newly fit — and per-row masks reimpose each row's own prefix
        and mark epoch, so every computed-or-skipped verdict equals
        the scalar probe's.  The epoch filter runs first: most chunks
        on a settled epoch have no new-enough bin at all, and resolve
        here before any prefix search or size gather is paid.
        """
        row_ep = self._mark_epoch[sel]
        bn = self._bn
        bep = self._bep_buf[:bn]
        cols = np.nonzero(bep > int(row_ep.min()))[0]
        if cols.size == 0:
            return None
        # Per-item probed-bin prefix: the scalar walk breaks at the
        # first bin taller than the item's cutoff.
        n_i = np.searchsorted(self._bh_buf[:bn], h_probe, side="right")
        nmax = int(n_i.max())
        if nmax == 0:
            return None
        cols = cols[: int(cols.searchsorted(nmax, "left"))]
        if cols.size == 0:
            return None
        if sel.size * cols.size <= 32:
            # Tiny block: a handful of scalar oracle probes beats the
            # ~12 array-kernel launches below.  Same row-major walk,
            # same per-row prefix and mark-epoch pruning.
            col_list = cols.tolist()
            ep_list = row_ep.tolist()
            slots = self._slot_item
            fit = self._fit
            for r in range(sel.size):
                prefix = int(n_i[r])
                mark = ep_list[r]
                item = None
                for col in col_list:
                    if col >= prefix:
                        break
                    if int(bep[col]) <= mark:
                        continue
                    if item is None:
                        item = slots[int(sel[r])]
                    if fit(bins[col], item, capacity_ms) > 0:
                        return r, col
            return None
        rem = self._rem[sel]
        pp = self._bpos_buf[cols]
        shipped = self._shipped[pp[None, :], sel[:, None]]
        exe = np.where(
            shipped, 0.0, self._exe_arr[sel][:, None] * self._b_arr[pp][None, :]
        )
        headroom = (capacity_ms - self._bh_buf[cols])[None, :] - exe
        pkb = self._pkb_mat[pp[None, :], sel[:, None]]
        if self._any_free:
            with np.errstate(divide="ignore", invalid="ignore"):
                max_kb = np.where(pkb <= 0, rem[:, None], headroom / pkb)
        else:
            max_kb = headroom / pkb
        if self._ram_arr is not None:
            max_kb = np.minimum(max_kb, self._ram_arr[pp][None, :])
        minp = self._min_partition_kb
        tol = (rem * (1.0 - 1e-9))[:, None]
        whole = max_kb >= tol
        if self._ram_arr is not None:
            # Footnote 4's strict all-or-nothing check for atomic jobs.
            ok_atomic = max_kb >= rem[:, None]
        else:
            ok_atomic = whole
        partial = (max_kb >= minp) & (
            (rem[:, None] - max_kb >= minp) | ((rem - minp) >= minp)[:, None]
        )
        fit = (headroom > 0.0) & np.where(
            self._atomic_arr[sel][:, None], ok_atomic, whole | partial
        )
        fit &= cols[None, :] < n_i[:, None]
        fit &= bep[cols][None, :] > row_ep[:, None]
        rowhit = fit.any(axis=1)
        if not rowhit.any():
            return None
        row = int(np.argmax(rowhit))
        return row, int(cols[int(np.argmax(fit[row]))])

    def _open_bin_vec(
        self, item: _Item, capacity_ms: float
    ) -> tuple[_Bin, float] | None:
        """Vectorized Line 15: cheapest unopened phone for ``item``.

        Returns the new bin (not yet in the sorted bin list) and the
        size fitted into it.
        """
        pos_arr = self._un_buf[: self._un_n]
        ids = self._un_ids
        job = item.job
        cost = self._open_cost_buf[: self._un_n]
        self._pkb_t[item.job_pos].take(pos_arr, out=cost)
        cost *= item.remaining_kb
        exe_part = self._open_exe_buf[: self._un_n]
        self._b_arr.take(pos_arr, out=exe_part)
        exe_part *= job.executable_kb
        cost += exe_part
        minimum = cost.min()
        ties = np.nonzero(cost == minimum)[0]
        if ties.size == 1:
            k = int(ties[0])
        else:
            # Smallest phone_id among the ties == smallest precomputed
            # lexicographic rank (phone_ids are unique).
            k = int(ties[int(np.argmin(self._id_rank[pos_arr[ties]]))])
        pos = int(pos_arr[k])
        candidate = _Bin(ids[k], pos, self._per_kb_rows[pos])
        size_kb = self._fit(candidate, item, capacity_ms)
        if size_kb > 0:
            return self._admit_bin(candidate, k), size_kb
        # Rare path: the cheapest phone rejects (RAM / atomic job too
        # large).  Walk the rest in (cost, phone_id) order, exactly as
        # the scalar fallback does.
        cheapest_id = candidate.phone_id
        entries = sorted(
            (float(cost[i]), ids[i], i) for i in range(len(ids))
        )
        for _, phone_id, i in entries:
            if phone_id == cheapest_id:
                continue
            pos = int(pos_arr[i])
            fallback = _Bin(phone_id, pos, self._per_kb_rows[pos])
            size_kb = self._fit(fallback, item, capacity_ms)
            if size_kb > 0:
                return self._admit_bin(fallback, i), size_kb
        return None

    def _admit_bin(self, bin_: _Bin, unopened_index: int) -> _Bin:
        """Open ``bin_``: take it off the unopened list, start an epoch.

        The caller's placement inserts it into the sorted bin list.
        """
        un, un_n = self._un_buf, self._un_n
        un[unopened_index : un_n - 1] = un[unopened_index + 1 : un_n]
        self._un_n = un_n - 1
        del self._un_ids[unopened_index]
        self._epoch += 1
        self._mark_ptr = 0
        self._open_epoch_by_pos[bin_.phone_pos] = self._epoch
        return bin_

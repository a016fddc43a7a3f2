"""Scheduling instances: the (jobs, phones, b, c) bundle schedulers consume.

A :class:`SchedulingInstance` is an immutable snapshot of everything the
central server knows at a scheduling instant: the set of jobs awaiting
scheduling (new arrivals plus the failed-task list ``F_A``), the set of
plugged-in phones, the measured per-KB transfer time ``b_i`` for each
phone, and the predicted per-KB execution time ``c_ij`` for each
(phone, job) pair.  Every scheduler in :mod:`repro.core` — the greedy
CBP scheduler, the baselines, and the LP relaxation — takes one of these
as input, which keeps comparisons honest: they all see exactly the same
information.

Hot-path layout
---------------
The paper argues "a rudimentary low cost PC will suffice" for the
central server; at fleet scale (thousands of phones, thousands of jobs)
that only holds if the per-(phone, job) cost reads the schedulers issue
millions of times per search are O(1) array reads rather than dict
chains, and if the cost table's size follows the fleet's phone *types*
rather than its phone count.  The authoritative ``c`` storage is one
float64 row per ``c``-row class (classes × jobs) plus a per-phone class
index: ``__post_init__`` validates the input tables and pins the rows
once, a scalar read is one index lookup into them, and every derived
view — the ``b_i + c_ij`` per-KB rate matrix (Equation 1), its
transpose, the row lists the scalar packer reads, the dense
:meth:`SchedulingInstance.c_matrix` — is computed on demand from them
with exactly the same floating-point operations as the original
dict-chain code.  Schedulers built on these views therefore produce
byte-identical schedules (see ``tests/core/test_golden_schedule.py``);
pod workers inherit the rows copy-on-write through ``fork`` instead of
pickling the cost table element by element.

Phone classes
-------------
A fleet is a few phone types, replicated: ``c_ij`` depends only on the
(phone, task) pair, and ``b_i`` is measured per type.  :meth:`build`
therefore stores one ``c`` row per distinct per-task prediction row (18
rows for the 1000-phone replicated testbed, not 1000), and the instance
refines the row class by ``b_i`` into
:meth:`SchedulingInstance.phone_classes` — phones in one class have
bit-identical ``b_i + c_ij`` rows, so :meth:`per_kb_rows` hands every
member the same list and :meth:`per_kb_matrix` adds ``b_i + c_ij`` once
per class.  Pod sub-instances copy only the class rows their phones
use; an instance built from a plain ``c`` mapping has one row, and one
class, per phone.

The capacity bracket (:meth:`SchedulingInstance.capacity_bounds`)
streams ``b_i + c_ij`` through small phone blocks gathered from the
class rows and never builds a full phones × jobs array, so a caller
that needs only the bracket and the pod tables (the sharded scheduler's
parent, which packs nothing itself) holds no fleet-wide cost matrix.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

import numpy as np

from .model import Job, PhoneSpec, completion_time
from .prediction import RuntimePredictor

__all__ = ["SchedulingInstance"]


class _DenseCostMap(Mapping):
    """A ``(phone_id, job_id) -> c_ij`` mapping stored per ``c``-row class.

    Built by :meth:`SchedulingInstance.build` instead of a plain dict so
    fleet-scale instances do not pay for millions of tuple-keyed dict
    entries; behaves exactly like the dict it replaces (``Mapping``
    supplies ``items``/``get``/``__eq__``, and ``__getitem__`` returns
    plain Python floats), and hands its rows to the instance without
    any per-element work.

    ``rows`` holds one float64 row per class (classes × jobs), and
    ``row_class[i]`` is phone position ``i``'s row.  Classes are
    numbered in order of first appearance and every row is some
    phone's, so there are as many rows as phones exactly when every
    phone is its own class.
    """

    __slots__ = (
        "_phone_ids", "_job_ids", "_rows", "_phone_pos", "_job_pos",
        "row_class",
    )

    def __init__(
        self,
        phone_ids: tuple[str, ...],
        job_ids: tuple[str, ...],
        rows,
        row_class: tuple[int, ...],
    ) -> None:
        self.__setstate__(
            {
                "phone_ids": phone_ids,
                "job_ids": job_ids,
                "rows": np.asarray(rows, dtype=np.float64),
                "row_class": row_class,
            }
        )

    def __getitem__(self, key: tuple[str, str]) -> float:
        phone_id, job_id = key
        return float(
            self._rows[
                self.row_class[self._phone_pos[phone_id]],
                self._job_pos[job_id],
            ]
        )

    def __iter__(self):
        for phone_id in self._phone_ids:
            for job_id in self._job_ids:
                yield (phone_id, job_id)

    def __len__(self) -> int:
        return len(self._phone_ids) * len(self._job_ids)

    def aligned_rows(
        self, phone_ids: tuple[str, ...], job_ids: tuple[str, ...]
    ):
        """``(rows, row_class)``, if the map matches the id ordering."""
        if phone_ids == self._phone_ids and job_ids == self._job_ids:
            return self._rows, self.row_class
        return None

    def __getstate__(self):
        return {
            "phone_ids": self._phone_ids,
            "job_ids": self._job_ids,
            "rows": self._rows,
            "row_class": self.row_class,
        }

    def __setstate__(self, state):
        self._phone_ids = state["phone_ids"]
        self._job_ids = state["job_ids"]
        self.row_class = state["row_class"]
        rows = state["rows"]
        rows.setflags(write=False)
        self._rows = rows
        self._phone_pos = {pid: i for i, pid in enumerate(self._phone_ids)}
        self._job_pos = {jid: i for i, jid in enumerate(self._job_ids)}


class _ClassRowList:
    """Per-KB rate rows by phone position, one shared list per class.

    ``rows[i]`` is ``matrix[r].tolist()`` for the first member ``r`` of
    phone ``i``'s class.  A class's row is converted on the first read
    of any member and stored for every member, so readers see plain
    Python floats, bit-identical to the matrix, without an up-front
    conversion of every class.
    """

    __slots__ = ("_mat", "_class_of", "_members", "_rows")

    def __init__(self, mat, class_of, members) -> None:
        self._mat = mat
        self._class_of = class_of
        self._members = members
        self._rows: list[list[float] | None] = [None] * len(class_of)

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, i: int) -> list[float]:
        row = self._rows[i]
        if row is None:
            members = self._members[self._class_of[i]]
            row = self._mat[members[0]].tolist()
            for m in members:
                self._rows[m] = row
        return row

    def __iter__(self):
        return (self[i] for i in range(len(self._rows)))


@dataclass(frozen=True)
class SchedulingInstance:
    """Immutable input to a scheduling round.

    Parameters
    ----------
    jobs:
        Jobs to schedule, in arrival order.
    phones:
        Phones currently available (plugged in).
    b_ms_per_kb:
        ``b_i`` per phone id — time to copy 1 KB from the server to the
        phone, from the most recent bandwidth measurement.
    c_ms_per_kb:
        ``c_ij`` per (phone id, job id) — predicted time to process 1 KB
        of the job's input on that phone.
    """

    jobs: tuple[Job, ...]
    phones: tuple[PhoneSpec, ...]
    b_ms_per_kb: Mapping[str, float]
    c_ms_per_kb: Mapping[tuple[str, str], float]

    def __post_init__(self) -> None:
        if not self.phones:
            raise ValueError("an instance needs at least one phone")
        if not self.jobs:
            raise ValueError("an instance needs at least one job")
        job_ids = tuple(job.job_id for job in self.jobs)
        if len(set(job_ids)) != len(job_ids):
            raise ValueError("duplicate job ids in instance")
        phone_ids = tuple(phone.phone_id for phone in self.phones)
        if len(set(phone_ids)) != len(phone_ids):
            raise ValueError("duplicate phone ids in instance")

        b_vec, c_rows, c_class = self._validate_and_densify(
            phone_ids, job_ids
        )
        c_rows.setflags(write=False)
        c_class_arr = np.fromiter(c_class, dtype=np.intp, count=len(c_class))
        c_class_arr.setflags(write=False)

        # Hot-path caches (the dataclass is frozen, hence setattr).
        set_ = object.__setattr__
        set_(self, "_job_ids", job_ids)
        set_(self, "_phone_ids", phone_ids)
        set_(self, "_job_by_id", dict(zip(job_ids, self.jobs)))
        set_(self, "_phone_by_id", dict(zip(phone_ids, self.phones)))
        set_(self, "_job_pos", {jid: i for i, jid in enumerate(job_ids)})
        set_(self, "_phone_pos", {pid: i for i, pid in enumerate(phone_ids)})
        set_(self, "_b_vec", b_vec)
        set_(self, "_c_rows", c_rows)
        set_(self, "_c_class", c_class)
        set_(self, "_c_class_arr", c_class_arr)
        set_(self, "_bounds_cache", None)
        set_(self, "_slowest_cache", None)

    def _validate_and_densify(
        self, phone_ids: tuple[str, ...], job_ids: tuple[str, ...]
    ):
        """Check every b/c entry; return ``(b, c rows, c-row class)``.

        A class-row map aligned with the instance is used as is; any
        other ``c`` mapping becomes one row per phone.  Validation order
        matches the original implementation exactly (phone-major,
        ``b_i`` before that phone's ``c`` row) so the same malformed
        input raises the same error; the clean common case is one
        vectorized finite/non-negative sweep over the class rows.
        """
        aligned = (
            self.c_ms_per_kb.aligned_rows(phone_ids, job_ids)
            if isinstance(self.c_ms_per_kb, _DenseCostMap)
            else None
        )
        b_vec: list[float] = []
        if aligned is not None:
            rows, row_class = aligned
            valid = np.isfinite(rows) & (rows >= 0.0)
            bad_pos = None
            if not bool(valid.all()):
                bad_class = ~valid.all(axis=1)
                bad_pos = next(
                    pos for pos, k in enumerate(row_class) if bad_class[k]
                )
            for pos, phone in enumerate(self.phones):
                b = self.b_ms_per_kb.get(phone.phone_id)
                if b is None:
                    raise ValueError(
                        f"missing b_i for phone {phone.phone_id!r}"
                    )
                if not math.isfinite(b) or b < 0:
                    raise ValueError(
                        f"b_i for {phone.phone_id!r} must be >= 0, got {b!r}"
                    )
                b_vec.append(b)
                if pos == bad_pos:
                    self._raise_bad_c(
                        phone.phone_id, rows[row_class[pos]].tolist()
                    )
            return b_vec, rows, row_class
        c_rows: list[list[float]] = []
        for phone in self.phones:
            b = self.b_ms_per_kb.get(phone.phone_id)
            if b is None:
                raise ValueError(f"missing b_i for phone {phone.phone_id!r}")
            if not math.isfinite(b) or b < 0:
                raise ValueError(f"b_i for {phone.phone_id!r} must be >= 0, got {b!r}")
            b_vec.append(b)
            row = []
            for job in self.jobs:
                c = self.c_ms_per_kb.get((phone.phone_id, job.job_id))
                if c is None:
                    raise ValueError(
                        f"missing c_ij for ({phone.phone_id!r}, {job.job_id!r})"
                    )
                if not math.isfinite(c) or c < 0:
                    raise ValueError(
                        f"c_ij for ({phone.phone_id!r}, {job.job_id!r}) "
                        f"must be >= 0, got {c!r}"
                    )
                row.append(c)
            c_rows.append(row)
        c_mat = np.asarray(c_rows, dtype=np.float64).reshape(
            (len(phone_ids), len(job_ids))
        )
        return b_vec, c_mat, tuple(range(len(phone_ids)))

    def _raise_bad_c(self, phone_id: str, row: list[float]) -> None:
        for job, c in zip(self.jobs, row):
            if not math.isfinite(c) or c < 0:
                raise ValueError(
                    f"c_ij for ({phone_id!r}, {job.job_id!r}) "
                    f"must be >= 0, got {c!r}"
                )
        raise AssertionError("row flagged invalid but no bad entry found")

    @classmethod
    def build(
        cls,
        jobs: Iterable[Job],
        phones: Iterable[PhoneSpec],
        b_ms_per_kb: Mapping[str, float],
        predictor: RuntimePredictor,
    ) -> "SchedulingInstance":
        """Construct an instance using a predictor to fill the c table.

        Predictions depend on (phone, task), not (phone, job), so the
        predictor is consulted once per (phone, task) pair and the value
        broadcast across that task's jobs with one vectorized gather per
        distinct prediction row — at fleet scale this collapses millions
        of predictor calls (and millions of Python-loop iterations) into
        a few thousand.  The (phone, task) consultation order is the
        same first-occurrence order the original job-scan used, so
        stateful predictors see an identical call sequence.  Phones with
        equal per-task prediction rows share one stored ``c`` row (see
        :meth:`phone_classes`).
        """
        jobs = tuple(jobs)
        phones = tuple(phones)
        task_pos: dict[str, int] = {}
        for job in jobs:
            if job.task not in task_pos:
                task_pos[job.task] = len(task_pos)
        tasks = list(task_pos)
        col_task = np.fromiter(
            (task_pos[job.task] for job in jobs),
            dtype=np.intp,
            count=len(jobs),
        )
        row_ids: dict[bytes, int] = {}
        by_task_rows: list[np.ndarray] = []
        row_class = []
        for phone in phones:
            by_task = np.array(
                [predictor.predict_ms_per_kb(phone, task) for task in tasks],
                dtype=np.float64,
            )
            k = row_ids.setdefault(by_task.tobytes(), len(row_ids))
            if k == len(by_task_rows):
                by_task_rows.append(by_task)
            row_class.append(k)
        rows = np.empty((len(by_task_rows), len(jobs)), dtype=np.float64)
        for k, by_task in enumerate(by_task_rows):
            np.take(by_task, col_task, out=rows[k])
        c = _DenseCostMap(
            tuple(phone.phone_id for phone in phones),
            tuple(job.job_id for job in jobs),
            rows,
            tuple(row_class),
        )
        return cls(
            jobs=jobs,
            phones=phones,
            b_ms_per_kb=dict(b_ms_per_kb),
            c_ms_per_kb=c,
        )

    # -- lookups ---------------------------------------------------------

    def job(self, job_id: str) -> Job:
        try:
            return self._job_by_id[job_id]
        except KeyError:
            raise KeyError(f"no job {job_id!r} in instance") from None

    def phone(self, phone_id: str) -> PhoneSpec:
        try:
            return self._phone_by_id[phone_id]
        except KeyError:
            raise KeyError(f"no phone {phone_id!r} in instance") from None

    def b(self, phone_id: str) -> float:
        return self._b_vec[self._phone_pos[phone_id]]

    def c(self, phone_id: str, job_id: str) -> float:
        return float(
            self._c_rows[
                self._c_class[self._phone_pos[phone_id]],
                self._job_pos[job_id],
            ]
        )

    def cost(self, phone_id: str, job_id: str, input_kb: float | None = None) -> float:
        """Equation (1) for a partition of ``job_id`` on ``phone_id``.

        ``input_kb`` defaults to the job's full input ``L_j``.
        """
        job = self.job(job_id)
        x = job.input_kb if input_kb is None else input_kb
        return completion_time(
            job.executable_kb, x, self.b(phone_id), self.c(phone_id, job_id)
        )

    def marginal_cost(self, phone_id: str, job_id: str, input_kb: float) -> float:
        """Per-partition cost *excluding* the executable shipping term.

        Useful when a phone already holds the executable for a job and
        receives an additional partition of the same job.
        """
        return input_kb * (self.b(phone_id) + self.c(phone_id, job_id))

    # -- hot-path accessors ----------------------------------------------
    #
    # Position-indexed views for schedulers that convert ids to
    # positions once and then work on arrays.  Callers must treat the
    # returned lists and arrays as read-only.  Every view is read or
    # computed from the authoritative float64 class rows, so list
    # readers and matrix readers see bit-identical values.

    def phone_position(self, phone_id: str) -> int:
        return self._phone_pos[phone_id]

    def b_vector(self) -> list[float]:
        """``b_i`` by phone position, aligned with ``self.phones``."""
        return self._b_vec

    def b_array(self):
        """``b_i`` as a dense float64 ndarray, aligned with ``phones``."""
        cached = getattr(self, "_b_arr", None)
        if cached is None:
            cached = np.asarray(self._b_vec, dtype=np.float64)
            cached.setflags(write=False)
            object.__setattr__(self, "_b_arr", cached)
        return cached

    def c_class_rows(self):
        """``(rows, row_of)``: the authoritative ``c`` storage.

        ``rows`` holds one float64 ``c`` row per class (classes × jobs)
        and the ``intp`` array ``row_of`` maps each phone position to
        its row, so ``rows[row_of[i]]`` is phone ``i``'s ``c`` row.
        Readers that stream phone blocks gather them from here instead
        of asking for :meth:`c_matrix`.
        """
        return self._c_rows, self._c_class_arr

    def c_matrix(self):
        """``c_ij`` as a dense float64 ndarray (phones × jobs).

        Gathered from the class rows on every call and not kept, so
        only a caller that asks pays for a fleet-sized copy; no
        scheduler does.  With one row per phone the rows are returned
        as they are.
        """
        rows = self._c_rows
        if len(rows) == len(self._c_class):
            return rows
        mat = rows[self._c_class_arr]
        mat.setflags(write=False)
        return mat

    def c_row(self, phone_pos: int) -> list[float]:
        """One phone's ``c_ij`` row as Python floats."""
        return self._c_rows[self._c_class[phone_pos]].tolist()

    def phone_classes(
        self,
    ) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """``(class_of, members)``: the instance's phone classes.

        ``class_of[i]`` is phone position ``i``'s class; classes are
        numbered in order of first appearance, and ``members[k]`` lists
        class ``k``'s phone positions in order.  Two phones share a
        class only if they share a stored ``c`` row (see
        :meth:`c_class_rows`) and the bits of their ``b_i`` — so every
        per-KB rate of a class is its first member's.  With one stored
        row per phone every phone is its own class.
        """
        cached = getattr(self, "_classes_cache", None)
        if cached is None:
            if len(self._c_rows) == len(self._c_class):
                keys = range(len(self._b_vec))
            else:
                b_bits = self.b_array().view(np.uint64).tolist()
                keys = zip(self._c_class, b_bits)
            index: dict = {}
            class_of = tuple(index.setdefault(key, len(index)) for key in keys)
            members: list[list[int]] = [[] for _ in index]
            for pos, k in enumerate(class_of):
                members[k].append(pos)
            cached = (class_of, tuple(map(tuple, members)))
            object.__setattr__(self, "_classes_cache", cached)
        return cached

    def per_kb_rows(self) -> "_ClassRowList":
        """``b_i + c_ij`` rows by phone position (Equation 1's rate).

        One list of Python floats per phone *class*
        (:meth:`phone_classes`), shared by every member and converted
        from :meth:`per_kb_matrix` (which every packer builds anyway) on
        first access: the packers' scalar paths read rates through these
        rows, and on a replicated fleet the class rows are a handful of
        lists instead of a fleet-wide copy of the matrix.  Callers must
        not mutate a row.
        """
        cached = getattr(self, "_per_kb_rows_cache", None)
        if cached is None:
            cached = _ClassRowList(
                self.per_kb_matrix(), *self.phone_classes()
            )
            object.__setattr__(self, "_per_kb_rows_cache", cached)
        return cached

    def per_kb_matrix(self):
        """``b_i + c_ij`` as a dense float64 ndarray (phones × jobs).

        ``b_i + c_ij`` is added once per phone class
        (:meth:`phone_classes`) and gathered to the members, which
        share ``b_i``'s bits and the ``c`` row — so every element is the
        same float64 add, in the same IEEE-754 arithmetic, as the
        original per-element ``b_i + c`` list comprehension, and matrix
        readers and row-list readers see bit-identical rates.  Callers
        must treat the array as read-only.
        """
        cached = getattr(self, "_per_kb_matrix", None)
        if cached is None:
            b = self.b_array()
            class_of, members = self.phone_classes()
            if len(self._c_rows) == len(class_of):
                cached = b[:, None] + self._c_rows
            else:
                firsts = np.fromiter(
                    (m[0] for m in members), dtype=np.intp, count=len(members)
                )
                cached = (
                    b[firsts][:, None]
                    + self._c_rows[self._c_class_arr[firsts]]
                )
                if len(members) < len(class_of):
                    cached = cached[
                        np.fromiter(
                            class_of, dtype=np.intp, count=len(class_of)
                        )
                    ]
            cached.setflags(write=False)
            object.__setattr__(self, "_per_kb_matrix", cached)
        return cached

    def per_kb_matrix_t(self):
        """C-contiguous transpose of :meth:`per_kb_matrix` (jobs × phones).

        The vectorized packer scans job columns across phones; caching
        the transpose here means one 8·P·J-byte copy per instance
        instead of one per packer construction.
        """
        cached = getattr(self, "_per_kb_matrix_t", None)
        if cached is None:
            cached = np.ascontiguousarray(self.per_kb_matrix().T)
            cached.setflags(write=False)
            object.__setattr__(self, "_per_kb_matrix_t", cached)
        return cached

    def job_load_arrays(self):
        """``(executable_kb, input_kb)`` float64 arrays by job position."""
        cached = getattr(self, "_job_load_arrays", None)
        if cached is None:
            exe = np.asarray(
                [job.executable_kb for job in self.jobs], dtype=np.float64
            )
            load = np.asarray(
                [job.input_kb for job in self.jobs], dtype=np.float64
            )
            exe.setflags(write=False)
            load.setflags(write=False)
            cached = (exe, load)
            object.__setattr__(self, "_job_load_arrays", cached)
        return cached

    # -- derived quantities ----------------------------------------------

    def slowest_phone(self) -> PhoneSpec:
        """The reference phone ``s`` used to order items in Algorithm 1."""
        cached = self._slowest_cache
        if cached is None:
            cached = min(self.phones, key=lambda p: (p.cpu_mhz, p.phone_id))
            object.__setattr__(self, "_slowest_cache", cached)
        return cached

    def total_input_kb(self) -> float:
        return sum(job.input_kb for job in self.jobs)

    def atomic_jobs(self) -> tuple[Job, ...]:
        return tuple(job for job in self.jobs if job.is_atomic)

    def breakable_jobs(self) -> tuple[Job, ...]:
        return tuple(job for job in self.jobs if job.is_breakable)

    def capacity_bounds(self) -> tuple[float, float]:
        """The (lower, upper) capacity bracket for the binary search.

        Computed once per instance and cached; the arithmetic mirrors
        the original per-call implementation term for term so the
        bracket (and therefore every bisection midpoint) is identical.

        * **Upper bound** — all items stacked on the *worst* bin: the
          maximum over phones of the total Equation-1 cost of running
          every job whole on that phone.
        * **Lower bound** — the paper's "magical bin" with the fleet's
          aggregate processing and bandwidth capability and no
          executable-shipping cost.
        """
        cached = self._bounds_cache
        if cached is not None:
            return cached
        # Vectorized, but bit-identical to the original Python loops:
        # every term is the same elementwise float64 expression
        # (``per_kb`` entries ARE ``b_i + c_ij``), and ``np.cumsum``
        # accumulates sequentially, matching ``sum()``'s left-to-right
        # adds exactly.  Skipped terms (non-positive rates) become
        # ``+ 0.0``, which is exact on the positive partial sums
        # involved.
        #
        # The rates are streamed: each phone block gathers its ``c``
        # rows from the class rows, computes its own ``b_i + c_ij`` (the
        # same float64 adds as ``per_kb_matrix``) and is dropped before
        # the next, so neither a dense ``c`` matrix, the full per-KB
        # matrix nor any full phones × jobs temporary is materialised.
        # Per-row cumsums are independent, so blocking the upper bound
        # is trivially exact; the per-job aggregate seeds each block's
        # axis-0 cumsum with the running total as row zero, which
        # reproduces the global sequential add order element for
        # element.
        c = self._c_rows
        row_of = self._c_class_arr
        b = self.b_array()
        exe, load = self.job_load_arrays()
        n_phones, n_jobs = len(row_of), c.shape[1]
        block = 32
        upper = -math.inf
        aggregate = np.zeros(n_jobs, dtype=np.float64)
        for s in range(0, n_phones, block):
            e = min(n_phones, s + block)
            pb = b[s:e, None] + c[row_of[s:e]]
            per_phone = exe[None, :] * b[s:e, None] + load[None, :] * pb
            blk_max = float(np.cumsum(per_phone, axis=1)[:, -1].max())
            if blk_max > upper:
                upper = blk_max
            rates = np.zeros((e - s + 1, n_jobs), dtype=np.float64)
            rates[0] = aggregate
            # Subnormal per-KB costs overflow the reciprocal to inf —
            # exactly what scalar Python's ``1.0 / pkb`` returns
            # (silently), and inf aggregates still yield the same 0.0
            # contribution below — so the warning carries no signal.
            with np.errstate(over="ignore"):
                np.divide(1.0, pb, out=rates[1:], where=pb > 0)
            aggregate = np.cumsum(rates, axis=0)[-1]
        if n_phones == 0:
            # Match the single-shot formulation's empty-reduction error.
            upper = float(np.empty((0,)).max())
        contrib = np.zeros(n_jobs, dtype=np.float64)
        np.divide(load, aggregate, out=contrib, where=aggregate > 0)
        lower = float(np.cumsum(contrib)[-1])
        # The bracket must be well-ordered even for degenerate instances.
        lower = min(lower, upper)
        bounds = (lower, upper)
        object.__setattr__(self, "_bounds_cache", bounds)
        return bounds

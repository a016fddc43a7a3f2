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
chains.  The authoritative storage is a dense float64 ``c`` matrix
(phones × jobs): ``__post_init__`` validates the input tables and pins
the matrix once, and every derived view — the ``b_i + c_ij`` per-KB rate
matrix (Equation 1), its transpose, the row lists the scalar packer
reads, the capacity bracket — is computed lazily from it with exactly
the same floating-point operation order as the original dict-chain code.
Schedulers built on these caches therefore produce byte-identical
schedules (see ``tests/core/test_golden_schedule.py``); pod workers
inherit the matrix copy-on-write through ``fork`` instead of pickling
the cost table element by element.
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
    """A ``(phone_id, job_id) -> c_ij`` mapping backed by a dense matrix.

    Built by :meth:`SchedulingInstance.build` instead of a plain dict so
    fleet-scale instances do not pay for millions of tuple-keyed dict
    entries; behaves exactly like the dict it replaces (``Mapping``
    supplies ``items``/``get``/``__eq__``, and ``__getitem__`` returns
    plain Python floats), and hands its matrix to the instance's dense
    caches without any per-element work.
    """

    __slots__ = ("_phone_ids", "_job_ids", "_mat", "_phone_pos", "_job_pos")

    def __init__(
        self,
        phone_ids: tuple[str, ...],
        job_ids: tuple[str, ...],
        rows,
    ) -> None:
        self._phone_ids = phone_ids
        self._job_ids = job_ids
        mat = np.asarray(rows, dtype=np.float64)
        if mat.ndim != 2 or mat.shape != (len(phone_ids), len(job_ids)):
            mat = mat.reshape((len(phone_ids), len(job_ids)))
        mat.setflags(write=False)
        self._mat = mat
        self._phone_pos = {pid: i for i, pid in enumerate(phone_ids)}
        self._job_pos = {jid: i for i, jid in enumerate(job_ids)}

    def __getitem__(self, key: tuple[str, str]) -> float:
        phone_id, job_id = key
        return float(self._mat[self._phone_pos[phone_id], self._job_pos[job_id]])

    def __iter__(self):
        for phone_id in self._phone_ids:
            for job_id in self._job_ids:
                yield (phone_id, job_id)

    def __len__(self) -> int:
        return len(self._phone_ids) * len(self._job_ids)

    def aligned_matrix(
        self, phone_ids: tuple[str, ...], job_ids: tuple[str, ...]
    ):
        """The dense float64 matrix, if it matches the id ordering."""
        if phone_ids == self._phone_ids and job_ids == self._job_ids:
            return self._mat
        return None

    def __getstate__(self):
        return {
            "phone_ids": self._phone_ids,
            "job_ids": self._job_ids,
            "mat": self._mat,
        }

    def __setstate__(self, state):
        self._phone_ids = state["phone_ids"]
        self._job_ids = state["job_ids"]
        mat = state["mat"]
        mat.setflags(write=False)
        self._mat = mat
        self._phone_pos = {pid: i for i, pid in enumerate(self._phone_ids)}
        self._job_pos = {jid: i for i, jid in enumerate(self._job_ids)}


class _LazyRowList:
    """Row-indexed view of a matrix that materializes rows on demand.

    ``rows[i]`` is ``matrix[i].tolist()``, converted on first access
    and cached — readers see plain Python floats, bit-identical to the
    matrix, without paying an up-front full-matrix conversion.
    """

    __slots__ = ("_mat", "_rows")

    def __init__(self, mat) -> None:
        self._mat = mat
        self._rows: list[list[float] | None] = [None] * mat.shape[0]

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, i: int) -> list[float]:
        row = self._rows[i]
        if row is None:
            row = self._rows[i] = self._mat[i].tolist()
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

        b_vec, c_mat = self._validate_and_densify(phone_ids, job_ids)
        c_mat.setflags(write=False)

        # Dense hot-path caches (the dataclass is frozen, hence setattr).
        set_ = object.__setattr__
        set_(self, "_job_ids", job_ids)
        set_(self, "_phone_ids", phone_ids)
        set_(self, "_job_by_id", dict(zip(job_ids, self.jobs)))
        set_(self, "_phone_by_id", dict(zip(phone_ids, self.phones)))
        set_(self, "_job_pos", {jid: i for i, jid in enumerate(job_ids)})
        set_(self, "_phone_pos", {pid: i for i, pid in enumerate(phone_ids)})
        set_(self, "_b_vec", b_vec)
        set_(self, "_c_mat", c_mat)
        set_(self, "_bounds_cache", None)
        set_(self, "_slowest_cache", None)

    def _validate_and_densify(
        self, phone_ids: tuple[str, ...], job_ids: tuple[str, ...]
    ):
        """Check every b/c entry and return the dense ``(b, c)`` tables.

        Validation order matches the original implementation exactly
        (phone-major, ``b_i`` before that phone's ``c`` row) so the same
        malformed input raises the same error; the clean common case is
        one vectorized finite/non-negative sweep over the matrix.
        """
        dense = (
            self.c_ms_per_kb.aligned_matrix(phone_ids, job_ids)
            if isinstance(self.c_ms_per_kb, _DenseCostMap)
            else None
        )
        b_vec: list[float] = []
        if dense is not None:
            valid = np.isfinite(dense) & (dense >= 0.0)
            bad_row = (
                None
                if bool(valid.all())
                else int(np.flatnonzero(~valid.all(axis=1))[0])
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
                if bad_row is not None and pos == bad_row:
                    self._raise_bad_c(phone.phone_id, dense[pos].tolist())
            return b_vec, dense
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
        return b_vec, c_mat

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
        phone — at fleet scale this collapses millions of predictor
        calls (and millions of Python-loop iterations) into a few
        thousand.  The (phone, task) consultation order is the same
        first-occurrence order the original job-scan used, so stateful
        predictors see an identical call sequence.
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
        mat = np.empty((len(phones), len(jobs)), dtype=np.float64)
        for pos, phone in enumerate(phones):
            by_task = np.array(
                [predictor.predict_ms_per_kb(phone, task) for task in tasks],
                dtype=np.float64,
            )
            np.take(by_task, col_task, out=mat[pos])
        c = _DenseCostMap(
            tuple(phone.phone_id for phone in phones),
            tuple(job.job_id for job in jobs),
            mat,
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
            self._c_mat[self._phone_pos[phone_id], self._job_pos[job_id]]
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
    # Dense, position-indexed views for schedulers that convert ids to
    # positions once and then work on arrays.  Callers must treat the
    # returned lists and arrays as read-only.  Every list view is the
    # ``.tolist()`` of the authoritative float64 matrix, so list readers
    # and matrix readers see bit-identical values.

    def job_position(self, job_id: str) -> int:
        return self._job_pos[job_id]

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

    def c_matrix(self):
        """``c_ij`` as a dense float64 ndarray (phones × jobs)."""
        return self._c_mat

    def c_rows(self) -> list[list[float]]:
        """``c_ij`` rows by phone position, columns by job position."""
        cached = getattr(self, "_c_rows_cache", None)
        if cached is None:
            cached = self._c_mat.tolist()
            object.__setattr__(self, "_c_rows_cache", cached)
        return cached

    def c_row(self, phone_pos: int) -> list[float]:
        """One phone's ``c_ij`` row without materializing every row."""
        cached = getattr(self, "_c_rows_cache", None)
        if cached is not None:
            return cached[phone_pos]
        return self._c_mat[phone_pos].tolist()

    def per_kb_rows(self) -> "_LazyRowList":
        """``b_i + c_ij`` rows by phone position (Equation 1's rate).

        Returned as a lazily-materializing row list: converting the
        full matrix to Python lists costs ~150 ms at the paper's
        1000 × 5000 fleet scale, but the packers' scalar paths only
        touch the rows of phones they actually probe.  Each row is
        converted on first access and cached for the instance's life,
        so every reader still sees plain Python floats (bit-identical
        to the matrix values).
        """
        cached = getattr(self, "_per_kb_rows_cache", None)
        if cached is None:
            cached = _LazyRowList(self.per_kb_matrix())
            object.__setattr__(self, "_per_kb_rows_cache", cached)
        return cached

    def per_kb_matrix(self):
        """``b_i + c_ij`` as a dense float64 ndarray (phones × jobs).

        One elementwise float64 broadcast add over the c matrix — the
        same adds, in the same IEEE-754 arithmetic, as the original
        per-element ``b_i + c`` list comprehension, so matrix readers
        and row-list readers see bit-identical rates.  Callers must
        treat the array as read-only.
        """
        cached = getattr(self, "_per_kb_matrix", None)
        if cached is None:
            cached = self.b_array()[:, None] + self._c_mat
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
        # The matrix is walked in row *blocks* so no full phones × jobs
        # temporary is ever materialised (three of them dominated this
        # function's time at fleet scale).  Per-row cumsums are
        # independent, so blocking the upper bound is trivially exact;
        # the per-job aggregate seeds each block's axis-0 cumsum with
        # the running total as row zero, which reproduces the global
        # sequential add order element for element.
        jobs = self.jobs
        pkb = self.per_kb_matrix()
        b = self.b_array()
        exe, load = self.job_load_arrays()
        n_phones, n_jobs = pkb.shape
        block = 128
        upper = -math.inf
        aggregate = np.zeros(n_jobs, dtype=np.float64)
        for s in range(0, n_phones, block):
            e = min(n_phones, s + block)
            pb = pkb[s:e]
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

"""Sharded pod-parallel scheduling: partition, solve, coordinate.

The monolithic :class:`~repro.core.greedy.CwcScheduler` solves one
global capacity search per round, which couples fleet size to
single-solve cost.  :class:`ShardedScheduler` decouples them:

1. **Partition** the fleet into pods (round-robin by phone position —
   :func:`repro.core.pod.partition_phones`);
2. **Split** the jobs across pods, longest-processing-time first
   against per-pod estimated work ``E_j * bmin_p + L_j / agg_pj`` (the
   job's magical-bin time inside the pod) — the dual-guided balance the
   pod LP's load constraints price, without an LP solve per round.
   This is the only splitter: the pod LP certifies the round but never
   splits it (DESIGN.md §14.2 has the measurements);
3. **Solve** each pod's sub-instance with the existing kernels — on a
   fork process pool when CPUs allow (workers inherit the full
   instance copy-on-write and slice their pod's rows), serially
   otherwise, with identical results either way.  Pods are the only
   parallel axis: each pod's capacity search runs serially.  A
   certifying round's pool outlives ``schedule()`` until its pod LP
   has delivered (see Certification);
4. **Coordinate** with a cheap global capacity search over the
   per-pod converged capacities: the global capacity is their max, and
   bounded job-migration repair rounds move one job at a time from the
   argmax pod toward the argmin pod, re-solving only those two pods
   and keeping the move only when the global capacity improves.

Certification: the pod-LP optimum ``T_pod`` is a valid lower bound on
the optimal makespan of the *full* instance (machines were only ever
sped up — see :mod:`repro.core.lp_bound`), giving the sandwich::

    T_pod  <=  T_optimal  <=  T_sharded  <=  shard_bound_ratio * T_pod

``shard_bound_ratio = T_sharded / T_pod`` is reported on every sharded
result (and recorded in ``BENCH_scheduler.json``); the differential
harness asserts it stays within a bounded factor of the monolithic
schedule's own ratio.

The LP reads only the split (phone partition plus the
``bmin``/``cmin`` tables), never a pod result, and no scheduling
decision reads the LP.  On a pooled round it is the first task
submitted to the round's fork pool, which gets one slot beyond the pod
workers, so it solves while the pods solve and the parent rebalances.
``schedule()`` does not wait for it: once the pods are solved,
rebalanced and assembled the pool is shut down without waiting (its
workers exit once the LP has delivered) and the round returns.  The
result's ``lp_floor_ms``, ``shard_bound_ratio`` and ``lp_certify_ms``
are filled in from the pending certificate on their first read, or by
:meth:`ShardedSearchResult.collect_certificate`, which
:class:`~repro.sim.server.CentralServer` calls for every round before
its run returns; collection joins the pool.  Serial rounds solve the
LP inline after the rebalance; ``certify=False`` skips it.  Fallback
order: a dead pool or LP worker solves the LP inline (the identical
floor); a HiGHS failure (``RuntimeError``, in either process) leaves
``lp_floor_ms=None``, falls back to the uncertified magical-bin ratio
and increments the ``shard_lp_failures_total`` counter; any other
exception propagates.
A certifying scheduler loads the LP stack in its constructor
(:func:`~repro.core.lp_bound.load_solver`), so each round's fork pool
and the inline path start with HiGHS already imported.
The pod solves follow the same rule: a dead pool re-solves the pods
serially (identical reports), while an exception raised inside a pod
worker propagates.

With ``pods=1`` (or a fleet too small to cut) the scheduler *is* the
monolithic one: it delegates to an inner :class:`CwcScheduler` built
with identical knobs, so schedules are byte-identical by construction
— the property the CI ``sharded-parity`` job locks in.
"""

from __future__ import annotations

import contextlib
import functools
import time
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass, fields

import numpy as np

from ..obs.telemetry import NULL_TELEMETRY
from ..obs.tracing import maybe_span
from .capacity import CapacitySearch, CapacitySearchResult
from .greedy import CwcScheduler, SchedulingStats
from .instance import SchedulingInstance
from .lp_bound import load_solver
from .pod import (
    PodSolveReport,
    PodSpec,
    assemble_rows,
    default_pod_workers,
    partition_phones,
    pod_rate_tables,
    resolve_pod_count,
    solve_pod,
    solve_pod_lp,
)
from .schedule import Schedule

__all__ = ["ShardedScheduler", "ShardedSearchResult"]

#: A repair round only fires when the capacity spread justifies two
#: extra pod solves.
_REBALANCE_MIN_GAP = 1.05

#: Max job-migration repair rounds of the global capacity search.
_REBALANCE_ROUNDS = 1


@dataclass(frozen=True)
class ShardedSearchResult(CapacitySearchResult):
    """Outcome of one sharded scheduling round.

    A :class:`~repro.core.capacity.CapacitySearchResult` whose
    ``capacity_ms`` is the max over the pods' converged capacities,
    ``max_height_ms`` the max over the pods' tallest bins, and whose
    search counters sum over the pod solves; plus the sharding
    diagnostics below.
    """

    #: Resolved pod count this round (1 = monolithic delegation).
    pods: int = 1
    #: Slowest single pod solve (the critical path under a pool).
    pod_solve_ms_max: float = 0.0
    #: Total pod solve time (the serial-equivalent cost).
    pod_solve_ms_sum: float = 0.0
    #: ``max_height_ms`` over the certification floor (pod-LP optimum
    #: when available, else the magical-bin bound); 0.0 if no floor.
    shard_bound_ratio: float = 0.0
    #: Pod-LP optimum when it was solved this round, else ``None``.
    lp_floor_ms: float | None = None
    #: Wall time of this round's pod-LP solves; measured in the worker
    #: when the certificate ran on the pod pool.
    lp_certify_ms: float = 0.0
    #: Job-migration repair rounds the global search accepted.
    rebalance_moves: int = 0
    #: Per-pod diagnostics, pod-index order.
    pod_reports: tuple[PodSolveReport, ...] = ()

    def collect_certificate(self, *, trace_parent=None) -> None:
        """Fill in the certificate fields from a pooled round's pod LP.

        Waits for the LP, joins the round's pool and releases what the
        pending certificate held; a no-op once the fields are set.
        ``trace_parent`` is the open span the worker's ``lp_certify``
        span is adopted under (a root span when ``None``).  A HiGHS
        failure leaves ``lp_floor_ms=None``; any other exception from
        the LP propagates here, and again on the next read.
        """
        pending = self.__dict__.get("_pending_lp")
        if pending is not None:
            floor, wall_ms = pending.result(trace_parent)
            _certify(self, floor, wall_ms)
            del self.__dict__["_pending_lp"]

    def __getattr__(self, name: str):
        # Reached only for names missing from the instance: a pooled
        # round's certificate fields until its pod LP is collected.
        if name in _CERTIFICATE_FIELDS and "_pending_lp" in self.__dict__:
            self.collect_certificate()
            return self.__dict__[name]
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )


#: Result fields a round fills in from its certificate.
_CERTIFICATE_FIELDS = ("shard_bound_ratio", "lp_floor_ms", "lp_certify_ms")
# Class-level defaults would shadow ``__getattr__`` for a pending round
# (the generated ``__init__`` keeps its own copy of each default).
for _name in _CERTIFICATE_FIELDS:
    delattr(ShardedSearchResult, _name)
del _name


def _certify(
    result: ShardedSearchResult,
    lp_floor_ms: float | None,
    lp_certify_ms: float,
) -> None:
    """Set ``result``'s certificate fields."""
    floor = lp_floor_ms
    if floor is None:
        # Diagnostic fallback only: the magical-bin bracket is not a
        # certified floor (see the differential harness).
        floor = result.lower_bound_ms
    ratio = result.max_height_ms / floor if floor > 0 else 0.0
    values = (ratio, lp_floor_ms, lp_certify_ms)
    result.__dict__.update(zip(_CERTIFICATE_FIELDS, values))


class _PendingLp:
    """A pooled round's pod LP, still solving when ``schedule()`` returned.

    Takes over the round's pool and shuts it down without waiting: the
    idle pod workers and the LP worker exit once the LP has delivered.
    """

    def __init__(self, pool, future, solve_inline, tel) -> None:
        self._future = future
        #: Zero-argument inline solve, the dead-pool fallback.
        self._solve_inline = solve_inline
        self.tel = tel
        # shutdown(wait=False) drops the executor's handle on the thread
        # that joins the workers; keep it so collection can join them.
        self._manager = pool._executor_manager_thread
        pool.shutdown(wait=False)

    def result(self, trace_parent) -> tuple[float | None, float]:
        """The floor (``None`` if HiGHS failed) and its solve time, in ms."""
        try:
            makespan_ms, wall_ms, spans = self._future.result()
        except BrokenExecutor:
            # The pool died: certify inline, the identical floor.
            return self._solve_inline()
        finally:
            self._manager.join()
        tel = self.tel
        tracer = tel.tracer if tel.enabled else None
        if spans and tracer is not None:
            # The worker's lp_certify span keeps its own pods/lp lane.
            tracer.adopt(spans, parent=trace_parent)
        if makespan_ms is None:
            tel.inc("shard_lp_failures_total")
        return makespan_ms, wall_ms


def _holding(
    result: ShardedSearchResult, schedule: Schedule
) -> ShardedSearchResult:
    """Give ``result`` the schedule already built from its ``rows``.

    ``schedule`` is a cached property, so the result's first read
    returns the round's own schedule instead of building a copy.
    """
    object.__setattr__(result, "schedule", schedule)
    return result


class ShardedScheduler:
    """Pod-parallel CWC scheduling behind the ``Scheduler`` protocol.

    Parameters
    ----------
    pods:
        Pod count, or ``'auto'`` to target one pod per available CPU
        (``REPRO_CPUS`` honoured) with a 4-phone-per-pod floor.  The
        count is clamped to the fleet size each round; whenever it
        resolves to 1 the round delegates to the inner monolithic
        :class:`~repro.core.greedy.CwcScheduler` (byte-identical
        schedules).
    pod_workers:
        Process-pool size for concurrent pod solves; ``'auto'``
        (default) sizes from :func:`~repro.core.capacity.
        available_cpus` and stays in-process on single-CPU hosts.
        ``None``/1 forces the serial path.  Results are identical
        either way.
    certify:
        Solve the pod-aggregated LP each sharded round to certify the
        makespan (``shard_bound_ratio``).  Default ``True``.
    epsilon_ms / min_partition_kb / ram / warm_start / kernel /
    telemetry:
        As on :class:`~repro.core.greedy.CwcScheduler`; they configure
        both the inner monolithic scheduler and every per-pod search.
        The telemetry supplies the tracer; the one registry write here
        is ``shard_lp_failures_total``.  The pod metrics are derived
        from each round's :attr:`ShardedSearchResult.pod_reports` by
        :class:`~repro.sim.server.CentralServer`.
    """

    name = "cwc-sharded"

    def __init__(
        self,
        *,
        pods: int | str = "auto",
        pod_workers: int | str | None = "auto",
        certify: bool = True,
        epsilon_ms: float = 1.0,
        min_partition_kb: float | None = None,
        ram=None,
        warm_start: bool = False,
        kernel: str = "auto",
        telemetry=None,
    ) -> None:
        if pods != "auto" and int(pods) < 1:
            raise ValueError(f"pods must be >= 1 or 'auto', got {pods!r}")
        if pod_workers not in (None, "auto") and int(pod_workers) < 1:
            raise ValueError(
                f"pod_workers must be >= 1, 'auto', or None, "
                f"got {pod_workers!r}"
            )
        self._pods = pods
        self._pod_workers = pod_workers
        self._certify = certify
        if certify:
            # Load scipy here, once: a fork child would otherwise import
            # it afresh every round before its first pod LP.
            load_solver()
        self._warm_start = warm_start
        #: Monolithic delegate for resolved pod count 1 — byte-identical
        #: to a standalone CwcScheduler with the same knobs.
        self._mono = CwcScheduler(
            epsilon_ms=epsilon_ms,
            min_partition_kb=min_partition_kb,
            ram=ram,
            warm_start=warm_start,
            kernel=kernel,
            telemetry=telemetry,
        )
        #: Search kwargs for per-pod solves (worker-side constructor
        #: args, so everything here must pickle).
        self._search_kwargs = {
            "epsilon_ms": epsilon_ms,
            "min_partition_kb": min_partition_kb,
            "ram": ram,
            "kernel": kernel,
        }
        #: Long-lived serial pod solver.  It shares this scheduler's
        #: telemetry (kept out of ``_search_kwargs``, which must pickle
        #: for workers) so serial pod solves trace like monolithic ones.
        self._local_search = CapacitySearch(
            **self._search_kwargs, telemetry=telemetry
        )
        self._stats = SchedulingStats()
        self._last_result: ShardedSearchResult | None = None
        #: Warm hints per pod index from the previous sharded round.
        self._last_pod_capacities: dict[int, float] = {}
        self._tel = telemetry if telemetry is not None else NULL_TELEMETRY

    # -- public surface ---------------------------------------------------

    @property
    def last_result(self) -> ShardedSearchResult | None:
        """Diagnostics from the most recent round."""
        return self._last_result

    @property
    def stats(self) -> SchedulingStats:
        """Counters accumulated over every round scheduled so far."""
        return self._stats

    def schedule(self, instance: SchedulingInstance) -> Schedule:
        """Produce a schedule covering every job in ``instance``."""
        n_pods = resolve_pod_count(self._pods, len(instance.phones))
        if n_pods == 1:
            return self._schedule_monolithic(instance)
        return self._schedule_sharded(instance, n_pods)

    def reset_warm_state(self) -> None:
        """Forget every warm hint (e.g. between runs)."""
        self._mono.reset_warm_state()
        self._last_pod_capacities = {}

    def warm_state(self) -> dict:
        """JSON-safe snapshot of the warm-start caches."""
        mono = self._mono.warm_state()
        return {
            "warm_start": self._warm_start,
            "last_capacity_ms": mono["last_capacity_ms"],
            "pod_capacities": {
                str(index): capacity
                for index, capacity in sorted(
                    self._last_pod_capacities.items()
                )
            },
        }

    def restore_warm_state(self, state: dict) -> None:
        """Reinstate a :meth:`warm_state` snapshot (checkpoint restore)."""
        self._mono.restore_warm_state(state)
        restored: dict[int, float] = {}
        for key, value in (state.get("pod_capacities") or {}).items():
            capacity = float(value)
            if capacity < 0:
                raise ValueError(
                    f"pod capacity must be >= 0, got {capacity!r}"
                )
            restored[int(key)] = capacity
        self._last_pod_capacities = restored

    # -- monolithic delegation --------------------------------------------

    def _schedule_monolithic(self, instance: SchedulingInstance) -> Schedule:
        started = time.perf_counter()
        schedule = self._mono.schedule(instance)
        wall_ms = (time.perf_counter() - started) * 1000.0
        inner = self._mono.last_result
        lower = inner.lower_bound_ms
        result = ShardedSearchResult(
            **{f.name: getattr(inner, f.name) for f in fields(inner)},
            pods=1,
            pod_solve_ms_max=wall_ms,
            pod_solve_ms_sum=wall_ms,
            shard_bound_ratio=(
                inner.max_height_ms / lower if lower > 0 else 0.0
            ),
        )
        _holding(result, schedule)
        self._last_result = result
        self._stats.record(result, wall_ms)
        return schedule

    # -- sharded rounds ---------------------------------------------------

    def _schedule_sharded(
        self, instance: SchedulingInstance, n_pods: int
    ) -> Schedule:
        tel = self._tel
        tracer = tel.tracer if tel.enabled else None
        started = time.perf_counter()
        with maybe_span(
            tracer,
            "sharded_schedule",
            category="scheduler",
            scheduler=self.name,
            pods=n_pods,
            jobs=len(instance.jobs),
            phones=len(instance.phones),
        ) as round_span:
            with maybe_span(tracer, "split", category="pod"):
                pods_phones = partition_phones(
                    len(instance.phones), n_pods
                )
                bmin, cmin, agg = pod_rate_tables(instance, pods_phones)
                specs = _build_specs(
                    pods_phones, _assign_greedy(instance, bmin, agg)
                )
            hints = (
                dict(self._last_pod_capacities) if self._warm_start else {}
            )
            lp_floor_ms, lp_certify_ms = None, 0.0
            pending_lp = None
            with self._round_pool(
                instance, len(specs), self._certify
            ) as pool:
                # The certificate reads only the split, so on the pool
                # it runs alongside the pod solves and the rebalance;
                # submitted first, it never queues behind a pod.
                lp_future = None
                if pool is not None and self._certify:
                    lp_future = _submit_pod_lp(pool, pods_phones, bmin, cmin)
                with maybe_span(
                    tracer, "pod_solves", category="pod", pods=len(specs)
                ) as solves_span:
                    reports = self._solve_pods(
                        instance, specs, hints, pool, trace_parent=solves_span
                    )
                with maybe_span(
                    tracer, "rebalance", category="pod"
                ) as rebalance_span:
                    specs, reports, moves = self._global_capacity_search(
                        instance, specs, reports, bmin, agg, hints
                    )
                    if rebalance_span is not None:
                        rebalance_span.set_attr("moves", moves)
                if lp_future is not None:
                    # The round does not wait for its certificate.
                    solve_inline = functools.partial(
                        self._solve_pod_lp, instance, pods_phones, bmin, cmin
                    )
                    pending_lp = _PendingLp(
                        pool, lp_future, solve_inline, tel
                    )
                elif self._certify:
                    lp_floor_ms, lp_certify_ms = self._solve_pod_lp(
                        instance, pods_phones, bmin, cmin
                    )

            with maybe_span(tracer, "assemble", category="pod"):
                rows = assemble_rows(reports)
                schedule = Schedule.from_rows(rows)
            if round_span is not None:
                round_span.set_attr(
                    "capacity_ms",
                    max(report.capacity_ms for report in reports),
                )
            # wall_ms is the scheduling work proper; the result
            # bookkeeping below (mostly the full instance's capacity
            # bracket, streamed in row blocks so the parent never holds
            # a fleet-wide per-KB matrix) stays outside it but inside
            # the root span so the trace decomposition accounts for the
            # whole schedule() call.
            wall_ms = (time.perf_counter() - started) * 1000.0
            with maybe_span(tracer, "finish_round", category="pod"):
                result = self._finish_round(
                    instance, n_pods, reports, rows, schedule, moves
                )
                if pending_lp is None:
                    _certify(result, lp_floor_ms, lp_certify_ms)
                else:
                    # Unset, so the first read reaches ``__getattr__``.
                    for name in _CERTIFICATE_FIELDS:
                        del result.__dict__[name]
                    result.__dict__["_pending_lp"] = pending_lp
        self._last_result = result
        self._stats.record(result, wall_ms)
        self._last_pod_capacities = {
            report.index: report.capacity_ms for report in reports
        }
        return schedule

    def _round_pool(self, instance, n_specs, certify):
        """The round's fork pool, or a ``None`` context on the serial path.

        Pooled when ``pod_workers`` resolves to 2+ and there are 2+
        pods; the certificate gets one slot beyond the pod workers.
        Workers inherit the full instance through ``fork``
        (copy-on-write: nothing is pickled or copied up front), and
        leaving the context joins every worker unless a pending
        certificate (``_PendingLp``) has taken the pool over.
        """
        workers = self._pod_workers
        if workers == "auto":
            workers = default_pod_workers(n_specs)
        if workers is None or workers < 2 or n_specs < 2:
            return contextlib.nullcontext()
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        from .pod import _pod_worker_init

        tel = self._tel
        tracer = tel.tracer if tel.enabled else None
        return ProcessPoolExecutor(
            max_workers=min(workers, n_specs) + int(certify),
            mp_context=multiprocessing.get_context("fork"),
            initializer=_pod_worker_init,
            initargs=(instance, self._search_kwargs, tracer is not None),
        )

    def _solve_pod_lp(self, instance, pods_phones, bmin, cmin):
        """Inline pod LP: ``(floor_ms, wall_ms)``; ``None`` if HiGHS failed."""
        tel = self._tel
        tracer = tel.tracer if tel.enabled else None
        started = time.perf_counter()
        solution = solve_pod_lp(
            instance, pods_phones, bmin, cmin, tracer=tracer
        )
        wall_ms = (time.perf_counter() - started) * 1000.0
        if solution is None:
            tel.inc("shard_lp_failures_total")
            return None, wall_ms
        return solution.makespan_ms, wall_ms

    def _solve_pods(
        self,
        instance: SchedulingInstance,
        specs: list[PodSpec],
        hints: dict[int, float],
        pool,
        *,
        trace_parent=None,
    ) -> list[PodSolveReport]:
        """Solve every pod, on ``pool`` when there is one, else serially.

        Pool workers receive each pod as a few integer tuples; a dead
        pool degrades to the serial path, which produces identical
        reports.  ``trace_parent`` is the open ``pod_solves`` span
        worker-side spans are adopted under.
        """
        tel = self._tel
        tracer = tel.tracer if tel.enabled else None
        if pool is not None:
            reports = self._solve_pods_pooled(
                pool, specs, hints, trace_parent=trace_parent
            )
            if reports is not None:
                return reports
        return [
            solve_pod(
                instance,
                spec,
                self._local_search,
                warm_hint_ms=hints.get(spec.index),
                tracer=tracer,
            )
            for spec in specs
        ]

    def _solve_pods_pooled(
        self, pool, specs, hints, *, trace_parent=None
    ) -> list[PodSolveReport] | None:
        tel = self._tel
        tracer = tel.tracer if tel.enabled else None
        try:
            from .pod import _pod_worker_solve

            futures = [
                pool.submit(
                    _pod_worker_solve,
                    (
                        spec.index,
                        spec.phone_positions,
                        spec.job_positions,
                        hints.get(spec.index),
                    ),
                )
                for spec in specs
            ]
            reports = [future.result() for future in futures]
        except BrokenExecutor:
            return None  # the pool died: serial fallback, identical reports
        if tracer is not None:
            # Re-home each worker's span segment under the pod_solves
            # span, then strip the dicts so pod_reports stays slim.
            import dataclasses

            rehomed = []
            for report in reports:
                if report.spans:
                    tracer.adopt(report.spans, parent=trace_parent)
                    report = dataclasses.replace(report, spans=())
                rehomed.append(report)
            reports = rehomed
        return reports

    def _global_capacity_search(
        self, instance, specs, reports, bmin, agg, hints
    ):
        """Min-max repair over per-pod capacities (bounded, monotone).

        The global capacity is the max over pods; each repair round
        moves the single job that best fills half the gap from the
        argmax pod to the argmin pod, re-solves exactly those two pods
        (warm-hinted with their previous capacities), and keeps the
        move only when the global capacity strictly improves.  Repair
        is deterministic: ties break on job position.
        """
        moves = 0
        if _REBALANCE_ROUNDS < 1 or len(reports) < 2:
            return specs, reports, moves
        exe, load = instance.job_load_arrays()
        for _ in range(_REBALANCE_ROUNDS):
            capacities = [report.capacity_ms for report in reports]
            hi_k = max(range(len(reports)), key=lambda k: capacities[k])
            lo_k = min(range(len(reports)), key=lambda k: capacities[k])
            gap = capacities[hi_k] - capacities[lo_k]
            if (
                hi_k == lo_k
                or capacities[hi_k]
                <= capacities[lo_k] * _REBALANCE_MIN_GAP
            ):
                break
            hi_spec, lo_spec = specs[hi_k], specs[lo_k]
            job_pos = _pick_migration_job(
                hi_spec, lo_spec, exe, load, bmin, agg, gap
            )
            if job_pos is None:
                break
            new_hi = PodSpec(
                index=hi_spec.index,
                phone_positions=hi_spec.phone_positions,
                job_positions=tuple(
                    j for j in hi_spec.job_positions if j != job_pos
                ),
            )
            new_lo = PodSpec(
                index=lo_spec.index,
                phone_positions=lo_spec.phone_positions,
                job_positions=tuple(
                    sorted(lo_spec.job_positions + (job_pos,))
                ),
            )
            if not new_hi.job_positions:
                break  # never empty a pod: its report would vanish
            tel = self._tel
            tracer = tel.tracer if tel.enabled else None
            resolved = [
                solve_pod(
                    instance,
                    spec,
                    self._local_search,
                    warm_hint_ms=reports[k].capacity_ms,
                    tracer=tracer,
                )
                for spec, k in ((new_hi, hi_k), (new_lo, lo_k))
            ]
            old_max = max(capacities)
            trial = list(reports)
            trial[hi_k], trial[lo_k] = resolved
            new_max = max(report.capacity_ms for report in trial)
            if new_max >= old_max:
                break  # no gain: keep the old reports, drop both re-solves
            specs = list(specs)
            specs[hi_k], specs[lo_k] = new_hi, new_lo
            reports = trial
            moves += 1
        return specs, reports, moves

    def _finish_round(
        self, instance, n_pods, reports, rows, schedule, moves
    ) -> ShardedSearchResult:
        """The round's result, certificate fields still to be set."""
        capacity = max(report.capacity_ms for report in reports)
        makespan = max(report.max_height_ms for report in reports)
        kernels = {report.kernel for report in reports}
        bounds = instance.capacity_bounds()
        result = ShardedSearchResult(
            rows=rows,
            capacity_ms=capacity,
            max_height_ms=makespan,
            lower_bound_ms=bounds[0],
            upper_bound_ms=bounds[1],
            packer_passes=sum(r.packer_passes for r in reports),
            bisection_steps=sum(r.bisection_steps for r in reports),
            shortcircuit_skips=sum(r.shortcircuit_skips for r in reports),
            assumed_feasible=sum(r.assumed_feasible for r in reports),
            warm_start_used=any(r.warm_start_used for r in reports),
            kernel=kernels.pop() if len(kernels) == 1 else "mixed",
            pods=n_pods,
            pod_solve_ms_max=max(r.wall_ms for r in reports),
            pod_solve_ms_sum=sum(r.wall_ms for r in reports),
            rebalance_moves=moves,
            pod_reports=tuple(
                sorted(reports, key=lambda r: r.index)
            ),
        )
        return _holding(result, schedule)


def _submit_pod_lp(pool, pods_phones, bmin, cmin):
    """Queue the pod-LP certificate on ``pool``; ``None`` on a dead pool."""
    from .pod import _pod_worker_lp

    try:
        return pool.submit(_pod_worker_lp, (pods_phones, bmin, cmin))
    except (BrokenExecutor, OSError):
        return None  # certified inline after the rebalance


# -- job-to-pod splitter --------------------------------------------------


def _assign_greedy(
    instance: SchedulingInstance, bmin: np.ndarray, agg: np.ndarray
) -> np.ndarray:
    """LPT against per-pod estimated work (the LP's load prices).

    ``est[p, j] = E_j * bmin_p + L_j / agg_pj`` is job ``j``'s
    magical-bin completion time inside pod ``p`` — exactly the terms
    the pod LP's load constraint prices.  Jobs are placed largest
    first (by their best-pod estimate) onto the pod minimising
    ``load_p + est[p, j]``; ties break on pod index, then job
    position, so the split is deterministic.
    """
    n_pods, n_jobs = agg.shape
    exe, load = instance.job_load_arrays()
    est = np.full((n_pods, n_jobs), np.inf)
    np.divide(load[None, :], agg, out=est, where=agg > 0)
    est += exe[None, :] * bmin[:, None]
    est[~(agg > 0)] = np.inf
    best = est.min(axis=0)
    # A job no pod can price (all-zero rates: degenerate b = c = 0
    # phones) costs ~nothing to run; deal it round-robin by position.
    unpriced = ~np.isfinite(best)
    order = np.lexsort((np.arange(n_jobs), -np.where(unpriced, 0.0, best)))
    pod_load = np.zeros(n_pods)
    out = np.empty(n_jobs, dtype=np.intp)
    for j in order:
        if unpriced[j]:
            out[j] = j % n_pods
            continue
        candidate = pod_load + est[:, j]
        p = int(np.argmin(candidate))
        out[j] = p
        pod_load[p] += est[p, j]
    return out


def _build_specs(
    pods_phones: tuple[tuple[int, ...], ...], job_pods: np.ndarray
) -> list[PodSpec]:
    """Materialise non-empty pod specs from the splitter's verdict."""
    specs: list[PodSpec] = []
    for p, phone_positions in enumerate(pods_phones):
        job_positions = tuple(np.flatnonzero(job_pods == p).tolist())
        if job_positions:
            specs.append(
                PodSpec(
                    index=p,
                    phone_positions=phone_positions,
                    job_positions=job_positions,
                )
            )
    return specs


def _pick_migration_job(
    hi_spec: PodSpec,
    lo_spec: PodSpec,
    exe: np.ndarray,
    load: np.ndarray,
    bmin: np.ndarray,
    agg: np.ndarray,
    gap: float,
) -> int | None:
    """The job whose move best fills half the capacity gap.

    Scores each of the overloaded pod's jobs by its estimated work on
    the *receiving* pod and picks the one closest to ``gap / 2`` —
    moving much more would overshoot and just swap which pod is the
    bottleneck.  Jobs the receiving pod cannot price (zero aggregate
    rate) are skipped.  Returns ``None`` when no job qualifies.
    """
    lo = lo_spec.index
    best_pos: int | None = None
    best_score = np.inf
    target = gap / 2.0
    for j in hi_spec.job_positions:
        rate = agg[lo, j]
        if not rate > 0:
            continue
        est = exe[j] * bmin[lo] + load[j] / rate
        score = abs(est - target)
        if score < best_score:
            best_score = score
            best_pos = j
    return best_pos

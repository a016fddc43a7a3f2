"""Sharded pod-parallel scheduling: partition, solve, coordinate.

The monolithic :class:`~repro.core.greedy.CwcScheduler` solves one
global capacity search per round, which couples fleet size to
single-solve cost.  :class:`ShardedScheduler` decouples them:

1. **Partition** the fleet into pods (round-robin by phone position —
   :func:`repro.core.pod.partition_phones`);
2. **Split** the jobs across pods with one of three policies
   (``pod_assign=``):

   * ``'lp'`` — solve the pod-aggregated LP relaxation
     (:func:`repro.core.lp_bound.solve_pod_relaxed_makespan`) and send
     each job to the pod holding the largest fractional allocation
     ``l_pj``; the LP optimum doubles as the certification floor;
   * ``'greedy'`` (default) — longest-processing-time-first against
     per-pod estimated work ``E_j * bmin_p + L_j / agg_pj`` (the job's
     magical-bin time inside the pod) — the dual-guided balance the
     LP's load constraints price, without an LP solve per round;
   * ``'hash'`` — ``crc32(job_id) % pods``: stateless, splitter-free
     placement for comparison (and ``PYTHONHASHSEED``-independent);

3. **Solve** each pod's sub-instance with the existing kernels — on a
   fork process pool when CPUs allow (workers inherit the full
   instance copy-on-write and slice their pod's rows), serially
   otherwise, with identical results either way.  Pods are the only
   parallel axis: each pod's capacity search runs serially;
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

With ``pods=1`` (or a fleet too small to cut) the scheduler *is* the
monolithic one: it delegates to an inner :class:`CwcScheduler` built
with identical knobs, so schedules are byte-identical by construction
— the property the CI ``sharded-parity`` job locks in.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass

import numpy as np

from ..obs.telemetry import NULL_TELEMETRY
from ..obs.tracing import maybe_span
from .capacity import CapacitySearch
from .greedy import CwcScheduler, SchedulingStats
from .instance import SchedulingInstance
from .pod import (
    PodSolveReport,
    PodSpec,
    assemble_schedule,
    default_pod_workers,
    partition_phones,
    pod_rate_tables,
    resolve_pod_count,
    solve_pod,
)
from .schedule import Schedule

__all__ = ["ShardedScheduler", "ShardedSearchResult"]

_POD_ASSIGN_POLICIES = ("lp", "greedy", "hash")

#: A repair round only fires when the capacity spread justifies two
#: extra pod solves.
_REBALANCE_MIN_GAP = 1.05

#: Max job-migration repair rounds of the global capacity search.
_REBALANCE_ROUNDS = 1


@dataclass(frozen=True)
class ShardedSearchResult:
    """Outcome of one sharded scheduling round.

    Field-compatible with :class:`~repro.core.capacity.
    CapacitySearchResult` (so :class:`~repro.core.greedy.
    SchedulingStats` and ``RoundRecord`` consume it unchanged), plus
    the sharding diagnostics.
    """

    schedule: Schedule
    #: Global capacity: max over the pods' converged capacities.
    capacity_ms: float
    #: Global makespan: max over the pods' tallest bins.
    max_height_ms: float
    lower_bound_ms: float
    upper_bound_ms: float
    iterations: int
    packer_passes: int = 0
    bisection_steps: int = 0
    shortcircuit_skips: int = 0
    assumed_feasible: int = 0
    warm_start_used: bool = False
    kernel: str = "python"
    #: Resolved pod count this round (1 = monolithic delegation).
    pods: int = 1
    #: Job-to-pod policy the round used.
    pod_assign: str = "none"
    #: Slowest single pod solve (the critical path under a pool).
    pod_solve_ms_max: float = 0.0
    #: Total pod solve time (the serial-equivalent cost).
    pod_solve_ms_sum: float = 0.0
    #: ``max_height_ms`` over the certification floor (pod-LP optimum
    #: when available, else the magical-bin bound); 0.0 if no floor.
    shard_bound_ratio: float = 0.0
    #: Pod-LP optimum when it was solved this round, else ``None``.
    lp_floor_ms: float | None = None
    #: Job-migration repair rounds the global search accepted.
    rebalance_moves: int = 0
    #: Per-pod diagnostics, pod-index order.
    pod_reports: tuple[PodSolveReport, ...] = ()


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
    pod_assign:
        Job-to-pod splitter: ``'lp'``, ``'greedy'`` (default), or
        ``'hash'`` (see the module docstring).
    pod_workers:
        Process-pool size for concurrent pod solves; ``'auto'``
        (default) sizes from :func:`~repro.core.capacity.
        available_cpus` and stays in-process on single-CPU hosts.
        ``None``/1 forces the serial path.  Results are identical
        either way.
    certify:
        Solve the pod-aggregated LP each sharded round to certify the
        makespan (``shard_bound_ratio``).  Default ``True``;
        ``pod_assign='lp'`` gets the floor for free either way.
    epsilon_ms / min_partition_kb / max_iterations / ram / warm_start /
    kernel / telemetry:
        As on :class:`~repro.core.greedy.CwcScheduler`; they configure
        both the inner monolithic scheduler and every per-pod search.
    """

    name = "cwc-sharded"

    #: Sharded scheduling never requests proactive replication (only
    #: the default capacity-search policy may run sharded at all).
    last_replicas: tuple = ()

    def __init__(
        self,
        *,
        pods: int | str = "auto",
        pod_assign: str = "greedy",
        pod_workers: int | str | None = "auto",
        certify: bool = True,
        epsilon_ms: float = 1.0,
        min_partition_kb: float | None = None,
        max_iterations: int = 60,
        ram=None,
        warm_start: bool = False,
        kernel: str = "auto",
        telemetry=None,
    ) -> None:
        if pod_assign not in _POD_ASSIGN_POLICIES:
            raise ValueError(
                f"unknown pod_assign {pod_assign!r}; "
                f"expected one of {_POD_ASSIGN_POLICIES}"
            )
        if pods != "auto" and int(pods) < 1:
            raise ValueError(f"pods must be >= 1 or 'auto', got {pods!r}")
        if pod_workers not in (None, "auto") and int(pod_workers) < 1:
            raise ValueError(
                f"pod_workers must be >= 1, 'auto', or None, "
                f"got {pod_workers!r}"
            )
        self._pods = pods
        self._pod_assign = pod_assign
        self._pod_workers = pod_workers
        self._certify = certify
        self._warm_start = warm_start
        #: Monolithic delegate for resolved pod count 1 — byte-identical
        #: to a standalone CwcScheduler with the same knobs.
        self._mono = CwcScheduler(
            epsilon_ms=epsilon_ms,
            min_partition_kb=min_partition_kb,
            max_iterations=max_iterations,
            ram=ram,
            warm_start=warm_start,
            kernel=kernel,
            telemetry=telemetry,
        )
        #: Search kwargs for per-pod solves (worker-side constructor
        #: args, so everything here must pickle).
        self._search_kwargs = {
            "epsilon_ms": epsilon_ms,
            "max_iterations": max_iterations,
            "min_partition_kb": min_partition_kb,
            "ram": ram,
            "kernel": kernel,
        }
        #: Long-lived serial pod solver: its array pool recycles packer
        #: buffers across pods and across rounds.  It shares this
        #: scheduler's telemetry (kept out of ``_search_kwargs``, which
        #: must pickle for workers) so serial pod solves trace and
        #: meter like monolithic ones.
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
            schedule=schedule,
            capacity_ms=inner.capacity_ms,
            max_height_ms=inner.max_height_ms,
            lower_bound_ms=lower,
            upper_bound_ms=inner.upper_bound_ms,
            iterations=inner.iterations,
            packer_passes=inner.packer_passes,
            bisection_steps=inner.bisection_steps,
            shortcircuit_skips=inner.shortcircuit_skips,
            assumed_feasible=inner.assumed_feasible,
            warm_start_used=inner.warm_start_used,
            kernel=inner.kernel,
            pods=1,
            pod_assign="none",
            pod_solve_ms_max=wall_ms,
            pod_solve_ms_sum=wall_ms,
            shard_bound_ratio=(
                inner.max_height_ms / lower if lower > 0 else 0.0
            ),
        )
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

                lp_floor_ms: float | None = None
                job_pods: np.ndarray | None = None
                if self._pod_assign == "lp":
                    solution = self._solve_pod_lp(
                        instance, pods_phones, bmin, cmin
                    )
                    if solution is not None:
                        lp_floor_ms = solution.makespan_ms
                        # Send each job to the pod the relaxation leans
                        # on hardest; first-max wins for determinism.
                        job_pods = np.argmax(solution.l_kb, axis=0)
                if job_pods is None:
                    if self._pod_assign == "hash":
                        job_pods = _assign_hash(instance, n_pods)
                    else:  # 'greedy', and the 'lp' fallback
                        job_pods = _assign_greedy(instance, bmin, agg)

                specs = _build_specs(pods_phones, job_pods)
            hints = (
                dict(self._last_pod_capacities) if self._warm_start else {}
            )
            with maybe_span(
                tracer, "pod_solves", category="pod", pods=len(specs)
            ) as solves_span:
                reports = self._solve_pods(
                    instance, specs, hints, trace_parent=solves_span
                )
            with maybe_span(
                tracer, "rebalance", category="pod"
            ) as rebalance_span:
                specs, reports, moves = self._global_capacity_search(
                    instance, specs, reports, bmin, agg, hints
                )
                if rebalance_span is not None:
                    rebalance_span.set_attr("moves", moves)

            if lp_floor_ms is None and self._certify:
                solution = self._solve_pod_lp(
                    instance, pods_phones, bmin, cmin
                )
                if solution is not None:
                    lp_floor_ms = solution.makespan_ms

            with maybe_span(tracer, "assemble", category="pod"):
                schedule = assemble_schedule(reports)
            if round_span is not None:
                round_span.set_attr(
                    "capacity_ms",
                    max(report.capacity_ms for report in reports),
                )
            # wall_ms is the scheduling work proper; the result
            # bookkeeping below (dominated by capacity_bounds at fleet
            # scale) stays outside it but inside the root span so the
            # trace decomposition accounts for the whole schedule()
            # call.
            wall_ms = (time.perf_counter() - started) * 1000.0
            with maybe_span(tracer, "finish_round", category="pod"):
                result = self._finish_round(
                    instance,
                    n_pods,
                    specs,
                    reports,
                    schedule,
                    lp_floor_ms,
                    moves,
                    wall_ms,
                )
        self._last_result = result
        self._stats.record(result, wall_ms)
        self._last_pod_capacities = {
            report.index: report.capacity_ms for report in reports
        }
        return schedule

    def _solve_pod_lp(self, instance, pods_phones, bmin, cmin):
        """Pod-aggregated LP, or ``None`` when the solver is unhappy."""
        tel = self._tel
        tracer = tel.tracer if tel.enabled else None
        with maybe_span(tracer, "lp_certify", category="pod"):
            try:
                from .lp_bound import solve_pod_relaxed_makespan

                return solve_pod_relaxed_makespan(
                    instance, pods_phones, tables=(bmin, cmin)
                )
            except Exception:
                return None

    def _solve_pods(
        self,
        instance: SchedulingInstance,
        specs: list[PodSpec],
        hints: dict[int, float],
        *,
        trace_parent=None,
    ) -> list[PodSolveReport]:
        """Solve every pod, on the pool when it pays, serially otherwise.

        Pool workers inherit the full instance through ``fork`` and
        receive each pod as a few integer tuples; any pool failure
        degrades to the serial path, which produces identical reports.
        ``trace_parent`` is the open ``pod_solves`` span worker-side
        spans are adopted under.
        """
        tel = self._tel
        tracer = tel.tracer if tel.enabled else None
        workers = self._pod_workers
        if workers == "auto":
            workers = default_pod_workers(len(specs))
        if workers is not None and workers >= 2 and len(specs) >= 2:
            reports = self._solve_pods_pooled(
                instance, specs, hints, workers, trace_parent=trace_parent
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
        self, instance, specs, hints, workers, *, trace_parent=None
    ) -> list[PodSolveReport] | None:
        tel = self._tel
        tracer = tel.tracer if tel.enabled else None
        try:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            from .pod import _pod_worker_init, _pod_worker_solve

            # The fork context hands the instance to the workers
            # copy-on-write: nothing is pickled or copied up front.
            with ProcessPoolExecutor(
                max_workers=min(workers, len(specs)),
                mp_context=multiprocessing.get_context("fork"),
                initializer=_pod_worker_init,
                initargs=(
                    instance,
                    self._search_kwargs,
                    tracer.run_id if tracer is not None else None,
                ),
            ) as pool:
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
        except Exception:
            return None  # serial fallback, identical reports
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
                break  # the move did not help; keep the solved pods
            specs = list(specs)
            specs[hi_k], specs[lo_k] = new_hi, new_lo
            reports = trial
            moves += 1
        return specs, reports, moves

    def _finish_round(
        self,
        instance,
        n_pods,
        specs,
        reports,
        schedule,
        lp_floor_ms,
        moves,
        wall_ms,
    ) -> ShardedSearchResult:
        capacity = max(report.capacity_ms for report in reports)
        makespan = max(report.max_height_ms for report in reports)
        floor = lp_floor_ms
        if floor is None:
            # Diagnostic fallback only: the magical-bin bracket is not
            # a certified floor (see the differential harness).
            floor = instance.capacity_bounds()[0]
        ratio = makespan / floor if floor > 0 else 0.0
        kernels = {report.kernel for report in reports}
        tel = self._tel
        if tel.enabled:
            for spec, report in zip(specs, reports):
                pod = str(report.index)
                tel.observe("pod_solve_ms", report.wall_ms, pod=pod)
                tel.observe(
                    "pod_capacity_ms", report.capacity_ms, pod=pod
                )
                tel.inc(
                    "pod_jobs_total",
                    float(len(spec.job_positions)),
                    pod=pod,
                )
            tel.set_gauge("shard_bound_ratio", ratio)
            tel.set_gauge("shard_pods", float(n_pods))
            tel.inc("shard_rebalance_moves_total", float(moves))
            tel.observe("schedule_wall_ms", wall_ms, scheduler=self.name)
        bounds = instance.capacity_bounds()
        return ShardedSearchResult(
            schedule=schedule,
            capacity_ms=capacity,
            max_height_ms=makespan,
            lower_bound_ms=bounds[0],
            upper_bound_ms=bounds[1],
            iterations=sum(r.packer_passes for r in reports),
            packer_passes=sum(r.packer_passes for r in reports),
            bisection_steps=sum(r.bisection_steps for r in reports),
            shortcircuit_skips=sum(r.shortcircuit_skips for r in reports),
            assumed_feasible=sum(r.assumed_feasible for r in reports),
            warm_start_used=any(r.warm_start_used for r in reports),
            kernel=kernels.pop() if len(kernels) == 1 else "mixed",
            pods=n_pods,
            pod_assign=self._pod_assign,
            pod_solve_ms_max=max(r.wall_ms for r in reports),
            pod_solve_ms_sum=sum(r.wall_ms for r in reports),
            shard_bound_ratio=ratio,
            lp_floor_ms=lp_floor_ms,
            rebalance_moves=moves,
            pod_reports=tuple(
                sorted(reports, key=lambda r: r.index)
            ),
        )


# -- job-to-pod splitters -------------------------------------------------


def _assign_hash(instance: SchedulingInstance, n_pods: int) -> np.ndarray:
    """``crc32(job_id) % n_pods`` — stateless and hash-seed independent."""
    return np.fromiter(
        (
            zlib.crc32(job.job_id.encode("utf-8")) % n_pods
            for job in instance.jobs
        ),
        dtype=np.intp,
        count=len(instance.jobs),
    )


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

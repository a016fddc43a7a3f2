"""Fleet pods: partitioning, sub-instances, and per-pod solves.

A *pod* is a disjoint group of phones that the sharded scheduler
(:mod:`repro.core.sharding`) solves independently with the existing
capacity-search machinery.  This module owns the mechanical pieces:

* :func:`resolve_pod_count` / :func:`partition_phones` — deterministic
  fleet partitioning (round-robin by phone position, so replicated
  testbed fleets spread their phone models evenly across pods);
* :func:`pod_instance` — slice a full :class:`~repro.core.instance.
  SchedulingInstance` down to one pod's (phones, jobs) rectangle, with
  the cost matrix sliced as a dense block instead of rebuilt entry by
  entry;
* :func:`pod_rate_tables` — the blocked one-pass sweep producing the
  per-(pod, job) aggregate tables the job splitter and the
  pod-aggregated LP consume;
* :func:`solve_pod` and the ``_pod_worker_*`` process-pool hooks — one
  pod's capacity search, returning a slim picklable
  :class:`PodSolveReport` whose assignments the parent reassembles
  into the global schedule.

Workers inherit the *full* instance from the parent through ``fork``
(copy-on-write, so the cost matrix is neither pickled nor copied) and
slice their pod's rows per task, and each worker keeps one long-lived
:class:`~repro.core.capacity.CapacitySearch` so its
:class:`~repro.core.arraypool.ArrayPool` recycles packer buffers
across the pods it solves.  After every pod solve the pool must be
clean — :meth:`ArrayPool.leaked_buffers` is asserted zero.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..obs.tracing import Tracer, maybe_span
from .capacity import CapacitySearch, available_cpus
from .instance import SchedulingInstance, _DenseCostMap
from .schedule import Assignment, Schedule

__all__ = [
    "PodSolveReport",
    "PodSpec",
    "assemble_schedule",
    "default_pod_workers",
    "partition_phones",
    "pod_instance",
    "pod_rate_tables",
    "resolve_pod_count",
    "solve_pod",
]

#: ``pods='auto'`` never cuts the fleet into pods smaller than this —
#: below it the per-pod search overhead dominates any parallel win.
_MIN_POD_PHONES = 4


@dataclass(frozen=True)
class PodSpec:
    """One pod's slice of the fleet: phone and job *positions*.

    Positions index ``instance.phones`` / ``instance.jobs`` of the full
    instance, which keeps the spec a few integers regardless of fleet
    scale — the picklable unit of work shipped to pod workers.
    """

    index: int
    phone_positions: tuple[int, ...]
    job_positions: tuple[int, ...]


@dataclass(frozen=True)
class PodSolveReport:
    """Slim picklable outcome of one pod's capacity search.

    ``assignments`` is the pod schedule flattened to
    ``(phone_id, job_id, task, input_kb, whole)`` tuples in placement
    order; the parent rebuilds :class:`~repro.core.schedule.Assignment`
    records and concatenates pods in index order.  ``leaked_buffers``
    is the solving search's :meth:`~repro.core.arraypool.ArrayPool.
    leaked_buffers` *after* the solve — always 0 unless the recycling
    discipline regressed.
    """

    index: int
    assignments: tuple[tuple[str, str, str, float, bool], ...]
    capacity_ms: float
    max_height_ms: float
    lower_bound_ms: float
    packer_passes: int
    bisection_steps: int
    shortcircuit_skips: int
    assumed_feasible: int
    warm_start_used: bool
    kernel: str
    wall_ms: float
    leaked_buffers: int
    pool_hits: int
    pool_misses: int
    #: Worker-side trace spans (plain dicts) for pooled solves with
    #: tracing armed; the parent adopts them parent-linked.  Serial
    #: solves record straight into the caller's tracer and leave this
    #: empty.
    spans: tuple = ()

    def build_assignments(self) -> tuple[Assignment, ...]:
        """Rehydrate the flattened assignment tuples."""
        return tuple(
            Assignment(
                phone_id=phone_id,
                job_id=job_id,
                task=task,
                input_kb=input_kb,
                whole=whole,
            )
            for phone_id, job_id, task, input_kb, whole in self.assignments
        )


def resolve_pod_count(pods: int | str, n_phones: int) -> int:
    """Resolve a ``pods`` selector to a concrete pod count.

    ``'auto'`` targets one pod per available CPU (see
    :func:`~repro.core.capacity.available_cpus`, which honours the
    ``REPRO_CPUS`` override) without cutting pods smaller than
    ``_MIN_POD_PHONES`` phones; integers pass through.  The result is
    always clamped to ``[1, n_phones]``.
    """
    if n_phones < 1:
        raise ValueError("n_phones must be >= 1")
    if pods == "auto":
        want = min(available_cpus(), n_phones // _MIN_POD_PHONES)
    else:
        want = int(pods)
        if want < 1:
            raise ValueError(f"pods must be >= 1 or 'auto', got {pods!r}")
    return max(1, min(want, n_phones))


def partition_phones(
    n_phones: int, n_pods: int
) -> tuple[tuple[int, ...], ...]:
    """Deterministic round-robin phone partition: ``pos % n_pods``.

    Fleets built by replicating a base set of phone models (the paper
    testbed, the benches) list the replicas consecutively, so the
    round-robin deal gives every pod a near-identical model mix —
    which keeps per-pod capacities comparable without inspecting the
    cost matrix.
    """
    if not 1 <= n_pods <= n_phones:
        raise ValueError(
            f"n_pods must be in [1, {n_phones}], got {n_pods}"
        )
    return tuple(
        tuple(range(start, n_phones, n_pods)) for start in range(n_pods)
    )


def pod_instance(
    instance: SchedulingInstance,
    phone_positions: tuple[int, ...],
    job_positions: tuple[int, ...],
) -> SchedulingInstance:
    """The sub-instance spanning one pod's (phones, jobs) rectangle.

    The cost matrix is sliced as one dense block (``np.ix_``) into a
    fresh :class:`~repro.core.instance._DenseCostMap`, so the
    sub-instance costs one rectangle copy instead of a per-entry
    rebuild; validation in the sub-instance constructor is the cheap
    dense path.
    """
    phones = tuple(instance.phones[i] for i in phone_positions)
    jobs = tuple(instance.jobs[j] for j in job_positions)
    block = instance.c_matrix()[
        np.ix_(
            np.asarray(phone_positions, dtype=np.intp),
            np.asarray(job_positions, dtype=np.intp),
        )
    ]
    dense = _DenseCostMap(
        tuple(phone.phone_id for phone in phones),
        tuple(job.job_id for job in jobs),
        block,
    )
    b_table = {phone.phone_id: instance.b(phone.phone_id) for phone in phones}
    return SchedulingInstance(
        jobs=jobs, phones=phones, b_ms_per_kb=b_table, c_ms_per_kb=dense
    )


def pod_rate_tables(
    instance: SchedulingInstance,
    pods: tuple[tuple[int, ...], ...],
    *,
    block_rows: int = 128,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-pod aggregate tables in one blocked pass over the matrix.

    Returns ``(bmin, cmin, agg)``:

    * ``bmin[p]`` — cheapest executable-shipping rate in pod ``p``
      (``min_i b_i``);
    * ``cmin[p, j]`` — componentwise-best per-KB rate
      ``min_{i in pod} (b_i + c_ij)`` (the pod-LP's super-machine);
    * ``agg[p, j]`` — the pod's magical-bin aggregate rate
      ``sum_{i in pod} 1 / (b_i + c_ij)`` (non-positive rates
      contribute 0, matching :meth:`SchedulingInstance.
      capacity_bounds`), which prices a job's processing time inside
      the pod for the greedy splitter.

    The sweep walks the cost matrix in row blocks so no full
    ``phones x jobs`` temporary beyond one block is materialised —
    at 4000 x 20000 the full ``b_i + c_ij`` matrix alone is 640 MB.
    """
    c_mat = instance.c_matrix()
    b = instance.b_array()
    n_phones, n_jobs = c_mat.shape
    n_pods = len(pods)
    pod_of = np.empty(n_phones, dtype=np.intp)
    pod_of.fill(-1)
    for p, members in enumerate(pods):
        idx = np.asarray(members, dtype=np.intp)
        pod_of[idx] = p
    if (pod_of < 0).any():
        raise ValueError("pods must cover every phone position")
    bmin = np.full(n_pods, np.inf)
    for p, members in enumerate(pods):
        bmin[p] = b[np.asarray(members, dtype=np.intp)].min()
    cmin = np.full((n_pods, n_jobs), np.inf)
    agg = np.zeros((n_pods, n_jobs))
    for start in range(0, n_phones, block_rows):
        stop = min(n_phones, start + block_rows)
        rate = b[start:stop, None] + c_mat[start:stop]
        inv = np.zeros_like(rate)
        with np.errstate(over="ignore"):
            np.divide(1.0, rate, out=inv, where=rate > 0)
        for offset in range(stop - start):
            p = pod_of[start + offset]
            np.minimum(cmin[p], rate[offset], out=cmin[p])
            agg[p] += inv[offset]
    return bmin, cmin, agg


def solve_pod(
    instance: SchedulingInstance,
    spec: PodSpec,
    search: CapacitySearch,
    *,
    warm_hint_ms: float | None = None,
    tracer: Tracer | None = None,
) -> PodSolveReport:
    """Run one pod's capacity search and flatten the outcome.

    ``search`` is reused across calls (per worker process, or the
    sharded scheduler's serial solver) so its array pool recycles the
    packer's dense mirrors from pod to pod; the pool is asserted clean
    after every solve.

    ``tracer`` must be the tracer of the *search's own* telemetry
    facade (or None): the ``pod_solve`` span it opens is the stack
    parent the search's ``capacity_search`` span nests under.
    """
    started = time.perf_counter()
    with maybe_span(
        tracer,
        "pod_solve",
        category="pod",
        process=f"pods/pod-{spec.index}",
        pod=spec.index,
        phones=len(spec.phone_positions),
        jobs=len(spec.job_positions),
    ):
        sub = pod_instance(
            instance, spec.phone_positions, spec.job_positions
        )
        result = search.run(sub, warm_hint_ms=warm_hint_ms)
    wall_ms = (time.perf_counter() - started) * 1000.0
    leaked = search.array_pool.leaked_buffers()
    if leaked:
        raise RuntimeError(
            f"pod {spec.index}: {leaked} array-pool buffer(s) leaked "
            "after the capacity search released its packer"
        )
    pool_stats = search.array_pool.stats()
    return PodSolveReport(
        index=spec.index,
        assignments=tuple(
            (a.phone_id, a.job_id, a.task, a.input_kb, a.whole)
            for a in result.schedule
        ),
        capacity_ms=result.capacity_ms,
        max_height_ms=result.max_height_ms,
        lower_bound_ms=result.lower_bound_ms,
        packer_passes=result.packer_passes,
        bisection_steps=result.bisection_steps,
        shortcircuit_skips=result.shortcircuit_skips,
        assumed_feasible=result.assumed_feasible,
        warm_start_used=result.warm_start_used,
        kernel=result.kernel,
        wall_ms=wall_ms,
        leaked_buffers=leaked,
        pool_hits=pool_stats["hits"],
        pool_misses=pool_stats["misses"],
    )


def assemble_schedule(reports: list[PodSolveReport]) -> Schedule:
    """Concatenate pod schedules into the global one, pod-index order.

    Pods own disjoint phones, so the union is trivially a valid
    schedule whenever each pod schedule is; ordering by pod index
    (then each pod's own placement order) keeps the result
    deterministic across pool and serial execution.
    """
    assignments: list[Assignment] = []
    for report in sorted(reports, key=lambda r: r.index):
        assignments.extend(report.build_assignments())
    return Schedule(assignments)


# -- process-pool hooks ---------------------------------------------------
#
# The parent hands the *full* instance to a fork pool as the initializer
# argument — inherited copy-on-write, never pickled — and ships each pod
# as a few integer tuples.  Workers slice their pod's rectangle per
# task.

_POD_INSTANCE: SchedulingInstance | None = None
_POD_SEARCH: CapacitySearch | None = None
_POD_TRACER: Tracer | None = None


def _pod_worker_init(
    instance: SchedulingInstance, search_kwargs: dict, trace_run_id=None
) -> None:
    """Keep the inherited instance and build the long-lived search.

    ``trace_run_id`` (non-None iff the parent armed tracing) gives the
    worker its own telemetry facade with a tracer; each solve's spans
    ride back on :attr:`PodSolveReport.spans` for parent adoption.
    """
    global _POD_INSTANCE, _POD_SEARCH, _POD_TRACER
    _POD_INSTANCE = instance
    telemetry = None
    if trace_run_id is not None:
        from ..obs.telemetry import Telemetry

        telemetry = Telemetry.create(run_id=trace_run_id, tracing=True)
        _POD_TRACER = telemetry.tracer
    else:
        _POD_TRACER = None
    _POD_SEARCH = CapacitySearch(**search_kwargs, telemetry=telemetry)


def _pod_worker_solve(task) -> PodSolveReport:
    """One pod solve in a worker process."""
    import dataclasses

    index, phone_positions, job_positions, warm_hint_ms = task
    spec = PodSpec(
        index=index,
        phone_positions=tuple(phone_positions),
        job_positions=tuple(job_positions),
    )
    tracer = _POD_TRACER
    if tracer is not None:
        # Every span this solve records lands in the pod's trace lane.
        tracer.default_process = f"pods/pod-{index}"
    report = solve_pod(
        _POD_INSTANCE,
        spec,
        _POD_SEARCH,
        warm_hint_ms=warm_hint_ms,
        tracer=tracer,
    )
    if tracer is not None:
        report = dataclasses.replace(
            report, spans=tuple(tracer.drain_dicts())
        )
    return report


def default_pod_workers(n_pods: int) -> int:
    """Pool size for ``pod_workers='auto'``: one per pod, CPU-capped."""
    return max(1, min(available_cpus(), n_pods))

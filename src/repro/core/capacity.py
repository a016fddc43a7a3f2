"""Binary search over bin capacity (Section 5, "Our Solution").

Algorithm 1 answers *"can everything be packed with capacity C?"*; this
module finds the smallest such ``C``:

* **Upper bound** — all items stacked on the *worst* bin: the maximum
  over phones of the total Equation-1 cost of running every job whole on
  that phone.  Packing at this capacity always succeeds (one bin can
  hold everything).
* **Lower bound** — the paper's "magical bin" with the aggregate
  processing capability and aggregate bandwidth of the whole fleet and
  no executable-shipping cost: job ``j`` is processed at the aggregate
  rate ``sum_i 1 / (b_i + c_ij)`` KB per millisecond, so the bound is
  ``sum_j L_j / sum_i 1/(b_i + c_ij)``.
* Bisect until the bracket is narrower than ``epsilon_ms``, keeping the
  schedule from the smallest feasible capacity seen.

The initial bracket is deliberately **frozen**: the bisection midpoint
grid, and therefore the converged capacity and schedule, must stay
bit-identical to the reference search in :mod:`repro.core._reference`.
Every optimisation below resolves probes *on that grid* more cheaply —
none may move the grid.

Hot-path structure
------------------
Each probe of the bisection is a full Algorithm-1 pack, so this module
works to issue as few and as cheap real packs as possible *without
changing the bisection trajectory* — the sequence of (midpoint,
feasible?) decisions, and therefore the final schedule, is bit-identical
to the naive pack-every-probe search:

* **dual packing kernels** — ``kernel='python'`` probes with the exact
  scalar :class:`~repro.core.packing.GreedyPacker`; ``kernel='numpy'``
  probes with the byte-identical vectorized
  :class:`~repro.core.packing_vec.VectorGreedyPacker`; ``'auto'``
  (default) picks by phone count, the bins a pack may open: on the
  replicated paper testbed ``python`` wins at up to ~100 phones for
  every job count and ``numpy`` from ~200 phones up (see
  :func:`resolve_kernel`);
* **cached bounds** — the (lower, upper) bracket comes from
  :meth:`SchedulingInstance.capacity_bounds`, computed once per
  instance instead of twice per search (and once more per caller);
* **infeasibility certificates** — conservative floors computed once
  per search: the *single-placement floor* (some job's cheapest
  possible first placement exceeds ``C`` on every phone), the *volume
  floor* (the fleet-wide work implied by the jobs exceeds
  ``|P| * C``).  A midpoint below either floor is provably infeasible
  and is resolved without packing;
* **feasibility certificate** — the dual of the floors: a capacity
  threshold above which Algorithm 1 *provably cannot fail* (see
  :func:`_greedy_feasibility_threshold` for the proof).  Midpoints
  above it — the whole top half of the frozen grid, where packs are
  pure formality — are resolved feasible without packing, and the
  final capacity is materialised with one real pack exactly like a
  warm-started search;
* **verdict-only probes** — on large instances the numpy kernel packs
  bisection probes with ``collect=False``: the placement sequence is
  identical but the probe skips accumulating a schedule that the next
  bracket update would discard.  The winning capacity is materialised
  with one collecting pack at the end (so ``packer_passes`` can exceed
  ``bisection_steps`` by one on such instances);
* **no monotonicity shortcuts** — fuzzing found real instances where
  greedy feasibility is **not** monotone in capacity (feasible islands
  below the converged threshold), so a verdict at one capacity proves
  nothing about another and every grid midpoint a certificate cannot
  decide is packed for real, one at a time.  (Packing possible future
  midpoints in parallel spends up to K packs to save ``log2(K + 1)``
  levels and lost to this serial loop at equal CPUs; the parallel axis
  is pods, see :mod:`repro.core.sharding`.)  Only warm hints, which
  replay the very capacity a previous search converged to, are exempt:
  see below;
* **warm-started probes** — at a rescheduling instant the previous
  instant's feasible capacity is a strong hint.  ``run(..,
  warm_hint_ms=C1)`` verifies the hint with one real pack; if it is
  feasible, every probe at ``mid >= C1`` is *assumed* feasible without
  packing.  This is not a monotonicity claim (greedy feasibility is
  not monotone — see above): within any one bisection run every
  infeasible midpoint lies strictly below every feasible one, so when
  ``C1`` is the capacity a search over the *same grid* converged to,
  the assumption exactly replays that search's verdicts.  A hint from
  a *different* instant's instance is only a heuristic, so the
  converged capacity is always re-materialised with a real pack; if
  that pack ever fails, the search falls back to a full cold run with
  every assumption-based shortcut disabled, which is unconditionally
  correct.

``packer_passes`` counts *real* packs; ``bisection_steps`` counts bracket
updates and is what ``_MAX_BISECTION_STEPS`` caps, so certificate skips
and assumed probes cannot lengthen the trajectory relative to the
original implementation.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..obs.telemetry import NULL_TELEMETRY
from ..obs.tracing import maybe_span
from .instance import SchedulingInstance
from .model import MIN_PARTITION_KB
from .packing import GreedyPacker, PackingResult
from .packing_vec import VectorGreedyPacker
from .schedule import InfeasibleScheduleError, Row, Schedule

__all__ = [
    "CapacitySearch",
    "CapacitySearchResult",
    "available_cpus",
    "capacity_bounds",
    "resolve_kernel",
]

#: Relative/absolute safety margin for the feasibility/infeasibility
#: certificates.  Must comfortably exceed the packer's 1e-9 exact-fit
#: tolerance.
_CERT_MARGIN = 1e-6

#: Hard cap on bracket updates per search, a safety net against
#: pathological brackets (60 steps resolve any double-precision bracket).
_MAX_BISECTION_STEPS = 60

#: ``kernel='auto'``: instances with at least this many phones probe
#: with the numpy kernel (measured crossover 120–200 phones at 5–5000
#: jobs, DESIGN.md §9.6).
_AUTO_KERNEL_MIN_PHONES = 150

#: Verdict-only probing turns on (numpy kernel only) at this size, where
#: skipping per-probe schedule accumulation outweighs the one extra
#: materialisation pack.
_DEFER_MIN_CELLS = 500_000

_KERNELS = ("auto", "python", "numpy")

_KERNEL_CLASSES = {
    "python": GreedyPacker,
    "numpy": VectorGreedyPacker,
}


def available_cpus() -> int:
    """CPUs this process may actually use.

    The ``REPRO_CPUS`` environment variable overrides every probe when
    set to a positive integer — benches and CI pin a reproducible
    worker count with it, and single-CPU containers can exercise the
    multi-core sizing logic.  Malformed or non-positive values are
    ignored rather than fatal: a typo in the environment must not take
    the scheduler down.

    Otherwise respects CPU affinity masks and cgroup limits where the
    platform exposes them (``os.sched_getaffinity``, then Python
    3.13+'s ``os.process_cpu_count``), falling back to
    ``os.cpu_count``.  Sizing worker pools from the raw ``cpu_count``
    over-spawns on affinity-limited hosts — the container this repo
    benchmarks in reports every host core while pinning the process to
    one.
    """
    pinned = os.environ.get("REPRO_CPUS")
    if pinned is not None:
        try:
            count = int(pinned)
        except ValueError:
            count = 0
        if count >= 1:
            return count
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        pass
    counter = getattr(os, "process_cpu_count", None)
    if counter is not None:
        counted = counter()
        if counted:
            return counted
    return os.cpu_count() or 1


def capacity_bounds(instance: SchedulingInstance) -> tuple[float, float]:
    """Return the (lower, upper) capacity bracket for the binary search.

    Delegates to the instance's cached computation — repeated calls
    (the search itself, benchmarks, diagnostics) cost a tuple read.
    """
    return instance.capacity_bounds()


def resolve_kernel(kernel: str, instance: SchedulingInstance) -> str:
    """Resolve a kernel selector to a concrete backend name.

    ``'python'`` and ``'numpy'`` pass through; ``'auto'`` picks the
    numpy kernel for instances of at least ``_AUTO_KERNEL_MIN_PHONES``
    phones and the scalar kernel below that, whatever the job count.
    The phone count bounds the bins a pack may open, and each bin open
    costs the scalar kernel one Equation-1 evaluation per unopened
    phone, so a small reschedule on a large fleet (a few residual
    jobs, hundreds of phones) belongs on the array kernel, and a large
    batch on the 18-phone testbed on the scalar one.  Both kernels
    give byte-identical schedules, so the choice moves only time.
    """
    if kernel not in _KERNELS:
        raise ValueError(
            f"unknown kernel {kernel!r}; expected one of {_KERNELS}"
        )
    if kernel != "auto":
        return kernel
    return (
        "numpy" if len(instance.phones) >= _AUTO_KERNEL_MIN_PHONES else "python"
    )


def _certificate_floors(
    instance: SchedulingInstance, min_partition_kb: float
) -> tuple[float, float]:
    """(single-placement floor, total volume) for infeasibility proofs.

    *Single-placement floor*: for each job, the cheapest possible first
    placement on any phone — the executable plus the smallest partition
    the packer may create (``min(L_j, min_partition)`` for breakable
    jobs, the whole input for atomic jobs).  Every job must receive a
    first placement on some phone, so no capacity below the max over
    jobs of that minimum can be feasible.

    *Volume floor*: every KB of every job must be processed somewhere at
    no better than the fleet's best per-KB rate, and each executable
    shipped at least once at no better than the best ``b_i``; the sum of
    bin heights cannot exceed ``|P| * C``, so capacities below
    ``volume / |P|`` are infeasible.

    Both floors ignore RAM constraints, which only make packing harder —
    the proofs stay valid.  numpy is safe here (unlike in the bounds)
    because the certificates' 1e-6 margin absorbs any summation-order
    difference.
    """
    if not instance.jobs or not instance.phones:
        return 0.0, 0.0
    b = instance.b_array()
    per_kb = instance.per_kb_matrix()
    exe, load = instance.job_load_arrays()
    atomic = np.asarray([job.is_atomic for job in instance.jobs])
    first = np.where(atomic, load, np.minimum(load, min_partition_kb))
    # placement[i, j] = E_j * b_i + x_j * (b_i + c_ij), reduced in
    # row blocks: min/max reductions involve no arithmetic, so the
    # blocked sweep is bitwise-identical to materializing the full
    # placement matrix while touching a fraction of the memory.
    best_first = _blocked_placement_min(b, per_kb, exe, first)
    single_floor = float(best_first.max())
    volume = float((exe * b.min() + load * per_kb.min(axis=0)).sum())
    return single_floor, volume


def _blocked_placement_min(b, per_kb, exe, need, block_rows: int = 128):
    """Columnwise min over phones of ``E_j*b_i + need_j*(b_i + c_ij)``."""
    best = None
    for start in range(0, per_kb.shape[0], block_rows):
        stop = start + block_rows
        block = (
            b[start:stop, None] * exe[None, :]
            + per_kb[start:stop] * need[None, :]
        )
        col_min = block.min(axis=0)
        best = col_min if best is None else np.minimum(best, col_min, out=best)
    return best


def _blocked_placement_max(b, per_kb, exe, need, block_rows: int = 128) -> float:
    """Max over all cells of ``E_j*b_i + need_j*(b_i + c_ij)``."""
    worst = -np.inf
    for start in range(0, per_kb.shape[0], block_rows):
        stop = start + block_rows
        block = (
            b[start:stop, None] * exe[None, :]
            + per_kb[start:stop] * need[None, :]
        )
        worst = max(worst, float(block.max()))
    return worst


def _greedy_feasibility_threshold(
    instance: SchedulingInstance,
    min_partition_kb: float,
    ram,
) -> float | None:
    """Capacity above which Algorithm 1 provably cannot fail.

    Sketch of the proof.  Suppose a pack at capacity ``C`` fails on an
    item of job ``j``.  Every placement of ``j`` needs at most
    ``need_j = L_j`` KB (atomic) or ``min(L_j, 2*minp)`` KB (breakable:
    either a ``minp`` partition is acceptable, or the remainder is
    below ``2*minp`` and must be placed whole), so a *fresh* bin on
    phone ``i`` rejects only if ``C < E_j*b_i + need_j*(b_i + c_ij)``.
    With ``M`` the maximum of that expression over all (i, j):

    * if a phone was still unopened at failure time, ``C < M``;
    * otherwise all ``n`` bins rejected, each with height
      ``h_i > C - M``, so the total height exceeds ``n*(C - M)``.

    The total height is bounded by the work that can ever be placed:
    every KB of input costs at most its worst per-KB rate
    (``W = sum_j L_j * max_i (b_i + c_ij)``) and every placement ships
    at most one executable at cost at most
    ``ExeMax = max_j E_j * max_i b_i``.  Placements are bounded
    C-independently: each item retires via one whole placement
    (``<= J``), a non-sliver split fills its bin to exactly ``C``
    (terminal), a sliver split leaves headroom below
    ``minp * max_rate``, and every split costs at least
    ``minp * min_rate`` — so each bin sees at most
    ``2 + max_rate/min_rate`` splits.  Combining:

        C  <  M + (W + P_bound * ExeMax) / n

    whenever a pack at ``C`` fails.  Any capacity at or above the
    returned threshold (with the caller's safety margin) is therefore
    provably feasible without running the pack.

    Returns ``None`` when the proof does not apply: RAM constraints
    (the fresh-bin analysis assumes the per-KB clamp is the binding
    one), non-positive per-KB rates (free transfers break the strict
    headroom accounting), or a degenerate minimum partition.
    """
    if ram is not None or min_partition_kb <= 0:
        return None
    if not instance.jobs or not instance.phones:
        return None
    per_kb = instance.per_kb_matrix()
    col_max = per_kb.max(axis=0)
    min_rate = float(per_kb.min())
    if min_rate <= 0:
        return None
    max_rate = float(col_max.max())
    b = instance.b_array()
    exe, load = instance.job_load_arrays()
    atomic = np.asarray([job.is_atomic for job in instance.jobs])
    need = np.where(atomic, load, np.minimum(load, 2.0 * min_partition_kb))
    worst_first = _blocked_placement_max(b, per_kb, exe, need)
    work = float((load * col_max).sum())
    exe_max = float(exe.max()) * float(b.max())
    n_phones = len(instance.phones)
    splits_per_bin = 2.0 + max_rate / min_rate
    placements_bound = len(instance.jobs) + n_phones * splits_per_bin
    return worst_first + (work + placements_bound * exe_max) / n_phones


@dataclass(frozen=True)
class CapacitySearchResult:
    """Outcome of the full capacity search.

    The schedule travels as placement ``rows`` (see
    :data:`~repro.core.schedule.Row`); :attr:`schedule` builds its
    :class:`~repro.core.schedule.Assignment` records on first read.
    """

    rows: tuple[Row, ...]
    capacity_ms: float
    max_height_ms: float
    lower_bound_ms: float
    upper_bound_ms: float
    #: Real Algorithm-1 packs issued.
    packer_passes: int = 0
    #: Bracket updates walked (seed + bisection probes); what
    #: ``_MAX_BISECTION_STEPS`` caps.
    bisection_steps: int = 0
    #: Probes resolved by a feasibility/infeasibility certificate
    #: without packing.
    shortcircuit_skips: int = 0
    #: Probes resolved feasible by a verified warm hint's replay
    #: oracle.
    assumed_feasible: int = 0
    #: Whether a feasible warm hint steered this search.
    warm_start_used: bool = False
    #: Packing backend the probes ran on ("python" or "numpy").
    kernel: str = "python"

    @cached_property
    def schedule(self) -> Schedule:
        return Schedule.from_rows(self.rows)


class CapacitySearch:
    """Finds the minimum feasible bin capacity via bisection.

    Parameters
    ----------
    epsilon_ms:
        Bisection stops once ``UB - LB`` falls below this (1 ms default —
        the resolution of the paper's cost model).
    kernel:
        Packing backend for the probes: ``'python'`` (exact scalar
        reference), ``'numpy'`` (vectorized, byte-identical), or
        ``'auto'`` (pick by phone count).
    telemetry:
        Optional :class:`~repro.obs.telemetry.Telemetry` facade; only
        its tracer is used (``capacity_search``, ``pack`` and phase
        spans).  The search writes nothing to the registry: its
        counters live on the :class:`CapacitySearchResult`, from which
        :class:`~repro.sim.server.CentralServer` derives the
        ``capacity_*`` metrics at run end.
    """

    def __init__(
        self,
        *,
        epsilon_ms: float = 1.0,
        min_partition_kb: float | None = None,
        ram=None,
        kernel: str = "auto",
        telemetry=None,
    ) -> None:
        if epsilon_ms <= 0:
            raise ValueError("epsilon_ms must be > 0")
        if kernel not in _KERNELS:
            raise ValueError(
                f"unknown kernel {kernel!r}; expected one of {_KERNELS}"
            )
        self._epsilon_ms = epsilon_ms
        self._min_partition_kb = min_partition_kb
        #: Optional RamConstraint applied inside the packer (footnote 4).
        self._ram = ram
        self._kernel = kernel
        self._tel = telemetry if telemetry is not None else NULL_TELEMETRY

    def run(
        self,
        instance: SchedulingInstance,
        *,
        warm_hint_ms: float | None = None,
        _trusted: bool = True,
    ) -> CapacitySearchResult:
        """Search for the minimum feasible capacity.

        ``warm_hint_ms`` — a capacity believed feasible (typically the
        previous scheduling instant's result).  The hint is *verified*
        with a real pack before being trusted; an infeasible or useless
        hint degrades gracefully to the cold search.  The returned
        schedule is identical to the cold search's either way.

        ``_trusted=False`` is the internal paranoid mode used when an
        assumption-based shortcut is caught misbehaving: every oracle
        that relies on monotonicity or a derived certificate is
        disabled and each probe is packed for real.
        """
        tel = self._tel
        tracer = tel.tracer if tel.enabled else None
        if tracer is None:
            return self._run_impl(
                instance, warm_hint_ms=warm_hint_ms, _trusted=_trusted
            )
        with tracer.span(
            "capacity_search",
            category="capacity",
            phones=len(instance.phones),
            jobs=len(instance.jobs),
            trusted=_trusted,
        ) as root:
            result = self._run_impl(
                instance,
                warm_hint_ms=warm_hint_ms,
                _trusted=_trusted,
                _tracer=tracer,
            )
            root.set_attr("capacity_ms", result.capacity_ms)
            root.set_attr("kernel", result.kernel)
            root.set_attr("packs", result.packer_passes)
            return result

    def _run_impl(
        self,
        instance: SchedulingInstance,
        *,
        warm_hint_ms: float | None = None,
        _trusted: bool = True,
        _tracer=None,
    ) -> CapacitySearchResult:
        tracer = _tracer
        packer_kwargs = {"ram": self._ram}
        if self._min_partition_kb is not None:
            packer_kwargs["min_partition_kb"] = self._min_partition_kb
        kernel = resolve_kernel(self._kernel, instance)
        with maybe_span(tracer, "build", category="capacity", kernel=kernel):
            packer = _KERNEL_CLASSES[kernel](instance, **packer_kwargs)
        cells = len(instance.phones) * len(instance.jobs)
        defer = (
            _trusted and kernel == "numpy" and cells >= _DEFER_MIN_CELLS
        )

        with maybe_span(tracer, "bounds", category="capacity"):
            lower, upper = capacity_bounds(instance)
            min_partition = (
                self._min_partition_kb
                if self._min_partition_kb is not None
                else MIN_PARTITION_KB
            )
            single_floor, volume = _certificate_floors(instance, min_partition)
            feasible_threshold = (
                _greedy_feasibility_threshold(
                    instance, min_partition, self._ram
                )
                if _trusted
                else None
            )
        n_phones = len(instance.phones)

        def provably_infeasible(cap: float) -> bool:
            padded = cap * (1.0 + _CERT_MARGIN) + _CERT_MARGIN
            return padded < single_floor or n_phones * padded < volume

        def provably_feasible(cap: float) -> bool:
            if feasible_threshold is None:
                return False
            return cap * (1.0 - _CERT_MARGIN) - _CERT_MARGIN >= (
                feasible_threshold
            )

        packs = 0
        steps = 0
        skips = 0
        assumed = 0
        #: Lowest capacity *verified* feasible by a real pack at a warm
        #: hint — the replay oracle that resolves grid midpoints above
        #: it for free.  Only hints may feed it (see the module
        #: docstring): greedy feasibility is not monotone, so a
        #: verdict at one capacity proves nothing about any other.
        feas_at: float | None = None

        def probe(cap: float, *, collect: bool = False) -> PackingResult:
            """One real pack at ``cap`` (verdict-only when deferring)."""
            nonlocal packs
            packs += 1
            if tracer is not None:
                with tracer.span(
                    "pack", category="capacity", capacity_ms=cap
                ) as pack_handle:
                    if defer and not collect:
                        attempt = packer.pack(cap, collect=False)
                    else:
                        attempt = packer.pack(cap)
                    pack_handle.set_attr("feasible", attempt.feasible)
            elif defer and not collect:
                attempt = packer.pack(cap, collect=False)
            else:
                attempt = packer.pack(cap)
            return attempt

        # -- warm hint verification ------------------------------------
        seed_capacity = upper * (1.0 + 1e-9) + 1e-9
        hint: float | None = None
        hint_result: PackingResult | None = None
        if (
            warm_hint_ms is not None
            and 0.0 < warm_hint_ms < seed_capacity
        ):
            with maybe_span(
                tracer,
                "warm_verify",
                category="capacity",
                hint_ms=warm_hint_ms,
            ):
                attempt = probe(warm_hint_ms, collect=True)
            if attempt.feasible:
                hint = warm_hint_ms
                hint_result = attempt
                feas_at = warm_hint_ms
        warm_used = hint is not None

        # -- seed: packing at the upper bound must succeed -------------
        # A hair of slack keeps accumulated rounding error from
        # rejecting the exact-fit packing.
        best: PackingResult | None = None
        best_capacity = seed_capacity
        steps += 1
        if provably_feasible(seed_capacity):
            skips += 1
        elif feas_at is not None and seed_capacity >= feas_at:
            # Monotonicity: feasible at the verified capacity =>
            # feasible at the seed.
            assumed += 1
        else:
            attempt = probe(seed_capacity)
            if not attempt.feasible:
                raise InfeasibleScheduleError(
                    "greedy packing failed even at the upper-bound "
                    f"capacity ({upper:.3f} ms); the instance is "
                    "malformed or an atomic job violates a resource "
                    "constraint on every phone"
                )
            best = attempt

        # -- bisection on the cold midpoint grid -----------------------
        while (
            upper - lower > self._epsilon_ms
            and steps < _MAX_BISECTION_STEPS
        ):
            mid = (lower + upper) / 2.0
            steps += 1
            with maybe_span(
                tracer,
                "bisect_step",
                category="capacity",
                step=steps,
                mid_ms=mid,
            ):
                if provably_infeasible(mid):
                    skips += 1
                    lower = mid
                    continue
                if provably_feasible(mid):
                    skips += 1
                    upper = mid
                    best = None  # certified; materialised below if final
                    best_capacity = mid
                    continue
                if feas_at is not None and mid >= feas_at:
                    assumed += 1
                    upper = mid
                    best = None  # assumed; materialised below if final
                    best_capacity = mid
                    continue
                # Once the bracket is within a step or two of
                # epsilon, a feasible verdict is likely final:
                # collect its schedule so no separate
                # materialisation pack is needed.
                attempt = probe(
                    mid,
                    collect=(upper - lower) <= 2.0 * self._epsilon_ms,
                )
                if attempt.feasible:
                    upper = mid
                    best = attempt
                    best_capacity = mid
                else:
                    lower = mid

        # -- materialise an assumed/deferred final capacity ------------
        if best is None or best.rows is None:
            if hint_result is not None and best_capacity == hint:
                best = hint_result
            else:
                with maybe_span(
                    tracer,
                    "materialise",
                    category="capacity",
                    capacity_ms=best_capacity,
                ):
                    attempt = probe(best_capacity, collect=True)
                if attempt.feasible:
                    best = attempt
                else:
                    # An assumption was violated (never observed in
                    # practice): discard everything the oracles
                    # assumed and redo the search cold with every
                    # shortcut disabled, which is unconditionally
                    # correct.
                    return self.run(instance, _trusted=False)

        assert best.rows is not None
        bounds = capacity_bounds(instance)
        return CapacitySearchResult(
            rows=best.rows,
            capacity_ms=best.capacity_ms,
            max_height_ms=best.max_height_ms,
            lower_bound_ms=bounds[0],
            upper_bound_ms=bounds[1],
            packer_passes=packs,
            bisection_steps=steps,
            shortcircuit_skips=skips,
            assumed_feasible=assumed,
            warm_start_used=warm_used,
            kernel=kernel,
        )

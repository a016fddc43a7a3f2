"""Differential execution: three kernels, warm and cold, one schedule.

PR 2/3 froze the capacity search's bisection grid so the incremental
python packer and the vectorized numpy packer produce byte-identical
schedules to the pre-optimisation reference.  This module turns that
guarantee into a reusable runner: feed it any
:class:`~repro.core.instance.SchedulingInstance` and it

1. runs :class:`~repro.core._reference.ReferenceCapacitySearch` (the
   frozen original), then :class:`~repro.core.capacity.CapacitySearch`
   under ``kernel='python'`` and ``kernel='numpy'``, each cold and then
   warm-started from its own converged capacity (five legs in all);
2. asserts every leg's schedule serialises to byte-identical JSON and
   converges to the same capacity;
3. sandwiches the predicted makespan between the LP relaxation's lower
   bound and the greedy single-phone upper bound
   (``lp <= makespan <= greedy_bound``).

Any disagreement raises :class:`DifferentialMismatchError` naming the
offending leg — the smallest possible repro for a kernel divergence.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from ..core._reference import ReferenceCapacitySearch
from ..core.capacity import CapacitySearch, capacity_bounds
from ..core.instance import SchedulingInstance
from ..core.serialize import schedule_to_dict
from ..verify.invariants import TOL_MS

__all__ = [
    "DifferentialMismatchError",
    "DifferentialReport",
    "ShardedDifferentialReport",
    "differential_check",
    "run_differential_campaign",
    "run_sharded_campaign",
    "sharded_differential_check",
]

#: Explicit kernels the optimised search is checked under ("auto" would
#: just resolve to one of these two).
KERNELS = ("python", "numpy")

#: Auto mode runs the LP only below this (phones x jobs) cell count —
#: HiGHS on huge fuzzed instances would dominate the campaign's runtime.
_LP_AUTO_CELL_LIMIT = 4_096


class DifferentialMismatchError(AssertionError):
    """Two search legs disagreed on a schedule, capacity, or bound."""


@dataclass(frozen=True)
class DifferentialReport:
    """Outcome of one differential check (all legs agreed)."""

    legs: tuple[str, ...]
    capacity_ms: float
    makespan_ms: float
    schedule_digest: str
    lp_bound_ms: float | None
    greedy_bound_ms: float
    lp_checked: bool


def _schedule_bytes(schedule) -> bytes:
    """Canonical byte serialisation for byte-identical comparison."""
    return json.dumps(
        schedule_to_dict(schedule), sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def differential_check(
    instance: SchedulingInstance,
    *,
    epsilon_ms: float = 1.0,
    max_iterations: int = 60,
    lp: bool | None = None,
) -> DifferentialReport:
    """Run one instance through every search leg and compare.

    ``lp=None`` (auto) solves the LP relaxation only for instances small
    enough that HiGHS stays cheap; ``lp=True``/``False`` forces it.
    Raises :class:`DifferentialMismatchError` on any disagreement.
    """
    reference = ReferenceCapacitySearch(
        epsilon_ms=epsilon_ms, max_iterations=max_iterations
    ).run(instance)
    baseline = _schedule_bytes(reference.schedule)

    def check(label, result):
        if _schedule_bytes(result.schedule) != baseline:
            raise DifferentialMismatchError(
                f"leg {label!r} produced a schedule that is not "
                "byte-identical to the reference search's"
            )
        if abs(result.capacity_ms - reference.capacity_ms) > TOL_MS:
            raise DifferentialMismatchError(
                f"leg {label!r} converged to capacity "
                f"{result.capacity_ms} ms, reference found "
                f"{reference.capacity_ms} ms"
            )
        legs.append(label)

    legs = ["reference"]
    for kernel in KERNELS:
        cold = CapacitySearch(
            epsilon_ms=epsilon_ms, max_iterations=max_iterations, kernel=kernel
        ).run(instance)
        warm = CapacitySearch(
            epsilon_ms=epsilon_ms, max_iterations=max_iterations, kernel=kernel
        ).run(instance, warm_hint_ms=cold.capacity_ms)
        check(f"{kernel}-cold", cold)
        check(f"{kernel}-warm", warm)

    makespan = reference.schedule.predicted_makespan_ms(instance)
    _, greedy_bound = capacity_bounds(instance)
    if makespan > greedy_bound + max(TOL_MS, greedy_bound * 1e-9):
        raise DifferentialMismatchError(
            f"predicted makespan {makespan:.6f} ms exceeds the greedy "
            f"upper bound {greedy_bound:.6f} ms"
        )

    lp_bound = None
    cells = len(instance.phones) * len(instance.jobs)
    run_lp = lp if lp is not None else cells <= _LP_AUTO_CELL_LIMIT
    if run_lp:
        from ..core.lp_bound import solve_relaxed_makespan

        lp_bound = solve_relaxed_makespan(instance).makespan_ms
        # The LP is a relaxation: equal makespans are legitimate, small
        # float noise in HiGHS is not a kernel bug.
        if makespan < lp_bound - max(TOL_MS, abs(makespan) * 1e-6):
            raise DifferentialMismatchError(
                f"predicted makespan {makespan:.6f} ms undercuts the LP "
                f"lower bound {lp_bound:.6f} ms"
            )

    return DifferentialReport(
        legs=tuple(legs),
        capacity_ms=reference.capacity_ms,
        makespan_ms=makespan,
        schedule_digest=hashlib.sha256(baseline).hexdigest(),
        lp_bound_ms=lp_bound,
        greedy_bound_ms=greedy_bound,
        lp_checked=bool(run_lp),
    )


@dataclass(frozen=True)
class ShardedDifferentialReport:
    """Outcome of one sharded differential check (all legs agreed)."""

    pod_assign: str
    legs: tuple[str, ...]
    monolithic_makespan_ms: float
    schedule_digest: str
    #: ``(requested_pods, effective_pods, makespan_ms)`` per multi-pod leg.
    pod_makespans: tuple[tuple[int, int, float], ...]
    #: ``(requested_pods, shard_bound_ratio)`` where the pod LP certified.
    bound_ratios: tuple[tuple[int, float], ...]


def sharded_differential_check(
    instance: SchedulingInstance,
    *,
    pod_counts: tuple[int, ...] = (1, 2, 4),
    pod_assign: str = "greedy",
    epsilon_ms: float = 1.0,
    max_iterations: int = 60,
    bound_factor: float = 2.0,
) -> ShardedDifferentialReport:
    """Cross-check the sharded scheduler against the monolithic one.

    Per packing kernel this runs the monolithic
    :class:`~repro.core.greedy.CwcScheduler` plus one
    :class:`~repro.core.sharding.ShardedScheduler` leg per entry of
    ``pod_counts``, then asserts:

    * ``pods=1`` serialises byte-identically to the monolithic schedule
      (sharding with one pod is pure delegation, not an approximation);
    * every multi-pod schedule validates against the instance and both
      kernels produce byte-identical sharded schedules;
    * the sharded makespan respects the LP sandwich: at least the
      pod-aggregated LP floor (pods-as-super-machines relaxation, a
      certified lower bound on the *optimal* makespan) and at most
      ``bound_factor`` times the monolithic makespan.

    Raises :class:`DifferentialMismatchError` on any disagreement.
    """
    from ..core.greedy import CwcScheduler
    from ..core.sharding import ShardedScheduler

    legs: list[str] = []
    mono_bytes: bytes | None = None
    mono_makespan = 0.0
    sharded_bytes: dict[int, bytes] = {}
    pod_makespans: dict[int, tuple[int, float]] = {}
    bound_ratios: dict[int, float] = {}

    for kernel in KERNELS:
        mono = CwcScheduler(
            epsilon_ms=epsilon_ms,
            max_iterations=max_iterations,
            kernel=kernel,
        )
        mono_schedule = mono.schedule(instance)
        payload = _schedule_bytes(mono_schedule)
        if mono_bytes is None:
            mono_bytes = payload
            mono_makespan = mono_schedule.predicted_makespan_ms(instance)
        elif payload != mono_bytes:
            raise DifferentialMismatchError(
                f"monolithic kernel {kernel!r} diverged from the first "
                "monolithic leg"
            )
        legs.append(f"mono-{kernel}")

        for requested in pod_counts:
            sharded = ShardedScheduler(
                pods=requested,
                pod_assign=pod_assign,
                pod_workers=None,
                epsilon_ms=epsilon_ms,
                max_iterations=max_iterations,
                kernel=kernel,
            )
            schedule = sharded.schedule(instance)
            payload = _schedule_bytes(schedule)
            label = f"sharded-{kernel}-pods{requested}"
            if requested == 1:
                if payload != mono_bytes:
                    raise DifferentialMismatchError(
                        f"leg {label!r} is not byte-identical to the "
                        "monolithic schedule (pods=1 must delegate)"
                    )
                legs.append(label)
                continue

            schedule.validate(instance)
            if requested in sharded_bytes:
                if payload != sharded_bytes[requested]:
                    raise DifferentialMismatchError(
                        f"leg {label!r} diverged across kernels"
                    )
            else:
                sharded_bytes[requested] = payload
            result = sharded.last_result
            makespan = schedule.predicted_makespan_ms(instance)
            slack = max(TOL_MS, mono_makespan * 1e-9)
            if makespan > bound_factor * mono_makespan + slack:
                raise DifferentialMismatchError(
                    f"leg {label!r} makespan {makespan:.6f} ms exceeds "
                    f"{bound_factor}x the monolithic makespan "
                    f"{mono_makespan:.6f} ms"
                )
            floor = result.lp_floor_ms
            if floor is not None:
                if makespan < floor - max(TOL_MS, abs(makespan) * 1e-6):
                    raise DifferentialMismatchError(
                        f"leg {label!r} makespan {makespan:.6f} ms "
                        f"undercuts the pod LP floor {floor:.6f} ms — the "
                        "super-machine relaxation is supposed to only "
                        "speed machines up"
                    )
                bound_ratios[requested] = result.shard_bound_ratio
            pod_makespans[requested] = (result.pods, makespan)
            legs.append(label)

    assert mono_bytes is not None
    return ShardedDifferentialReport(
        pod_assign=pod_assign,
        legs=tuple(legs),
        monolithic_makespan_ms=mono_makespan,
        schedule_digest=hashlib.sha256(mono_bytes).hexdigest(),
        pod_makespans=tuple(
            (requested, effective, makespan)
            for requested, (effective, makespan)
            in sorted(pod_makespans.items())
        ),
        bound_ratios=tuple(sorted(bound_ratios.items())),
    )


def run_sharded_campaign(
    count: int,
    *,
    seed: int = 0,
    pod_counts: tuple[int, ...] = (1, 2, 4),
    pod_assign: str = "greedy",
    epsilon_ms: float = 1.0,
) -> list[ShardedDifferentialReport]:
    """Sharded-differential-check ``count`` fuzzed instances."""
    from .fuzz import derive_seeds, generate_instance

    if count < 1:
        raise ValueError(f"count must be >= 1, got {count!r}")
    reports = []
    for instance_seed in derive_seeds(seed, count):
        instance = generate_instance(instance_seed)
        reports.append(
            sharded_differential_check(
                instance,
                pod_counts=pod_counts,
                pod_assign=pod_assign,
                epsilon_ms=epsilon_ms,
            )
        )
    return reports


def run_differential_campaign(
    count: int,
    *,
    seed: int = 0,
    epsilon_ms: float = 1.0,
    lp: bool | None = None,
) -> list[DifferentialReport]:
    """Differential-check ``count`` fuzzed instances from one seed.

    Instance generation is delegated to the scenario fuzzer so the two
    campaigns share one grammar; the per-instance seeds derive
    deterministically from ``seed``.
    """
    from .fuzz import derive_seeds, generate_instance

    if count < 1:
        raise ValueError(f"count must be >= 1, got {count!r}")
    reports = []
    for instance_seed in derive_seeds(seed, count):
        instance = generate_instance(instance_seed)
        reports.append(
            differential_check(instance, epsilon_ms=epsilon_ms, lp=lp)
        )
    return reports

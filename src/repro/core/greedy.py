"""The CWC scheduler: greedy CBP packing inside a capacity search.

This is the paper's primary contribution (Section 5).  Given a
:class:`~repro.core.instance.SchedulingInstance`, :class:`CwcScheduler`
produces a :class:`~repro.core.schedule.Schedule` whose predicted
makespan the binary capacity search has minimised, taking into account
*both* each phone's CPU speed (through ``c_ij``) and its wireless
bandwidth (through ``b_i``) — the bandwidth term being the key
departure from desktop systems such as Condor.

The scheduler also plays bookkeeper for the hot path: it times each
``schedule()`` call, accumulates pack/bisection counters across rounds
(:class:`SchedulingStats`), and — when ``warm_start=True`` — feeds each
round's converged capacity into the next round's search as a verified
warm hint (see :mod:`repro.core.capacity`).  Warm starting never changes
the schedules produced; it only reduces the number of real Algorithm-1
packs at rescheduling instants.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

from ..obs.telemetry import NULL_TELEMETRY
from ..obs.tracing import maybe_span
from .capacity import CapacitySearch, CapacitySearchResult
from .instance import SchedulingInstance
from .schedule import Schedule

__all__ = ["Scheduler", "CwcScheduler", "SchedulingStats"]


@runtime_checkable
class Scheduler(Protocol):
    """Anything that can turn a scheduling instance into a schedule."""

    #: Human-readable name used in experiment output tables.
    name: str

    def schedule(self, instance: SchedulingInstance) -> Schedule:
        """Produce a schedule covering every job in ``instance``."""
        ...


@dataclass
class SchedulingStats:
    """Hot-path counters accumulated across ``schedule()`` calls."""

    rounds: int = 0
    wall_ms: float = 0.0
    packer_passes: int = 0
    bisection_steps: int = 0
    shortcircuit_skips: int = 0
    assumed_feasible: int = 0
    warm_start_hits: int = 0
    last_wall_ms: float = 0.0
    #: Packing backend the most recent round resolved to.
    kernel: str = ""

    def record(self, result: CapacitySearchResult, wall_ms: float) -> None:
        self.rounds += 1
        self.wall_ms += wall_ms
        self.last_wall_ms = wall_ms
        self.packer_passes += result.packer_passes
        self.bisection_steps += result.bisection_steps
        self.shortcircuit_skips += result.shortcircuit_skips
        self.assumed_feasible += result.assumed_feasible
        self.warm_start_hits += 1 if result.warm_start_used else 0
        self.kernel = result.kernel

    def as_dict(self) -> dict:
        return {
            "rounds": self.rounds,
            "wall_ms": self.wall_ms,
            "packer_passes": self.packer_passes,
            "bisection_steps": self.bisection_steps,
            "shortcircuit_skips": self.shortcircuit_skips,
            "assumed_feasible": self.assumed_feasible,
            "warm_start_hits": self.warm_start_hits,
            "kernel": self.kernel,
        }


class CwcScheduler:
    """The paper's greedy makespan scheduler.

    Parameters
    ----------
    epsilon_ms:
        Convergence threshold of the capacity bisection.
    min_partition_kb:
        Smallest input partition the packer may create.
    warm_start:
        Seed each capacity search with the previous round's converged
        capacity.  Produces identical schedules with fewer packer
        passes at rescheduling instants; off by default so one-shot
        callers keep the exact legacy behaviour.
    kernel:
        Packing backend for the capacity probes: ``'python'`` (exact
        scalar reference), ``'numpy'`` (vectorized, byte-identical
        schedules), or ``'auto'`` (default: pick by phone count).
    telemetry:
        Optional :class:`~repro.obs.telemetry.Telemetry` facade, also
        threaded into the capacity search; only its tracer is used (a
        ``schedule`` span around each search).  Round metrics are
        derived from the run record by
        :class:`~repro.sim.server.CentralServer`, not written here.

    Examples
    --------
    >>> from repro.core import CwcScheduler, SchedulingInstance
    >>> scheduler = CwcScheduler()
    >>> schedule = scheduler.schedule(instance)  # doctest: +SKIP
    >>> schedule.predicted_makespan_ms(instance)  # doctest: +SKIP
    """

    name = "cwc-greedy"

    def __init__(
        self,
        *,
        epsilon_ms: float = 1.0,
        min_partition_kb: float | None = None,
        ram=None,
        warm_start: bool = False,
        kernel: str = "auto",
        telemetry=None,
    ) -> None:
        self._search = CapacitySearch(
            epsilon_ms=epsilon_ms,
            min_partition_kb=min_partition_kb,
            ram=ram,
            kernel=kernel,
            telemetry=telemetry,
        )
        self._warm_start = warm_start
        self._last_result: CapacitySearchResult | None = None
        self._last_capacity_ms: float | None = None
        self._stats = SchedulingStats()
        self._tel = telemetry if telemetry is not None else NULL_TELEMETRY

    def schedule(self, instance: SchedulingInstance) -> Schedule:
        hint = self._last_capacity_ms if self._warm_start else None
        tel = self._tel
        tracer = tel.tracer if tel.enabled else None
        started = time.perf_counter()
        with maybe_span(
            tracer,
            "schedule",
            category="scheduler",
            scheduler=self.name,
            jobs=len(instance.jobs),
            phones=len(instance.phones),
        ):
            result = self._search.run(instance, warm_hint_ms=hint)
        wall_ms = (time.perf_counter() - started) * 1000.0
        self._last_result = result
        self._last_capacity_ms = result.capacity_ms
        self._stats.record(result, wall_ms)
        return result.schedule

    @property
    def last_result(self) -> CapacitySearchResult | None:
        """Diagnostics from the most recent capacity search."""
        return self._last_result

    @property
    def stats(self) -> SchedulingStats:
        """Counters accumulated over every round scheduled so far."""
        return self._stats

    def reset_warm_state(self) -> None:
        """Forget the previous round's capacity (e.g. between runs)."""
        self._last_capacity_ms = None

    def warm_state(self) -> dict:
        """JSON-safe snapshot of the warm-start cache."""
        return {
            "warm_start": self._warm_start,
            "last_capacity_ms": self._last_capacity_ms,
        }

    def restore_warm_state(self, state: dict) -> None:
        """Reinstate a :meth:`warm_state` snapshot (checkpoint restore)."""
        capacity = state.get("last_capacity_ms")
        if capacity is not None:
            capacity = float(capacity)
            if capacity < 0:
                raise ValueError(
                    f"last_capacity_ms must be >= 0, got {capacity!r}"
                )
        self._last_capacity_ms = capacity

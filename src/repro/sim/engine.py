"""A small discrete-event engine driving all CWC simulations.

The engine is a classic calendar queue: events are ``(time, seq)``
ordered callbacks on a binary heap.  Everything in :mod:`repro.sim` —
copy pipelines, task execution, keep-alive probes, unplug events —
is expressed as events on one :class:`EventLoop`.

The loop is deterministic: ties in time are broken by scheduling order,
so two runs with the same inputs produce identical traces.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections.abc import Callable

__all__ = ["EventLoop", "EventToken", "SimulationError"]


class SimulationError(Exception):
    """Raised for invalid uses of the event loop (e.g. scheduling in the past)."""


# A heap entry is a ``[time_ms, seq, action]`` list.  ``seq`` is
# unique, so heap comparisons never reach ``action`` and run in C;
# cancelling an event sets its action slot to ``None``.
_TIME, _SEQ, _ACTION = 0, 1, 2


class EventToken:
    """Handle returned by ``schedule_*``; lets the holder cancel the event."""

    __slots__ = ("_entry",)

    def __init__(self, entry: list) -> None:
        self._entry = entry

    @property
    def time_ms(self) -> float:
        return self._entry[_TIME]

    @property
    def cancelled(self) -> bool:
        return self._entry[_ACTION] is None

    def cancel(self) -> None:
        self._entry[_ACTION] = None


class EventLoop:
    """Deterministic discrete-event scheduler.

    Examples
    --------
    >>> loop = EventLoop()
    >>> fired = []
    >>> _ = loop.schedule_after(10.0, lambda: fired.append(loop.now_ms))
    >>> loop.run()
    >>> fired
    [10.0]
    """

    def __init__(self, *, start_ms: float = 0.0, telemetry=None) -> None:
        self._now = start_ms
        self._heap: list[list] = []
        self._seq = itertools.count()
        self._running = False
        #: Optional repro.obs Telemetry facade.  The hot dispatch loop
        #: never touches it — run() counts locally and flushes the
        #: totals to the registry once per run() call.
        self._telemetry = telemetry

    @property
    def now_ms(self) -> float:
        """Current simulation time in milliseconds."""
        return self._now

    def schedule_at(self, time_ms: float, action: Callable[[], None]) -> EventToken:
        """Schedule ``action`` to fire at absolute time ``time_ms``."""
        if not math.isfinite(time_ms):
            raise SimulationError(f"event time must be finite, got {time_ms!r}")
        if time_ms < self._now:
            raise SimulationError(
                f"cannot schedule in the past: {time_ms} < now {self._now}"
            )
        entry = [time_ms, next(self._seq), action]
        heapq.heappush(self._heap, entry)
        return EventToken(entry)

    def schedule_after(self, delay_ms: float, action: Callable[[], None]) -> EventToken:
        """Schedule ``action`` to fire ``delay_ms`` from now."""
        if delay_ms < 0:
            raise SimulationError(f"delay must be >= 0, got {delay_ms!r}")
        return self.schedule_at(self._now + delay_ms, action)

    def run(self, until_ms: float | None = None) -> None:
        """Dispatch events in time order.

        Stops when the queue is empty, or once the next event lies past
        ``until_ms`` (the clock is then advanced exactly to ``until_ms``).
        Re-entrant calls are rejected — an event's action must not call
        :meth:`run`.
        """
        if self._running:
            raise SimulationError("event loop is already running")
        self._running = True
        dispatched = 0
        cancelled = 0
        try:
            while self._heap:
                time_ms, _, action = self._heap[0]
                if until_ms is not None and time_ms > until_ms:
                    self._now = max(self._now, until_ms)
                    return
                heapq.heappop(self._heap)
                if action is None:
                    cancelled += 1
                    continue
                self._now = time_ms
                dispatched += 1
                action()
            if until_ms is not None:
                self._now = max(self._now, until_ms)
        finally:
            self._running = False
            tel = self._telemetry
            if tel is not None and tel.enabled:
                tel.inc("engine_events_dispatched_total", float(dispatched))
                tel.inc("engine_events_cancelled_total", float(cancelled))

    def pending_events(self) -> int:
        """Number of not-yet-fired, not-cancelled events."""
        return sum(1 for entry in self._heap if entry[_ACTION] is not None)

    def pending_signature(self) -> tuple[tuple[float, int], ...]:
        """The live heap as sorted ``(time_ms, seq)`` pairs.

        Actions are closures and cannot serialise, but their timing
        skeleton can: two runs whose loops hold the same signature at
        the same instant will dispatch the remaining events in the same
        order.  The durability layer folds this into its state digest
        to verify replay-based restores against their snapshots.
        """
        return tuple(
            sorted(
                (entry[_TIME], entry[_SEQ])
                for entry in self._heap
                if entry[_ACTION] is not None
            )
        )

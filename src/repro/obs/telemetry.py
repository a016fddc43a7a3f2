"""The telemetry facade: one handle bundling registry + samplers + tracer.

Every instrumented layer (scheduler, capacity search, central server,
event engine, throttle, campaign) takes an optional ``telemetry``
argument.  Passing nothing gives :data:`NULL_TELEMETRY` — a disabled
facade whose recording methods return before touching any data
structure, so the un-instrumented hot path costs a single truthiness
check (the bench guard in ``benchmarks/test_bench_telemetry.py``
enforces it).

A live facade is just::

    tel = Telemetry.create(run_id="night-0")
    server = CentralServer(..., telemetry=tel)
    ...
    report = build_run_report(result, tel, ...)   # repro.obs.report

The registry is a view of the run record, not a second account of
it.  A run's rounds live on its :class:`~repro.sim.server.RoundRecord`
list (start and drain instants, each scheduler search result) and
every other run record in its timeline trace; the server derives the
registry's run metrics from those once, at run end.  The schedulers
and the capacity search therefore use only the facade's tracer.  The
recording methods below serve the few facts with no record:
dispatches, the event engine, the throttle, and the samplers, which
read live server state at their event hooks.  Per-event call sites
may call them unconditionally (the disabled facade's early return is
a few nanoseconds); guard per-item inner loops with
``if telemetry.enabled:``.
"""

from __future__ import annotations

import itertools
import time

from .registry import MetricsRegistry
from .samplers import SamplerSet
from .tracing import Tracer

__all__ = ["Telemetry", "NULL_TELEMETRY", "new_run_id"]

_RUN_COUNTER = itertools.count(1)


def new_run_id(prefix: str = "run") -> str:
    """A unique-enough run id: wall-clock seconds + process-local counter."""
    return f"{prefix}-{int(time.time())}-{next(_RUN_COUNTER)}"


class Telemetry:
    """Recording facade for one run.

    ``enabled`` is the single hot-path gate: when False, every
    recording method returns immediately and the registry and samplers
    are never allocated.
    """

    __slots__ = ("enabled", "run_id", "registry", "samplers", "tracer")

    def __init__(
        self,
        *,
        enabled: bool,
        run_id: str = "",
        registry: MetricsRegistry | None = None,
        samplers: SamplerSet | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.enabled = enabled
        self.run_id = run_id
        self.registry = registry
        self.samplers = samplers
        self.tracer = tracer

    @classmethod
    def create(
        cls,
        run_id: str | None = None,
        *,
        sample_period_ms: float = 5_000.0,
        tracing: bool = False,
    ) -> "Telemetry":
        """A fully armed facade with a fresh registry and samplers.

        ``tracing=True`` arms a :class:`~repro.obs.tracing.Tracer`.
        The tracer is opt-in separately from metrics because
        span recording sits on per-probe hot paths: components gate on
        ``telemetry.tracer is not None`` so a tracerless facade costs
        one attribute load.
        """
        run_id = run_id or new_run_id()
        return cls(
            enabled=True,
            run_id=run_id,
            registry=MetricsRegistry(),
            samplers=SamplerSet(period_ms=sample_period_ms),
            tracer=Tracer(run_id) if tracing else None,
        )

    # -- recording (no-ops when disabled) ----------------------------------

    def inc(self, name: str, value: float = 1.0, **labels: str) -> None:
        if not self.enabled:
            return
        self.registry.inc(name, value, **labels)

    def set_gauge(self, name: str, value: float, **labels: str) -> None:
        if not self.enabled:
            return
        self.registry.set_gauge(name, value, **labels)

    def observe(self, name: str, value: float, **labels: str) -> None:
        if not self.enabled:
            return
        self.registry.observe(name, value, **labels)

    def record_sample(
        self, name: str, time_ms: float, value: float, **labels: str
    ) -> None:
        if not self.enabled:
            return
        self.samplers.record(name, time_ms, value, **labels)

    def maybe_sample(self, now_ms: float) -> None:
        if not self.enabled:
            return
        self.samplers.maybe_sample(now_ms)

    def sample_now(self, now_ms: float) -> None:
        if not self.enabled:
            return
        self.samplers.sample_now(now_ms)


#: The shared disabled facade: allocation-free recording no-ops.
NULL_TELEMETRY = Telemetry(enabled=False)

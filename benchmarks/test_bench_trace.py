"""Span-tracer overhead benches: tracing must observe, never slow.

PR 9 threads the span tracer through the scheduler's phases (build,
bounds, bisection steps, probe dispatch, pack) behind the same
``tracer is None`` guard the telemetry facade uses.  These benches pin
the two guarantees the flight recorder ships with:

* **disabled is free** — a run without tracing takes the exact same
  code path as before PR 9 (``maybe_span`` returns a shared null
  context), and its schedule is byte-identical to a traced run's
  (tracing observes, never steers);
* **enabled is cheap** — a fully traced mid-scale pass stays within
  ``MAX_TRACE_OVERHEAD`` of the untraced pass.  The overhead is the
  median of per-pair traced/plain ratios over interleaved pairs (each
  pair runs its two passes back to back, alternating which goes
  first), so host drift between pairs cancels inside each ratio and a
  few disturbed pairs cannot move the median.  Pairs are added until
  the timed total reaches ``_MIN_TIMED_S``, so a fast host does not
  resolve a 5 % bound from a few tens of milliseconds.  The traced
  median lands in ``BENCH_scheduler.json`` as ``trace_overhead`` for
  CI's ``check_regression.py --guard trace_overhead.traced_s:0.1``
  guard.
"""

import statistics
import time

from repro.core.greedy import CwcScheduler
from repro.core.serialize import schedule_to_dict
from repro.obs import Telemetry

from .test_bench_fleet_scale import _fleet_instance

#: Allowed fractional overhead of a traced scheduling pass over the
#: untraced pass (median of interleaved per-pair ratios).
MAX_TRACE_OVERHEAD = 0.05

#: Fewest interleaved pairs, and the least timed wall time (both
#: sides together) the pairs must add up to.
_MIN_PAIRS = 9
_MIN_TIMED_S = 1.0


def test_bench_trace_overhead(record_scheduler_bench):
    """Traced vs untraced full pass: median of interleaved pair ratios."""
    instance = _fleet_instance(n_phones=72, n_jobs=600)

    # Warm both paths (allocation, caches) before timing anything.
    CwcScheduler().schedule(instance)
    CwcScheduler(
        telemetry=Telemetry.create(run_id="warm", tracing=True)
    ).schedule(instance)

    def plain():
        started = time.perf_counter()
        schedule = CwcScheduler().schedule(instance)
        return time.perf_counter() - started, schedule, 0

    def traced():
        telemetry = Telemetry.create(run_id="bench-trace", tracing=True)
        started = time.perf_counter()
        schedule = CwcScheduler(telemetry=telemetry).schedule(instance)
        elapsed = time.perf_counter() - started
        return elapsed, schedule, len(telemetry.tracer.spans)

    plain_trials: list[float] = []
    traced_trials: list[float] = []
    ratios: list[float] = []
    plain_schedule = traced_schedule = None
    span_count = 0
    while (
        len(ratios) < _MIN_PAIRS
        or sum(plain_trials) + sum(traced_trials) < _MIN_TIMED_S
    ):
        if len(ratios) % 2 == 0:
            plain_s, plain_schedule, _ = plain()
            traced_s, traced_schedule, span_count = traced()
        else:
            traced_s, traced_schedule, span_count = traced()
            plain_s, plain_schedule, _ = plain()
        plain_trials.append(plain_s)
        traced_trials.append(traced_s)
        ratios.append(traced_s / plain_s)

    assert schedule_to_dict(plain_schedule) == schedule_to_dict(
        traced_schedule
    ), "tracing changed the schedule — it must observe, never steer"
    assert span_count > 0, "the traced pass recorded no spans"

    plain_s = statistics.median(plain_trials)
    traced_s = statistics.median(traced_trials)
    overhead = statistics.median(ratios) - 1.0
    record_scheduler_bench(
        "trace_overhead",
        phones=len(instance.phones),
        jobs=len(instance.jobs),
        trials=len(ratios),
        spans=span_count,
        plain_s=round(plain_s, 4),
        traced_s=round(traced_s, 4),
        overhead_fraction=round(overhead, 4),
    )
    print(
        f"\ntrace overhead (72x600, median of {len(ratios)} pairs): "
        f"plain {plain_s * 1000:.1f} ms, traced {traced_s * 1000:.1f} ms "
        f"({overhead * 100:+.1f}%, {span_count} spans)"
    )
    assert overhead <= MAX_TRACE_OVERHEAD, (
        f"traced scheduling pass costs {overhead * 100:.1f}% "
        f"(allowed {MAX_TRACE_OVERHEAD * 100:.0f}%) — span recording "
        "leaked into the hot loop"
    )


def test_bench_trace_disabled_identical():
    """Telemetry without tracing schedules byte-identically to plain."""
    instance = _fleet_instance(n_phones=72, n_jobs=600)
    plain = CwcScheduler().schedule(instance)
    untraced_tel = Telemetry.create(run_id="bench-untraced")
    assert untraced_tel.tracer is None, (
        "tracing must stay opt-in on Telemetry.create"
    )
    untraced = CwcScheduler(telemetry=untraced_tel).schedule(instance)
    assert schedule_to_dict(plain) == schedule_to_dict(untraced)

"""Telemetry-overhead benches: disabled must cost (almost) nothing.

An optional telemetry facade is threaded through the scheduler's hot
path — the capacity search and the scheduler ``schedule()`` — where it
supplies only the span tracer, resolved once per call behind a single
``enabled`` check (the packing kernels carry no instrumentation at
all, and the scheduler writes nothing to the metrics registry: a
server derives those metrics from its run record).  These benches pin
the guarantee that the *disabled* path (the default for every existing
caller) costs the scheduler nothing measurable:

* a full telemetry-disabled mid-scale scheduling pass is recorded as
  ``telemetry_disabled_mid_pass`` in ``BENCH_scheduler.json``, so CI's
  ``check_regression.py --guard telemetry_disabled_mid_pass.total_s:0.05``
  tracks the absolute trajectory against the committed baseline;
* the enabled path must produce a byte-identical schedule (telemetry
  observes, never steers), with its overhead recorded for context.
"""

import time

from repro.core.capacity import CapacitySearch
from repro.core.greedy import CwcScheduler
from repro.core.serialize import schedule_to_dict
from repro.obs import Telemetry

from .test_bench_fleet_scale import _fleet_instance


def test_bench_telemetry_disabled_mid_pass(record_scheduler_bench):
    """Full mid-scale pass with telemetry disabled — the default path.

    This is the trajectory record the CI regression guard watches at a
    ±5 % tolerance; it must track ``mid_scale_full_pass`` (PR 3's
    number) because the disabled facade adds only dead branches.
    """
    instance = _fleet_instance(n_phones=72, n_jobs=600)

    started = time.perf_counter()
    disabled = CwcScheduler().schedule(instance)
    disabled_s = time.perf_counter() - started

    telemetry = Telemetry.create(run_id="bench")
    started = time.perf_counter()
    enabled = CwcScheduler(telemetry=telemetry).schedule(instance)
    enabled_s = time.perf_counter() - started

    assert schedule_to_dict(disabled) == schedule_to_dict(enabled), (
        "telemetry changed the schedule — it must observe, never steer"
    )
    assert len(telemetry.registry) == 0, (
        "a bare scheduler wrote to the registry — its metrics are "
        "derived from a server's run record"
    )

    record_scheduler_bench(
        "telemetry_disabled_mid_pass",
        phones=len(instance.phones),
        jobs=len(instance.jobs),
        total_s=round(disabled_s, 3),
        enabled_s=round(enabled_s, 3),
        enabled_overhead_fraction=round(enabled_s / disabled_s - 1.0, 4),
    )
    print(
        f"\ntelemetry mid pass (72x600): disabled {disabled_s:.3f}s, "
        f"enabled {enabled_s:.3f}s "
        f"({(enabled_s / disabled_s - 1.0) * 100:+.1f}%)"
    )


def test_bench_capacity_search_disabled_equals_plain():
    """CapacitySearch with an explicit disabled facade is the plain path."""
    instance = _fleet_instance(n_phones=72, n_jobs=600)
    plain = CapacitySearch().run(instance)
    explicit = CapacitySearch(telemetry=None).run(instance)
    assert schedule_to_dict(plain.schedule) == schedule_to_dict(
        explicit.schedule
    )
    assert plain.capacity_ms == explicit.capacity_ms
    assert plain.packer_passes == explicit.packer_passes

"""Instrumentation coverage across the non-server layers.

The server integration is exercised in ``test_report``; here each of
the other instrumented layers — capacity search, scheduler wrapper,
event engine, MIMD throttle, charging simulation, continuous campaigns —
is checked in isolation.
"""

import pytest

from repro.core.capacity import CapacitySearch
from repro.core.greedy import CwcScheduler
from repro.core.packing import GreedyPacker
from repro.obs import Telemetry
from repro.sim.campaign import ContinuousCampaign
from repro.sim.engine import EventLoop
from repro.sim.failures import FailurePlan, PlannedFailure
from repro.sim.server import CentralServer
from repro.verify.oracle import Oracle

from ..conftest import make_instance
from ..sim.test_server import make_jobs, make_setup


def pack_spans(tel):
    return [span for span in tel.tracer.spans if span.name == "pack"]


class TestCapacityAndSchedulerMetrics:
    """The search and the scheduler write nothing to the registry.

    Each pack is a ``pack`` span and each search's counters live on its
    result; the server derives the registry from its round records.
    """

    def test_capacity_search_counts_probes(self):
        tel = Telemetry.create(run_id="cap")
        phones, truth, predictor, b = make_setup(n_phones=6)
        server = CentralServer(
            phones,
            truth,
            predictor,
            CwcScheduler(warm_start=True, telemetry=tel),
            b,
            failure_plan=FailurePlan([PlannedFailure("p3", 1_000.0)]),
            telemetry=tel,
        )
        result = server.run(make_jobs(n_breakable=8, n_atomic=4))
        searches = [record.search for record in result.rounds]
        assert len(searches) == 2
        registry = tel.registry
        assert registry.counter_value(
            "capacity_searches_total", kernel="python"
        ) == len(searches)
        for metric, field in (
            ("capacity_bisection_steps_total", "bisection_steps"),
            ("capacity_shortcircuit_skips_total", "shortcircuit_skips"),
            ("capacity_assumed_feasible_total", "assumed_feasible"),
            ("capacity_warm_start_hits_total", "warm_start_used"),
        ):
            assert registry.counter_value(metric) == sum(
                getattr(search, field) for search in searches
            )
        packs = registry.histogram("capacity_packs_per_search")
        assert packs.count == len(searches)
        assert packs.sum == sum(search.packer_passes for search in searches)

    def test_scheduler_wrapper_metrics(self):
        """A bare scheduler's facts are on its span, not in the registry."""
        tel = Telemetry.create(run_id="sched", tracing=True)
        scheduler = CwcScheduler(telemetry=tel)
        instance = make_instance(
            n_breakable=6, n_atomic=2, n_phones=6, seed=4
        )
        scheduler.schedule(instance)
        assert len(tel.registry) == 0
        (span,) = [s for s in tel.tracer.spans if s.name == "schedule"]
        assert span.attrs["jobs"] == 8
        assert span.attrs["phones"] == 6
        assert span.attrs["scheduler"] == scheduler.name

    def test_round_metrics_are_the_round_records(self):
        tel = Telemetry.create(run_id="rounds", tracing=True)
        phones, truth, predictor, b = make_setup(n_phones=6)
        server = CentralServer(
            phones,
            truth,
            predictor,
            CwcScheduler(telemetry=tel),
            b,
            failure_plan=FailurePlan([PlannedFailure("p3", 1_000.0)]),
            telemetry=tel,
            record_instances=True,
        )
        result = server.run(make_jobs(n_breakable=8, n_atomic=4))
        rounds = result.rounds
        registry = tel.registry
        assert registry.counter_value("scheduler_rounds_total") == len(rounds)
        assert registry.counter_value("scheduler_jobs_total") == sum(
            len(record.job_ids) for record in rounds
        )
        wall = registry.histogram("scheduling_wall_ms")
        assert wall.count == len(rounds)
        assert wall.sum == sum(record.scheduling_wall_ms for record in rounds)
        assert registry.gauge_value("schedule_last_capacity_ms") == (
            rounds[-1].capacity_ms
        )
        round_spans = [s for s in tel.tracer.spans if s.name == "round"]
        assert [s.attrs["phones"] for s in round_spans] == [
            len(record.instance.phones) for record in rounds
        ]

    @pytest.mark.parametrize("kernel", ["python", "numpy"])
    def test_pack_wall_ms_times_every_probe(self, kernel):
        """Each probe's ``pack`` span holds its wall time and verdict;
        the kernels keep no stats."""
        tel = Telemetry.create(run_id="probe-wall", tracing=True)
        instance = make_instance(
            n_breakable=6, n_atomic=3, n_phones=6, seed=5
        )
        result = CapacitySearch(telemetry=tel, kernel=kernel).run(instance)
        spans = pack_spans(tel)
        assert len(spans) == result.packer_passes > 0
        for span in spans:
            assert span.wall_ms >= 0.0
            assert isinstance(span.attrs["feasible"], bool)
        assert any(not span.attrs["feasible"] for span in spans)
        assert len(tel.registry) == 0
        packer = GreedyPacker(instance)
        packer.pack(1e9)
        assert not hasattr(packer, "packs_issued")
        assert not hasattr(packer, "last_pack_wall_ms")

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("kernel", ["python", "numpy"])
    def test_every_pack_is_a_counted_probe(self, kernel, warm):
        """Hint verification and materialisation are ``pack`` spans too."""
        instance = make_instance(
            n_breakable=6, n_atomic=3, n_phones=6, seed=5
        )
        hint = None
        if warm:
            hint = CapacitySearch(kernel=kernel).run(instance).capacity_ms
        tel = Telemetry.create(run_id="probe-count", tracing=True)
        result = CapacitySearch(telemetry=tel, kernel=kernel).run(
            instance, warm_hint_ms=hint
        )
        assert result.warm_start_used is warm
        assert len(pack_spans(tel)) == result.packer_passes > 0


class TestKilledRunMetrics:
    def test_kill_derives_the_registry_from_the_partial_record(self):
        """A run killed at its second scheduling instant still fills the
        registry, from the rounds and timeline recorded before the kill."""

        class Killed(Exception):
            pass

        def kill_at_second_round(server, round_index):
            if round_index == 1:
                raise Killed

        tel = Telemetry.create(run_id="killed")
        phones, truth, predictor, b = make_setup(n_phones=6)
        server = CentralServer(
            phones,
            truth,
            predictor,
            CwcScheduler(telemetry=tel),
            b,
            failure_plan=FailurePlan([PlannedFailure("p3", 1_000.0)]),
            telemetry=tel,
            on_round=kill_at_second_round,
        )
        with pytest.raises(Killed):
            server.run(make_jobs(n_breakable=8, n_atomic=4))
        trace = server._trace
        registry = tel.registry
        assert registry.counter_value("scheduler_rounds_total") == 1
        assert registry.counter_value("capacity_searches_total", kernel="python") == 1
        assert registry.counter_value("completions_total") == len(
            trace.completions
        ) > 0
        assert sum(
            registry.counter_value("failures_total", online=online)
            for online in ("true", "false")
        ) == len(trace.failures) == 1
        assert registry.histogram("round_latency_ms").count == 1


class TestEngineCounters:
    def test_dispatch_and_cancel_counts(self):
        tel = Telemetry.create(run_id="engine")
        loop = EventLoop(telemetry=tel)
        fired = []
        loop.schedule_at(1.0, lambda: fired.append(1))
        loop.schedule_at(2.0, lambda: fired.append(2))
        token = loop.schedule_at(3.0, lambda: fired.append(3))
        token.cancel()
        loop.run()
        assert fired == [1, 2]
        assert tel.registry.counter_value("engine_events_dispatched_total") == 2.0
        assert tel.registry.counter_value("engine_events_cancelled_total") == 1.0

    def test_disabled_costs_nothing(self):
        loop = EventLoop()  # no telemetry at all
        loop.schedule_at(1.0, lambda: None)
        loop.run()


class TestThrottleEvents:
    def test_duty_adjust_events_and_gauges(self):
        from repro.power.battery import HTC_SENSATION
        from repro.power.charging import simulate_charging
        from repro.power.throttle import MimdThrottle

        tel = Telemetry.create(run_id="throttle")
        throttle = MimdThrottle(telemetry=tel)
        simulate_charging(HTC_SENSATION, throttle)
        assert throttle.adjustments
        directions = tel.registry.counter_value(
            "throttle_adjustments_total", direction="more_cpu"
        ) + tel.registry.counter_value(
            "throttle_adjustments_total", direction="less_cpu"
        )
        assert directions == len(throttle.adjustments)
        last_sleep_s = throttle.adjustments[-1][2]
        assert tel.registry.gauge_value("throttle_sleep_s") == last_sleep_s


class TestChargingSeries:
    def test_battery_series_recorded(self):
        from repro.power.battery import HTC_SENSATION
        from repro.power.charging import simulate_charging
        from repro.power.throttle import ContinuousPolicy

        tel = Telemetry.create(run_id="charge")
        trace = simulate_charging(
            HTC_SENSATION,
            ContinuousPolicy(),
            start_percent=20.0,
            target_percent=40.0,
            telemetry=tel,
            phone_id="p0",
            sample_every_s=120.0,
        )
        series = tel.samplers.get_series(
            "battery_percent", id="p0", policy=trace.policy_name
        )
        assert series is not None
        assert len(series) >= 3
        assert series.values[0] == pytest.approx(20.0)
        assert series.values[-1] == pytest.approx(trace.percents[-1])
        # Samples ride the charging sim's own clock.
        assert series.times_ms == sorted(series.times_ms)

    def test_disabled_changes_nothing(self):
        from repro.power.battery import HTC_SENSATION
        from repro.power.charging import simulate_charging
        from repro.power.throttle import ContinuousPolicy

        kwargs = dict(start_percent=20.0, target_percent=30.0)
        plain = simulate_charging(
            HTC_SENSATION, ContinuousPolicy(), **kwargs
        )
        instrumented = simulate_charging(
            HTC_SENSATION,
            ContinuousPolicy(),
            telemetry=Telemetry.create(run_id="x"),
            **kwargs,
        )
        assert plain.percents == instrumented.percents
        assert plain.duration_s == instrumented.duration_s


class TestCampaignTelemetry:
    def test_traced_campaign_equals_untraced(self):
        """Tracing leaves the result alone, opens one ``night`` span per
        non-idle night, and adopts that night's server ``run`` span
        under it.  The sparse arrivals leave one of the nights idle."""
        kwargs = dict(seed=21, jobs_per_night=2, arrival_rate_per_hour=0.05)
        tel = Telemetry.create(run_id="camp", tracing=True)
        traced = ContinuousCampaign(telemetry=tel, **kwargs).run(4)
        assert traced.to_dict() == ContinuousCampaign(**kwargs).run(4).to_dict()

        spans = tel.tracer.drain_dicts()
        nights = [span for span in spans if span["name"] == "night"]
        active = [n.night_index for n in traced.nights if not n.idle]
        assert 0 < len(active) < len(traced.nights)
        assert [span["attrs"]["night_index"] for span in nights] == active
        runs = [span for span in spans if span["name"] == "run"]
        assert [span["parent_id"] for span in runs] == [
            span["span_id"] for span in nights
        ]
        Oracle(include=("span-tree", "span-nesting")).check_run(
            None, (), spans=spans
        )

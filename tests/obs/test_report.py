"""End-to-end tests: instrumented runs, report bundles, equivalence.

The load-bearing guarantees:

* an instrumented chaos run emits a schema-valid event stream with a
  non-empty round-latency histogram and per-phone utilisation series;
* a report bundle carries the run's timeline trace whole
  (``timeline.json``) and its utilisation summary is
  :func:`repro.sim.metrics.compute_run_metrics` on that trace;
* telemetry disabled changes nothing: schedules stay byte-identical.
"""

from collections import Counter

import pytest

from repro.core.greedy import CwcScheduler
from repro.core.model import Job, JobKind, PhoneSpec
from repro.core.prediction import RuntimePredictor, TaskProfile
from repro.core.serialize import schedule_to_dict
from repro.obs import Telemetry, build_run_report, load_run_report
from repro.obs.events import validate_event_dict
from repro.obs.report import render_report_lines
from repro.sim.chaos import ChaosPlan, CpuSlowdown, ResiliencePolicy, TaskCrash
from repro.sim.entities import FleetGroundTruth
from repro.sim.failures import FailurePlan, PlannedFailure
from repro.sim.metrics import compute_run_metrics
from repro.sim.server import CentralServer


def make_fleet(n_phones=4):
    phones = tuple(
        PhoneSpec(phone_id=f"p{i}", cpu_mhz=800.0 + 100.0 * i)
        for i in range(n_phones)
    )
    profiles = {"primes": TaskProfile("primes", 10.0, 800.0)}
    truth = FleetGroundTruth(profiles)
    predictor = RuntimePredictor(profiles, alpha=0.5)
    b = {p.phone_id: 2.0 for p in phones}
    return phones, truth, predictor, b


def make_jobs(n=8):
    return tuple(
        Job(f"b{i}", "primes", JobKind.BREAKABLE, 40.0, 500.0)
        for i in range(n)
    )


def run_instrumented(telemetry, *, chaos=None, resilience=None, plan=None):
    phones, truth, predictor, b = make_fleet()
    server = CentralServer(
        phones,
        truth,
        predictor,
        CwcScheduler(telemetry=telemetry),
        b,
        failure_plan=plan if plan is not None else FailurePlan.none(),
        chaos=chaos if chaos is not None else ChaosPlan(),
        resilience=resilience,
        telemetry=telemetry,
    )
    return server.run(make_jobs())


@pytest.fixture(scope="module")
def chaos_run():
    """One instrumented chaos run shared by the assertions below."""
    telemetry = Telemetry.create(run_id="test-chaos", sample_period_ms=1000.0)
    chaos = ChaosPlan(
        crashes=(TaskCrash("p1", 2_000.0),),
        slowdowns=(CpuSlowdown("p2", 1_000.0, 3.0),),
    )
    plan = FailurePlan(
        [PlannedFailure("p3", 3_000.0, online=False, rejoin_after_ms=20_000.0)]
    )
    result = run_instrumented(
        telemetry,
        chaos=chaos,
        plan=plan,
        resilience=ResiliencePolicy.hardened(),
    )
    return telemetry, result


class TestInstrumentedRun:
    def test_all_events_validate(self, chaos_run):
        telemetry, result = chaos_run
        events = telemetry.bus.events
        # run start/end and round start/end per round, nothing else.
        assert len(events) == 2 + 2 * len(result.rounds)
        for event in events:
            validate_event_dict(event.to_dict())

    def test_event_stream_is_monotone(self, chaos_run):
        telemetry, _ = chaos_run
        times = [e.sim_time_ms for e in telemetry.bus.events]
        assert times == sorted(times)
        seqs = [e.seq for e in telemetry.bus.events]
        assert seqs == list(range(len(seqs)))

    def test_lifecycle_events_present(self, chaos_run):
        telemetry, result = chaos_run
        bus = telemetry.bus
        assert len(bus.of_kind("run_start")) == 1
        assert len(bus.of_kind("run_end")) == 1
        assert bus.of_kind("round_start")
        assert bus.of_kind("round_end")
        # Timeline records are kept once, in the trace, never on the bus.
        trace = result.trace
        assert trace.completions and trace.chaos and trace.resilience_events
        assert {e.kind for e in bus} == {
            "run_start",
            "run_end",
            "round_start",
            "round_end",
        }
        assert not bus.of_component("chaos")
        assert not bus.of_kind("complete")
        assert not bus.of_kind("failure")
        assert not bus.of_kind("dispatch")
        for event in trace.resilience_events:
            assert not bus.of_kind(event.kind)

    def test_round_latency_histogram_non_empty(self, chaos_run):
        telemetry, _ = chaos_run
        latency = telemetry.registry.histogram("round_latency_ms")
        assert latency is not None
        assert latency.count >= 1
        assert latency.percentile(50.0) > 0.0

    def test_per_phone_series_non_empty(self, chaos_run):
        telemetry, _ = chaos_run
        busy = telemetry.samplers.get_series("phone_busy", id="p0")
        assert busy is not None and len(busy) > 0
        util = telemetry.samplers.get_series("fleet_utilisation")
        assert util is not None and len(util) > 0
        assert all(0.0 <= v <= 1.0 for v in util.values)

    def test_metrics_counters_match_trace(self, chaos_run):
        telemetry, result = chaos_run
        registry = telemetry.registry
        assert registry.counter_value("completions_total") == len(
            result.trace.completions
        )
        assert registry.counter_value("scheduler_rounds_total") == len(
            result.rounds
        )
        chaos_total = sum(
            registry.counter_value("chaos_faults_total", kind=k)
            for k in ("task_crash", "cpu_slowdown", "unplug")
        )
        assert chaos_total == len(result.trace.chaos)

    def test_no_span_events_on_the_bus(self, chaos_run):
        telemetry, result = chaos_run
        assert result.trace.spans
        assert not telemetry.bus.of_kind("span")


def trace_counts(trace):
    """The summary's record counts, derived from a timeline trace."""
    return {
        "fault_counts": dict(sorted(Counter(c.kind for c in trace.chaos).items())),
        "failures_detected": len(trace.failures),
        "completions": len(trace.completions),
        "retries": sum(1 for e in trace.resilience_events if e.kind == "retry"),
    }


def assert_summary_counts_match(telemetry, result):
    summary = build_run_report(result, telemetry).summary
    expected = trace_counts(result.trace)
    assert {key: summary[key] for key in expected} == expected
    # The registry counts the same records independently of the trace.
    registry = telemetry.registry
    assert summary["completions"] == registry.counter_value("completions_total")
    assert summary["failures_detected"] == sum(
        registry.counter_value("failures_total", online=online)
        for online in ("true", "false")
    )
    assert summary["retries"] == registry.counter_value(
        "resilience_events_total", kind="retry"
    )
    for kind, count in summary["fault_counts"].items():
        assert registry.counter_value("chaos_faults_total", kind=kind) == count
    assert summary["rounds"] == len(result.rounds)
    return summary


class TestSummaryFromTrace:
    def test_chaos_fixture(self, chaos_run):
        telemetry, result = chaos_run
        summary = assert_summary_counts_match(telemetry, result)
        assert summary["fault_counts"] and summary["completions"]

    def test_fuzz_scenario_with_failures_and_retries(self):
        from repro.verify.fuzz import (
            build_scenario_server,
            generate_scenario,
            scenario_workload,
        )

        scenario = generate_scenario(16)
        telemetry = Telemetry.create(run_id="fuzz-16")
        initial, arrivals = scenario_workload(scenario)
        result = build_scenario_server(scenario, telemetry=telemetry).run(
            initial, arrivals=arrivals
        )
        summary = assert_summary_counts_match(telemetry, result)
        assert summary["failures_detected"] > 0
        assert summary["retries"] > 0
        assert summary["fault_counts"]


class TestRunReportBundle:
    def test_write_load_render_roundtrip(self, chaos_run, tmp_path):
        telemetry, result = chaos_run
        report = build_run_report(
            result, telemetry, meta={"seed": 7}, top_n=3
        )
        bundle_dir = report.write(tmp_path / "bundle")
        assert (bundle_dir / "report.json").is_file()
        assert (bundle_dir / "events.jsonl").is_file()
        assert (bundle_dir / "prometheus.txt").is_file()
        assert list((bundle_dir / "series").glob("*.csv"))

        loaded = load_run_report(bundle_dir)
        assert loaded.run_id == telemetry.run_id
        assert loaded.meta == {"seed": 7}
        assert len(loaded.events) == len(telemetry.bus.events)
        assert len(loaded.series) == len(telemetry.samplers.series)
        assert loaded.summary["completions"] == len(result.trace.completions)
        assert loaded.summary["round_latency_ms"]["count"] >= 1
        assert len(loaded.summary["slowest_phones"]) == 3

        lines = render_report_lines(loaded)
        text = "\n".join(lines)
        assert "run report: test-chaos" in text
        assert "round latency" in text
        assert "faults injected" in text

    def test_bundle_timeline_is_the_trace(self, chaos_run, tmp_path):
        telemetry, result = chaos_run
        bundle_dir = build_run_report(result, telemetry).write(
            tmp_path / "bundle"
        )
        assert (bundle_dir / "timeline.json").is_file()
        loaded = load_run_report(bundle_dir)
        assert loaded.timeline == result.trace.to_dict()
        metrics = compute_run_metrics(result.trace)
        assert loaded.summary["makespan_ms"] == round(metrics.makespan_ms, 6)
        assert loaded.summary["active_phones"] == metrics.active_phone_count

    def test_prometheus_text_parses(self, chaos_run):
        telemetry, result = chaos_run
        report = build_run_report(result, telemetry)
        text = report.render_prometheus()
        assert "completions_total" in text
        assert "round_latency_ms_bucket" in text

    def test_load_rejects_corrupt_events(self, chaos_run, tmp_path):
        telemetry, result = chaos_run
        bundle_dir = build_run_report(result, telemetry).write(tmp_path / "b")
        events_path = bundle_dir / "events.jsonl"
        events_path.write_text(
            events_path.read_text() + '{"run_id": "x"}\n'
        )
        from repro.obs.events import EventSchemaError

        with pytest.raises(EventSchemaError):
            load_run_report(bundle_dir)
        # Validation can be waived for forensics.
        loaded = load_run_report(bundle_dir, validate=False)
        assert loaded.events

    def test_missing_bundle_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_run_report(tmp_path / "nope")

    def test_disabled_telemetry_cannot_build(self, chaos_run):
        from repro.obs import NULL_TELEMETRY

        _, result = chaos_run
        with pytest.raises(ValueError):
            build_run_report(result, NULL_TELEMETRY)


class TestZeroOverheadEquivalence:
    """Telemetry off (default) must change nothing observable."""

    def test_schedules_byte_identical(self):
        from ..conftest import make_instance

        instance = make_instance(
            n_breakable=12, n_atomic=6, n_phones=16, seed=99
        )
        plain = CwcScheduler().schedule(instance)
        instrumented = CwcScheduler(
            telemetry=Telemetry.create(run_id="x")
        ).schedule(instance)
        defaulted = CwcScheduler(telemetry=None).schedule(instance)
        assert schedule_to_dict(plain) == schedule_to_dict(instrumented)
        assert schedule_to_dict(plain) == schedule_to_dict(defaulted)

    def test_sim_results_identical(self):
        def run(telemetry):
            return run_instrumented(telemetry)

        with_tel = run(Telemetry.create(run_id="a"))
        without = run(None)
        assert (
            with_tel.measured_makespan_ms == without.measured_makespan_ms
        )
        assert len(with_tel.trace.completions) == len(
            without.trace.completions
        )

"""End-to-end tests: instrumented runs, report bundles, equivalence.

The load-bearing guarantees:

* an instrumented chaos run records a non-empty round-latency
  histogram and per-phone utilisation series, and its report carries
  one row per ``RunResult.rounds`` entry;
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
from repro.obs.registry import Histogram
from repro.obs.report import _nearest_rank, render_report_lines
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
    def test_round_rows_are_the_round_records(self, chaos_run):
        telemetry, result = chaos_run
        assert result.rounds
        rows = build_run_report(result, telemetry).rounds
        assert rows == [expected_row(record) for record in result.rounds]

    def test_round_count_is_the_drained_rows(self, chaos_run):
        telemetry, result = chaos_run
        report = build_run_report(result, telemetry)
        drained = [r for r in report.rounds if r["drained_at_ms"] is not None]
        assert drained == report.rounds  # every round of the run drained
        assert report.summary["rounds"] == len(drained)
        latency = telemetry.registry.histogram("round_latency_ms")
        assert latency.count == len(drained)
        assert report.summary["round_latency_ms"]["count"] == len(drained)

    def test_round_latency_is_drain_minus_start(self, chaos_run):
        telemetry, result = chaos_run
        observed = telemetry.registry.histogram("round_latency_ms")
        expected = Histogram(buckets=observed.buckets)
        for record in result.rounds:
            assert record.drained_at_ms >= record.scheduled_at_ms
            expected.observe(record.drained_at_ms - record.scheduled_at_ms)
        assert observed.counts == expected.counts
        assert observed.sum == expected.sum

    def test_round_latency_percentiles_come_from_the_rows(self, chaos_run):
        telemetry, result = chaos_run
        latency = build_run_report(result, telemetry).summary[
            "round_latency_ms"
        ]
        (record,) = result.rounds
        only = record.drained_at_ms - record.scheduled_at_ms
        assert only == 33584.39758444258
        assert latency == {"count": 1, "p50": only, "p90": only, "p99": only}

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


def expected_row(record):
    """A round record's report row, spelled out field by field."""
    return {
        "round_index": record.round_index,
        "scheduled_at_ms": record.scheduled_at_ms,
        "drained_at_ms": record.drained_at_ms,
        "jobs": len(record.job_ids),
        "phones_used": len(record.schedule.phone_ids),
        "rescheduled": record.rescheduled,
        "predicted_makespan_ms": record.predicted_makespan_ms,
        "scheduling_wall_ms": record.scheduling_wall_ms,
        "packer_passes": record.search.packer_passes,
        "bisection_steps": record.search.bisection_steps,
        "warm_started": record.warm_started,
        "kernel": record.kernel,
        "pods": record.pods,
        "policy": record.policy,
    }


def trace_counts(trace):
    """The summary's record counts, derived from a timeline trace."""
    return {
        "fault_counts": dict(sorted(Counter(c.kind for c in trace.chaos).items())),
        "failures_detected": len(trace.failures),
        "completions": len(trace.completions),
        "retries": sum(1 for e in trace.resilience_events if e.kind == "retry"),
    }


def assert_summary_counts_match(telemetry, result):
    report = build_run_report(result, telemetry)
    summary = report.summary
    assert report.rounds == [expected_row(r) for r in result.rounds]
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
        assert not (bundle_dir / "events.jsonl").exists()
        assert (bundle_dir / "prometheus.txt").is_file()
        assert list((bundle_dir / "series").glob("*.csv"))

        loaded = load_run_report(bundle_dir)
        assert loaded.run_id == telemetry.run_id
        assert loaded.meta == {"seed": 7}
        assert loaded.rounds == report.rounds
        assert len(loaded.series) == len(telemetry.samplers.series)
        assert loaded.summary["completions"] == len(result.trace.completions)
        assert loaded.summary["round_latency_ms"]["count"] >= 1
        assert len(loaded.summary["slowest_phones"]) == 3

        lines = render_report_lines(loaded)
        text = "\n".join(lines)
        assert "run report: test-chaos" in text
        assert "round latency" in text
        assert "faults injected" in text
        for row in report.rounds:
            assert f"#{row['round_index']:<3d} start" in text

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


class TestNearestRank:
    @pytest.mark.parametrize(
        ("values", "pct", "want"),
        [
            ([10.0 * k for k in range(1, 11)], 50.0, 50.0),
            ([10.0 * k for k in range(1, 11)], 90.0, 90.0),
            ([10.0 * k for k in range(1, 11)], 99.0, 100.0),
            ([1.0, 2.0, 3.0], 50.0, 2.0),
            ([87.8, 1121.6], 50.0, 87.8),
            ([87.8, 1121.6], 90.0, 1121.6),
            ([5.0], 1.0, 5.0),
        ],
    )
    def test_rank_is_ceil_of_pct_times_n(self, values, pct, want):
        assert _nearest_rank(values, pct) == want

"""Edge-case tests for the central server simulation."""

import pytest

from repro.core.greedy import CwcScheduler
from repro.core.model import Job, JobKind, PhoneSpec
from repro.core.prediction import RuntimePredictor, TaskProfile
from repro.sim.entities import FleetGroundTruth
from repro.sim.failures import FailurePlan, PlannedFailure
from repro.sim.metrics import compute_run_metrics
from repro.sim.server import CentralServer
from repro.sim.trace import SpanKind

PROFILES = {"primes": TaskProfile("primes", 10.0, 800.0)}


def build_server(n_phones=3, plan=None, measured_b=None, true_b=None, **kw):
    phones = tuple(
        PhoneSpec(phone_id=f"p{i}", cpu_mhz=800.0) for i in range(n_phones)
    )
    measured = measured_b or {p.phone_id: 2.0 for p in phones}
    server = CentralServer(
        phones,
        FleetGroundTruth(PROFILES),
        RuntimePredictor(PROFILES),
        CwcScheduler(),
        measured,
        true_b_ms_per_kb=true_b,
        failure_plan=plan or FailurePlan.none(),
        **kw,
    )
    return server, phones


def jobs(n=3, input_kb=500.0):
    return tuple(
        Job(f"j{i}", "primes", JobKind.BREAKABLE, 40.0, input_kb)
        for i in range(n)
    )


class TestSimultaneousFailures:
    def test_two_phones_fail_at_same_instant(self):
        plan = FailurePlan(
            [
                PlannedFailure("p0", 3_000.0, online=True),
                PlannedFailure("p1", 3_000.0, online=True),
            ]
        )
        server, _ = build_server(plan=plan)
        result = server.run(jobs())
        assert not result.unfinished_jobs
        assert len(result.trace.failures) == 2

    def test_online_and_offline_mix(self):
        plan = FailurePlan(
            [
                PlannedFailure("p0", 2_000.0, online=True),
                PlannedFailure("p1", 2_500.0, online=False),
            ]
        )
        server, _ = build_server(plan=plan)
        result = server.run(jobs())
        assert not result.unfinished_jobs
        kinds = {f.online for f in result.trace.failures}
        assert kinds == {True, False}


class TestFailureDuringCopy:
    def test_copy_interrupt_requeues_whole_partition(self):
        """A failure while copying loses nothing: the entire partition
        re-enters F_A because no execution ever started."""
        # b=50 ms/KB -> the first copy of (40 exe + ~500 input) takes
        # ~27 s; fail at 1 s, mid-copy.
        measured = {"p0": 50.0, "p1": 50.0, "p2": 50.0}
        plan = FailurePlan([PlannedFailure("p0", 1_000.0, online=True)])
        server, _ = build_server(plan=plan, measured_b=measured)
        result = server.run(jobs())
        (failure,) = result.trace.failures
        assert failure.processed_kb == 0.0
        interrupted = [s for s in result.trace.spans if s.interrupted]
        assert all(s.kind is SpanKind.COPY for s in interrupted)
        assert not result.unfinished_jobs


class TestMeasurementError:
    def test_true_b_differs_from_measured(self):
        """The scheduler plans with stale measurements; the run still
        completes, just with a prediction gap."""
        measured = {"p0": 2.0, "p1": 2.0, "p2": 2.0}
        true = {"p0": 4.0, "p1": 2.0, "p2": 1.0}
        server, _ = build_server(measured_b=measured, true_b=true)
        result = server.run(jobs())
        assert not result.unfinished_jobs
        assert result.measured_makespan_ms != pytest.approx(
            result.predicted_makespan_ms, rel=0.001
        )


class TestRoundRecords:
    def test_round_record_fields(self):
        server, _ = build_server()
        result = server.run(jobs())
        (record,) = result.rounds
        assert record.round_index == 0
        assert not record.rescheduled
        assert record.scheduled_at_ms == 0.0
        assert set(record.job_ids) == {j.job_id for j in jobs()}
        assert record.predicted_makespan_ms > 0

    def test_reschedule_round_marked(self):
        plan = FailurePlan([PlannedFailure("p1", 2_000.0, online=True)])
        server, _ = build_server(plan=plan)
        result = server.run(jobs())
        if len(result.rounds) > 1:
            assert result.rounds[1].rescheduled
            assert result.rounds[1].scheduled_at_ms > 0


class TestSlowdownInteractions:
    def test_partial_fleet_slowdown_shifts_load_outcome(self):
        fast_server, _ = build_server()
        fast = fast_server.run(jobs())
        slow_server, _ = build_server(
            compute_slowdown={"p0": 3.0, "p1": 3.0, "p2": 3.0}
        )
        slow = slow_server.run(jobs())
        assert slow.measured_makespan_ms > fast.measured_makespan_ms
        metrics = compute_run_metrics(slow.trace)
        assert metrics.active_phone_count >= 1

    def test_single_phone_fleet(self):
        server, _ = build_server(n_phones=1)
        result = server.run(jobs())
        assert not result.unfinished_jobs
        metrics = compute_run_metrics(result.trace)
        assert metrics.active_phone_count == 1
        # One phone, sequential pipeline: efficiency is by definition 1.
        assert metrics.parallel_efficiency == pytest.approx(1.0, abs=0.01)


class TestKeepaliveConfig:
    def test_custom_keepalive_shortens_detection(self):
        plan = FailurePlan([PlannedFailure("p1", 1_000.0, online=False)])
        server, _ = build_server(
            plan=plan,
            keepalive_period_ms=5_000.0,
            keepalive_tolerated_misses=2,
        )
        result = server.run(jobs())
        (failure,) = result.trace.failures
        assert failure.detected_at_ms == pytest.approx(10_000.0)


class TestRoundDiagnostics:
    """One set of search diagnostics, the same at every layer.

    ``CapacitySearchResult``, ``SchedulingStats`` and ``RoundRecord``
    carry the serial search's counters; the removed speculative probe
    pool's accounting fields must not creep back into any of them.
    """

    @staticmethod
    def pool_fields(names):
        return [
            name
            for name in names
            if name.startswith("probe_")
            or "speculative" in name
            or "batch" in name
        ]

    def test_no_layer_carries_probe_pool_fields(self):
        from repro.core.capacity import CapacitySearchResult
        from repro.core.greedy import SchedulingStats
        from repro.core.sharding import ShardedSearchResult
        from repro.sim.server import RoundRecord

        for cls in (CapacitySearchResult, ShardedSearchResult, RoundRecord):
            assert self.pool_fields(cls.__dataclass_fields__) == []
        assert self.pool_fields(SchedulingStats().as_dict()) == []

    def test_serial_run_records_search_diagnostics(self):
        server, _ = build_server()
        result = server.run(jobs())
        assert not result.unfinished_jobs
        assert result.rounds  # the run actually scheduled something
        for record in result.rounds:
            assert record.search.packer_passes >= 1
            assert record.kernel in ("python", "numpy")
            assert record.pods == 1

    def test_scheduler_stats_sum_round_records(self):
        server, _ = build_server()
        result = server.run(jobs())
        stats = server._scheduler.stats
        assert stats.rounds == len(result.rounds)
        assert stats.packer_passes == sum(
            record.search.packer_passes for record in result.rounds
        )

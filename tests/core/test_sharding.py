"""Tests for the sharded pod-parallel scheduler (core/sharding.py)."""

import dataclasses
import json
import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from repro.core import lp_bound, pod, sharding
from repro.core.capacity import (
    CapacitySearch,
    CapacitySearchResult,
    available_cpus,
)
from repro.core.greedy import CwcScheduler
from repro.core.policies import SchedulerConfig
from repro.core.pod import (
    PodSpec,
    assemble_rows,
    default_pod_workers,
    partition_phones,
    pod_instance,
    pod_rate_tables,
    resolve_pod_count,
    solve_pod,
)
from repro.core.schedule import Schedule
from repro.core.serialize import schedule_to_dict
from repro.core.sharding import ShardedScheduler, _assign_greedy
from repro.sim.failures import FailurePlan, PlannedFailure
from repro.sim.server import CentralServer

from ..conftest import make_instance, replicated_testbed
from ..sim.test_server import make_jobs, make_setup


def canonical(schedule) -> str:
    return json.dumps(schedule_to_dict(schedule), sort_keys=True)


def solve_outcomes(result) -> list:
    """A round's pod reports without their wall-clock and trace parts."""
    return [
        dataclasses.replace(report, wall_ms=0.0, spans=())
        for report in result.pod_reports
    ]


def _die_in_worker(task):
    """Stand-in pod solve that kills its worker process outright."""
    os._exit(1)


def _raise_in_worker(task):
    """Stand-in pod solve with a programming error (worker side only)."""
    raise ValueError(f"pod {task[0]} spec is malformed")


def _stall_in_worker(task):
    """Stand-in pod LP that never delivers on its own."""
    time.sleep(300)


def sharded_run(pod_workers, *, telemetry=None):
    """A 12-phone server run on 4 pods with a reschedule round.

    One phone unplugs 1 s in, so the run schedules twice.
    """
    phones, truth, predictor, b = make_setup(n_phones=12)
    scheduler = ShardedScheduler(
        pods=4, pod_workers=pod_workers, telemetry=telemetry
    )
    server = CentralServer(
        phones,
        truth,
        predictor,
        scheduler,
        b,
        failure_plan=FailurePlan([PlannedFailure("p3", 1_000.0)]),
        telemetry=telemetry,
    )
    return server.run(make_jobs(n_breakable=14, n_atomic=4))


@pytest.fixture
def fleet_instance():
    """A fleet big enough to cut into 4 pods of 3+ phones."""
    return make_instance(n_phones=12, n_breakable=14, n_atomic=4, seed=9)


class TestPodMechanics:
    def test_partition_phones_round_robin(self):
        assert partition_phones(5, 2) == ((0, 2, 4), (1, 3))

    def test_partition_phones_single_pod(self):
        assert partition_phones(3, 1) == ((0, 1, 2),)

    def test_partition_phones_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            partition_phones(3, 4)
        with pytest.raises(ValueError):
            partition_phones(3, 0)

    def test_resolve_pod_count_clamps_to_fleet(self):
        assert resolve_pod_count(8, 3) == 3
        assert resolve_pod_count(2, 100) == 2
        with pytest.raises(ValueError):
            resolve_pod_count(0, 4)

    def test_resolve_pod_count_auto_honours_repro_cpus(self, monkeypatch):
        monkeypatch.setenv("REPRO_CPUS", "3")
        # 12 phones / 4-phone floor = 3 pods, matching the CPU budget.
        assert resolve_pod_count("auto", 12) == 3
        # A tiny fleet never shards, whatever the CPU count says.
        assert resolve_pod_count("auto", 5) == 1

    def test_available_cpus_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_CPUS", "7")
        assert available_cpus() == 7
        assert default_pod_workers(3) == 3
        assert default_pod_workers(10) == 7

    def test_available_cpus_ignores_bad_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_CPUS", "zero")
        assert available_cpus() >= 1
        monkeypatch.setenv("REPRO_CPUS", "-2")
        assert available_cpus() >= 1

    def test_pod_instance_slices_costs(self, fleet_instance):
        phones = (1, 5, 9)
        jobs = (0, 3, 7)
        sub = pod_instance(fleet_instance, phones, jobs)
        assert [p.phone_id for p in sub.phones] == [
            fleet_instance.phones[i].phone_id for i in phones
        ]
        for si, fi in enumerate(phones):
            phone = fleet_instance.phones[fi]
            assert sub.b(phone.phone_id) == fleet_instance.b(phone.phone_id)
            for sj, fj in enumerate(jobs):
                job = fleet_instance.jobs[fj]
                assert sub.c(phone.phone_id, job.job_id) == pytest.approx(
                    fleet_instance.c(phone.phone_id, job.job_id)
                )

    def test_pod_rate_tables_match_bruteforce(self, fleet_instance):
        pods = partition_phones(len(fleet_instance.phones), 3)
        bmin, cmin, agg = pod_rate_tables(
            fleet_instance, pods, block_rows=5
        )
        b = fleet_instance.b_array()
        c = fleet_instance.c_matrix()
        for p, members in enumerate(pods):
            idx = np.asarray(members)
            assert bmin[p] == pytest.approx(b[idx].min())
            rate = b[idx, None] + c[idx]
            np.testing.assert_allclose(cmin[p], rate.min(axis=0))
            inv = np.where(rate > 0, 1.0 / rate, 0.0)
            np.testing.assert_allclose(agg[p], inv.sum(axis=0))

    def test_assemble_schedule_orders_by_pod_index(self, fleet_instance):
        search = CapacitySearch()
        pods = partition_phones(len(fleet_instance.phones), 2)
        jobs = tuple(range(len(fleet_instance.jobs)))
        half = len(jobs) // 2
        specs = [
            PodSpec(index=1, phone_positions=pods[1], job_positions=jobs[half:]),
            PodSpec(index=0, phone_positions=pods[0], job_positions=jobs[:half]),
        ]
        reports = [solve_pod(fleet_instance, s, search) for s in specs]
        schedule = Schedule.from_rows(assemble_rows(reports))
        schedule.validate(fleet_instance)
        first_job = next(iter(schedule)).job_id
        assert first_job in {
            fleet_instance.jobs[j].job_id for j in jobs[:half]
        }


class TestShardedScheduler:
    def test_ctor_validation(self):
        with pytest.raises(ValueError):
            ShardedScheduler(pods=0)
        with pytest.raises(ValueError):
            ShardedScheduler(pod_workers=0)
        with pytest.raises(TypeError):
            ShardedScheduler(rebalance_rounds=1)
        with pytest.raises(TypeError):
            ShardedScheduler(policy="cwc-greedy")
        with pytest.raises(TypeError):
            ShardedScheduler(pod_assign="greedy")

    @pytest.mark.parametrize("kernel", ["python", "numpy"])
    def test_pods1_byte_identical_to_monolithic(self, fleet_instance, kernel):
        mono = CwcScheduler(kernel=kernel).schedule(fleet_instance)
        sharded = ShardedScheduler(pods=1, kernel=kernel).schedule(
            fleet_instance
        )
        assert canonical(sharded) == canonical(mono)

    def test_pods1_result_is_the_monolithic_result(self, fleet_instance):
        mono = CwcScheduler()
        mono.schedule(fleet_instance)
        sharded = ShardedScheduler(pods=1)
        sharded.schedule(fleet_instance)
        want, got = mono.last_result, sharded.last_result
        assert isinstance(got, CapacitySearchResult)
        assert got.pods == 1
        for field in dataclasses.fields(CapacitySearchResult):
            if field.name == "schedule":
                assert canonical(got.schedule) == canonical(want.schedule)
            else:
                assert getattr(got, field.name) == getattr(
                    want, field.name
                ), field.name

    def test_small_fleet_auto_resolves_to_monolithic(self, small_instance):
        scheduler = ShardedScheduler(pods="auto")
        schedule = scheduler.schedule(small_instance)
        schedule.validate(small_instance)
        assert scheduler.last_result.pods == 1

    @pytest.mark.parametrize("policy", ["greedy", "hash"])
    def test_policies_produce_valid_certified_schedules(
        self, fleet_instance, policy, request
    ):
        if policy == "hash":
            request.getfixturevalue("crc32_splitter")
        scheduler = ShardedScheduler(pods=3, pod_workers=None)
        schedule = scheduler.schedule(fleet_instance)
        schedule.validate(fleet_instance)
        result = scheduler.last_result
        assert result.pods == 3
        assert result.pod_solve_ms_max <= result.pod_solve_ms_sum
        assert len(result.pod_reports) >= 2
        makespan = schedule.predicted_makespan_ms(fleet_instance)
        assert makespan == pytest.approx(result.max_height_ms)
        # The pod LP certifies the sandwich: floor <= makespan.
        assert result.lp_floor_ms is not None
        assert makespan >= result.lp_floor_ms * (1 - 1e-9)
        assert result.shard_bound_ratio >= 1.0 - 1e-9

    def test_deterministic_across_repeat_solves(self, fleet_instance):
        first = ShardedScheduler(pods=3, pod_workers=None).schedule(
            fleet_instance
        )
        second = ShardedScheduler(pods=3, pod_workers=None).schedule(
            fleet_instance
        )
        assert canonical(first) == canonical(second)

    def test_greedy_splitter_balances_better_than_worst_case(
        self, fleet_instance
    ):
        pods = partition_phones(len(fleet_instance.phones), 3)
        bmin, _cmin, agg = pod_rate_tables(fleet_instance, pods)
        assignment = _assign_greedy(fleet_instance, bmin, agg)
        assert assignment.shape == (len(fleet_instance.jobs),)
        assert set(np.unique(assignment)) <= {0, 1, 2}
        # Every pod gets some work on this mixed workload.
        assert len(np.unique(assignment)) == 3

    def test_rebalance_never_hurts_capacity(
        self, fleet_instance, monkeypatch, crc32_splitter
    ):
        # The crc32 split leaves the pods unbalanced, so the repair
        # rounds have real work to do.
        monkeypatch.setattr(sharding, "_REBALANCE_ROUNDS", 0)
        base = ShardedScheduler(pods=3, pod_workers=None)
        base.schedule(fleet_instance)
        assert base.last_result.rebalance_moves == 0
        monkeypatch.setattr(sharding, "_REBALANCE_ROUNDS", 3)
        repaired = ShardedScheduler(pods=3, pod_workers=None)
        schedule = repaired.schedule(fleet_instance)
        schedule.validate(fleet_instance)
        assert repaired.last_result.rebalance_moves >= 1
        assert (
            repaired.last_result.capacity_ms
            < base.last_result.capacity_ms
        )

    def test_pooled_matches_serial(self, fleet_instance, monkeypatch):
        monkeypatch.setenv("REPRO_CPUS", "4")
        for kernel in ("python", "numpy"):
            serial_scheduler = ShardedScheduler(
                pods=3, pod_workers=None, kernel=kernel
            )
            serial = serial_scheduler.schedule(fleet_instance)
            pooled_scheduler = ShardedScheduler(
                pods=3, pod_workers=2, kernel=kernel
            )
            pooled = pooled_scheduler.schedule(fleet_instance)
            assert canonical(pooled) == canonical(serial)
            assert solve_outcomes(pooled_scheduler.last_result) == (
                solve_outcomes(serial_scheduler.last_result)
            )
            # The read collects the pending certificate and joins the pool.
            assert pooled_scheduler.last_result.lp_floor_ms == (
                serial_scheduler.last_result.lp_floor_ms
            )

    def test_pool_death_falls_back_to_serial(
        self, fleet_instance, monkeypatch
    ):
        serial_scheduler = ShardedScheduler(pods=3, pod_workers=None)
        serial = serial_scheduler.schedule(fleet_instance)
        # Patched before the pool forks, so every worker inherits it.
        monkeypatch.setattr(pod, "_pod_worker_solve", _die_in_worker)
        pooled_results = []
        solve_pooled = ShardedScheduler._solve_pods_pooled

        def spy(self, *args, **kwargs):
            reports = solve_pooled(self, *args, **kwargs)
            pooled_results.append(reports)
            return reports

        monkeypatch.setattr(ShardedScheduler, "_solve_pods_pooled", spy)
        scheduler = ShardedScheduler(pods=3, pod_workers=2)
        schedule = scheduler.schedule(fleet_instance)
        assert pooled_results == [None]  # the pool died; serial ran
        assert canonical(schedule) == canonical(serial)
        assert solve_outcomes(scheduler.last_result) == (
            solve_outcomes(serial_scheduler.last_result)
        )
        # The LP died with the pool: the read certifies inline and joins
        # what is left of it.
        assert scheduler.last_result.lp_floor_ms == (
            serial_scheduler.last_result.lp_floor_ms
        )
        assert multiprocessing.active_children() == []

    def test_pod_worker_programming_error_propagates(
        self, fleet_instance, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CPUS", "4")
        # Patched before the pool forks, so every worker inherits it;
        # the serial re-solve path is untouched and would succeed.
        monkeypatch.setattr(pod, "_pod_worker_solve", _raise_in_worker)
        scheduler = ShardedScheduler(pods=3, pod_workers=2)
        with pytest.raises(ValueError, match="spec is malformed"):
            scheduler.schedule(fleet_instance)
        assert scheduler.last_result is None
        assert multiprocessing.active_children() == []

    def test_pooled_certificate_matches_serial(
        self, fleet_instance, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CPUS", "4")
        serial_scheduler = ShardedScheduler(pods=3, pod_workers=None)
        serial = serial_scheduler.schedule(fleet_instance)
        pooled_scheduler = ShardedScheduler(pods=3, pod_workers=2)
        pooled = pooled_scheduler.schedule(fleet_instance)
        assert canonical(pooled) == canonical(serial)
        want, got = serial_scheduler.last_result, pooled_scheduler.last_result
        assert want.lp_floor_ms is not None
        # Bit for bit: the floor crosses the process boundary as a float.
        assert got.lp_floor_ms == want.lp_floor_ms
        assert got.shard_bound_ratio == want.shard_bound_ratio
        assert got.lp_certify_ms > 0.0 and want.lp_certify_ms > 0.0
        assert multiprocessing.active_children() == []

    def test_lp_worker_death_certifies_inline(
        self, fleet_instance, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CPUS", "4")
        serial_scheduler = ShardedScheduler(pods=3, pod_workers=None)
        serial = serial_scheduler.schedule(fleet_instance)
        # Patched before the pool forks, so every worker inherits it.
        monkeypatch.setattr(pod, "_pod_worker_lp", _die_in_worker)
        inline_solves = []
        solve_inline = ShardedScheduler._solve_pod_lp

        def spy(self, *args, **kwargs):
            outcome = solve_inline(self, *args, **kwargs)
            inline_solves.append(outcome)
            return outcome

        monkeypatch.setattr(ShardedScheduler, "_solve_pod_lp", spy)
        scheduler = ShardedScheduler(pods=3, pod_workers=2)
        schedule = scheduler.schedule(fleet_instance)
        assert inline_solves == []  # the round left its certificate pending
        assert canonical(schedule) == canonical(serial)
        assert (
            scheduler.last_result.lp_floor_ms
            == serial_scheduler.last_result.lp_floor_ms
        )
        assert len(inline_solves) == 1  # the dead pool certified inline
        assert multiprocessing.active_children() == []

    def test_lp_worker_killed_after_schedule_certifies_inline(
        self, fleet_instance, monkeypatch
    ):
        serial_scheduler = ShardedScheduler(pods=3, pod_workers=None)
        serial_scheduler.schedule(fleet_instance)
        # Patched before the pool forks: the LP worker stalls, so the
        # round can only return if it does not wait for its certificate.
        monkeypatch.setattr(pod, "_pod_worker_lp", _stall_in_worker)
        scheduler = ShardedScheduler(pods=3, pod_workers=2)
        scheduler.schedule(fleet_instance)
        workers = multiprocessing.active_children()
        for worker in workers:
            os.kill(worker.pid, signal.SIGKILL)
        assert workers  # the LP worker was still solving
        result = scheduler.last_result
        assert result.lp_floor_ms == serial_scheduler.last_result.lp_floor_ms
        assert result.shard_bound_ratio == (
            serial_scheduler.last_result.shard_bound_ratio
        )
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("pod_workers", [None, 2])
    def test_lp_solver_failure_is_uncertified_and_counted(
        self, fleet_instance, monkeypatch, pod_workers
    ):
        from repro.obs import Telemetry

        monkeypatch.setenv("REPRO_CPUS", "4")

        def highs_fails(*args, **kwargs):
            raise RuntimeError("HiGHS status 4")

        # Patched before the pool forks, so the LP worker inherits it.
        monkeypatch.setattr(
            lp_bound, "solve_pod_relaxed_makespan", highs_fails
        )
        telemetry = Telemetry.create(run_id="lp-failure")
        scheduler = ShardedScheduler(
            pods=3, pod_workers=pod_workers, telemetry=telemetry
        )
        scheduler.schedule(fleet_instance)
        assert scheduler.last_result.lp_floor_ms is None
        assert scheduler.last_result.shard_bound_ratio > 0.0
        registry = telemetry.registry
        assert registry.counter_value("shard_lp_failures_total") == 1.0
        assert multiprocessing.active_children() == []

    def test_lp_solver_failure_counted_once_at_collection(
        self, fleet_instance, monkeypatch
    ):
        from repro.obs import Telemetry

        def highs_fails(*args, **kwargs):
            raise RuntimeError("HiGHS status 4")

        # Patched before the pool forks, so the LP worker inherits it.
        monkeypatch.setattr(
            lp_bound, "solve_pod_relaxed_makespan", highs_fails
        )
        telemetry = Telemetry.create(run_id="lp-failure-once")
        registry = telemetry.registry
        scheduler = ShardedScheduler(
            pods=3, pod_workers=2, telemetry=telemetry
        )
        scheduler.schedule(fleet_instance)
        assert registry.counter_value("shard_lp_failures_total") == 0.0
        result = scheduler.last_result
        assert result.lp_floor_ms is None
        assert registry.counter_value("shard_lp_failures_total") == 1.0
        assert result.shard_bound_ratio > 0.0
        result.collect_certificate()
        assert registry.counter_value("shard_lp_failures_total") == 1.0
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("pod_workers", [None, 2])
    def test_lp_programming_error_propagates(
        self, fleet_instance, monkeypatch, pod_workers
    ):
        monkeypatch.setenv("REPRO_CPUS", "4")

        def bad_cover(*args, **kwargs):
            raise ValueError("pod 0 is empty")

        monkeypatch.setattr(lp_bound, "solve_pod_relaxed_makespan", bad_cover)
        scheduler = ShardedScheduler(pods=3, pod_workers=pod_workers)
        if pod_workers is None:
            # A serial round certifies inline, before it returns.
            with pytest.raises(ValueError, match="pod 0 is empty"):
                scheduler.schedule(fleet_instance)
        else:
            # A pooled round returns first; the error surfaces at the
            # first read, and again at every later one.
            scheduler.schedule(fleet_instance)
            result = scheduler.last_result
            with pytest.raises(ValueError, match="pod 0 is empty"):
                result.lp_floor_ms
            with pytest.raises(ValueError, match="pod 0 is empty"):
                result.collect_certificate()
        assert multiprocessing.active_children() == []

    def test_pooled_certificate_span_on_its_own_lane(self):
        from repro.obs import Telemetry
        from repro.verify.oracle import Oracle

        telemetry = Telemetry.create(run_id="lp-lane", tracing=True)
        result = sharded_run(2, telemetry=telemetry)
        spans = telemetry.tracer.to_dicts()
        by_id = {span["span_id"]: span for span in spans}
        certify = [s for s in spans if s["name"] == "lp_certify"]
        assert len(certify) == len(result.rounds) == 2
        for span in certify:
            assert span["process"] == "pods/lp"
            # Adopted at collection under the run: it outlives its round.
            assert by_id[span["parent_id"]]["name"] == "run"
        assert Oracle(include=("span-tree", "span-nesting")).check_run(
            None, (), spans=spans, collect=True
        ) == []

    def test_server_run_collects_every_certificate(self):
        serial = sharded_run(None)
        pooled = sharded_run(2)
        assert multiprocessing.active_children() == []
        assert len(pooled.rounds) == len(serial.rounds) == 2
        for got, want in zip(pooled.rounds, serial.rounds):
            assert got.pods == 4
            assert "_pending_lp" not in vars(got.search)
            assert want.search.lp_floor_ms is not None
            # Bit for bit: the floor crosses the process boundary as a float.
            assert got.search.lp_floor_ms == want.search.lp_floor_ms
            assert got.shard_bound_ratio == want.shard_bound_ratio

    def test_lp_programming_error_surfaces_from_server_run(
        self, monkeypatch
    ):
        def bad_cover(*args, **kwargs):
            raise ValueError("pod 0 is empty")

        # Patched before any pool forks, so every LP worker inherits it.
        monkeypatch.setattr(lp_bound, "solve_pod_relaxed_makespan", bad_cover)
        with pytest.raises(ValueError, match="pod 0 is empty"):
            sharded_run(2)
        assert multiprocessing.active_children() == []

    def test_warm_state_round_trip(self, fleet_instance):
        warm = ShardedScheduler(
            pods=3, warm_start=True, pod_workers=None
        )
        baseline = warm.schedule(fleet_instance)
        state = warm.warm_state()
        # JSON-safe: survives a serialisation round trip.
        state = json.loads(json.dumps(state))
        assert set(state) == {
            "warm_start", "last_capacity_ms", "pod_capacities"
        }
        restored = ShardedScheduler(
            pods=3, warm_start=True, pod_workers=None
        )
        restored.restore_warm_state(state)
        rerun = restored.schedule(fleet_instance)
        assert canonical(rerun) == canonical(baseline)
        assert restored.last_result.warm_start_used

    def test_restore_warm_state_rejects_negative_capacity(self):
        scheduler = ShardedScheduler(pods=2)
        with pytest.raises(ValueError):
            scheduler.restore_warm_state(
                {"last_capacity_ms": None, "pod_capacities": {"0": -5.0}}
            )

    def test_stats_accumulate_over_rounds(self, fleet_instance):
        scheduler = ShardedScheduler(pods=2, pod_workers=None)
        scheduler.schedule(fleet_instance)
        scheduler.schedule(fleet_instance)
        assert scheduler.stats.rounds == 2
        assert scheduler.stats.packer_passes > 0

    def test_parent_builds_no_fleet_wide_per_kb_matrix(
        self, fleet_instance
    ):
        scheduler = ShardedScheduler(pods=4, pod_workers=None)
        scheduler.schedule(fleet_instance)
        result = scheduler.last_result
        assert result.pods == 4 and result.lp_floor_ms is not None
        assert (
            result.lower_bound_ms,
            result.upper_bound_ms,
        ) == fleet_instance.capacity_bounds()
        for cache in ("_per_kb_matrix", "_per_kb_matrix_t"):
            assert getattr(fleet_instance, cache, None) is None, cache

    def test_parent_gathers_no_fleet_wide_c_matrix(self, monkeypatch):
        fleet = replicated_testbed(n_phones=48, n_jobs=40)
        dense = type(fleet).c_matrix

        def guarded(instance):
            if instance is fleet:
                raise AssertionError("c_matrix() on the full instance")
            return dense(instance)

        monkeypatch.setattr(type(fleet), "c_matrix", guarded)
        scheduler = ShardedScheduler(pods=4, pod_workers=None)
        schedule = scheduler.schedule(fleet)
        schedule.validate(fleet)
        assert scheduler.last_result.lp_floor_ms is not None
        assert len(fleet.c_class_rows()[0]) < len(fleet.phones)

    def test_certify_off_skips_lp_floor(self, fleet_instance):
        scheduler = ShardedScheduler(
            pods=2, certify=False, pod_workers=None
        )
        scheduler.schedule(fleet_instance)
        assert scheduler.last_result.lp_floor_ms is None
        # The diagnostic ratio still reports against the bisection floor.
        assert scheduler.last_result.shard_bound_ratio > 0.0

    def test_telemetry_labels_per_pod(self):
        from repro.obs import Telemetry

        telemetry = Telemetry.create(run_id="sharded-test")
        result = sharded_run(None, telemetry=telemetry)
        registry = telemetry.registry
        pods_seen = {
            labels["pod"] for labels in registry.series_labels("pod_solve_ms")
        }
        assert pods_seen == {"0", "1", "2", "3"}
        last = result.rounds[-1]
        assert registry.gauge_value("shard_bound_ratio") == (
            last.shard_bound_ratio
        )
        assert registry.gauge_value("shard_pods") == 4.0
        assert sum(
            registry.counter_value("pod_jobs_total", pod=pod)
            for pod in pods_seen
        ) == sum(len(record.job_ids) for record in result.rounds)
        assert registry.counter_value("shard_rebalance_moves_total") == sum(
            record.search.rebalance_moves for record in result.rounds
        )

    def test_pooled_and_serial_runs_count_alike(self, monkeypatch):
        """The registry is derived from each round's assembled pod
        searches, so pooling cannot change a count, and every
        ``capacity_*`` counter sums the round records."""
        from repro.obs import Telemetry

        monkeypatch.setenv("REPRO_CPUS", "2")
        counters = {}
        for workers in (None, 2):
            telemetry = Telemetry.create(run_id=f"pods-{workers}")
            result = sharded_run(workers, telemetry=telemetry)
            searches = [record.search for record in result.rounds]
            assert len(searches) == 2
            assert all(search.pods == 4 for search in searches)
            registry = telemetry.registry
            assert registry.counter_value(
                "capacity_searches_total", kernel="python"
            ) == sum(len(search.pod_reports) for search in searches)
            for metric, field in (
                ("capacity_bisection_steps_total", "bisection_steps"),
                ("capacity_shortcircuit_skips_total", "shortcircuit_skips"),
                ("capacity_assumed_feasible_total", "assumed_feasible"),
            ):
                assert registry.counter_value(metric) == sum(
                    getattr(search, field) for search in searches
                )
            assert registry.counter_value(
                "capacity_warm_start_hits_total"
            ) == sum(
                report.warm_start_used
                for search in searches
                for report in search.pod_reports
            )
            packs = registry.histogram("capacity_packs_per_search")
            assert packs.sum == sum(search.packer_passes for search in searches)
            counters[workers] = registry.to_dict()["counters"]
        assert counters[None] == counters[2]
        assert multiprocessing.active_children() == []


class TestRoundOneKernelRouting:
    """A fleet reschedule: few residual jobs on four 250-phone pods."""

    def test_auto_packs_on_numpy_and_matches_both_kernels(self):
        instance = replicated_testbed(1000, 8)
        runs = {}
        for kernel in ("auto", "python", "numpy"):
            scheduler = ShardedScheduler(
                pods=4, pod_workers=None, kernel=kernel
            )
            schedule = scheduler.schedule(instance)
            runs[kernel] = (canonical(schedule), scheduler.last_result)
        assert runs["auto"][1].kernel == "numpy"
        for kernel in ("python", "numpy"):
            schedule, result = runs[kernel]
            assert schedule == runs["auto"][0]
            for field in (
                "packer_passes",
                "bisection_steps",
                "shortcircuit_skips",
                "shard_bound_ratio",
            ):
                assert getattr(result, field) == getattr(
                    runs["auto"][1], field
                )


class TestPolicyRejection:
    """Satellite guarantee: pods only ever run the paper's scheduler."""

    def test_non_default_policy_rejected_with_guidance(self):
        with pytest.raises(ValueError) as excinfo:
            SchedulerConfig(pods=2, policy="energy-aware")
        message = str(excinfo.value)
        assert "cwc-greedy" in message
        assert "energy-aware" in message
        assert "pods=None" in message

    def test_default_policy_accepted_explicitly(self):
        scheduler = SchedulerConfig(pods=2, policy="cwc-greedy").build()
        assert isinstance(scheduler, ShardedScheduler)
        assert scheduler.name == "cwc-sharded"

"""Tests for crash-safe checkpoint/restore of CentralServer runs."""

import multiprocessing
import random

import pytest

from repro.core.greedy import CwcScheduler
from repro.core.prediction import RuntimePredictor
from repro.core.sharding import ShardedScheduler
from repro.durability.recovery import (
    RUN_SNAPSHOT_KIND,
    RecoveryError,
    RunKilled,
    checkpointing_hook,
    crash_restore_check,
    execute_scenario,
    run_digests,
    verification_hook,
)
from repro.durability.snapshot import Snapshot, SnapshotStore
from repro.sim.chaos import ChaosMonkey, ChaosPlan, ResiliencePolicy
from repro.sim.entities import FleetGroundTruth
from repro.sim.server import CentralServer
from repro.verify.fuzz import (
    derive_seeds,
    generate_scenario,
    run_crash_restore_campaign,
)
from repro.workloads.arrivals import poisson_arrivals
from repro.workloads.mixes import (
    evaluation_workload,
    paper_task_profiles,
    paper_testbed,
)


def build_server(
    *,
    kernel="python",
    warm_start=False,
    harden=False,
    chaos_seed=None,
    on_round=None,
    arrival_rate=600.0,
):
    """A fresh, fully deterministic server + workload for one drill run."""
    from repro.netmodel.measurement import measure_fleet

    testbed = paper_testbed(seed=9)
    phones = testbed.phones[:8]
    profiles = paper_task_profiles()
    truth = FleetGroundTruth(profiles, deviation_sigma=0.03, seed=9)
    predictor = RuntimePredictor(profiles)
    b = measure_fleet(
        {p.phone_id: testbed.links[p.phone_id] for p in phones}
    )
    chaos = ChaosPlan.none()
    if chaos_seed is not None:
        monkey = ChaosMonkey(
            flap_probability=0.2,
            straggler_probability=0.2,
            straggler_factor_range=(3.0, 5.0),
            crash_rate=0.3,
        )
        chaos = monkey.sample_plan(
            [p.phone_id for p in phones],
            duration_ms=300_000.0,
            rng=random.Random(chaos_seed),
        )
    policy = ResiliencePolicy.hardened() if harden else None
    server = CentralServer(
        phones,
        truth,
        predictor,
        CwcScheduler(kernel=kernel, warm_start=warm_start),
        b,
        chaos=chaos,
        resilience=policy,
        on_round=on_round,
        record_instances=True,
    )
    jobs = evaluation_workload(seed=9, instances_per_task=2)
    initial = jobs[:4]
    arrivals = poisson_arrivals(
        jobs[4:], rate_per_hour=arrival_rate, rng=random.Random(3)
    )
    return server, initial, arrivals


CONFIGS = [
    pytest.param("python", False, False, None, id="python-cold-plain"),
    pytest.param("numpy", False, False, None, id="numpy-cold-plain"),
    pytest.param("python", True, True, None, id="python-warm-hardened"),
    pytest.param("numpy", True, False, 11, id="numpy-warm-chaos"),
    pytest.param("python", False, True, 11, id="python-hardened-chaos"),
]


class TestServerCrashRestore:
    """The drill across kernels, warm start, hardening, and chaos."""

    @pytest.mark.parametrize(
        "kernel,warm_start,harden,chaos_seed", CONFIGS
    )
    def test_restore_is_byte_identical(
        self, tmp_path, kernel, warm_start, harden, chaos_seed
    ):
        kwargs = dict(
            kernel=kernel,
            warm_start=warm_start,
            harden=harden,
            chaos_seed=chaos_seed,
        )
        server, initial, arrivals = build_server(**kwargs)
        baseline = server.run(initial, arrivals=arrivals)
        assert len(baseline.rounds) >= 2, "drill needs a mid-run instant"
        base = run_digests(baseline)

        store = SnapshotStore(tmp_path)
        server, initial, arrivals = build_server(
            **kwargs,
            on_round=checkpointing_hook(store, kill_at_instant=1),
        )
        with pytest.raises(RunKilled):
            server.run(initial, arrivals=arrivals)
        snapshot = store.latest(kind=RUN_SNAPSHOT_KIND)
        assert snapshot is not None

        witness = {"verified": False}
        server, initial, arrivals = build_server(
            **kwargs, on_round=verification_hook(snapshot, witness)
        )
        restored = server.run(initial, arrivals=arrivals)
        assert witness["verified"]
        assert run_digests(restored) == base

    def test_kill_at_zero_leaves_no_snapshot(self, tmp_path):
        store = SnapshotStore(tmp_path)
        server, initial, arrivals = build_server(
            on_round=checkpointing_hook(store, kill_at_instant=0)
        )
        with pytest.raises(RunKilled):
            server.run(initial, arrivals=arrivals)
        assert len(store) == 0

    def test_corrupted_snapshot_falls_back_to_previous(self, tmp_path):
        # A slower arrival stream spreads the run over three scheduling
        # instants so two snapshots exist before the kill at instant 2.
        server, initial, arrivals = build_server(arrival_rate=60.0)
        base = run_digests(server.run(initial, arrivals=arrivals))

        store = SnapshotStore(tmp_path)
        server, initial, arrivals = build_server(
            arrival_rate=60.0,
            on_round=checkpointing_hook(store, kill_at_instant=2),
        )
        with pytest.raises(RunKilled):
            server.run(initial, arrivals=arrivals)
        ids = store.snapshot_ids()
        assert len(ids) == 2
        # Bit-rot the newest snapshot; recovery must use the older one.
        newest = tmp_path / f"snap-{ids[-1]:06d}.json"
        raw = newest.read_bytes()
        newest.write_bytes(raw[: len(raw) - 40])
        snapshot = store.latest(kind=RUN_SNAPSHOT_KIND)
        assert snapshot.snapshot_id == ids[0]
        assert str(newest) in store.corrupt_files

        witness = {"verified": False}
        server, initial, arrivals = build_server(
            arrival_rate=60.0, on_round=verification_hook(snapshot, witness)
        )
        restored = server.run(initial, arrivals=arrivals)
        assert witness["verified"]
        assert run_digests(restored) == base

    def test_verification_rejects_tampered_state(self, tmp_path):
        store = SnapshotStore(tmp_path)
        server, initial, arrivals = build_server(
            on_round=checkpointing_hook(store, kill_at_instant=1)
        )
        with pytest.raises(RunKilled):
            server.run(initial, arrivals=arrivals)
        snapshot = store.latest(kind=RUN_SNAPSHOT_KIND)
        state = dict(snapshot.state)
        state["server"] = dict(state["server"])
        state["server"]["now_ms"] = 123456.789
        tampered = Snapshot.build(RUN_SNAPSHOT_KIND, 99, state)
        server, initial, arrivals = build_server(
            on_round=verification_hook(tampered)
        )
        with pytest.raises(RecoveryError, match="diverging"):
            server.run(initial, arrivals=arrivals)

    def test_wrong_kind_rejected(self):
        snapshot = Snapshot.build("campaign-night", 0, {"instant": 0})
        with pytest.raises(ValueError, match="server-round"):
            verification_hook(snapshot)


class TestScenarioDrill:
    def test_fuzzed_scenarios_survive_the_drill(self, tmp_path):
        for i, seed in enumerate(derive_seeds(2026, 4)):
            outcome = crash_restore_check(
                generate_scenario(seed), store_dir=tmp_path / f"s{i}"
            )
            assert outcome.ok, (outcome.error, outcome.violations)
            assert outcome.identical

    def test_explicit_mid_run_kill_uses_a_snapshot(self, tmp_path):
        # Find a scenario with at least two scheduling instants so the
        # kill lands mid-run and a snapshot must be restored.
        for seed in derive_seeds(7, 40):
            scenario = generate_scenario(seed)
            result = execute_scenario(scenario)
            if len(result.rounds) >= 2:
                break
        else:
            pytest.skip("no multi-round scenario in the probe window")
        outcome = crash_restore_check(
            scenario, store_dir=tmp_path, kill_instant=1
        )
        assert outcome.ok
        assert outcome.killed
        assert outcome.snapshot_id is not None
        assert outcome.state_verified

    def test_campaign_digest_is_stable(self, tmp_path):
        first = run_crash_restore_campaign(
            5, seed=3, store_root=tmp_path / "a"
        )
        second = run_crash_restore_campaign(
            5, seed=3, store_root=tmp_path / "b"
        )
        assert first.ok and second.ok
        assert first.campaign_digest == second.campaign_digest
        assert first.kills == second.kills

    def test_drill_on_pod_pool_leaves_no_child(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CPUS", "2")
        pooled = []
        solve_pooled = ShardedScheduler._solve_pods_pooled

        def spy(self, *args, **kwargs):
            reports = solve_pooled(self, *args, **kwargs)
            pooled.append(reports is not None)
            return reports

        monkeypatch.setattr(ShardedScheduler, "_solve_pods_pooled", spy)
        report = run_crash_restore_campaign(
            2, seed=5, store_root=tmp_path, pods=2
        )
        assert report.ok
        assert pooled and all(pooled)  # kills landed on a real pod pool
        assert multiprocessing.active_children() == []


class TestLazyPackageSurface:
    def test_recovery_names_resolve_lazily(self):
        import repro.durability as durability

        assert durability.RUN_SNAPSHOT_KIND == RUN_SNAPSHOT_KIND
        assert durability.RunKilled is RunKilled
        with pytest.raises(AttributeError):
            durability.not_a_name  # noqa: B018

    def test_workloads_first_import_order_is_safe(self):
        # arrivals imports durability.snapshot; the package must not
        # eagerly pull in recovery (which imports back through the
        # fuzzer) or this order deadlocks in a circular import.
        import repro.workloads  # noqa: F401
        import repro.durability as durability

        assert durability.SnapshotStore is SnapshotStore

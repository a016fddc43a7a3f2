"""The pluggable scheduling-policy layer.

Three contracts matter:

* **Interface** — every registry policy satisfies the
  :class:`~repro.core.policies.SchedulingPolicy` protocol, produces
  schedules that pass :meth:`~repro.core.schedule.Schedule.validate`,
  and is deterministic (same instance in, byte-identical schedule out).
* **Default byte-identity** — ``SchedulerConfig().build()`` and the
  replication policy's base packing are byte-identical to a plain
  :class:`~repro.core.greedy.CwcScheduler`, so the pre-policy digests
  and the differential harness stay pinned.
* **One config** — :class:`~repro.core.policies.SchedulerConfig`
  rejects every invalid combination when it is constructed, round-trips
  through JSON, and builds schedulers byte-identical to the direct
  constructors.
* **Policy semantics** — replication directives are well-formed (whole
  jobs, never the primary's phone, budget respected), and the energy
  model's joules arithmetic is exact.
"""

import json
import random

import pytest

from repro.core.greedy import CwcScheduler
from repro.core.policies import (
    DEFAULT_POLICY,
    POLICY_NAMES,
    EnergyAwarePolicy,
    ReplicaDirective,
    ReplicationPolicy,
    SchedulerConfig,
    SchedulingPolicy,
    ShortestExpectedCompletionPolicy,
    assignment_energy_j,
    phone_cpu_draw_w,
    run_energy_joules,
)
from repro.core.policies.base import (
    check_fraction,
    sorted_jobs_by_cost,
    whole_assignments,
)
from repro.core.model import PhoneSpec
from repro.core.serialize import schedule_to_dict
from repro.core.sharding import ShardedScheduler
from repro.power.battery import HTC_G2, HTC_SENSATION

from ..conftest import make_instance
from .test_golden_schedule import paper_instance

SEEDS = (0, 3, 11, 42)


def build_policy(name):
    return SchedulerConfig(policy=name).build()


def fuzzed_instance(seed):
    rng = random.Random(seed)
    return make_instance(
        n_breakable=rng.randint(2, 8),
        n_atomic=rng.randint(1, 4),
        n_phones=rng.randint(2, 8),
        seed=seed,
    )


# ---------------------------------------------------------------------------
# registry and interface
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_default_policy_is_first(self):
        assert POLICY_NAMES[0] == DEFAULT_POLICY == "cwc-greedy"

    def test_default_returns_plain_cwc_scheduler(self):
        assert type(SchedulerConfig().build()) is CwcScheduler

    @pytest.mark.parametrize(
        ("name", "cls"),
        [
            ("replication", ReplicationPolicy),
            ("energy-aware", EnergyAwarePolicy),
            ("shortest-expected", ShortestExpectedCompletionPolicy),
        ],
    )
    def test_named_policies_construct(self, name, cls):
        assert type(build_policy(name)) is cls

    def test_unknown_name_rejected_with_known_list(self):
        with pytest.raises(ValueError, match="unknown scheduling policy"):
            SchedulerConfig(policy="round-robin")

    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_every_policy_satisfies_the_protocol(self, name):
        policy = build_policy(name)
        assert isinstance(policy, SchedulingPolicy)
        assert policy.name == name
        assert policy.last_replicas == ()

    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_search_kwargs_accepted_by_every_policy(self, name):
        # Fuzz and tournament scenarios draw kernel and warm start for
        # every policy; searchless ones must ignore the knobs, not crash.
        policy = SchedulerConfig(
            policy=name, kernel="python", warm_start=True
        ).build()
        instance = fuzzed_instance(1)
        policy.schedule(instance).validate(instance)

    def test_unknown_kwarg_still_rejected(self):
        with pytest.raises(TypeError):
            SchedulerConfig(policy="energy-aware", nonsense=3)


class TestPolicyValidity:
    @pytest.mark.parametrize("name", POLICY_NAMES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_schedules_validate(self, name, seed):
        instance = fuzzed_instance(seed)
        schedule = build_policy(name).schedule(instance)
        schedule.validate(instance)

    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_schedules_deterministic(self, name):
        instance = fuzzed_instance(7)
        first = build_policy(name).schedule(instance)
        second = build_policy(name).schedule(instance)
        assert schedule_to_dict(first) == schedule_to_dict(second)

    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_single_phone_fleet(self, name):
        instance = make_instance(
            n_phones=1, n_breakable=2, n_atomic=1, seed=2
        )
        policy = build_policy(name)
        policy.schedule(instance).validate(instance)
        # One phone leaves nowhere to replicate.
        assert policy.last_replicas == ()


class TestDefaultByteIdentity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_config_default_matches_plain_scheduler(self, seed):
        instance = fuzzed_instance(seed)
        via_registry = SchedulerConfig().build().schedule(instance)
        plain = CwcScheduler().schedule(instance)
        assert schedule_to_dict(via_registry) == schedule_to_dict(plain)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_replication_packing_matches_default(self, seed):
        instance = fuzzed_instance(seed)
        replicated = build_policy("replication").schedule(instance)
        plain = CwcScheduler().schedule(instance)
        assert schedule_to_dict(replicated) == schedule_to_dict(plain)


# ---------------------------------------------------------------------------
# the scheduler config
# ---------------------------------------------------------------------------

#: Every valid (policy, pods) pair with the direct constructor it must
#: match: non-default policies only run monolithically.
DIRECT = [
    ("cwc-greedy", None, CwcScheduler),
    ("replication", None, ReplicationPolicy),
    ("energy-aware", None, EnergyAwarePolicy),
    ("shortest-expected", None, ShortestExpectedCompletionPolicy),
    ("cwc-greedy", 1, lambda: ShardedScheduler(pods=1, pod_workers=1)),
    ("cwc-greedy", 2, lambda: ShardedScheduler(pods=2, pod_workers=1)),
]


class TestSchedulerConfig:
    def test_every_valid_pair_is_covered(self):
        covered = {(policy, pods) for policy, pods, _ in DIRECT}
        valid = {(name, None) for name in POLICY_NAMES} | {
            (DEFAULT_POLICY, pods) for pods in (1, 2)
        }
        assert covered == valid

    @pytest.mark.parametrize(("policy", "pods", "direct"), DIRECT)
    def test_build_matches_direct_constructor_on_golden_instance(
        self, policy, pods, direct
    ):
        instance = paper_instance()
        workers = {"pod_workers": 1} if pods is not None else {}
        built = SchedulerConfig(policy=policy, pods=pods, **workers).build()
        assert type(built) is type(direct())
        assert schedule_to_dict(built.schedule(instance)) == (
            schedule_to_dict(direct().schedule(instance))
        )

    @pytest.mark.parametrize(
        ("kwargs", "match"),
        [
            ({"policy": "round-robin"}, "unknown scheduling policy"),
            ({"kernel": "cuda"}, "unknown kernel"),
            ({"pods": 2, "pod_assign": "roulette"}, "unknown pod_assign"),
            ({"pods": 0}, "pods must be >= 1"),
            ({"pods": "many"}, "pods must be >= 1"),
            ({"pods": 2, "pod_workers": 0}, "pod_workers must be >= 1"),
            ({"pods": 2, "policy": "energy-aware"}, "'cwc-greedy'"),
            ({"pods": "auto", "policy": "replication"}, "'cwc-greedy'"),
            ({"pod_workers": 2}, "--pod-workers requires --pods"),
        ],
    )
    def test_invalid_combinations_rejected_at_construction(
        self, kwargs, match
    ):
        with pytest.raises(ValueError, match=match):
            SchedulerConfig(**kwargs)

    @pytest.mark.parametrize(
        "config",
        [
            SchedulerConfig(),
            SchedulerConfig(policy="replication", kernel="numpy"),
            SchedulerConfig(warm_start=True, pods="auto"),
            SchedulerConfig(pods=3, pod_assign="lp", pod_workers=2),
        ],
    )
    def test_dict_round_trip(self, config):
        data = json.loads(json.dumps(config.to_dict()))
        assert SchedulerConfig.from_dict(data) == config

    def test_from_dict_rejects_unknown_keys(self):
        data = {**SchedulerConfig().to_dict(), "rebalance_rounds": 2}
        with pytest.raises(ValueError, match="rebalance_rounds"):
            SchedulerConfig.from_dict(data)

    def test_from_dict_revalidates(self):
        with pytest.raises(ValueError, match="'cwc-greedy'"):
            SchedulerConfig.from_dict({"policy": "replication", "pods": 2})

    def test_config_is_frozen(self):
        with pytest.raises(AttributeError):
            SchedulerConfig().pods = 2

    def test_build_threads_unreliable_to_replication_only(self):
        built = SchedulerConfig(policy="replication").build(
            unreliable=("p0",)
        )
        assert built._unreliable == frozenset({"p0"})
        # Other schedulers ignore it.
        assert type(SchedulerConfig().build(unreliable=("p0",))) is (
            CwcScheduler
        )


# ---------------------------------------------------------------------------
# base helpers
# ---------------------------------------------------------------------------


class TestBaseHelpers:
    def test_replica_directive_validates(self):
        with pytest.raises(ValueError, match="phone_id"):
            ReplicaDirective(phone_id="", job_id="j")
        with pytest.raises(ValueError, match="job_id"):
            ReplicaDirective(phone_id="p", job_id="")

    def test_whole_assignments_skips_split_jobs(self):
        instance = fuzzed_instance(5)
        schedule = CwcScheduler().schedule(instance)
        pairs = whole_assignments(schedule)
        by_job = {}
        for phone_id in schedule.phone_ids:
            for assignment in schedule.for_phone(phone_id):
                by_job.setdefault(assignment.job_id, []).append(assignment)
        for phone_id, job_id in pairs:
            (assignment,) = by_job[job_id]
            assert assignment.whole

    def test_sorted_jobs_by_cost_is_lpt_with_stable_ties(self):
        instance = fuzzed_instance(5)
        ordered = sorted_jobs_by_cost(instance)
        assert {job.job_id for job in ordered} == {
            job.job_id for job in instance.jobs
        }

        def best(job):
            return min(
                instance.cost(p.phone_id, job.job_id)
                for p in instance.phones
            )

        costs = [best(job) for job in ordered]
        assert costs == sorted(costs, reverse=True)

    @pytest.mark.parametrize("bad", (0.0, -0.5, 1.5, float("nan")))
    def test_check_fraction_rejects(self, bad):
        with pytest.raises(ValueError, match="frac"):
            check_fraction("frac", bad)

    def test_check_fraction_passes_through(self):
        assert check_fraction("frac", 1) == 1.0


# ---------------------------------------------------------------------------
# replication planning
# ---------------------------------------------------------------------------


class TestReplicationPlanning:
    def test_ctor_validation(self):
        with pytest.raises(ValueError, match="replication_factor"):
            ReplicationPolicy(replication_factor=0)
        with pytest.raises(ValueError, match="max_replicas"):
            ReplicationPolicy(max_replicas=-1)

    def test_directives_are_whole_jobs_on_other_phones(self):
        instance = fuzzed_instance(3)
        policy = ReplicationPolicy()
        schedule = policy.schedule(instance)
        whole = dict(
            (job_id, phone_id)
            for phone_id, job_id in whole_assignments(schedule)
        )
        phone_ids = {p.phone_id for p in instance.phones}
        assert policy.last_replicas
        for directive in policy.last_replicas:
            assert directive.job_id in whole
            assert directive.phone_id in phone_ids
            # Never duplicate onto the phone already running the job.
            assert directive.phone_id != whole[directive.job_id]

    def test_budget_defaults_to_fleet_size(self):
        instance = fuzzed_instance(3)
        policy = ReplicationPolicy()
        policy.schedule(instance)
        assert len(policy.last_replicas) <= len(instance.phones)

    @pytest.mark.parametrize("cap", (0, 1, 2))
    def test_max_replicas_cap(self, cap):
        instance = fuzzed_instance(3)
        policy = ReplicationPolicy(max_replicas=cap)
        policy.schedule(instance)
        assert len(policy.last_replicas) <= cap

    def test_unreliable_filter_limits_candidates(self):
        instance = fuzzed_instance(3)
        baseline = ReplicationPolicy()
        schedule = baseline.schedule(instance)
        whole = whole_assignments(schedule)
        assert whole
        distrusted_phone = whole[0][0]
        policy = ReplicationPolicy(unreliable=(distrusted_phone,))
        policy.schedule(instance)
        allowed = {
            job_id
            for phone_id, job_id in whole
            if phone_id == distrusted_phone
        }
        assert {d.job_id for d in policy.last_replicas} <= allowed
        # Replicas land on phones the policy still trusts first.
        for directive in policy.last_replicas:
            assert directive.phone_id != distrusted_phone

    def test_unreliable_phones_absent_from_instance_yield_nothing(self):
        instance = fuzzed_instance(3)
        policy = ReplicationPolicy(unreliable=("no-such-phone",))
        policy.schedule(instance)
        assert policy.last_replicas == ()

    def test_replication_factor_requests_extra_copies(self):
        instance = make_instance(
            n_breakable=1, n_atomic=2, n_phones=6, seed=9
        )
        single = ReplicationPolicy(replication_factor=1)
        single.schedule(instance)
        double = ReplicationPolicy(replication_factor=2, max_replicas=100)
        double.schedule(instance)
        assert len(double.last_replicas) >= len(single.last_replicas)
        # The same job may appear twice, but never twice on one phone.
        seen = set()
        for directive in double.last_replicas:
            key = (directive.phone_id, directive.job_id)
            assert key not in seen
            seen.add(key)

    def test_warm_state_delegates_to_inner_scheduler(self):
        policy = ReplicationPolicy(warm_start=True)
        instance = fuzzed_instance(4)
        policy.schedule(instance)
        state = policy.warm_state()
        assert state["warm_start"] is True
        assert state["last_capacity_ms"] is not None
        policy.reset_warm_state()
        assert policy.warm_state()["last_capacity_ms"] is None
        policy.restore_warm_state(state)
        assert policy.warm_state() == state
        assert policy.stats.rounds == 1
        assert policy.last_result is not None


# ---------------------------------------------------------------------------
# energy model
# ---------------------------------------------------------------------------


class TestEnergyModel:
    def test_paper_handsets_map_to_measured_profiles(self):
        sensation = PhoneSpec(
            phone_id="s", cpu_mhz=1200.0, model_name="HTC Sensation"
        )
        g2 = PhoneSpec(phone_id="g", cpu_mhz=800.0, model_name="HTC G2")
        assert phone_cpu_draw_w(sensation) == HTC_SENSATION.cpu_draw_w
        assert phone_cpu_draw_w(g2) == HTC_G2.cpu_draw_w

    def test_synthetic_phones_interpolate_and_clamp(self):
        slow = PhoneSpec(phone_id="a", cpu_mhz=100.0, model_name="fuzz")
        fast = PhoneSpec(phone_id="b", cpu_mhz=9000.0, model_name="fuzz")
        mid = PhoneSpec(phone_id="c", cpu_mhz=1250.0, model_name="fuzz")
        assert phone_cpu_draw_w(slow) == HTC_G2.cpu_draw_w
        assert phone_cpu_draw_w(fast) == HTC_SENSATION.cpu_draw_w
        assert (
            HTC_G2.cpu_draw_w
            < phone_cpu_draw_w(mid)
            < HTC_SENSATION.cpu_draw_w
        )

    def test_assignment_energy_is_draw_times_seconds(self):
        instance = fuzzed_instance(6)
        phone = instance.phones[0]
        job = instance.jobs[0]
        expected = (
            phone_cpu_draw_w(phone)
            * instance.cost(phone.phone_id, job.job_id)
            / 1000.0
        )
        assert assignment_energy_j(
            instance, phone.phone_id, job.job_id
        ) == pytest.approx(expected)

    def test_run_energy_sums_busy_time(self):
        class FakeTrace:
            def busy_ms(self, phone_id):
                return 2_000.0

        phones = (
            PhoneSpec(phone_id="a", cpu_mhz=800.0, model_name="g2"),
            PhoneSpec(phone_id="b", cpu_mhz=1200.0, model_name="sensation"),
        )
        expected = 2.0 * (HTC_G2.cpu_draw_w + HTC_SENSATION.cpu_draw_w)
        assert run_energy_joules(FakeTrace(), phones) == pytest.approx(
            expected
        )

    def test_ctor_validation(self):
        with pytest.raises(ValueError, match="efficient_fraction"):
            EnergyAwarePolicy(efficient_fraction=0.0)
        with pytest.raises(ValueError, match="balance"):
            EnergyAwarePolicy(balance=-1.0)

    def test_tiny_fraction_concentrates_work(self):
        instance = fuzzed_instance(6)
        policy = EnergyAwarePolicy(efficient_fraction=1e-9)
        schedule = policy.schedule(instance)
        schedule.validate(instance)
        assert len(schedule.phone_ids) == 1

    def test_energy_greedy_never_spends_more_joules_than_makespan_greedy(
        self,
    ):
        instance = fuzzed_instance(6)

        def predicted_energy(schedule):
            total = 0.0
            for phone_id in schedule.phone_ids:
                for assignment in schedule.for_phone(phone_id):
                    total += assignment_energy_j(
                        instance,
                        phone_id,
                        assignment.job_id,
                        assignment.input_kb,
                    )
            return total

        energy_schedule = EnergyAwarePolicy(balance=0.0).schedule(instance)
        greedy_schedule = CwcScheduler().schedule(instance)
        assert predicted_energy(energy_schedule) <= predicted_energy(
            greedy_schedule
        ) * (1.0 + 1e-9)


class TestShortestExpected:
    def test_places_every_job_whole(self):
        instance = fuzzed_instance(8)
        schedule = ShortestExpectedCompletionPolicy().schedule(instance)
        schedule.validate(instance)
        placements = [
            assignment
            for phone_id in schedule.phone_ids
            for assignment in schedule.for_phone(phone_id)
        ]
        assert len(placements) == len(instance.jobs)
        assert all(assignment.whole for assignment in placements)

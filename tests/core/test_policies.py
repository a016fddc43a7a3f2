"""The pluggable scheduling-policy layer.

Three contracts matter:

* **Interface** — every registry policy satisfies the
  :class:`~repro.core.greedy.Scheduler` protocol, produces
  schedules that pass :meth:`~repro.core.schedule.Schedule.validate`,
  and is deterministic (same instance in, byte-identical schedule out).
* **Default byte-identity** — ``SchedulerConfig().build()`` is
  byte-identical to a plain :class:`~repro.core.greedy.CwcScheduler`,
  so the pre-policy digests and the differential harness stay pinned.
* **One config** — :class:`~repro.core.policies.SchedulerConfig`
  rejects every invalid combination when it is constructed, round-trips
  through JSON, and builds schedulers byte-identical to the direct
  constructors.
* **Policy semantics** — the energy model's joules arithmetic is
  exact, and the searchless policies place whole jobs.
"""

import json
import random

import pytest

from repro.core.greedy import CwcScheduler, Scheduler
from repro.core.policies import (
    DEFAULT_POLICY,
    POLICY_NAMES,
    EnergyAwarePolicy,
    SchedulerConfig,
    ShortestExpectedCompletionPolicy,
    assignment_energy_j,
    phone_cpu_draw_w,
    run_energy_joules,
)
from repro.core.policies.base import check_fraction, sorted_jobs_by_cost
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
        assert isinstance(policy, Scheduler)
        assert policy.name == name

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
        build_policy(name).schedule(instance).validate(instance)


class TestDefaultByteIdentity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_config_default_matches_plain_scheduler(self, seed):
        instance = fuzzed_instance(seed)
        via_registry = SchedulerConfig().build().schedule(instance)
        plain = CwcScheduler().schedule(instance)
        assert schedule_to_dict(via_registry) == schedule_to_dict(plain)


# ---------------------------------------------------------------------------
# the scheduler config
# ---------------------------------------------------------------------------

#: Every valid (policy, pods) pair with the direct constructor it must
#: match: non-default policies only run monolithically.
DIRECT = [
    ("cwc-greedy", None, CwcScheduler),
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
            ({"pods": 0}, "pods must be >= 1"),
            ({"pods": "many"}, "pods must be >= 1"),
            ({"pods": 2, "pod_workers": 0}, "pod_workers must be >= 1"),
            ({"pods": 2, "policy": "energy-aware"}, "'cwc-greedy'"),
            ({"pods": "auto", "policy": "shortest-expected"}, "'cwc-greedy'"),
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
            SchedulerConfig(policy="shortest-expected", kernel="numpy"),
            SchedulerConfig(warm_start=True, pods="auto"),
            SchedulerConfig(pods=3, pod_workers=2),
        ],
    )
    def test_dict_round_trip(self, config):
        data = json.loads(json.dumps(config.to_dict()))
        assert SchedulerConfig.from_dict(data) == config

    def test_from_dict_rejects_unknown_keys(self):
        data = {**SchedulerConfig().to_dict(), "rebalance_rounds": 2}
        with pytest.raises(ValueError, match="rebalance_rounds"):
            SchedulerConfig.from_dict(data)

    def test_five_fields(self):
        assert list(SchedulerConfig().to_dict()) == [
            "policy", "kernel", "warm_start", "pods", "pod_workers"
        ]

    def test_from_dict_drops_retired_greedy_splitter(self):
        config = SchedulerConfig(pods=2, pod_workers=1)
        data = {**config.to_dict(), "pod_assign": "greedy"}
        assert SchedulerConfig.from_dict(data) == config

    @pytest.mark.parametrize("pod_assign", ["lp", "hash"])
    def test_from_dict_rejects_retired_splitters(self, pod_assign):
        data = {**SchedulerConfig(pods=2).to_dict(), "pod_assign": pod_assign}
        with pytest.raises(
            ValueError, match=f"cannot resume: .*pod_assign='{pod_assign}'"
        ):
            SchedulerConfig.from_dict(data)

    def test_from_dict_revalidates(self):
        with pytest.raises(ValueError, match="'cwc-greedy'"):
            SchedulerConfig.from_dict({"policy": "energy-aware", "pods": 2})

    def test_config_is_frozen(self):
        with pytest.raises(AttributeError):
            SchedulerConfig().pods = 2


# ---------------------------------------------------------------------------
# base helpers
# ---------------------------------------------------------------------------


class TestBaseHelpers:
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

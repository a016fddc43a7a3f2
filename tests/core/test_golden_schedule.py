"""Golden-schedule equivalence: optimised hot path vs frozen reference.

The PR-2 scheduler overhaul (dense cost arrays, incremental packing,
certificates, warm starts) and the PR-3 dual-kernel search (vectorized
:class:`~repro.core.packing_vec.VectorGreedyPacker`, feasibility
certificates, verdict-only probes) are required to be pure performance
changes: on any instance, and under *both* packing kernels, the
optimised :class:`~repro.core.capacity.CapacitySearch` must produce
schedules *byte-identical* to the pre-optimisation implementation,
which is preserved verbatim in :mod:`repro.core._reference`.  Schedules
are compared through :func:`repro.core.serialize.schedule_to_dict`,
i.e. every assignment's phone, job, task, partition size, and
wholeness.
"""

import random

import pytest

from repro.core._reference import (
    ReferenceCapacitySearch,
    ReferenceGreedyPacker,
    reference_capacity_bounds,
)
from repro.core.capacity import CapacitySearch, capacity_bounds
from repro.core.constraints import RamConstraint
from repro.core.instance import SchedulingInstance
from repro.core.packing import GreedyPacker
from repro.core.prediction import RuntimePredictor
from repro.core.serialize import schedule_to_dict
from repro.netmodel.measurement import measure_fleet
from repro.workloads.mixes import (
    evaluation_workload,
    paper_task_profiles,
    paper_testbed,
)

from ..conftest import make_instance


def paper_instance():
    testbed = paper_testbed()
    predictor = RuntimePredictor(paper_task_profiles())
    b = measure_fleet(testbed.links)
    return SchedulingInstance.build(
        evaluation_workload(), testbed.phones, b, predictor
    )


def random_fleet_instance(n_phones=200, n_jobs=80, seed=424):
    return make_instance(
        n_breakable=n_jobs * 2 // 3,
        n_atomic=n_jobs - n_jobs * 2 // 3,
        n_phones=n_phones,
        seed=seed,
    )


def assert_search_equivalent(instance, *, kernel="auto", **search_kwargs):
    optimised = CapacitySearch(kernel=kernel, **search_kwargs).run(instance)
    reference = ReferenceCapacitySearch(**search_kwargs).run(instance)
    assert schedule_to_dict(optimised.schedule) == schedule_to_dict(
        reference.schedule
    )
    assert optimised.capacity_ms == reference.capacity_ms
    assert optimised.max_height_ms == reference.max_height_ms
    assert optimised.lower_bound_ms == reference.lower_bound_ms
    assert optimised.upper_bound_ms == reference.upper_bound_ms


KERNELS = ("python", "numpy")


def test_bounds_identical_on_paper_testbed():
    instance = paper_instance()
    assert capacity_bounds(instance) == reference_capacity_bounds(instance)


def test_bounds_identical_on_random_fleet():
    instance = random_fleet_instance()
    assert capacity_bounds(instance) == reference_capacity_bounds(instance)


@pytest.mark.parametrize("kernel", KERNELS)
def test_search_identical_on_paper_testbed(kernel):
    assert_search_equivalent(paper_instance(), kernel=kernel)


@pytest.mark.parametrize("kernel", KERNELS)
def test_search_identical_on_200_phone_fleet(kernel):
    assert_search_equivalent(random_fleet_instance(), kernel=kernel)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("seed", range(25))
def test_search_identical_on_random_instances(seed, kernel):
    rng = random.Random(seed)
    instance = make_instance(
        n_breakable=rng.randint(2, 14),
        n_atomic=rng.randint(0, 6),
        n_phones=rng.randint(2, 16),
        seed=seed,
    )
    assert_search_equivalent(instance, kernel=kernel)


@pytest.mark.parametrize("kernel", KERNELS)
def test_search_identical_with_custom_partition_and_ram(kernel):
    instance = random_fleet_instance(n_phones=24, n_jobs=30, seed=77)
    # Large enough that every atomic job still fits somewhere, small
    # enough that breakable partitions actually get clamped.
    ram = RamConstraint(
        {phone.phone_id: 2_200.0 for phone in instance.phones}
    )
    assert_search_equivalent(
        instance, kernel=kernel, min_partition_kb=25.0, ram=ram
    )


@pytest.mark.parametrize("seed", range(8))
def test_single_packs_identical_across_capacities(seed):
    """The packers agree pack-by-pack, not just end-to-end."""
    instance = make_instance(
        n_breakable=6, n_atomic=3, n_phones=5, seed=seed
    )
    lower, upper = capacity_bounds(instance)
    optimised = GreedyPacker(instance)
    reference = ReferenceGreedyPacker(instance)
    for k in range(12):
        capacity = lower + (upper * 1.1 - lower) * k / 11.0
        a = optimised.pack(capacity)
        b = reference.pack(capacity)
        assert a.feasible == b.feasible, capacity
        assert a.max_height_ms == b.max_height_ms
        assert a.opened_bins == b.opened_bins
        if a.feasible:
            assert schedule_to_dict(a.schedule) == schedule_to_dict(
                b.schedule
            )


def test_warm_start_matches_cold_schedule():
    """Warm-started searches return the cold search's exact schedule."""
    instance = random_fleet_instance(n_phones=40, n_jobs=36, seed=5)
    tail_jobs = instance.jobs[:9]
    tail = SchedulingInstance(
        jobs=tail_jobs,
        phones=instance.phones,
        b_ms_per_kb=instance.b_ms_per_kb,
        c_ms_per_kb={
            (phone.phone_id, job.job_id): instance.c(
                phone.phone_id, job.job_id
            )
            for phone in instance.phones
            for job in tail_jobs
        },
    )
    search = CapacitySearch()
    first = search.run(instance)
    cold = search.run(tail)
    warm = search.run(tail, warm_hint_ms=first.capacity_ms)
    assert warm.warm_start_used
    assert schedule_to_dict(warm.schedule) == schedule_to_dict(cold.schedule)
    assert warm.capacity_ms == cold.capacity_ms
    assert warm.bisection_steps == cold.bisection_steps
    assert warm.packer_passes < cold.packer_passes


# ---------------------------------------------------------------------------
# pluggable policies on the golden instances
# ---------------------------------------------------------------------------


POLICY_NAMES = (
    "cwc-greedy",
    "replication",
    "energy-aware",
    "shortest-expected",
)


@pytest.mark.parametrize("policy_name", POLICY_NAMES)
def test_every_policy_valid_on_paper_testbed(policy_name):
    """Each pluggable policy schedules the golden paper instance.

    The schedules must validate and be run-to-run deterministic; the
    default policy must additionally stay byte-identical to the frozen
    reference search — policies are competitors, but ``cwc-greedy``
    remains the paper's scheduler, bit for bit.
    """
    from repro.core.policies import SchedulerConfig

    config = SchedulerConfig(policy=policy_name)
    instance = paper_instance()
    policy = config.build()
    schedule = policy.schedule(instance)
    schedule.validate(instance)
    rerun = config.build().schedule(instance)
    assert schedule_to_dict(schedule) == schedule_to_dict(rerun)
    if policy_name == "cwc-greedy":
        reference = ReferenceCapacitySearch().run(instance)
        assert schedule_to_dict(schedule) == schedule_to_dict(
            reference.schedule
        )


@pytest.mark.parametrize("kernel", KERNELS)
def test_default_policy_search_kwargs_stay_golden(kernel):
    """SchedulerConfig forwards search knobs without perturbing output."""
    from repro.core.policies import SchedulerConfig

    instance = random_fleet_instance(n_phones=30, n_jobs=24, seed=9)
    via_policy = SchedulerConfig(kernel=kernel).build().schedule(instance)
    reference = ReferenceCapacitySearch().run(instance)
    assert schedule_to_dict(via_policy) == schedule_to_dict(
        reference.schedule
    )

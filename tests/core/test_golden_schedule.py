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

from repro.core import packing
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

from ..conftest import campaign_shaped_instance, make_instance


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


# ---------------------------------------------------------------------------
# campaign-shaped bin openings, pack by pack
# ---------------------------------------------------------------------------


def cheapest_phones_ram(instance):
    """RAM caps that make every lowest-rate phone reject any partition.

    The cheapest phones for each job then refuse the bin Algorithm 1
    would open first (the cap sits under the minimum partition), which
    forces the opening's walk in (cost, phone_id) order.
    """
    per_kb = instance.per_kb_matrix()
    capped = {
        instance.phones[pos].phone_id
        for job_pos in range(len(instance.jobs))
        for pos in (per_kb[:, job_pos] == per_kb[:, job_pos].min()).nonzero()[0]
    }
    return RamConstraint({phone_id: 0.5 for phone_id in capped})


def assert_packs_match_reference_at_every_midpoint(instance, **packer_kwargs):
    """Walk the search's midpoint grid; compare every pack with the reference.

    The bracket follows the reference's own verdicts, so each midpoint
    is one the capacity search would probe (certificates aside).
    """
    lower, upper = capacity_bounds(instance)
    optimised = GreedyPacker(instance, **packer_kwargs)
    reference = ReferenceGreedyPacker(instance, **packer_kwargs)
    capacities = [upper * (1.0 + 1e-9) + 1e-9]
    while upper - lower > 1.0 and len(capacities) < 60:
        capacities.append((lower + upper) / 2.0)
        if reference.pack(capacities[-1]).feasible:
            upper = capacities[-1]
        else:
            lower = capacities[-1]
    for capacity in capacities:
        a = optimised.pack(capacity)
        b = reference.pack(capacity)
        assert a.feasible == b.feasible, capacity
        assert a.max_height_ms == b.max_height_ms, capacity
        assert a.opened_bins == b.opened_bins, capacity
        if a.feasible:
            assert schedule_to_dict(a.schedule) == schedule_to_dict(
                b.schedule
            ), capacity
    return capacities


@pytest.mark.parametrize("seed", range(24))
def test_campaign_shaped_packs_match_reference(seed):
    """Duplicated phone types: equal opening costs, phone_id tie-break."""
    instance = campaign_shaped_instance(seed)
    phone_types = {
        (instance.b(p.phone_id),) + tuple(instance.c_row(pos))
        for pos, p in enumerate(instance.phones)
    }
    assert len(phone_types) < len(instance.phones)
    assert len(assert_packs_match_reference_at_every_midpoint(instance)) > 5


@pytest.mark.parametrize("seed", range(12))
def test_campaign_shaped_free_phone_matches_reference(seed):
    """A per-KB rate of 0: the free-transfer fit branch at opening."""
    instance = campaign_shaped_instance(seed, free_phone=True)
    assert (instance.per_kb_matrix() == 0.0).any()
    assert_packs_match_reference_at_every_midpoint(instance)
    ram = RamConstraint({p.phone_id: 300.0 for p in instance.phones})
    assert_packs_match_reference_at_every_midpoint(instance, ram=ram)


class BranchSpy:
    """Counts the scalar kernel's rare branches while packs run.

    * ``slivers`` — placements cut by the sliver rule (``remaining -
      max_kb < min_partition``), which places ``remaining -
      min_partition``;
    * ``rejected_openings`` — fits rejected inside a bin opening, i.e.
      the cheapest phone refused and the opening walked on (the rare
      path);
    * ``opened_bin_placements`` — placements on a one-job instance into
      a bin opened earlier in the same pack (a phone listed twice).
    """

    def __init__(self, monkeypatch):
        self.slivers = 0
        self.rejected_openings = 0
        self.opened_bin_placements = 0
        self._opening = False
        fit = packing.fit_kb
        open_bin = GreedyPacker._open_bin
        pack = GreedyPacker.pack

        def counting_fit(headroom, per_kb, remaining, atomic, min_kb, cap):
            size_kb = fit(headroom, per_kb, remaining, atomic, min_kb, cap)
            if 0 < size_kb < remaining and size_kb == remaining - min_kb:
                self.slivers += 1
            if self._opening and size_kb <= 0:
                self.rejected_openings += 1
            return size_kb

        def counting_open(packer, *args):
            self._opening = True
            try:
                return open_bin(packer, *args)
            finally:
                self._opening = False

        def counting_pack(packer, capacity_ms):
            result = pack(packer, capacity_ms)
            if result.feasible and len({row[1] for row in result.rows}) == 1:
                phones = [row[0] for row in result.rows]
                self.opened_bin_placements += len(phones) - len(set(phones))
            return result

        monkeypatch.setattr(packing, "fit_kb", counting_fit)
        monkeypatch.setattr(GreedyPacker, "_open_bin", counting_open)
        monkeypatch.setattr(GreedyPacker, "pack", counting_pack)


@pytest.mark.parametrize("seed", range(12))
def test_campaign_shaped_ram_rejection_matches_reference(seed, monkeypatch):
    """The cheapest phone rejects: the opening walks the costlier ones."""
    instance = campaign_shaped_instance(seed, free_phone=seed % 2 == 1)
    spy = BranchSpy(monkeypatch)
    assert_packs_match_reference_at_every_midpoint(
        instance, ram=cheapest_phones_ram(instance)
    )
    assert spy.rejected_openings > 0


def test_campaign_shaped_grid_reaches_rare_branches(monkeypatch):
    """The golden grid drives every rare branch of the flat kernel.

    Each pack of the campaign-shaped grid (plain, free-phone with a RAM
    cap, cheapest-phone RAM rejection) is compared with the reference
    by ``assert_packs_match_reference_at_every_midpoint``; the spies
    prove the sliver rule, a placement into an already-opened bin on a
    one-job instance and the rare opening path all ran among them.
    """
    spy = BranchSpy(monkeypatch)
    for seed in range(12):
        instance = campaign_shaped_instance(seed)
        assert_packs_match_reference_at_every_midpoint(instance)
        free = campaign_shaped_instance(seed, free_phone=True)
        ram = RamConstraint({p.phone_id: 300.0 for p in free.phones})
        assert_packs_match_reference_at_every_midpoint(free, ram=ram)
        assert_packs_match_reference_at_every_midpoint(
            instance, ram=cheapest_phones_ram(instance)
        )
    assert spy.slivers > 0
    assert spy.opened_bin_placements > 0
    assert spy.rejected_openings > 0

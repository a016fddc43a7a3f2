"""Property tests for the optimised packer.

Two properties underpin the hot-path overhaul:

* **monotonicity** — if Algorithm 1 packs at capacity ``C`` it packs at
  every ``C' > C``.  The warm-start oracle in
  :mod:`repro.core.capacity` assumes exactly this, so it is pinned
  here across random instances including atomic jobs, jobs at the
  ``MIN_PARTITION_KB`` granularity, and RAM-clamped fleets;
* **reference equivalence** — the optimised packer takes every decision
  the frozen pre-optimisation packer takes, on arbitrary generated
  instances and capacities (the golden tests cover curated ones).

Both properties are pinned for *each* packing kernel — the exact
scalar :class:`~repro.core.packing.GreedyPacker` and the vectorized
:class:`~repro.core.packing_vec.VectorGreedyPacker` — since the
capacity search may run either.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core._reference import ReferenceGreedyPacker
from repro.core.capacity import capacity_bounds
from repro.core.constraints import RamConstraint
from repro.core.instance import SchedulingInstance
from repro.core.model import MIN_PARTITION_KB, Job, JobKind, PhoneSpec
from repro.core.packing import GreedyPacker
from repro.core.packing_vec import VectorGreedyPacker
from repro.core.serialize import schedule_to_dict

KERNELS = pytest.mark.parametrize(
    "packer_cls", [GreedyPacker, VectorGreedyPacker]
)


@st.composite
def instances(draw):
    n_phones = draw(st.integers(min_value=1, max_value=6))
    n_jobs = draw(st.integers(min_value=1, max_value=8))
    phones = tuple(
        PhoneSpec(
            phone_id=f"p{i}",
            cpu_mhz=draw(
                st.floats(min_value=200.0, max_value=2000.0)
            ),
        )
        for i in range(n_phones)
    )
    jobs = []
    for j in range(n_jobs):
        atomic = draw(st.booleans())
        # Inputs deliberately straddle MIN_PARTITION_KB: sub-granularity
        # jobs, exactly-granular jobs, and ordinary ones.
        input_kb = draw(
            st.one_of(
                st.floats(min_value=0.1, max_value=MIN_PARTITION_KB),
                st.just(MIN_PARTITION_KB),
                st.just(2.0 * MIN_PARTITION_KB),
                st.floats(min_value=1.0, max_value=500.0),
            )
        )
        jobs.append(
            Job(
                job_id=f"j{j}",
                task="t",
                kind=JobKind.ATOMIC if atomic else JobKind.BREAKABLE,
                executable_kb=draw(st.floats(min_value=0.0, max_value=60.0)),
                input_kb=input_kb,
            )
        )
    b = {
        p.phone_id: draw(st.floats(min_value=0.0, max_value=50.0))
        for p in phones
    }
    c = {
        (p.phone_id, job.job_id): draw(
            st.floats(min_value=0.0, max_value=80.0)
        )
        for p in phones
        for job in jobs
    }
    return SchedulingInstance(
        jobs=tuple(jobs), phones=phones, b_ms_per_kb=b, c_ms_per_kb=c
    )


@st.composite
def instance_and_capacities(draw):
    instance = draw(instances())
    lower, upper = capacity_bounds(instance)
    span = max(upper, 1.0)
    fractions = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.3),
            min_size=2,
            max_size=6,
            unique=True,
        )
    )
    return instance, sorted(f * span for f in fractions)


@KERNELS
@settings(max_examples=150, deadline=None)
@given(case=instance_and_capacities())
def test_feasibility_monotone_in_capacity(packer_cls, case):
    """pack(C) feasible implies pack(C') feasible for all C' > C."""
    instance, capacities = case
    packer = packer_cls(instance)
    feasibility = [packer.pack(c).feasible for c in capacities]
    # Once True, never False again at a higher capacity.
    assert feasibility == sorted(feasibility), (
        f"feasibility not monotone: {list(zip(capacities, feasibility))}"
    )


@KERNELS
@settings(max_examples=120, deadline=None)
@given(case=instance_and_capacities())
def test_packer_matches_reference_everywhere(packer_cls, case):
    instance, capacities = case
    optimised = packer_cls(instance)
    reference = ReferenceGreedyPacker(instance)
    for capacity in capacities:
        a = optimised.pack(capacity)
        b = reference.pack(capacity)
        assert a.feasible == b.feasible
        assert a.max_height_ms == b.max_height_ms
        assert a.opened_bins == b.opened_bins
        if a.feasible:
            assert schedule_to_dict(a.schedule) == schedule_to_dict(
                b.schedule
            )


@KERNELS
@settings(max_examples=60, deadline=None)
@given(
    case=instance_and_capacities(),
    cap_scale=st.floats(min_value=0.5, max_value=3.0),
)
def test_feasibility_monotone_under_ram_clamp(packer_cls, case, cap_scale):
    """Monotonicity survives the RAM constraint (footnote 4)."""
    instance, capacities = case
    biggest = max(job.input_kb for job in instance.jobs)
    ram = RamConstraint(
        {
            phone.phone_id: max(biggest * cap_scale, MIN_PARTITION_KB)
            for phone in instance.phones
        }
    )
    packer = packer_cls(instance, ram=ram)
    feasibility = [packer.pack(c).feasible for c in capacities]
    assert feasibility == sorted(feasibility)


@KERNELS
def test_atomic_all_or_nothing_at_tight_capacity(packer_cls):
    """An atomic job never appears split, feasible or not."""
    phones = (PhoneSpec(phone_id="p0", cpu_mhz=500.0),)
    job = Job("a0", "t", JobKind.ATOMIC, 10.0, 100.0)
    instance = SchedulingInstance(
        jobs=(job,),
        phones=phones,
        b_ms_per_kb={"p0": 1.0},
        c_ms_per_kb={("p0", "a0"): 2.0},
    )
    packer = packer_cls(instance)
    full_cost = 10.0 * 1.0 + 100.0 * 3.0
    assert not packer.pack(full_cost * 0.999).feasible
    result = packer.pack(full_cost * 1.001)
    assert result.feasible
    (assignment,) = result.schedule.assignments
    assert assignment.input_kb == 100.0


@KERNELS
def test_min_partition_floor_respected(packer_cls):
    """No breakable partition below the packer's granularity."""
    phones = tuple(
        PhoneSpec(phone_id=f"p{i}", cpu_mhz=500.0) for i in range(3)
    )
    job = Job("b0", "t", JobKind.BREAKABLE, 5.0, 90.0)
    instance = SchedulingInstance(
        jobs=(job,),
        phones=phones,
        b_ms_per_kb={p.phone_id: 1.0 for p in phones},
        c_ms_per_kb={(p.phone_id, "b0"): 2.0 for p in phones},
    )
    packer = packer_cls(instance, min_partition_kb=30.0)
    lower, upper = capacity_bounds(instance)
    for k in range(10):
        capacity = lower + (upper * 1.1 - lower) * k / 9.0
        result = packer.pack(capacity)
        if result.feasible:
            for assignment in result.schedule.assignments:
                assert assignment.input_kb >= 30.0 - 1e-9


# ---------------------------------------------------------------------------
# pluggable policies
# ---------------------------------------------------------------------------


POLICIES = pytest.mark.parametrize(
    "policy_name",
    ["cwc-greedy", "energy-aware", "shortest-expected"],
)


@POLICIES
@settings(max_examples=60, deadline=None)
@given(case=instances())
def test_every_policy_yields_valid_deterministic_schedules(
    policy_name, case
):
    """All pluggable policies uphold the packer's core contract.

    On arbitrary generated instances every policy must (a) produce a
    schedule that passes full validation — every byte covered exactly
    once, atomic jobs whole — and (b) be deterministic.
    """
    from repro.core.policies import SchedulerConfig

    config = SchedulerConfig(policy=policy_name)
    schedule = config.build().schedule(case)
    schedule.validate(case)
    again = config.build().schedule(case)
    assert schedule_to_dict(schedule) == schedule_to_dict(again)

"""Tests for RAM constraints (footnote 4: l_ij <= r_i)."""

import pytest

from repro.core.constraints import RamConstraint, validate_ram
from repro.core.greedy import CwcScheduler
from repro.core.instance import SchedulingInstance
from repro.core.model import Job, JobKind, PhoneSpec
from repro.core.prediction import RuntimePredictor
from repro.core.schedule import InfeasibleScheduleError, ScheduleBuilder


def make_instance(ram_mb=(64.0, 64.0), input_kb=100_000.0, atomic=False):
    phones = tuple(
        PhoneSpec(phone_id=f"p{i}", cpu_mhz=1000.0, ram_mb=ram)
        for i, ram in enumerate(ram_mb)
    )
    predictor = RuntimePredictor.from_reference_phone(phones[0], {"t": 1.0})
    kind = JobKind.ATOMIC if atomic else JobKind.BREAKABLE
    jobs = [Job("big", "t", kind, 10.0, input_kb)]
    b = {p.phone_id: 1.0 for p in phones}
    return SchedulingInstance.build(jobs, phones, b, predictor)


class TestRamConstraint:
    def test_unknown_phone_unconstrained(self):
        constraint = RamConstraint(caps_kb={"p": 100.0})
        assert constraint.cap_kb("other") == float("inf")

    def test_clamp(self):
        constraint = RamConstraint(caps_kb={"p": 100.0})
        assert constraint.clamp_fit("p", 250.0) == 100.0
        assert constraint.clamp_fit("p", 50.0) == 50.0

    def test_admits(self):
        constraint = RamConstraint(caps_kb={"p": 100.0})
        assert constraint.admits("p", 100.0)
        assert not constraint.admits("p", 101.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            RamConstraint(caps_kb={"p": 0.0})


class TestSchedulerWithRam:
    def test_large_breakable_job_split_by_ram(self):
        """A 100 MB input on 64 MB-cap phones must be partitioned."""
        instance = make_instance()
        ram = RamConstraint(
            caps_kb={p.phone_id: 40_000.0 for p in instance.phones}
        )
        schedule = CwcScheduler(ram=ram).schedule(instance)
        schedule.validate(instance)
        validate_ram(schedule, ram)
        assert schedule.partition_counts()["big"] >= 3  # 100 MB / 40 MB

    def test_without_ram_same_job_may_stay_whole(self):
        instance = make_instance(ram_mb=(64.0,))
        schedule = CwcScheduler().schedule(instance)
        assert schedule.partition_counts()["big"] == 0

    def test_atomic_job_exceeding_all_ram_is_infeasible(self):
        instance = make_instance(atomic=True)
        ram = RamConstraint(
            caps_kb={p.phone_id: 40_000.0 for p in instance.phones}
        )
        with pytest.raises(InfeasibleScheduleError):
            CwcScheduler(ram=ram).schedule(instance)

    def test_atomic_job_fitting_one_phone_is_placed_there(self):
        instance = make_instance(atomic=True, input_kb=30_000.0)
        ram = RamConstraint(caps_kb={"p0": 10_000.0, "p1": 50_000.0})
        schedule = CwcScheduler(ram=ram).schedule(instance)
        (assignment,) = tuple(schedule)
        assert assignment.phone_id == "p1"


class TestValidateRam:
    def test_passes_within_caps(self):
        builder = ScheduleBuilder()
        builder.place("p", "j", "t", 50.0, whole=True)
        validate_ram(builder.build(), RamConstraint(caps_kb={"p": 100.0}))

    def test_fails_beyond_cap(self):
        builder = ScheduleBuilder()
        builder.place("p", "j", "t", 150.0, whole=True)
        with pytest.raises(InfeasibleScheduleError, match="RAM cap"):
            validate_ram(builder.build(), RamConstraint(caps_kb={"p": 100.0}))

"""Focused error-path and boundary tests across modules.

Collected here rather than scattered: each of these is a small contract
(raise early, raise clearly) that protects downstream code from silent
misuse.
"""

import pytest

from repro.core import capacity
from repro.core.capacity import CapacitySearch
from repro.core.greedy import CwcScheduler
from repro.core.instance import SchedulingInstance
from repro.core.model import Job, JobKind, PhoneSpec
from repro.core.prediction import RuntimePredictor
from repro.core.schedule import InfeasibleScheduleError
from repro.sim.engine import EventLoop


class TestCapacitySearchBoundaries:
    def make_instance(self):
        phones = (PhoneSpec(phone_id="p", cpu_mhz=1000.0),)
        predictor = RuntimePredictor.from_reference_phone(phones[0], {"t": 1.0})
        jobs = (Job("j", "t", JobKind.BREAKABLE, 10.0, 100.0),)
        return SchedulingInstance.build(jobs, phones, {"p": 1.0}, predictor)

    def test_single_iteration_budget_still_returns_schedule(
        self, monkeypatch
    ):
        monkeypatch.setattr(capacity, "_MAX_BISECTION_STEPS", 1)
        result = CapacitySearch().run(self.make_instance())
        result.schedule.validate(self.make_instance())
        assert result.bisection_steps == 1

    def test_huge_epsilon_returns_upper_bound_schedule(self):
        instance = self.make_instance()
        result = CapacitySearch(epsilon_ms=1e12).run(instance)
        result.schedule.validate(instance)
        # No bisection happened: one seed pack only.
        assert result.packer_passes == 1


class TestEventTokenAfterFire:
    def test_cancel_after_fire_is_harmless(self):
        loop = EventLoop()
        fired = []
        token = loop.schedule_at(1.0, lambda: fired.append(1))
        loop.run()
        token.cancel()  # no error; nothing changes
        assert fired == [1]

    def test_token_time_visible(self):
        loop = EventLoop()
        token = loop.schedule_at(42.0, lambda: None)
        assert token.time_ms == 42.0


class TestSchedulerErrorMessages:
    def test_infeasible_error_mentions_constraints(self):
        from repro.core.constraints import RamConstraint

        phones = (PhoneSpec(phone_id="p", cpu_mhz=1000.0),)
        predictor = RuntimePredictor.from_reference_phone(phones[0], {"t": 1.0})
        jobs = (Job("big", "t", JobKind.ATOMIC, 10.0, 100_000.0),)
        instance = SchedulingInstance.build(jobs, phones, {"p": 1.0}, predictor)
        ram = RamConstraint(caps_kb={"p": 10.0})
        with pytest.raises(InfeasibleScheduleError, match="constraint"):
            CwcScheduler(ram=ram).schedule(instance)


class TestJobPhoneReprs:
    def test_dataclass_reprs_are_informative(self):
        job = Job("j", "t", JobKind.ATOMIC, 1.0, 2.0)
        assert "j" in repr(job)
        assert "atomic" in repr(job)
        phone = PhoneSpec(phone_id="p", cpu_mhz=806.0)
        assert "806" in repr(phone)


class TestPredictorProfileAccess:
    def test_profile_lookup_error_names_task(self):
        predictor = RuntimePredictor({})
        with pytest.raises(KeyError, match="ghost"):
            predictor.profile("ghost")

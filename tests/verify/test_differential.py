"""Differential tests: all capacity-search legs agree, byte for byte."""

import pytest

from repro.core.model import Job, JobKind, PhoneSpec
from repro.core.instance import SchedulingInstance
from repro.core.prediction import RuntimePredictor, TaskProfile
from repro.verify import (
    DifferentialMismatchError,
    differential_check,
    run_differential_campaign,
)

PROFILES = {"primes": TaskProfile("primes", 10.0, 800.0)}


def small_instance():
    phones = tuple(
        PhoneSpec(phone_id=f"p{i}", cpu_mhz=800.0 + 100.0 * i)
        for i in range(4)
    )
    jobs = tuple(
        Job(f"j{i}", "primes", JobKind.BREAKABLE, 30.0, 300.0 + 40.0 * i)
        for i in range(6)
    )
    b = {p.phone_id: 2.0 for p in phones}
    return SchedulingInstance.build(jobs, phones, b, RuntimePredictor(PROFILES))


def cell_limit_instance(n_phones):
    """``n_phones`` phones x 64 jobs: 64 phones sit on the LP cell limit."""
    phones = tuple(
        PhoneSpec(phone_id=f"p{i}", cpu_mhz=800.0 + 10.0 * i)
        for i in range(n_phones)
    )
    jobs = tuple(
        Job(f"j{i}", "primes", JobKind.BREAKABLE, 30.0, 300.0 + 4.0 * i)
        for i in range(64)
    )
    b = {p.phone_id: 2.0 for p in phones}
    return SchedulingInstance.build(jobs, phones, b, RuntimePredictor(PROFILES))


class TestDifferentialCheck:
    def test_all_legs_agree_on_small_instance(self):
        report = differential_check(small_instance())
        assert report.legs == (
            "reference",
            "python-cold",
            "python-warm",
            "numpy-cold",
            "numpy-warm",
        )
        assert report.capacity_ms > 0
        assert len(report.schedule_digest) == 64

    def test_lp_sandwich_checked_when_enabled(self):
        # The LP runs on instances of at most 4 096 phone x job cells.
        for instance in (small_instance(), cell_limit_instance(64)):
            report = differential_check(instance)
            assert report.lp_checked
            assert report.lp_bound_ms is not None
            assert report.lp_bound_ms <= report.makespan_ms + 1e-6
            assert report.makespan_ms <= report.greedy_bound_ms + 1e-6

    def test_lp_can_be_disabled(self):
        # 65 x 64 cells is above the limit, so the LP is skipped.
        report = differential_check(cell_limit_instance(65))
        assert not report.lp_checked
        assert report.lp_bound_ms is None

    def test_reports_are_deterministic(self):
        first = differential_check(small_instance())
        second = differential_check(small_instance())
        assert first == second


class TestCampaign:
    def test_count_validated(self):
        with pytest.raises(ValueError, match="count"):
            run_differential_campaign(0)

    def test_hundred_fuzzed_instances_agree(self):
        # The PR's acceptance bar: byte-identical schedules across the
        # reference, python, and numpy kernels (cold and warm) on 100
        # fuzzed instances.
        reports = run_differential_campaign(100, seed=0)
        assert len(reports) == 100
        assert all(len(r.legs) == 5 for r in reports)

    def test_campaign_is_deterministic(self):
        first = run_differential_campaign(5, seed=3)
        second = run_differential_campaign(5, seed=3)
        assert first == second

    def test_mismatch_error_is_assertion(self):
        assert issubclass(DifferentialMismatchError, AssertionError)

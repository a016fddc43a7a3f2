"""Tests for the sharded differential leg (verify/differential.py)."""

import pytest

from repro.verify import (
    DifferentialMismatchError,
    sharded_differential_check,
)
from repro.verify.differential import run_sharded_campaign

from ..conftest import make_instance


@pytest.fixture
def fleet_instance():
    return make_instance(n_phones=10, n_breakable=10, n_atomic=3, seed=21)


def test_clean_instance_passes_all_legs(fleet_instance):
    report = sharded_differential_check(
        fleet_instance, pod_counts=(1, 2, 4)
    )
    # Two kernels x (monolithic + three pod counts).
    assert len(report.legs) == 8
    assert any(leg.startswith("sharded-") for leg in report.legs)
    assert report.monolithic_makespan_ms > 0
    # Multi-pod legs recorded their effective pod counts and makespans.
    requested = [entry[0] for entry in report.pod_makespans]
    assert requested == [2, 4]
    for _requested, effective, makespan in report.pod_makespans:
        assert effective >= 2
        assert makespan > 0
    # The pod LP certified each multi-pod leg (small instance => HiGHS
    # always runs), and the ratio respects the sandwich.
    assert len(report.bound_ratios) == 2
    for _requested, ratio in report.bound_ratios:
        assert ratio >= 1.0 - 1e-9


def test_policies_all_pass(fleet_instance, monkeypatch):
    """The LPT split and the unbalanced crc32 split both pass every leg."""
    from repro.core import sharding

    from ..conftest import crc32_split

    greedy = sharded_differential_check(fleet_instance, pod_counts=(1, 2))
    monkeypatch.setattr(sharding, "_assign_greedy", crc32_split)
    hashed = sharded_differential_check(fleet_instance, pod_counts=(1, 2))
    assert hashed.legs == greedy.legs
    # The fake really split the multi-pod leg differently ...
    assert hashed.pod_makespans != greedy.pod_makespans
    # ... while pods=1 delegates, so the split never reaches it.
    assert hashed.schedule_digest == greedy.schedule_digest


def test_bound_factor_violation_detected(fleet_instance, crc32_splitter):
    """An absurdly tight factor must trip the monolithic comparison."""
    with pytest.raises(DifferentialMismatchError, match="exceeds"):
        sharded_differential_check(
            fleet_instance,
            pod_counts=(4,),
            bound_factor=0.01,
        )


def test_campaign_runs_fuzzed_instances():
    reports = run_sharded_campaign(2, seed=5, pod_counts=(1, 2))
    assert len(reports) == 2
    for report in reports:
        assert "sharded-python-pods1" in report.legs


def test_campaign_rejects_bad_count():
    with pytest.raises(ValueError):
        run_sharded_campaign(0)

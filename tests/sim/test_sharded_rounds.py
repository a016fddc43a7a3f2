"""The server's RoundRecord carries the scheduler's own search result."""

from repro.core.baselines import RoundRobinScheduler
from repro.core.capacity import CapacitySearchResult
from repro.core.greedy import CwcScheduler
from repro.core.sharding import ShardedScheduler, ShardedSearchResult
from repro.sim.server import CentralServer, RoundRecord

from .test_server import make_jobs, make_setup


def test_round_record_defaults_for_monolithic_scheduler():
    phones, truth, predictor, b = make_setup()
    scheduler = CwcScheduler()
    server = CentralServer(phones, truth, predictor, scheduler, b)
    result = server.run(make_jobs())
    record = result.rounds[-1]
    assert isinstance(record.search, CapacitySearchResult)
    assert record.search is scheduler.last_result
    assert record.pods == 1
    assert record.shard_bound_ratio == 0.0
    assert record.capacity_ms == record.search.capacity_ms
    assert record.kernel == record.search.kernel


def test_round_record_defaults_without_search_diagnostics():
    phones, truth, predictor, b = make_setup()
    server = CentralServer(phones, truth, predictor, RoundRobinScheduler(), b)
    result = server.run(make_jobs())
    record = result.rounds[0]
    assert record.search is None
    assert record.capacity_ms == 0.0
    assert record.kernel == ""
    assert record.warm_started is False
    assert record.pods == 1
    assert record.shard_bound_ratio == 0.0


def test_round_record_holds_the_search_result_not_copies():
    hand_copied = {
        "packer_passes", "bisection_steps", "warm_started", "kernel",
        "capacity_ms", "pods", "pod_assign", "pod_solve_ms_max",
        "pod_solve_ms_sum", "shard_bound_ratio",
    }
    assert not hand_copied & set(RoundRecord.__dataclass_fields__)
    assert "search" in RoundRecord.__dataclass_fields__


def test_round_record_reports_sharding_context():
    phones, truth, predictor, b = make_setup(n_phones=8)
    scheduler = ShardedScheduler(pods=2, pod_workers=None)
    server = CentralServer(phones, truth, predictor, scheduler, b)
    result = server.run(make_jobs(n_breakable=6, n_atomic=2))
    record = result.rounds[0]
    assert isinstance(record.search, ShardedSearchResult)
    assert record.search.schedule is record.schedule
    assert record.pods == 2
    assert record.search.pod_solve_ms_max > 0.0
    assert record.search.pod_solve_ms_sum >= record.search.pod_solve_ms_max
    assert record.shard_bound_ratio >= 1.0 - 1e-9
    assert len(result.unfinished_jobs) == 0


def test_campaign_threads_sharding_knobs():
    from repro.core.policies import SchedulerConfig
    from repro.sim.campaign import ContinuousCampaign

    plain = ContinuousCampaign(seed=31)
    assert isinstance(plain._scheduler, CwcScheduler)
    sharded = ContinuousCampaign(
        seed=31,
        scheduler=SchedulerConfig(pods=2, pod_workers=1),
    )
    assert isinstance(sharded._scheduler, ShardedScheduler)
    result = sharded.run(1)
    assert result.total_submitted > 0


def test_round_record_sharded_pods1_reports_monolithic_context():
    phones, truth, predictor, b = make_setup()
    scheduler = ShardedScheduler(pods=1)
    server = CentralServer(phones, truth, predictor, scheduler, b)
    result = server.run(make_jobs())
    record = result.rounds[0]
    assert record.pods == 1
    # Monolithic delegation still reports a diagnostic ratio.
    assert record.shard_bound_ratio > 0.0

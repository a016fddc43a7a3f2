"""Server-side consumption of policy replica directives.

A :class:`~repro.core.policies.SchedulingPolicy` attaches
:class:`~repro.core.policies.base.ReplicaDirective` records to
``last_replicas``; the server must launch each one as a *proactive*
backup through the speculation machinery (first result wins, single
credit) while silently skipping directives that stopped making sense
between planning and dispatch — split jobs, absent or busy phones,
phones that already hold a copy.  These tests drive the server with a
directive-injecting stub so every skip rule and the credit accounting
are pinned directly, plus the real :class:`ReplicationPolicy` end to
end.
"""

import pytest

from repro.core.greedy import CwcScheduler
from repro.core.model import Job, JobKind, PhoneSpec
from repro.core.policies import SchedulerConfig
from repro.core.policies.base import ReplicaDirective
from repro.core.prediction import RuntimePredictor, TaskProfile
from repro.sim.entities import FleetGroundTruth
from repro.sim.metrics import compute_resilience_report
from repro.sim.server import CentralServer


class DirectiveStub:
    """CwcScheduler plus hand-chosen replica directives per round."""

    name = "directive-stub"

    def __init__(self, directives_fn):
        self._inner = CwcScheduler()
        self._fn = directives_fn
        self.last_replicas = ()

    def schedule(self, instance):
        schedule = self._inner.schedule(instance)
        self.last_replicas = tuple(self._fn(instance, schedule))
        return schedule


def make_setup(cpu_mhz=(1000.0, 1000.0), efficiencies=None):
    # Equal clocks so the scheduler balances one job per phone; the
    # hidden efficiency factor (invisible to the scheduler, applied by
    # the simulator) makes a phone slow *in truth*, which is what gives
    # a proactive replica something to win.
    efficiencies = efficiencies or (1.0,) * len(cpu_mhz)
    phones = tuple(
        PhoneSpec(phone_id=f"p{i}", cpu_mhz=mhz, cpu_efficiency=eff)
        for i, (mhz, eff) in enumerate(zip(cpu_mhz, efficiencies))
    )
    profiles = {"blur": TaskProfile("blur", 20.0, 800.0)}
    truth = FleetGroundTruth(profiles, deviation_sigma=0.0, seed=1)
    predictor = RuntimePredictor(profiles, alpha=0.5)
    b = {p.phone_id: 2.0 for p in phones}
    return phones, truth, predictor, b


def atomic_jobs(n=2, input_kb=300.0):
    return tuple(
        Job(f"a{i}", "blur", JobKind.ATOMIC, 80.0, input_kb)
        for i in range(n)
    )


def notes(result, kind):
    return [
        e for e in result.trace.resilience_events if e.kind == kind
    ]


def run_with_directives(
    directives_fn, jobs=None, efficiencies=None
):
    phones, truth, predictor, b = make_setup(efficiencies=efficiencies)
    scheduler = DirectiveStub(directives_fn)
    server = CentralServer(phones, truth, predictor, scheduler, b)
    result = server.run(jobs if jobs is not None else atomic_jobs())
    assert not result.unfinished_jobs
    return result


def assert_single_credit(result, jobs):
    done = sum(c.input_kb for c in result.trace.completions)
    assert done == pytest.approx(sum(j.input_kb for j in jobs))


class TestProactiveDispatch:
    def test_replica_launches_and_fast_copy_wins(self):
        # Two atomic jobs, one per phone; p0 is secretly 5x slower
        # than its clock suggests, so its job's replica on p1 wins.
        jobs = atomic_jobs(2)

        def replicate_slow_job(instance, schedule):
            for a in schedule.for_phone("p0"):
                if a.whole:
                    return [ReplicaDirective("p1", a.job_id)]
            return []

        result = run_with_directives(
            replicate_slow_job, jobs, efficiencies=(0.2, 1.0)
        )
        assert len(notes(result, "replication_launched")) == 1
        assert len(notes(result, "replication_won")) == 1
        # Proactive replicas are not reactive speculation.
        assert notes(result, "speculation_launched") == []
        assert notes(result, "speculation_won") == []
        assert_single_credit(result, jobs)

    def test_round_record_and_telemetry_fields(self):
        jobs = atomic_jobs(2)

        def replicate_slow_job(instance, schedule):
            for a in schedule.for_phone("p0"):
                if a.whole:
                    return [ReplicaDirective("p1", a.job_id)]
            return []

        result = run_with_directives(
            replicate_slow_job, jobs, efficiencies=(0.2, 1.0)
        )
        record = result.rounds[0]
        assert record.policy == "directive-stub"
        assert record.replicas == 1

    def test_resilience_report_counts_replications(self):
        jobs = atomic_jobs(2)

        def replicate_slow_job(instance, schedule):
            for a in schedule.for_phone("p0"):
                if a.whole:
                    return [ReplicaDirective("p1", a.job_id)]
            return []

        result = run_with_directives(
            replicate_slow_job, jobs, efficiencies=(0.2, 1.0)
        )
        report = compute_resilience_report(result)
        assert report.replications_launched == 1
        assert report.replications_won == 1
        assert any(
            "replication" in line for line in report.summary_lines()
        )

    def test_losing_replica_is_not_credited(self):
        # Replicate the FAST phone's job onto the slow phone: the
        # primary wins, the replica is cancelled, credit stays single.
        jobs = atomic_jobs(2)

        def replicate_fast_job(instance, schedule):
            for a in schedule.for_phone("p1"):
                if a.whole:
                    return [ReplicaDirective("p0", a.job_id)]
            return []

        result = run_with_directives(replicate_fast_job, jobs)
        assert len(notes(result, "replication_launched")) == 1
        assert notes(result, "replication_won") == []
        assert_single_credit(result, jobs)


class TestSkipRules:
    def test_split_job_directive_is_ignored(self):
        # One big breakable job splits across both phones — no whole
        # placement exists, so the directive must be dropped.
        jobs = (Job("b0", "blur", JobKind.BREAKABLE, 80.0, 2000.0),)

        def replicate_the_split_job(instance, schedule):
            return [ReplicaDirective("p1", "b0")]

        result = run_with_directives(replicate_the_split_job, jobs)
        assert notes(result, "replication_launched") == []
        assert_single_credit(result, jobs)

    def test_absent_phone_directive_is_skipped(self):
        jobs = atomic_jobs(2)

        def replicate_onto_ghost(instance, schedule):
            for a in schedule.for_phone("p0"):
                if a.whole:
                    return [ReplicaDirective("ghost", a.job_id)]
            return []

        result = run_with_directives(replicate_onto_ghost, jobs)
        assert notes(result, "replication_launched") == []
        assert_single_credit(result, jobs)

    def test_phone_already_running_the_job_is_skipped(self):
        jobs = atomic_jobs(2)

        def replicate_onto_owner(instance, schedule):
            for a in schedule.for_phone("p0"):
                if a.whole:
                    return [ReplicaDirective("p0", a.job_id)]
            return []

        result = run_with_directives(replicate_onto_owner, jobs)
        assert notes(result, "replication_launched") == []
        assert_single_credit(result, jobs)

    def test_plain_scheduler_without_directives_unchanged(self):
        phones, truth, predictor, b = make_setup()
        server = CentralServer(phones, truth, predictor, CwcScheduler(), b)
        jobs = atomic_jobs(2)
        result = server.run(jobs)
        assert notes(result, "replication_launched") == []
        assert result.rounds[0].policy == "cwc-greedy"
        assert result.rounds[0].replicas == 0
        assert_single_credit(result, jobs)


class TestReplicationPolicyEndToEnd:
    def test_policy_replicas_flow_through_the_server(self):
        phones, truth, predictor, b = make_setup(
            cpu_mhz=(1000.0, 1000.0, 1000.0),
            efficiencies=(0.3, 1.0, 1.0),
        )
        policy = SchedulerConfig(policy="replication").build(
            unreliable=("p0", "p1", "p2")
        )
        server = CentralServer(phones, truth, predictor, policy, b)
        jobs = atomic_jobs(3)
        result = server.run(jobs)
        assert not result.unfinished_jobs
        launched = notes(result, "replication_launched")
        assert launched, "replication policy produced no replicas"
        assert result.rounds[0].policy == "replication"
        assert result.rounds[0].replicas >= len(launched)
        assert_single_credit(result, jobs)
        report = compute_resilience_report(result)
        assert report.replications_launched == len(launched)

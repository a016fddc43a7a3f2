"""Regression tests for bugs the scenario fuzzer surfaced.

Each test pins a minimized failing scenario (hand-shrunk from the
fuzzer's counterexample) so the bug stays fixed.  The pattern: build
the exact :class:`~repro.verify.fuzz.Scenario`, run it, and assert the
oracle reports no violations.
"""

from repro.core.model import Job, JobKind, PhoneSpec
from repro.core.packing import GreedyPacker
from repro.sim.chaos import ChaosPlan
from repro.sim.failures import PlannedFailure
from repro.verify import Oracle, differential_check
from repro.verify.fuzz import Scenario, generate_instance, run_scenario

PHONES = (
    PhoneSpec(phone_id="p0", cpu_mhz=800.0),
    PhoneSpec(phone_id="p1", cpu_mhz=1000.0),
)
JOBS = (
    Job("j0", "primes", JobKind.BREAKABLE, 30.0, 200.0),
    Job("j1", "primes", JobKind.BREAKABLE, 30.0, 400.0),
)
B = {"p0": 2.0, "p1": 2.0}


def scenario_with(chaos, arrivals=()):
    return Scenario(
        seed=1,
        phones=PHONES,
        jobs=JOBS,
        measured_b=dict(B),
        true_b=dict(B),
        chaos=chaos,
        arrivals=arrivals,
    )


class TestLateArrivalKeepAlive:
    """Fuzzer find: offline failures went undetected after a late arrival.

    When the fleet drains, the server parks its keep-alive monitors so
    the event loop can finish.  A job arriving *after* that restarts a
    scheduling round — but the monitors used to stay parked, so a phone
    silently going offline during the new round was never detected: its
    partition was neither completed, checkpointed, nor reported
    unfinished, and the conservation invariant tripped.
    """

    def test_offline_failure_after_late_arrival_is_detected(self):
        # j0 drains in ~11 s; j1 arrives at t=4000 s (monitors parked in
        # between); p0 vanishes mid-partition at t=4005 s.
        scenario = scenario_with(
            chaos=ChaosPlan(
                failures=[PlannedFailure("p0", 4_005_000.0, online=False)]
            ),
            arrivals=((4_000_000.0, "j1"),),
        )
        outcome = run_scenario(scenario)
        assert outcome.ok, [str(v) for v in outcome.violations]

    def test_detection_recorded_in_trace(self):
        from repro.sim.entities import FleetGroundTruth
        from repro.core.greedy import CwcScheduler
        from repro.core.prediction import RuntimePredictor
        from repro.sim.server import CentralServer
        from repro.workloads.mixes import paper_task_profiles

        profiles = paper_task_profiles()
        server = CentralServer(
            PHONES,
            FleetGroundTruth(profiles, deviation_sigma=0.0, seed=1),
            RuntimePredictor(profiles),
            CwcScheduler(),
            B,
            chaos=ChaosPlan(
                failures=[PlannedFailure("p0", 4_005_000.0, online=False)]
            ),
        )
        result = server.run((JOBS[0],), arrivals=((4_000_000.0, JOBS[1]),))
        detected = [
            f for f in result.trace.failures
            if f.phone_id == "p0" and not f.online
        ]
        assert detected, "offline failure after late arrival went undetected"
        assert detected[0].detected_at_ms > 4_005_000.0
        Oracle().check_run(result, JOBS)

    def test_failure_after_full_drain_stays_clean(self):
        # Control: the failure fires after ALL work (including the late
        # arrival's) completed — nothing to detect, nothing lost.
        scenario = scenario_with(
            chaos=ChaosPlan(
                failures=[PlannedFailure("p0", 5_000_000.0, online=False)]
            ),
            arrivals=((4_000_000.0, "j1"),),
        )
        outcome = run_scenario(scenario)
        assert outcome.ok, [str(v) for v in outcome.violations]

    def test_no_arrival_baseline_stays_clean(self):
        scenario = scenario_with(
            chaos=ChaosPlan(
                failures=[PlannedFailure("p0", 2_000.0, online=False)]
            ),
        )
        outcome = run_scenario(scenario)
        assert outcome.ok, [str(v) for v in outcome.violations]


class TestPolicyUnderChaos:
    """Tournament find: a non-default policy meets chaos mid-flight.

    A hand-shrunk chaos plan from an early tournament leg; the
    oracle's conservation and single-credit invariants are the
    assertion.
    """

    def test_energy_policy_under_offline_chaos_stays_clean(self):
        import dataclasses

        scenario = dataclasses.replace(
            scenario_with(
                chaos=ChaosPlan(
                    failures=[
                        PlannedFailure("p1", 2_000.0, online=False)
                    ]
                ),
            ),
            policy="energy-aware",
        )
        outcome = run_scenario(scenario)
        assert outcome.ok, [str(v) for v in outcome.violations]


class TestNonMonotoneFeasibility:
    """Fuzzer find: greedy feasibility is NOT monotone in capacity.

    Fuzz seed 3504320067 has a feasible pocket: raising the capacity
    from 92 000 ms to 92 500 ms turns a feasible pack infeasible (the
    greedy order shifts and strands a remainder).  A verdict at one
    capacity therefore proves nothing about another, which is why the
    capacity search packs every undecided grid midpoint for real and
    only a warm hint's exact replay may assume verdicts.  Pinned so
    nobody reintroduces a monotonicity shortcut.
    """

    SEED = 3504320067

    def test_feasibility_pocket_exists(self):
        packer = GreedyPacker(generate_instance(self.SEED))
        assert packer.pack(92_000.0).feasible
        assert not packer.pack(92_500.0).feasible
        assert packer.pack(93_500.0).feasible

    def test_pocket_seed_differential(self):
        report = differential_check(generate_instance(self.SEED))
        assert len(report.legs) == 5

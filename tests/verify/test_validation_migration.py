"""The validation.py -> oracle migration preserves every verdict.

``repro.sim.validation`` used to own four hand-rolled checks; they now
live in the :mod:`repro.verify.invariants` registry and
``check_run_invariants`` delegates to the oracle.  The hand-rolled
checks are gone, so the verdicts they gave are pinned here verbatim and
the promoted invariants must reproduce each one exactly.
"""

import pytest

from repro.core.greedy import CwcScheduler
from repro.core.model import Job, JobKind, PhoneSpec
from repro.core.prediction import RuntimePredictor, TaskProfile
from repro.sim.entities import FleetGroundTruth
from repro.sim.failures import FailurePlan, PlannedFailure
from repro.sim.server import CentralServer, RunResult
from repro.sim.trace import Span, SpanKind, TimelineTrace
from repro.sim.validation import TraceInvariantError, check_run_invariants

PROFILES = {"primes": TaskProfile("primes", 10.0, 800.0)}


def run_simulation(plan=None):
    phones = tuple(
        PhoneSpec(phone_id=f"p{i}", cpu_mhz=800.0 + 100.0 * i)
        for i in range(3)
    )
    jobs = tuple(
        Job(f"j{i}", "primes", JobKind.BREAKABLE, 30.0, 400.0 + 50.0 * i)
        for i in range(4)
    )
    server = CentralServer(
        phones,
        FleetGroundTruth(PROFILES),
        RuntimePredictor(PROFILES),
        CwcScheduler(),
        {p.phone_id: 2.0 for p in phones},
        failure_plan=plan or FailurePlan.none(),
    )
    return jobs, server.run(jobs)


def verdict(result, jobs):
    try:
        check_run_invariants(result, jobs)
    except TraceInvariantError as exc:
        return str(exc)
    return None


class TestAgreement:
    CASES = (
        None,
        FailurePlan([PlannedFailure("p1", 2_000.0, online=True)]),
        FailurePlan([PlannedFailure("p1", 2_000.0, online=False)]),
        FailurePlan(
            [PlannedFailure("p1", 2_000.0, online=True,
                            rejoin_after_ms=5_000.0)]
        ),
    )

    @pytest.mark.parametrize("plan", CASES)
    def test_clean_runs_agree(self, plan):
        jobs, result = run_simulation(plan)
        assert verdict(result, jobs) is None

    def test_overlap_verdicts_agree(self):
        trace = TimelineTrace()
        trace.add_span(Span("p", "j", SpanKind.COPY, 0.0, 100.0, input_kb=1.0))
        trace.add_span(
            Span("p", "j", SpanKind.EXECUTE, 50.0, 150.0, input_kb=1.0),
            at_ms=50.0,
        )
        result = RunResult(trace=trace, rounds=[])
        assert verdict(result, ()) == (
            "phone 'p' overlaps spans: [0.0, 100.0] and [50.0, 150.0]"
        )

    def test_missing_copy_verdicts_agree(self):
        trace = TimelineTrace()
        trace.add_span(Span("p", "j", SpanKind.EXECUTE, 0.0, 10.0, input_kb=1.0))
        result = RunResult(trace=trace, rounds=[])
        assert verdict(result, ()) == (
            "phone 'p' executed job 'j' at 0.0 without ever copying it"
        )

    def test_lost_input_verdicts_agree(self):
        jobs = (Job("j", "primes", JobKind.BREAKABLE, 10.0, 500.0),)
        result = RunResult(trace=TimelineTrace(), rounds=[])
        assert verdict(result, jobs) == (
            "input not conserved: submitted 500.000 KB but accounted "
            "0.000 KB (completed 0.000 + checkpointed 0.000 + "
            "unfinished 0.000)"
        )

    def test_empty_run_agrees(self):
        result = RunResult(trace=TimelineTrace(), rounds=[])
        assert verdict(result, ()) is None

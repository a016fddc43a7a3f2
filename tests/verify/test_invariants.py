"""Unit tests for the invariant registry and each registered checker."""

from types import SimpleNamespace

import pytest

from repro.verify.invariants import (
    InvariantViolation,
    RunContext,
    Violation,
    run_invariant,
    run_registry,
    schedule_registry,
)
from repro.sim.server import RunResult
from repro.sim.trace import (
    ChaosRecord,
    CompletionRecord,
    FailureRecord,
    ResilienceEvent,
    Span,
    SpanKind,
    TimelineTrace,
)
from repro.core.model import Job, JobKind

EXPECTED_RUN = {
    "sequential-phones",
    "conservation",
    "no-duplicate-credit",
    "no-zombie-work",
    "copy-before-execute",
    "makespan-consistency",
    "span-tree",
    "span-nesting",
    "interruption-owns-span",
    "rounds-ordered",
}
EXPECTED_SCHEDULE = {
    "coverage",
    "capacity-soundness",
    "makespan-prediction",
    "lp-sandwich",
}


def result_with(spans=(), completions=(), failures=(), resilience=(),
                chaos=(), unfinished=(), rounds=()):
    trace = TimelineTrace()
    records = (
        [("span", s, s.start_ms) for s in spans]
        + [("completion", c, c.time_ms) for c in completions]
        + [("failure", f, f.detected_at_ms) for f in failures]
        + [("resilience", r, r.time_ms) for r in resilience]
        + [("chaos", c, c.time_ms) for c in chaos]
    )
    records.sort(key=lambda rec: rec[2])
    for kind, record, at_ms in records:
        if kind == "span":
            trace.add_span(record, at_ms=at_ms)
        elif kind == "completion":
            trace.add_completion(record, at_ms=at_ms)
        elif kind == "failure":
            trace.add_failure(record, at_ms=at_ms)
        elif kind == "chaos":
            trace.add_chaos(record, at_ms=at_ms)
        else:
            trace.add_resilience_event(record, at_ms=at_ms)
    return RunResult(
        trace=trace, rounds=list(rounds), unfinished_jobs=tuple(unfinished)
    )


def round_at(index, start, drained):
    """The fields of a round record that ``rounds-ordered`` reads."""
    return SimpleNamespace(
        round_index=index, scheduled_at_ms=start, drained_at_ms=drained
    )


def check(name, result, jobs=()):
    run_registry()[name].check(RunContext(result=result, jobs=jobs))


JOB = Job("j", "primes", JobKind.BREAKABLE, 10.0, 100.0)


class TestRegistry:
    def test_expected_invariants_registered(self):
        assert set(run_registry()) == EXPECTED_RUN
        assert set(schedule_registry()) == EXPECTED_SCHEDULE

    def test_registry_returns_snapshots(self):
        snapshot = run_registry()
        snapshot.clear()
        assert set(run_registry()) == EXPECTED_RUN

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            run_invariant("conservation", "dup")(lambda ctx: None)

    def test_invariant_metadata(self):
        inv = run_registry()["conservation"]
        assert inv.scope == "run"
        assert inv.description

    def test_violation_str(self):
        violation = Violation("conservation", "run", "lost 3 KB")
        assert str(violation) == "[run:conservation] lost 3 KB"


class TestSequentialPhones:
    def test_disjoint_spans_pass(self):
        result = result_with([
            Span("p", "j", SpanKind.COPY, 0.0, 10.0, input_kb=1.0),
            Span("p", "j", SpanKind.EXECUTE, 10.0, 20.0, input_kb=1.0),
        ])
        check("sequential-phones", result)

    def test_overlap_detected(self):
        result = result_with([
            Span("p", "j", SpanKind.COPY, 0.0, 10.0, input_kb=1.0),
            Span("p", "j", SpanKind.EXECUTE, 5.0, 20.0, input_kb=1.0),
        ])
        with pytest.raises(InvariantViolation, match="overlaps"):
            check("sequential-phones", result)

    def test_overlap_on_other_phone_is_independent(self):
        result = result_with([
            Span("p", "j", SpanKind.COPY, 0.0, 10.0, input_kb=1.0),
            Span("q", "j", SpanKind.COPY, 5.0, 20.0, input_kb=1.0),
        ])
        check("sequential-phones", result)


class TestConservation:
    def test_exact_accounting_passes(self):
        result = result_with(
            completions=[CompletionRecord("p", "j", 10.0, 100.0, 5.0)],
        )
        check("conservation", result, jobs=(JOB,))

    def test_lost_input_detected(self):
        result = result_with()
        with pytest.raises(InvariantViolation, match="not conserved"):
            check("conservation", result, jobs=(JOB,))

    def test_unfinished_jobs_count(self):
        result = result_with(unfinished=(JOB,))
        check("conservation", result, jobs=(JOB,))

    def test_checkpointed_work_counts(self):
        result = result_with(
            completions=[CompletionRecord("p", "j", 10.0, 60.0, 5.0)],
            failures=[FailureRecord("p", 9.0, 11.0, online=True,
                                    processed_kb=40.0)],
        )
        check("conservation", result, jobs=(JOB,))


class TestNoDuplicateCredit:
    def test_single_credit_passes(self):
        result = result_with(
            completions=[CompletionRecord("p", "j", 10.0, 100.0, 5.0)],
        )
        check("no-duplicate-credit", result, jobs=(JOB,))

    def test_double_credit_detected(self):
        result = result_with(
            completions=[
                CompletionRecord("p", "j", 10.0, 100.0, 5.0),
                CompletionRecord("q", "j", 11.0, 100.0, 5.0),
            ],
        )
        with pytest.raises(InvariantViolation, match="over-credited"):
            check("no-duplicate-credit", result, jobs=(JOB,))

    def test_unknown_job_detected(self):
        result = result_with(
            completions=[CompletionRecord("p", "ghost", 10.0, 1.0, 5.0)],
        )
        with pytest.raises(InvariantViolation, match="unknown job"):
            check("no-duplicate-credit", result, jobs=(JOB,))


class TestNoZombieWork:
    FAILURE = FailureRecord("p", 50.0, 60.0, online=False)

    def test_span_before_failure_passes(self):
        result = result_with(
            spans=[Span("p", "j", SpanKind.COPY, 0.0, 10.0, input_kb=1.0)],
            failures=[self.FAILURE],
        )
        check("no-zombie-work", result)

    def test_uninterrupted_crossing_span_detected(self):
        result = result_with(
            spans=[Span("p", "j", SpanKind.COPY, 40.0, 80.0, input_kb=1.0)],
            failures=[self.FAILURE],
        )
        with pytest.raises(InvariantViolation, match="uninterrupted span"):
            check("no-zombie-work", result)

    def test_interrupted_crossing_span_passes(self):
        result = result_with(
            spans=[Span("p", "j", SpanKind.COPY, 40.0, 80.0, input_kb=1.0,
                        interrupted=True)],
            failures=[self.FAILURE],
        )
        check("no-zombie-work", result)

    def test_dark_window_span_detected(self):
        result = result_with(
            spans=[Span("p", "j", SpanKind.COPY, 70.0, 80.0, input_kb=1.0)],
            failures=[self.FAILURE],
        )
        with pytest.raises(InvariantViolation, match="while dark"):
            check("no-zombie-work", result)

    def test_work_after_rejoin_passes(self):
        result = result_with(
            spans=[Span("p", "j", SpanKind.COPY, 70.0, 80.0, input_kb=1.0)],
            failures=[self.FAILURE],
            resilience=[ResilienceEvent("rejoin", "p", 65.0)],
        )
        check("no-zombie-work", result)


class TestCopyBeforeExecute:
    def test_copied_then_executed_passes(self):
        result = result_with([
            Span("p", "j", SpanKind.COPY, 0.0, 10.0, input_kb=1.0),
            Span("p", "j", SpanKind.EXECUTE, 10.0, 20.0, input_kb=1.0),
        ])
        check("copy-before-execute", result)

    def test_execute_without_copy_detected(self):
        result = result_with([
            Span("p", "j", SpanKind.EXECUTE, 0.0, 10.0, input_kb=1.0),
        ])
        with pytest.raises(InvariantViolation, match="without ever copying"):
            check("copy-before-execute", result)


class TestInterruptionOwnsSpan:
    # An op on phone p, job j, cut short at t=30.
    CUT = Span("p", "j", SpanKind.EXECUTE, 10.0, 30.0, input_kb=1.0,
               interrupted=True)
    FAILURE = FailureRecord("p", 30.0, 45.0, online=False, job_id="j")
    CRASH = ChaosRecord("task_crash", "p", 30.0, detail="hit")
    TIMEOUT = ResilienceEvent("timeout", "p", 30.0, job_id="j")

    @pytest.mark.parametrize("record", ["failure", "crash", "timeout"])
    def test_record_with_its_span_passes(self, record):
        check("interruption-owns-span", self._result(record, [self.CUT]))

    @pytest.mark.parametrize("record", ["failure", "crash", "timeout"])
    def test_record_without_its_span_detected(self, record):
        with pytest.raises(InvariantViolation, match="owns no interrupted"):
            check("interruption-owns-span", self._result(record, []))

    @pytest.mark.parametrize("record", ["failure", "crash", "timeout"])
    def test_completed_span_does_not_count(self, record):
        done = Span("p", "j", SpanKind.EXECUTE, 10.0, 30.0, input_kb=1.0)
        with pytest.raises(InvariantViolation, match="owns no interrupted"):
            check("interruption-owns-span", self._result(record, [done]))

    def test_span_of_another_job_does_not_count(self):
        other = Span("p", "k", SpanKind.EXECUTE, 10.0, 30.0, input_kb=1.0,
                     interrupted=True)
        with pytest.raises(InvariantViolation, match="job 'j'"):
            check("interruption-owns-span", self._result("timeout", [other]))

    def test_span_starting_after_the_record_ends_at_its_start(self):
        # The server never ends an op before it started, so an op that
        # started after the record's instant is closed at zero length.
        late = Span("p", "j", SpanKind.COPY, 40.0, 40.0, input_kb=1.0,
                    interrupted=True)
        check("interruption-owns-span", self._result("failure", [late]))

    def test_jobless_failure_and_missed_crash_need_no_span(self):
        result = result_with(
            failures=[FailureRecord("p", 30.0, 30.0, online=True)],
            chaos=[ChaosRecord("task_crash", "p", 30.0, detail="no-op")],
        )
        check("interruption-owns-span", result)

    @pytest.mark.parametrize("seed", [9, 16])
    def test_clean_chaos_run_passes(self, seed):
        from repro.verify.fuzz import (
            build_scenario_server,
            generate_scenario,
            scenario_workload,
        )

        scenario = generate_scenario(seed)
        initial, arrivals = scenario_workload(scenario)
        result = build_scenario_server(scenario).run(
            initial, arrivals=arrivals
        )
        trace = result.trace
        assert any(f.job_id for f in trace.failures)
        assert any(c.detail == "hit" for c in trace.chaos)
        check("interruption-owns-span", result, jobs=scenario.jobs)

    def _result(self, record, spans):
        if record == "failure":
            return result_with(spans=spans, failures=[self.FAILURE])
        if record == "crash":
            return result_with(spans=spans, chaos=[self.CRASH])
        return result_with(spans=spans, resilience=[self.TIMEOUT])


class TestRoundsOrdered:
    def test_contiguous_drained_rounds_pass(self):
        check("rounds-ordered", result_with(rounds=[
            round_at(0, 0.0, 50.0),
            round_at(1, 50.0, 80.0),
            round_at(2, 90.0, 90.0),
        ]))

    def test_undrained_last_round_passes(self):
        check("rounds-ordered", result_with(rounds=[
            round_at(0, 0.0, 50.0), round_at(1, 50.0, None),
        ]))

    def test_no_rounds_pass(self):
        check("rounds-ordered", result_with())

    @pytest.mark.parametrize("indices", [(1, 2), (0, 2), (0, 0)])
    def test_index_gap_detected(self, indices):
        rounds = [round_at(indices[0], 0.0, 50.0), round_at(indices[1], 50.0, 80.0)]
        with pytest.raises(InvariantViolation, match="carries index"):
            check("rounds-ordered", result_with(rounds=rounds))

    def test_drain_before_start_detected(self):
        rounds = [round_at(0, 0.0, 50.0), round_at(1, 60.0, 55.0)]
        with pytest.raises(InvariantViolation, match="before it started"):
            check("rounds-ordered", result_with(rounds=rounds))

    def test_drain_after_next_start_detected(self):
        rounds = [round_at(0, 0.0, 70.0), round_at(1, 60.0, 90.0)]
        with pytest.raises(InvariantViolation, match="after round 1 started"):
            check("rounds-ordered", result_with(rounds=rounds))

    def test_undrained_round_before_last_detected(self):
        rounds = [round_at(0, 0.0, None), round_at(1, 60.0, 90.0)]
        with pytest.raises(InvariantViolation, match="never drained"):
            check("rounds-ordered", result_with(rounds=rounds))

    @pytest.mark.parametrize("seed", [2, 9, 16])
    def test_fuzz_runs_pass(self, seed):
        from repro.verify.fuzz import (
            build_scenario_server,
            generate_scenario,
            scenario_workload,
        )

        scenario = generate_scenario(seed)
        initial, arrivals = scenario_workload(scenario)
        result = build_scenario_server(scenario).run(
            initial, arrivals=arrivals
        )
        assert all(r.drained_at_ms is not None for r in result.rounds)
        check("rounds-ordered", result)


class TestMakespanConsistency:
    def test_real_result_is_consistent(self):
        result = result_with(
            spans=[Span("p", "j", SpanKind.COPY, 0.0, 10.0, input_kb=1.0)],
        )
        check("makespan-consistency", result)

    def test_disagreeing_reported_makespan_detected(self):
        # RunResult derives its makespan from the trace, so a fake
        # result stands in for a reporting bug.
        trace = TimelineTrace()
        trace.add_span(Span("p", "j", SpanKind.COPY, 0.0, 10.0, input_kb=1.0))
        fake = SimpleNamespace(
            trace=trace, unfinished_jobs=(), measured_makespan_ms=99.0
        )
        with pytest.raises(InvariantViolation, match="does not equal"):
            check("makespan-consistency", fake)

    def test_completion_after_makespan_detected(self):
        trace = TimelineTrace()
        trace.add_span(Span("p", "j", SpanKind.COPY, 0.0, 10.0, input_kb=1.0))
        trace.add_completion(
            CompletionRecord("p", "j", 50.0, 1.0, 5.0), at_ms=50.0
        )
        result = RunResult(trace=trace, rounds=[])
        with pytest.raises(InvariantViolation, match="after the makespan"):
            check("makespan-consistency", result)


def _span_dict(span_id, parent_id=None, name="work", *, start=0.0, end=1.0,
               sim=None, process="main", category="sim", status="ok",
               attrs=None):
    data = {
        "span_id": span_id,
        "parent_id": parent_id,
        "name": name,
        "category": category,
        "process": process,
        "start_wall_s": start,
        "end_wall_s": end,
        "status": status,
        "attrs": attrs or {},
    }
    if sim is not None:
        data["start_sim_ms"], data["end_sim_ms"] = sim
    return data


def check_spans(name, spans):
    ctx = RunContext(result=None, jobs=(), spans=spans)
    run_registry()[name].check(ctx)


class TestSpanTree:
    def test_skips_without_spans(self):
        check_spans("span-tree", None)

    def test_forest_passes(self):
        check_spans("span-tree", [
            _span_dict(1, None, "run"),
            _span_dict(2, 1, "round"),
            _span_dict(3, None, "other_root"),
        ])

    def test_trace_span_objects_accepted(self):
        from repro.obs.tracing import Tracer

        tracer = Tracer("t")
        with tracer.span("run"):
            with tracer.span("round"):
                pass
        check_spans("span-tree", tracer.spans)

    def test_duplicate_id_detected(self):
        with pytest.raises(InvariantViolation, match="duplicate span id"):
            check_spans("span-tree", [_span_dict(1), _span_dict(1)])

    def test_missing_parent_detected(self):
        with pytest.raises(InvariantViolation, match="missing"):
            check_spans("span-tree", [_span_dict(2, parent_id=99)])

    def test_parent_newer_than_child_detected(self):
        spans = [_span_dict(1, parent_id=2), _span_dict(2)]
        with pytest.raises(InvariantViolation, match="newer or equal id"):
            check_spans("span-tree", spans)

    def test_malformed_span_dict_detected(self):
        with pytest.raises(InvariantViolation, match="malformed span"):
            check_spans("span-tree", [{"span_id": "x"}])


class TestSpanNesting:
    def test_contained_child_passes(self):
        check_spans("span-nesting", [
            _span_dict(1, None, "run", start=0.0, end=10.0, sim=(0.0, 500.0)),
            _span_dict(2, 1, "round", start=1.0, end=9.0, sim=(0.0, 400.0)),
        ])

    def test_wall_escape_detected(self):
        spans = [
            _span_dict(1, None, "run", start=0.0, end=10.0),
            _span_dict(2, 1, "round", start=1.0, end=11.0),
        ]
        with pytest.raises(InvariantViolation, match="wall interval"):
            check_spans("span-nesting", spans)

    def test_sim_escape_detected(self):
        spans = [
            _span_dict(1, None, "run", start=0.0, end=10.0, sim=(0.0, 100.0)),
            _span_dict(2, 1, "round", start=1.0, end=9.0, sim=(0.0, 200.0)),
        ]
        with pytest.raises(InvariantViolation, match="sim interval"):
            check_spans("span-nesting", spans)

    def test_missing_sim_interval_skips_sim_check(self):
        # Campaign "night" spans carry no sim times; their adopted
        # children must not be compared on the sim clock against them.
        check_spans("span-nesting", [
            _span_dict(1, None, "night", start=0.0, end=10.0),
            _span_dict(2, 1, "run", start=1.0, end=9.0, sim=(0.0, 1e9)),
        ])


class TestSpanInvariantsEndToEnd:
    def test_traced_fuzz_scenario_passes_all_span_invariants(self):
        from repro.verify.fuzz import generate_scenario, run_scenario

        outcome = run_scenario(generate_scenario(11))
        assert outcome.ok, outcome.violations

    def test_traced_chaos_scenario_passes(self):
        from repro.verify.fuzz import generate_scenario, run_scenario

        # Seed 2 injects chaos faults: interrupted fleet spans must
        # still form a legal tree.
        scenario = generate_scenario(2)
        outcome = run_scenario(scenario)
        assert outcome.ok, outcome.violations

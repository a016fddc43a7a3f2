"""The invariant registry: named behavioural contracts of a CWC run.

Each invariant is a small checker registered under a stable name, in
one of two scopes:

* **run invariants** inspect a finished simulation — the
  :class:`~repro.sim.trace.TimelineTrace`, the round records, the
  completions/failures bookkeeping, and (optionally) the tracer's
  closed spans;
* **schedule invariants** inspect one scheduling decision — a
  :class:`~repro.core.schedule.Schedule` against its
  :class:`~repro.core.instance.SchedulingInstance` and, when known, the
  converged capacity and LP/greedy bounds.

The four checks that used to live ad hoc in :mod:`repro.sim.validation`
(sequential phones, conservation, dark-window/zombie, copy-before-
execute) are promoted here verbatim; the oracle adds makespan
consistency, duplicate-credit detection, capacity soundness, and the
LP sandwich.

Checkers raise :class:`InvariantViolation` with a specific message; the
:class:`~repro.verify.oracle.Oracle` turns those into
:class:`Violation` records when collecting instead of failing fast.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Any

# NOTE: this module deliberately imports nothing from the rest of
# repro at module level.  repro.sim.validation imports the registry,
# and repro.sim sits downstream of repro.core and repro.obs, so any
# eager import here would re-enter a partially-initialised package.
# Checkers lazy-import what they inspect instead.

__all__ = [
    "TOL_MS",
    "InvariantViolation",
    "Violation",
    "Invariant",
    "RunContext",
    "ScheduleContext",
    "run_invariant",
    "schedule_invariant",
    "run_registry",
    "schedule_registry",
]

#: Absolute tolerance (milliseconds / kilobytes) for float comparisons.
TOL_MS = 1e-6


class InvariantViolation(AssertionError):
    """A schedule or simulated run violated a CWC behavioural contract."""


@dataclass(frozen=True)
class Violation:
    """One collected invariant violation."""

    invariant: str
    scope: str
    message: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.scope}:{self.invariant}] {self.message}"


@dataclass(frozen=True)
class Invariant:
    """A named contract plus the checker that enforces it."""

    name: str
    scope: str
    description: str
    check: Callable[[Any], None]


@dataclass
class RunContext:
    """Everything a run-scope invariant may inspect.

    ``spans`` is the tracer's closed-span store (a sequence of
    :class:`~repro.obs.tracing.TraceSpan` or span dicts) when the run
    was tracing-armed; the span invariants skip silently when absent.
    """

    result: Any  # repro.sim.server.RunResult (duck-typed to avoid cycles)
    jobs: Sequence[Any]
    spans: Sequence[Any] | None = None


@dataclass
class ScheduleContext:
    """Everything a schedule-scope invariant may inspect.

    Optional fields default to ``None``; invariants that need a missing
    field skip silently, so one context type serves both standalone
    capacity-search results and per-round records replayed from a
    :class:`~repro.sim.server.RunResult`.
    """

    instance: Any
    schedule: Any
    capacity_ms: float | None = None
    lower_bound_ms: float | None = None
    upper_bound_ms: float | None = None
    predicted_makespan_ms: float | None = None


_RUN_REGISTRY: dict[str, Invariant] = {}
_SCHEDULE_REGISTRY: dict[str, Invariant] = {}


def run_registry() -> dict[str, Invariant]:
    """Snapshot of the run-scope invariant registry (name -> invariant)."""
    return dict(_RUN_REGISTRY)


def schedule_registry() -> dict[str, Invariant]:
    """Snapshot of the schedule-scope registry (name -> invariant)."""
    return dict(_SCHEDULE_REGISTRY)


def run_invariant(name: str, description: str):
    """Register a run-scope checker under ``name``."""

    def decorate(check: Callable[[RunContext], None]):
        if name in _RUN_REGISTRY:
            raise ValueError(f"duplicate run invariant {name!r}")
        _RUN_REGISTRY[name] = Invariant(
            name=name, scope="run", description=description, check=check
        )
        return check

    return decorate


def schedule_invariant(name: str, description: str):
    """Register a schedule-scope checker under ``name``."""

    def decorate(check: Callable[[ScheduleContext], None]):
        if name in _SCHEDULE_REGISTRY:
            raise ValueError(f"duplicate schedule invariant {name!r}")
        _SCHEDULE_REGISTRY[name] = Invariant(
            name=name, scope="schedule", description=description, check=check
        )
        return check

    return decorate


# ---------------------------------------------------------------------------
# run-scope invariants
# ---------------------------------------------------------------------------


@run_invariant(
    "sequential-phones",
    "a phone never overlaps two spans (the dispatch pipeline is serial)",
)
def _check_sequential_phones(ctx: RunContext) -> None:
    trace = ctx.result.trace
    for phone_id in trace.phone_ids():
        spans = sorted(trace.spans_for(phone_id), key=lambda s: s.start_ms)
        for earlier, later in zip(spans, spans[1:]):
            if later.start_ms < earlier.end_ms - TOL_MS:
                raise InvariantViolation(
                    f"phone {phone_id!r} overlaps spans: "
                    f"[{earlier.start_ms}, {earlier.end_ms}] and "
                    f"[{later.start_ms}, {later.end_ms}]"
                )


@run_invariant(
    "conservation",
    "completed + checkpointed + unfinished input equals submitted input",
)
def _check_conservation(ctx: RunContext) -> None:
    trace = ctx.result.trace
    total_input = sum(job.input_kb for job in ctx.jobs)
    completed = sum(c.input_kb for c in trace.completions)
    checkpointed = sum(f.processed_kb for f in trace.failures)
    unfinished = sum(job.input_kb for job in ctx.result.unfinished_jobs)
    accounted = completed + checkpointed + unfinished
    if abs(accounted - total_input) > max(TOL_MS, total_input * 1e-9):
        raise InvariantViolation(
            f"input not conserved: submitted {total_input:.3f} KB but "
            f"accounted {accounted:.3f} KB (completed {completed:.3f} + "
            f"checkpointed {checkpointed:.3f} + unfinished {unfinished:.3f})"
        )


@run_invariant(
    "no-duplicate-credit",
    "no job is credited more input than it submitted (exactly-once credit)",
)
def _check_no_duplicate_credit(ctx: RunContext) -> None:
    trace = ctx.result.trace
    submitted = {job.job_id: job.input_kb for job in ctx.jobs}
    credited: dict[str, float] = {}
    for completion in trace.completions:
        credited[completion.job_id] = (
            credited.get(completion.job_id, 0.0) + completion.input_kb
        )
    for job_id, kb in credited.items():
        if job_id not in submitted:
            raise InvariantViolation(
                f"completion credited unknown job {job_id!r}"
            )
        limit = submitted[job_id]
        if kb > limit + max(TOL_MS, limit * 1e-9):
            raise InvariantViolation(
                f"job {job_id!r} over-credited: {kb:.3f} KB completed "
                f"against {limit:.3f} KB submitted (duplicate credit?)"
            )


@run_invariant(
    "no-zombie-work",
    "a failed phone does no work between failure detection and rejoin",
)
def _check_no_zombie_work(ctx: RunContext) -> None:
    # A phone may legitimately work again after a failure if it rejoined;
    # rejoin instants are recorded in the trace.  Two things must never
    # happen: a span *in flight* across the detection instant that is not
    # marked interrupted, and a span *starting* inside the dark window
    # between a detected failure and the phone's next rejoin.
    trace = ctx.result.trace
    for failure in trace.failures:
        rejoins = trace.rejoin_times_for(failure.phone_id)
        next_rejoin = min(
            (t for t in rejoins if t >= failure.detected_at_ms - TOL_MS),
            default=None,
        )
        for span in trace.spans_for(failure.phone_id):
            crosses = (
                span.start_ms < failure.detected_at_ms - TOL_MS
                and span.end_ms > failure.detected_at_ms + TOL_MS
            )
            if crosses and not span.interrupted:
                raise InvariantViolation(
                    f"phone {failure.phone_id!r} has an uninterrupted span "
                    f"[{span.start_ms}, {span.end_ms}] crossing its failure "
                    f"detection at {failure.detected_at_ms}"
                )
            starts_dark = span.start_ms > failure.detected_at_ms + TOL_MS and (
                next_rejoin is None or span.start_ms < next_rejoin - TOL_MS
            )
            if starts_dark:
                raise InvariantViolation(
                    f"phone {failure.phone_id!r} started a span at "
                    f"{span.start_ms} while dark (failed at "
                    f"{failure.detected_at_ms}, "
                    + (
                        "never rejoined)"
                        if next_rejoin is None
                        else f"rejoined at {next_rejoin})"
                    )
                )


@run_invariant(
    "copy-before-execute",
    "every execution on a phone is preceded by a copy of the same job",
)
def _check_copy_before_execute(ctx: RunContext) -> None:
    from ..sim.trace import SpanKind

    trace = ctx.result.trace
    for phone_id in trace.phone_ids():
        spans = sorted(trace.spans_for(phone_id), key=lambda s: s.start_ms)
        copied_jobs: set[str] = set()
        for span in spans:
            if span.kind is SpanKind.COPY:
                copied_jobs.add(span.job_id)
            elif span.job_id not in copied_jobs:
                raise InvariantViolation(
                    f"phone {phone_id!r} executed job {span.job_id!r} at "
                    f"{span.start_ms} without ever copying it"
                )


@run_invariant(
    "makespan-consistency",
    "reported makespan equals the last span end and bounds every completion",
)
def _check_makespan_consistency(ctx: RunContext) -> None:
    trace = ctx.result.trace
    last_span_end = max((s.end_ms for s in trace.spans), default=0.0)
    reported = ctx.result.measured_makespan_ms
    if abs(reported - last_span_end) > TOL_MS:
        raise InvariantViolation(
            f"reported makespan {reported} ms does not equal the last "
            f"span end {last_span_end} ms"
        )
    for span in trace.spans:
        if span.start_ms < -TOL_MS:
            raise InvariantViolation(
                f"span on phone {span.phone_id!r} starts before t=0 "
                f"({span.start_ms} ms)"
            )
    for completion in trace.completions:
        if completion.time_ms > last_span_end + TOL_MS:
            raise InvariantViolation(
                f"job {completion.job_id!r} completed at "
                f"{completion.time_ms} ms, after the makespan "
                f"{last_span_end} ms"
            )


@run_invariant(
    "interruption-owns-span",
    "every failure naming a job, crash hit and dispatch timeout owns an "
    "interrupted span on its phone that ends at the record's instant",
)
def _check_interruption_owns_span(ctx: RunContext) -> None:
    trace = ctx.result.trace
    records = [
        ("failure", f.phone_id, f.job_id, f.failed_at_ms)
        for f in trace.failures
        if f.job_id is not None
    ]
    records += [
        ("task_crash hit", c.phone_id, None, c.time_ms)
        for c in trace.chaos
        if c.kind == "task_crash" and c.detail == "hit"
    ]
    records += [
        ("timeout", e.phone_id, e.job_id, e.time_ms)
        for e in trace.resilience_events
        if e.kind == "timeout"
    ]
    for what, phone_id, job_id, at_ms in records:
        if not any(
            span.interrupted
            and (job_id is None or span.job_id == job_id)
            and abs(span.end_ms - max(span.start_ms, at_ms)) <= TOL_MS
            for span in trace.spans_for(phone_id)
        ):
            raise InvariantViolation(
                f"{what} on phone {phone_id!r}"
                + (f" (job {job_id!r})" if job_id is not None else "")
                + f" at {at_ms} ms owns no interrupted span ending there"
            )


@run_invariant(
    "rounds-ordered",
    "rounds are indexed 0..n-1 and each drains between its own start and "
    "the next round's; only the last round may be undrained",
)
def _check_rounds_ordered(ctx: RunContext) -> None:
    rounds = ctx.result.rounds
    for position, record in enumerate(rounds):
        if record.round_index != position:
            raise InvariantViolation(
                f"round at position {position} carries index "
                f"{record.round_index}"
            )
        drained = record.drained_at_ms
        is_last = position == len(rounds) - 1
        if drained is None:
            if not is_last:
                raise InvariantViolation(
                    f"round {position} never drained but round "
                    f"{position + 1} started"
                )
            continue
        if drained < record.scheduled_at_ms - TOL_MS:
            raise InvariantViolation(
                f"round {position} drained at {drained} ms, before it "
                f"started at {record.scheduled_at_ms} ms"
            )
        if not is_last:
            next_start = rounds[position + 1].scheduled_at_ms
            if drained > next_start + TOL_MS:
                raise InvariantViolation(
                    f"round {position} drained at {drained} ms, after "
                    f"round {position + 1} started at {next_start} ms"
                )


def _normalized_spans(ctx: RunContext):
    """``ctx.spans`` as :class:`~repro.obs.tracing.TraceSpan` objects.

    Accepts both span objects and plain dicts (the checkpoint / export
    form); a dict failing schema validation is itself an invariant
    violation, surfaced by the caller.
    """
    from ..obs.tracing import SpanSchemaError, TraceSpan

    spans = []
    for entry in ctx.spans:
        if isinstance(entry, TraceSpan):
            spans.append(entry)
        else:
            try:
                spans.append(TraceSpan.from_dict(entry))
            except SpanSchemaError as exc:
                raise InvariantViolation(f"malformed span: {exc}") from exc
    return spans


@run_invariant(
    "span-tree",
    "the tracer's spans form a well-formed forest: unique ids, every "
    "parent recorded and older than its child, no open spans left",
)
def _check_span_tree(ctx: RunContext) -> None:
    if ctx.spans is None:
        return
    spans = _normalized_spans(ctx)
    by_id: dict[int, Any] = {}
    for span in spans:
        if span.span_id in by_id:
            raise InvariantViolation(
                f"duplicate span id {span.span_id} "
                f"({by_id[span.span_id].name!r} and {span.name!r})"
            )
        by_id[span.span_id] = span
    for span in spans:
        if span.parent_id is None:
            continue
        parent = by_id.get(span.parent_id)
        if parent is None:
            raise InvariantViolation(
                f"span {span.span_id} ({span.name!r}) references missing "
                f"parent {span.parent_id} — the store was ring-bounded or "
                f"a span was never closed"
            )
        # Ids are allocated monotonically and a parent is always opened
        # (or adopted) before its children, so parent_id < span_id; a
        # violation means the links were rewired after recording.  It
        # also rules out cycles.
        if span.parent_id >= span.span_id:
            raise InvariantViolation(
                f"span {span.span_id} ({span.name!r}) has parent "
                f"{span.parent_id} with a newer or equal id"
            )


@run_invariant(
    "span-nesting",
    "every child span's interval lies inside its parent's, on the wall "
    "clock always and on the sim clock when both carry sim times",
)
def _check_span_nesting(ctx: RunContext) -> None:
    if ctx.spans is None:
        return
    spans = _normalized_spans(ctx)
    by_id = {span.span_id: span for span in spans}
    wall_tol = 1e-9
    for span in spans:
        if span.parent_id is None:
            continue
        parent = by_id.get(span.parent_id)
        if parent is None:
            continue  # span-tree reports the broken link
        if (
            span.start_wall_s < parent.start_wall_s - wall_tol
            or span.end_wall_s > parent.end_wall_s + wall_tol
        ):
            raise InvariantViolation(
                f"span {span.span_id} ({span.name!r}) wall interval "
                f"[{span.start_wall_s:.6f}, {span.end_wall_s:.6f}] escapes "
                f"its parent {parent.span_id} ({parent.name!r}) "
                f"[{parent.start_wall_s:.6f}, {parent.end_wall_s:.6f}]"
            )
        if (
            span.start_sim_ms is not None
            and span.end_sim_ms is not None
            and parent.start_sim_ms is not None
            and parent.end_sim_ms is not None
        ):
            if (
                span.start_sim_ms < parent.start_sim_ms - TOL_MS
                or span.end_sim_ms > parent.end_sim_ms + TOL_MS
            ):
                raise InvariantViolation(
                    f"span {span.span_id} ({span.name!r}) sim interval "
                    f"[{span.start_sim_ms}, {span.end_sim_ms}] escapes its "
                    f"parent {parent.span_id} ({parent.name!r}) "
                    f"[{parent.start_sim_ms}, {parent.end_sim_ms}]"
                )


# ---------------------------------------------------------------------------
# schedule-scope invariants
# ---------------------------------------------------------------------------


@schedule_invariant(
    "coverage",
    "every job's input is fully assigned; atomic jobs stay whole",
)
def _check_coverage(ctx: ScheduleContext) -> None:
    from ..core.schedule import InfeasibleScheduleError

    try:
        ctx.schedule.validate(ctx.instance)
    except InfeasibleScheduleError as exc:
        raise InvariantViolation(f"schedule invalid: {exc}") from exc


@schedule_invariant(
    "capacity-soundness",
    "no phone's predicted finish exceeds the converged capacity",
)
def _check_capacity_soundness(ctx: ScheduleContext) -> None:
    if ctx.capacity_ms is None or ctx.capacity_ms <= 0:
        return
    budget = ctx.capacity_ms + max(TOL_MS, ctx.capacity_ms * 1e-9)
    for phone in ctx.instance.phones:
        finish = ctx.schedule.predicted_finish_ms(ctx.instance, phone.phone_id)
        if finish > budget:
            raise InvariantViolation(
                f"phone {phone.phone_id!r} is predicted to finish at "
                f"{finish:.6f} ms, above the converged capacity "
                f"{ctx.capacity_ms:.6f} ms"
            )


@schedule_invariant(
    "makespan-prediction",
    "the recorded predicted makespan matches a recomputation from costs",
)
def _check_makespan_prediction(ctx: ScheduleContext) -> None:
    if ctx.predicted_makespan_ms is None:
        return
    recomputed = ctx.schedule.predicted_makespan_ms(ctx.instance)
    tol = max(TOL_MS, abs(recomputed) * 1e-9)
    if abs(recomputed - ctx.predicted_makespan_ms) > tol:
        raise InvariantViolation(
            f"recorded predicted makespan {ctx.predicted_makespan_ms} ms "
            f"does not match the recomputed {recomputed} ms"
        )


@schedule_invariant(
    "lp-sandwich",
    "lp lower bound <= predicted makespan <= greedy upper bound",
)
def _check_lp_sandwich(ctx: ScheduleContext) -> None:
    makespan = ctx.schedule.predicted_makespan_ms(ctx.instance)
    if ctx.lower_bound_ms is not None:
        tol = max(TOL_MS, abs(makespan) * 1e-6)
        if makespan < ctx.lower_bound_ms - tol:
            raise InvariantViolation(
                f"predicted makespan {makespan:.6f} ms undercuts the LP "
                f"lower bound {ctx.lower_bound_ms:.6f} ms"
            )
    if ctx.upper_bound_ms is not None:
        tol = max(TOL_MS, abs(ctx.upper_bound_ms) * 1e-9)
        if makespan > ctx.upper_bound_ms + tol:
            raise InvariantViolation(
                f"predicted makespan {makespan:.6f} ms exceeds the greedy "
                f"upper bound {ctx.upper_bound_ms:.6f} ms"
            )

"""Simulated CWC central server (Sections 5 and 6), chaos-hardened.

:class:`CentralServer` drives a complete CWC run on the event loop:

1. at a scheduling instant it builds a
   :class:`~repro.core.instance.SchedulingInstance` from the currently
   plugged-in phones and the jobs awaiting scheduling, and asks its
   scheduler for a :class:`~repro.core.schedule.Schedule`;
2. per phone it runs the dispatch pipeline — *the next assigned task is
   copied only after the phone completes executing its last assigned
   task* — paying the executable-shipping cost once per (phone, job);
3. completions carry the measured local execution time, which is folded
   into the runtime predictor (Section 4.1's online refinement);
4. failures follow Section 5: online failures checkpoint the partially
   processed partition immediately; offline failures are detected by
   the keep-alive monitor and lose the in-flight partition's progress.
   Failed work accumulates in the failed-task list ``F_A`` and is
   rescheduled together with any newly arrived jobs at the *next*
   scheduling instant — which in this simulation is when every
   surviving phone has drained its queue.

Beyond the paper, the server can defend a chaos-injected fleet
(:mod:`repro.sim.chaos`).  With a :class:`~repro.sim.chaos.ResiliencePolicy`:

* **dispatch timeouts** — any copy/execute running longer than ``k``
  times its expected duration is aborted and retried with exponential
  backoff, up to a bounded retry budget; exhausted partitions fall back
  to ``F_A`` for next-round rescheduling;
* **straggler detection + speculation** — an execution running longer
  than ``k`` times its *predicted* time is flagged; a speculative
  backup copy is dispatched to an idle phone, the first result wins
  and the loser is cancelled;
* **result verification** — each completed partition is optionally
  re-executed on a second phone; matching payloads are credited once,
  mismatches are quarantined (both copies discarded, partition retried).

Every partition is *credited exactly once* regardless of how many
speculative or verification copies ran, so the trace conservation
invariant (:mod:`repro.sim.validation`) holds under arbitrary chaos.

The simulation is exact in the cost model's terms: copies take
``kb × b_i`` (true ``b_i``), executions take ``kb × c_ij`` (true
``c_ij`` from :class:`~repro.sim.entities.FleetGroundTruth`, times the
phone's throttling slowdown and any chaos straggler factor).  The
*scheduler* sees only measured ``b_i`` and predicted ``c_ij``, so
prediction error, learning, and load imbalance all play out exactly as
on the paper's testbed.
"""

from __future__ import annotations

import enum
import hashlib
import json
import time
import weakref
from collections import deque
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from ..core.instance import SchedulingInstance
from ..core.migration import Checkpoint, FailedTaskList
from ..core.model import Job, PhoneSpec
from ..core.prediction import RuntimePredictor
from ..core.schedule import Assignment, Schedule
from ..obs.telemetry import NULL_TELEMETRY, Telemetry
from .chaos import ChaosPlan, ResiliencePolicy
from .engine import EventLoop, EventToken
from .entities import FleetGroundTruth, PhoneRuntime, PhoneState
from .failures import FailurePlan, PlannedFailure
from .keepalive import DEFAULT_PERIOD_MS, DEFAULT_TOLERATED_MISSES, KeepAliveMonitor
from .trace import (
    ChaosRecord,
    CompletionRecord,
    FailureRecord,
    ResilienceEvent,
    Span,
    SpanKind,
    TimelineTrace,
)

if TYPE_CHECKING:
    from ..core.capacity import CapacitySearchResult

__all__ = ["CentralServer", "RunResult", "RoundRecord"]


@dataclass(frozen=True)
class RoundRecord:
    """One scheduling round: the instant, the schedule, its prediction."""

    round_index: int
    scheduled_at_ms: float
    schedule: Schedule
    predicted_makespan_ms: float
    rescheduled: bool
    job_ids: tuple[str, ...]
    #: Sim instant the round's last outstanding partition resolved;
    #: ``None`` only for a round that never drained (a killed run).
    drained_at_ms: float | None = None
    #: Wall-clock time the scheduler spent producing this round's
    #: schedule (real time, not simulated time).
    scheduling_wall_ms: float = 0.0
    #: The scheduler's own ``last_result`` for this round (a capacity
    #: or sharded search result), or ``None`` for schedulers that
    #: expose no diagnostics.
    search: CapacitySearchResult | None = None
    #: Scheduling policy that produced this round ("" for schedulers
    #: that expose no name).
    policy: str = ""
    #: The round's scheduling instance, retained only when the server is
    #: constructed with ``record_instances=True`` (the verify oracle's
    #: tap); ``None`` otherwise to keep :class:`RunResult` light.
    instance: SchedulingInstance | None = None

    @property
    def capacity_ms(self) -> float:
        """Capacity the search converged to (0.0 without a search)."""
        return self.search.capacity_ms if self.search is not None else 0.0

    @property
    def kernel(self) -> str:
        """Packing backend the search resolved to ("" without one)."""
        return self.search.kernel if self.search is not None else ""

    @property
    def warm_started(self) -> bool:
        """Whether a verified warm hint steered this round's search."""
        return self.search is not None and self.search.warm_start_used

    @property
    def pods(self) -> int:
        """Pods solved this round (1 unless a sharded round split)."""
        return getattr(self.search, "pods", 1)

    @property
    def shard_bound_ratio(self) -> float:
        """Sharded makespan over its floor (0.0 unless sharded)."""
        return getattr(self.search, "shard_bound_ratio", 0.0)


@dataclass
class RunResult:
    """Everything a simulated run produced."""

    trace: TimelineTrace
    rounds: list[RoundRecord]
    unfinished_jobs: tuple[Job, ...] = ()

    @property
    def measured_makespan_ms(self) -> float:
        return self.trace.makespan_ms()

    @property
    def predicted_makespan_ms(self) -> float:
        """Prediction for the first round (what Fig. 12a compares)."""
        return self.rounds[0].predicted_makespan_ms if self.rounds else 0.0

    @property
    def reschedule_overhead_ms(self) -> float:
        return self.trace.reschedule_overhead_ms()


class _Role(enum.Enum):
    """Why a partition copy is running on a phone."""

    PRIMARY = "primary"    # the scheduled (or retried) dispatch
    BACKUP = "backup"      # speculative duplicate of a straggler
    VERIFY = "verify"      # duplicate execution for result verification


@dataclass
class _Instance:
    """One logical partition in flight (credited exactly once).

    ``runners`` tracks the phones currently holding a primary or backup
    copy; verification duplicates are tracked via ``pending_verify``.
    """

    assignment: Assignment
    attempt: int = 0
    runners: dict[str, "_WorkItem"] = field(default_factory=dict)
    completed: bool = False
    abandoned: bool = False
    speculated: bool = False
    pending_verify: bool = False
    primary_data: "_CompletionData | None" = None

    @property
    def resolved(self) -> bool:
        return self.completed or self.abandoned


@dataclass
class _WorkItem:
    """One dispatchable copy of a partition, bound to its instance."""

    instance: _Instance
    role: _Role

    @property
    def redundant(self) -> bool:
        return self.role is not _Role.PRIMARY


@dataclass(frozen=True)
class _CompletionData:
    """A finished execution held back until verification resolves."""

    phone_id: str
    time_ms: float
    local_execution_ms: float
    rescheduled: bool
    payload: object


@dataclass
class _Operation:
    item: _WorkItem
    kind: SpanKind
    start_ms: float
    duration_ms: float
    token: EventToken
    includes_executable: bool
    timeout_token: EventToken | None = None
    watchdog_token: EventToken | None = None

    @property
    def assignment(self) -> Assignment:
        return self.item.instance.assignment


@dataclass
class _Pipeline:
    runtime: PhoneRuntime
    queue: deque[_WorkItem] = field(default_factory=deque)
    shipped_jobs: set[str] = field(default_factory=set)
    current: _Operation | None = None
    rescheduled: bool = False
    #: True failure instant for silent failures (the server learns of the
    #: failure only at keep-alive detection time, but the trace records
    #: the actual moment work stopped).
    failed_at_ms: float | None = None
    #: Number of injected result corruptions not yet consumed.
    corrupt_pending: int = 0

    @property
    def phone_id(self) -> str:
        return self.runtime.phone_id


def _true_payload(assignment: Assignment) -> tuple:
    """The (deterministic) correct result token for a partition."""
    return ("ok", assignment.job_id, assignment.task, round(assignment.input_kb, 9))


class CentralServer:
    """Event-driven simulation of the CWC central server.

    Parameters
    ----------
    phones:
        The fleet.
    truth:
        Ground-truth execution rates (what actually happens).
    predictor:
        The scheduler's runtime predictor (what the server believes);
        it is updated in place as completions report measured times.
    scheduler:
        Any :class:`~repro.core.greedy.Scheduler`.
    measured_b_ms_per_kb:
        Per-phone ``b_i`` as measured by the bandwidth test — the values
        the scheduler uses.
    true_b_ms_per_kb:
        Actual transfer rates; defaults to the measured values.
    failure_plan:
        Unplug failures to inject (default: none).
    chaos:
        A :class:`~repro.sim.chaos.ChaosPlan` of timed faults; its
        unplug stream is merged with ``failure_plan``.
    resilience:
        A :class:`~repro.sim.chaos.ResiliencePolicy`; the default
        disables every defence (paper-faithful behaviour).
    compute_slowdown:
        Per-phone execution-time multiplier (MIMD throttling penalty).
    on_result:
        Optional callback ``(job_id, task, phone_id, input_kb, payload)``
        invoked for every credited partition — the aggregation hook.
    on_round:
        Optional callback ``(server, round_index)`` invoked at every
        scheduling instant, *before* the round's schedule is computed.
        Round boundaries are the consistent snapshot points (no
        partition is in flight), so this is where the durability layer
        saves checkpoints — and, in crash drills, where it raises to
        kill the run mid-flight.  Exceptions propagate out of
        :meth:`run`.
    telemetry:
        An optional :class:`~repro.obs.telemetry.Telemetry` facade.  When
        armed, fleet-level samplers (phone utilisation, queue depth,
        outstanding dispatches, capacity probe counts) are driven from
        the server's event hooks and dispatches are counted live.  Every
        other run metric (completions, failures, chaos faults,
        resilience actions, round latencies, the scheduler's search
        counters) is derived from the run record at run end
        (:meth:`_record_metrics`).  One facade instruments exactly one
        run.  Defaults to the zero-overhead disabled facade.
    """

    def __init__(
        self,
        phones: Iterable[PhoneSpec],
        truth: FleetGroundTruth,
        predictor: RuntimePredictor,
        scheduler,
        measured_b_ms_per_kb: Mapping[str, float],
        *,
        true_b_ms_per_kb: Mapping[str, float] | None = None,
        failure_plan: FailurePlan | None = None,
        chaos: ChaosPlan | None = None,
        resilience: ResiliencePolicy | None = None,
        compute_slowdown: Mapping[str, float] | None = None,
        keepalive_period_ms: float = DEFAULT_PERIOD_MS,
        keepalive_tolerated_misses: int = DEFAULT_TOLERATED_MISSES,
        max_rounds: int = 20,
        on_result: Callable[[str, str, str, float, object], None] | None = None,
        on_round: Callable[["CentralServer", int], None] | None = None,
        telemetry: Telemetry | None = None,
        record_instances: bool = False,
    ) -> None:
        self._phones = tuple(phones)
        if not self._phones:
            raise ValueError("need at least one phone")
        self._truth = truth
        self._predictor = predictor
        self._scheduler = scheduler
        self._measured_b = dict(measured_b_ms_per_kb)
        self._true_b = dict(true_b_ms_per_kb or self._measured_b)
        for phone in self._phones:
            if phone.phone_id not in self._measured_b:
                raise ValueError(f"missing measured b_i for {phone.phone_id!r}")
            self._true_b.setdefault(
                phone.phone_id, self._measured_b[phone.phone_id]
            )
        self._chaos = chaos or ChaosPlan.none()
        merged = self._chaos.failures
        if failure_plan is not None:
            merged = merged.merged(failure_plan)
        self._failure_plan = merged
        self._policy = resilience or ResiliencePolicy()
        self._slowdown = dict(compute_slowdown or {})
        self._keepalive_period_ms = keepalive_period_ms
        self._keepalive_misses = keepalive_tolerated_misses
        self._max_rounds = max_rounds
        self._on_result = on_result
        self._on_round = on_round
        self._tel = telemetry if telemetry is not None else NULL_TELEMETRY
        self._record_instances = record_instances

        # Per-run state, initialised in run().
        self._loop: EventLoop | None = None
        self._trace: TimelineTrace | None = None
        self._pipelines: dict[str, _Pipeline] = {}
        self._monitors: dict[str, KeepAliveMonitor] = {}
        self._failed = FailedTaskList()
        self._jobs_by_id: dict[str, Job] = {}
        self._outstanding = 0
        self._rounds: list[RoundRecord] = []
        self._waiting_jobs: list[Job] = []
        self._round_active = False
        self._round_index = 0
        self._corruption_seq = 0
        self._samplers_installed = False
        self._probes_parked = False
        # Flight-recorder state (None whenever tracing is disarmed).
        self._tracer = None
        self._run_span = None
        self._round_span = None

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def run(
        self,
        jobs: Iterable[Job],
        *,
        arrivals: Iterable[tuple[float, Job]] = (),
    ) -> RunResult:
        """Simulate a complete run of ``jobs`` (plus later arrivals)."""
        jobs = tuple(jobs)
        if not jobs:
            raise ValueError("need at least one job")

        loop = EventLoop(telemetry=self._tel)
        self._loop = loop
        self._trace = TimelineTrace()
        self._failed = FailedTaskList()
        self._rounds = []
        self._waiting_jobs = []
        self._outstanding = 0
        self._round_active = False
        self._round_index = 0
        self._jobs_by_id = {}
        self._corruption_seq = 0
        self._probes_parked = False

        self._pipelines = {
            phone.phone_id: _Pipeline(
                runtime=PhoneRuntime(
                    spec=phone,
                    true_b_ms_per_kb=self._true_b[phone.phone_id],
                    compute_slowdown=self._slowdown.get(phone.phone_id, 1.0),
                    compute_schedule=self._chaos.compute_schedule(
                        phone.phone_id
                    ),
                    bandwidth_schedule=self._chaos.bandwidth_schedule(
                        phone.phone_id
                    ),
                )
            )
            for phone in self._phones
        }
        self._monitors = {}
        for phone in self._phones:
            self._start_monitor(phone.phone_id)

        tel = self._tel
        tracer = tel.tracer if tel.enabled else None
        self._tracer = tracer
        self._run_span = None
        self._round_span = None
        if tel.enabled:
            self._install_samplers()
        if tracer is not None:
            self._run_span = tracer.start(
                "run",
                category="sim",
                sim_time_ms=loop.now_ms,
                phones=len(self._phones),
                jobs=len(jobs),
            )

        try:
            try:
                self._inject_chaos(loop)

                for time_ms, job in arrivals:
                    loop.schedule_at(time_ms, self._make_arrival_action(job))

                self._begin_round(tuple(jobs), rescheduled=False)
                loop.run()
            finally:
                self._collect_certificates()
        except BaseException:
            # A crash hook (durability drill) or a sim bug killed the
            # run mid-flight: close every in-flight span so the store
            # holds only finished, checkpointable segments, then lay
            # out the ops the timeline recorded before the kill.
            if tracer is not None:
                tracer.abort_open(
                    status="interrupted", sim_time_ms=loop.now_ms
                )
                self._record_fleet_lanes(tracer)
                self._run_span = None
                self._round_span = None
            self._record_metrics()
            raise

        for monitor in self._monitors.values():
            monitor.stop()

        unfinished = self._failed.drain()
        if tracer is not None:
            if self._round_span is not None:
                tracer.end(
                    self._round_span,
                    sim_time_ms=loop.now_ms,
                    status="interrupted",
                )
                self._round_span = None
            self._record_fleet_lanes(tracer)
            tracer.end(
                self._run_span,
                sim_time_ms=loop.now_ms,
                makespan_ms=self._trace.makespan_ms(),
                rounds=self._round_index,
                unfinished_jobs=len(unfinished),
            )
            self._run_span = None
        self._record_metrics()
        tel.sample_now(loop.now_ms)
        return RunResult(
            trace=self._trace,
            rounds=self._rounds,
            unfinished_jobs=unfinished,
        )

    def _collect_certificates(self) -> None:
        """Wait for every round's deferred certificate (a pooled pod LP).

        A sharded round returns its schedule before its LP floor is in;
        collecting here keeps the LP work inside the run, completes the
        run's round records and leaves no pool process behind.  The
        worker's ``lp_certify`` span is adopted under the run span: it
        outlives its round's span.  Every round is collected even when
        one raises; the first exception then propagates.
        """
        error = None
        for record in self._rounds:
            collect = getattr(record.search, "collect_certificate", None)
            if collect is None:
                continue
            try:
                collect(trace_parent=self._run_span)
            except Exception as exc:
                error = error or exc
        if error is not None:
            raise error

    # ------------------------------------------------------------------
    # durable state capture
    # ------------------------------------------------------------------

    def capture_state(self) -> dict:
        """JSON-safe snapshot of the server's full dynamic state.

        Intended at round boundaries (the ``on_round`` hook), where no
        partition is in flight and the state is consistent: queues and
        ``F_A``, the predictor's learned estimates, the scheduler's
        warm-start cache, per-pipeline runtime state, keep-alive monitor
        state (including parked probes), the engine clock plus the
        timing skeleton of its pending events, and a digest of the trace
        so far.  Two deterministic replays of the same inputs capture
        byte-identical state at the same round — the property the
        durability layer's restore verification rests on.
        """
        assert self._loop is not None and self._trace is not None
        from ..core.serialize import job_to_dict

        scheduler_state = None
        warm = getattr(self._scheduler, "warm_state", None)
        if callable(warm):
            scheduler_state = warm()
        trace_json = json.dumps(
            self._trace.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return {
            "now_ms": self._loop.now_ms,
            "round_index": self._round_index,
            "outstanding": self._outstanding,
            "round_active": self._round_active,
            "probes_parked": self._probes_parked,
            "corruption_seq": self._corruption_seq,
            "waiting_jobs": [job_to_dict(job) for job in self._waiting_jobs],
            "jobs_seen": sorted(self._jobs_by_id),
            "failed": self._failed.state(),
            "predictor_learned": {
                f"{phone_id}␟{task}": value
                for (phone_id, task), value in sorted(
                    self._predictor.learned_pairs().items()
                )
            },
            "scheduler": scheduler_state,
            "pipelines": {
                phone_id: {
                    "state": pipeline.runtime.state.value,
                    "shipped_jobs": sorted(pipeline.shipped_jobs),
                    "queue_len": len(pipeline.queue),
                    "busy": pipeline.current is not None,
                    "rescheduled": pipeline.rescheduled,
                    "failed_at_ms": pipeline.failed_at_ms,
                    "corrupt_pending": pipeline.corrupt_pending,
                }
                for phone_id, pipeline in sorted(self._pipelines.items())
            },
            "monitors": {
                phone_id: monitor.state()
                for phone_id, monitor in sorted(self._monitors.items())
            },
            "pending_events": [
                [time_ms, seq]
                for time_ms, seq in self._loop.pending_signature()
            ],
            "trace_counts": {
                "spans": len(self._trace.spans),
                "failures": len(self._trace.failures),
                "completions": len(self._trace.completions),
                "chaos": len(self._trace.chaos),
                "resilience_events": len(self._trace.resilience_events),
            },
            "trace_sha256": hashlib.sha256(
                trace_json.encode("utf-8")
            ).hexdigest(),
        }

    # ------------------------------------------------------------------
    # telemetry plumbing
    # ------------------------------------------------------------------

    def _install_samplers(self) -> None:
        """Register the fleet-level probes on the telemetry sampler set.

        Probes read live server state through ``self``, so they always
        see the current run; a facade is expected to instrument exactly
        one run (the sim clock restarting at zero would otherwise move
        the series backwards).
        """
        if self._samplers_installed:
            return
        self._samplers_installed = True
        samplers = self._tel.samplers
        assert samplers is not None
        # The caller's facade keeps these probes after the run; holding
        # the server weakly leaves no cycle to keep a finished run alive.
        server = weakref.proxy(self)

        def fleet_utilisation() -> float:
            pipelines = server._pipelines
            busy = sum(1 for p in pipelines.values() if p.current is not None)
            return busy / len(pipelines) if pipelines else 0.0

        samplers.add_probe("fleet_utilisation", fleet_utilisation)
        samplers.add_probe(
            "fleet_available_phones",
            lambda: float(
                sum(
                    1
                    for p in server._pipelines.values()
                    if p.runtime.available
                )
            ),
        )
        samplers.add_probe(
            "server_queue_depth",
            lambda: float(
                sum(len(p.queue) for p in server._pipelines.values())
            ),
        )
        samplers.add_probe(
            "outstanding_dispatches", lambda: float(server._outstanding)
        )
        stats = getattr(self._scheduler, "stats", None)
        if stats is not None:
            samplers.add_probe(
                "capacity_probe_packs",
                lambda: float(getattr(stats, "packer_passes", 0)),
            )
        samplers.add_multi_probe(
            "phone_busy",
            lambda: {
                phone_id: (1.0 if pipe.current is not None else 0.0)
                for phone_id, pipe in server._pipelines.items()
            },
        )

    def _close_op(
        self,
        pipeline: _Pipeline,
        op: _Operation,
        *,
        end_ms: float,
        interrupted: bool = False,
    ) -> None:
        """Close one pipeline op: the single place a finished op is recorded.

        Builds the op's :class:`Span` once (ending at ``end_ms``, never
        before the op started) and appends it to the timeline trace,
        which every run metric, the oracle, the crash-restore digest
        and the tracer's ``fleet/<phone>`` lanes read.
        """
        assert self._loop is not None and self._trace is not None
        assignment = op.assignment
        span = Span(
            phone_id=pipeline.phone_id,
            job_id=assignment.job_id,
            kind=op.kind,
            start_ms=op.start_ms,
            end_ms=max(op.start_ms, end_ms),
            input_kb=assignment.input_kb,
            rescheduled=pipeline.rescheduled,
            interrupted=interrupted,
            speculative=op.item.redundant,
        )
        now = self._loop.now_ms
        self._trace.add_span(span, at_ms=now)
        self._tel.maybe_sample(now)

    def _record_fleet_lanes(self, tracer) -> None:
        """Derive the ``fleet/<phone>`` tracer lanes from the timeline.

        Called once, at run end (or at a kill), with every round
        closed.  Each timeline span becomes one ``copy`` or
        ``execute`` tracer span with the same sim interval, interrupted
        exactly when the timeline span is.  It parents on the latest
        round that started at or before the op and ended no earlier
        than the op did, else on the run root: an op on a silently
        failed phone can outlive its round by any number of scheduling
        instants.  The lanes carry no wall time of their own; each span
        is stamped at its parent's start.
        """
        assert self._trace is not None
        run_id = self._run_span.span_id
        rounds = [
            s for s in tracer.spans
            if s.name == "round" and s.parent_id == run_id
        ]
        for span in self._trace.spans:
            parent = next(
                (
                    r for r in reversed(rounds)
                    if r.start_sim_ms <= span.start_ms
                    and r.end_sim_ms >= span.end_ms
                ),
                self._run_span,
            )
            tracer.adopt(
                [
                    {
                        "span_id": 1,
                        "parent_id": None,
                        "name": span.kind.value,
                        "category": "fleet",
                        "process": f"fleet/{span.phone_id}",
                        "start_wall_s": parent.start_wall_s,
                        "end_wall_s": parent.start_wall_s,
                        "start_sim_ms": span.start_ms,
                        "end_sim_ms": span.end_ms,
                        "status": "interrupted" if span.interrupted else "ok",
                        "attrs": {
                            "job_id": span.job_id,
                            "task": self._jobs_by_id[span.job_id].task,
                            "input_kb": span.input_kb,
                        },
                    }
                ],
                parent=parent,
            )

    def _record_metrics(self) -> None:
        """Derive the registry's run metrics from the rounds and timeline.

        Called once, at run end or at a kill, like
        :meth:`_record_fleet_lanes`: every fact counted here is already
        in the run record, so the registry is a view of it.  A sharded
        round counts each of its assembled pod searches, so pooled and
        serial pods give the same counts.
        """
        tel = self._tel
        if not tel.enabled:
            return
        registry, trace = tel.registry, self._trace
        for chaos in trace.chaos:
            registry.inc("chaos_faults_total", kind=chaos.kind)
        for failure in trace.failures:
            online = "true" if failure.online else "false"
            registry.inc("failures_total", online=online)
        for span in trace.spans:
            registry.observe(
                "span_duration_ms", span.duration_ms, kind=span.kind.value
            )
        for completion in trace.completions:
            registry.inc("completions_total")
            registry.observe(
                "local_execution_ms", completion.local_execution_ms, kind="execute"
            )
        for event in trace.resilience_events:
            registry.inc("resilience_events_total", kind=event.kind)
        for record in self._rounds:
            registry.inc("scheduler_rounds_total")
            registry.inc("scheduler_jobs_total", float(len(record.job_ids)))
            registry.observe("scheduling_wall_ms", record.scheduling_wall_ms)
            if record.drained_at_ms is not None:
                latency = record.drained_at_ms - record.scheduled_at_ms
                registry.observe("round_latency_ms", latency)
            search = record.search
            if search is None:
                continue
            registry.set_gauge("schedule_last_capacity_ms", search.capacity_ms)
            pod_reports = getattr(search, "pod_reports", ())
            for part in pod_reports or (search,):
                registry.inc("capacity_searches_total", kernel=part.kernel)
                for name, value in (
                    ("capacity_bisection_steps_total", part.bisection_steps),
                    ("capacity_shortcircuit_skips_total", part.shortcircuit_skips),
                    ("capacity_assumed_feasible_total", part.assumed_feasible),
                ):
                    registry.inc(name, float(value))
                if part.warm_start_used:
                    registry.inc("capacity_warm_start_hits_total")
                registry.observe(
                    "capacity_packs_per_search", float(part.packer_passes)
                )
            if not pod_reports:
                continue
            for report in pod_reports:
                pod = str(report.index)
                jobs = len({row[1] for row in report.assignments})
                registry.observe("pod_solve_ms", report.wall_ms, pod=pod)
                registry.observe("pod_capacity_ms", report.capacity_ms, pod=pod)
                registry.inc("pod_jobs_total", float(jobs), pod=pod)
            registry.set_gauge("shard_pods", float(search.pods))
            moves = float(search.rebalance_moves)
            registry.inc("shard_rebalance_moves_total", moves)
            registry.set_gauge("shard_bound_ratio", search.shard_bound_ratio)

    def _record_chaos(self, record: ChaosRecord) -> None:
        """Append a chaos ground-truth record."""
        assert self._loop is not None and self._trace is not None
        self._trace.add_chaos(record, at_ms=self._loop.now_ms)

    def _record_failure(self, record: FailureRecord) -> None:
        """Append a failure as the server detected it."""
        assert self._trace is not None
        self._trace.add_failure(record, at_ms=record.detected_at_ms)
        self._tel.maybe_sample(record.detected_at_ms)

    def _drain_round(self) -> None:
        """Close the active round: stamp its drain instant on its record."""
        assert self._loop is not None
        now = self._loop.now_ms
        self._round_active = False
        self._rounds[-1] = replace(self._rounds[-1], drained_at_ms=now)
        if self._tracer is not None and self._round_span is not None:
            self._tracer.end(self._round_span, sim_time_ms=now)
            self._round_span = None
        self._tel.maybe_sample(now)

    # ------------------------------------------------------------------
    # chaos wiring
    # ------------------------------------------------------------------

    def _inject_chaos(self, loop: EventLoop) -> None:
        """Schedule every planned fault and record the ground truth."""
        assert self._trace is not None
        for failure in self._failure_plan:
            if failure.phone_id not in self._pipelines:
                raise ValueError(
                    f"failure plan names unknown phone {failure.phone_id!r}"
                )
            self._record_chaos(
                ChaosRecord(
                    kind="unplug",
                    phone_id=failure.phone_id,
                    time_ms=failure.time_ms,
                    detail=(
                        ("online" if failure.online else "offline")
                        + (
                            f", rejoin after {failure.rejoin_after_ms:.0f} ms"
                            if failure.rejoin_after_ms is not None
                            else ", terminal"
                        )
                    ),
                )
            )
            loop.schedule_at(
                failure.time_ms, self._make_failure_action(failure)
            )
        for slow in self._chaos.slowdowns:
            self._require_phone(slow.phone_id)
            self._record_chaos(
                ChaosRecord(
                    kind="cpu_slowdown",
                    phone_id=slow.phone_id,
                    time_ms=slow.start_ms,
                    detail=f"x{slow.factor:g} until "
                    + ("end" if slow.end_ms is None else f"{slow.end_ms:.0f} ms"),
                )
            )
        for degradation in self._chaos.bandwidth:
            self._require_phone(degradation.phone_id)
            self._record_chaos(
                ChaosRecord(
                    kind="bandwidth_degraded",
                    phone_id=degradation.phone_id,
                    time_ms=degradation.start_ms,
                    detail=f"x{degradation.factor:g} until "
                    + (
                        "end"
                        if degradation.end_ms is None
                        else f"{degradation.end_ms:.0f} ms"
                    ),
                )
            )
        for crash in self._chaos.crashes:
            self._require_phone(crash.phone_id)
            loop.schedule_at(crash.time_ms, self._make_crash_action(crash))
        for corruption in self._chaos.corruptions:
            self._require_phone(corruption.phone_id)
            loop.schedule_at(
                corruption.time_ms, self._make_corruption_action(corruption)
            )

    def _require_phone(self, phone_id: str) -> None:
        if phone_id not in self._pipelines:
            raise ValueError(f"chaos plan names unknown phone {phone_id!r}")

    def _make_crash_action(self, crash):
        def action() -> None:
            assert self._trace is not None
            pipeline = self._pipelines[crash.phone_id]
            hit = (
                pipeline.runtime.available and pipeline.current is not None
            )
            self._record_chaos(
                ChaosRecord(
                    kind="task_crash",
                    phone_id=crash.phone_id,
                    time_ms=crash.time_ms,
                    detail="hit" if hit else "no-op",
                )
            )
            if hit:
                self._abort_current(pipeline, cause="crash")

        return action

    def _make_corruption_action(self, corruption):
        def action() -> None:
            assert self._trace is not None
            pipeline = self._pipelines[corruption.phone_id]
            pipeline.corrupt_pending += 1
            self._record_chaos(
                ChaosRecord(
                    kind="corrupt_result",
                    phone_id=corruption.phone_id,
                    time_ms=corruption.time_ms,
                    detail="next completed execution lies",
                )
            )

        return action

    # ------------------------------------------------------------------
    # scheduling rounds
    # ------------------------------------------------------------------

    def _available_phones(self) -> tuple[PhoneSpec, ...]:
        return tuple(
            pipe.runtime.spec
            for pipe in self._pipelines.values()
            if pipe.runtime.available
        )

    def _begin_round(self, jobs: tuple[Job, ...], *, rescheduled: bool) -> None:
        assert self._loop is not None and self._trace is not None
        if self._on_round is not None:
            self._on_round(self, self._round_index)
        if self._probes_parked:
            self._resume_parked_probes()
        phones = self._available_phones()
        if not phones:
            # No capacity left; jobs stay failed/unfinished.
            for job in jobs:
                self._failed.record_offline_failure(job, job.input_kb)
            return

        for job in jobs:
            self._jobs_by_id[job.job_id] = job

        instance = SchedulingInstance.build(
            jobs, phones, self._measured_b, self._predictor
        )
        tracer = self._tracer
        if tracer is not None:
            self._round_span = tracer.start(
                "round",
                category="sim",
                parent=self._run_span,
                sim_time_ms=self._loop.now_ms,
                round_index=self._round_index,
                jobs=len(jobs),
                phones=len(phones),
                rescheduled=rescheduled,
            )
        started = time.perf_counter()
        if tracer is not None:
            # Make the round the stack parent so a scheduler sharing
            # this telemetry nests its schedule/capacity spans under it.
            with tracer.as_current(self._round_span):
                schedule = self._scheduler.schedule(instance)
        else:
            schedule = self._scheduler.schedule(instance)
        scheduling_wall_ms = (time.perf_counter() - started) * 1000.0
        schedule.validate(instance)
        search = getattr(self._scheduler, "last_result", None)
        self._rounds.append(
            RoundRecord(
                round_index=self._round_index,
                scheduled_at_ms=self._loop.now_ms,
                schedule=schedule,
                predicted_makespan_ms=schedule.predicted_makespan_ms(instance),
                rescheduled=rescheduled,
                job_ids=tuple(job.job_id for job in jobs),
                scheduling_wall_ms=scheduling_wall_ms,
                search=search,
                policy=getattr(self._scheduler, "name", ""),
                instance=instance if self._record_instances else None,
            )
        )
        self._round_index += 1
        self._round_active = True

        for phone_id, pipeline in self._pipelines.items():
            for assignment in schedule.for_phone(phone_id):
                task_instance = _Instance(assignment=assignment)
                item = _WorkItem(instance=task_instance, role=_Role.PRIMARY)
                task_instance.runners[phone_id] = item
                pipeline.queue.append(item)
                self._outstanding += 1
            pipeline.rescheduled = rescheduled

        for pipeline in self._pipelines.values():
            if pipeline.current is None and pipeline.queue:
                self._start_next(pipeline)

        if self._outstanding == 0:
            self._drain_round()

    def _maybe_end_round(self) -> None:
        """Called whenever outstanding work may have hit zero."""
        if self._outstanding > 0 or not self._round_active:
            return
        self._drain_round()
        assert self._loop is not None
        self._loop.schedule_after(0.0, self._next_scheduling_instant)

    def _next_scheduling_instant(self) -> None:
        if self._round_active:
            return
        retry = self._failed.drain()
        waiting = tuple(self._waiting_jobs)
        self._waiting_jobs = []
        combined = tuple(retry) + waiting
        if not combined:
            # Run complete: stop the keep-alive probes so the event loop
            # can drain (a real server would keep probing; the simulation
            # has nothing left to observe).
            self._stop_all_monitors()
            return
        if self._round_index >= self._max_rounds:
            for job in combined:
                self._failed.record_offline_failure(job, job.input_kb)
            self._stop_all_monitors()
            return
        self._begin_round(combined, rescheduled=True)

    def _stop_all_monitors(self) -> None:
        # Remember that probing was parked: a later arrival restarts
        # scheduling, and work dispatched without keep-alive coverage
        # would make offline failures undetectable (lost input).
        self._probes_parked = True
        for monitor in self._monitors.values():
            monitor.stop()

    def _resume_parked_probes(self) -> None:
        """Restart keep-alive probing for phones the fleet can still use.

        Phones in a handled failure state keep their monitors stopped;
        the rejoin path restarts those itself.
        """
        self._probes_parked = False
        for phone_id, pipeline in self._pipelines.items():
            if not pipeline.runtime.available:
                continue
            monitor = self._monitors.get(phone_id)
            if monitor is not None:
                monitor.reset()
                monitor.start()
            else:
                self._start_monitor(phone_id)

    def _make_arrival_action(self, job: Job):
        def action() -> None:
            self._waiting_jobs.append(job)
            if not self._round_active:
                self._next_scheduling_instant()

        return action

    # ------------------------------------------------------------------
    # dispatch pipeline
    # ------------------------------------------------------------------

    def _start_next(self, pipeline: _Pipeline) -> None:
        assert self._loop is not None
        if not pipeline.runtime.available or pipeline.current is not None:
            return
        # Skip items whose partition was already credited or abandoned
        # while queued (a speculation race resolved, for instance).
        while pipeline.queue and pipeline.queue[0].instance.resolved:
            stale = pipeline.queue.popleft()
            stale.instance.runners.pop(pipeline.phone_id, None)
        if not pipeline.queue:
            pipeline.runtime.state = PhoneState.IDLE
            return
        item = pipeline.queue.popleft()
        assignment = item.instance.assignment
        job = self._jobs_by_id[assignment.job_id]
        includes_exe = assignment.job_id not in pipeline.shipped_jobs
        copy_kb = assignment.input_kb + (job.executable_kb if includes_exe else 0.0)
        now = self._loop.now_ms
        duration = pipeline.runtime.copy_time_ms(copy_kb, at_ms=now)
        pipeline.runtime.state = PhoneState.COPYING
        token = self._loop.schedule_after(
            duration, lambda: self._finish_copy(pipeline)
        )
        op = _Operation(
            item=item,
            kind=SpanKind.COPY,
            start_ms=now,
            duration_ms=duration,
            token=token,
            includes_executable=includes_exe,
        )
        pipeline.current = op
        tel = self._tel
        if tel.enabled:
            tel.inc("dispatches_total", role=item.role.value)
            tel.maybe_sample(now)
        expected = copy_kb * self._measured_b[pipeline.phone_id]
        self._arm_timeout(pipeline, op, expected_ms=expected)

    def _finish_copy(self, pipeline: _Pipeline) -> None:
        assert self._loop is not None and self._trace is not None
        op = pipeline.current
        assert op is not None and op.kind is SpanKind.COPY
        item = op.item
        assignment = op.assignment
        now = self._loop.now_ms
        self._cancel_guard_tokens(op)
        self._close_op(pipeline, op, end_ms=now)
        pipeline.shipped_jobs.add(assignment.job_id)
        duration = pipeline.runtime.execute_time_ms(
            self._truth, assignment.task, assignment.input_kb, at_ms=now
        )
        pipeline.runtime.state = PhoneState.EXECUTING
        token = self._loop.schedule_after(
            duration, lambda: self._finish_execute(pipeline)
        )
        execute_op = _Operation(
            item=item,
            kind=SpanKind.EXECUTE,
            start_ms=now,
            duration_ms=duration,
            token=token,
            includes_executable=False,
        )
        pipeline.current = execute_op
        predicted = (
            self._predictor.predict_ms_per_kb(
                pipeline.runtime.spec, assignment.task
            )
            * assignment.input_kb
        )
        self._arm_timeout(pipeline, execute_op, expected_ms=predicted)
        self._arm_straggler_watchdog(pipeline, execute_op, predicted_ms=predicted)

    def _finish_execute(self, pipeline: _Pipeline) -> None:
        assert self._loop is not None and self._trace is not None
        op = pipeline.current
        assert op is not None and op.kind is SpanKind.EXECUTE
        item = op.item
        instance = item.instance
        assignment = op.assignment
        now = self._loop.now_ms
        self._cancel_guard_tokens(op)
        self._close_op(pipeline, op, end_ms=now)
        # The phone reports the measured local execution time; the server
        # refines its per-KB prediction for this (phone, task) pair.
        if assignment.input_kb > 0 and op.duration_ms > 0:
            self._predictor.observe(
                pipeline.runtime.spec,
                assignment.task,
                op.duration_ms / assignment.input_kb,
            )
        payload = self._make_payload(pipeline, assignment)
        pipeline.current = None

        if item.role is _Role.VERIFY:
            self._finish_verify(pipeline, instance, payload)
        else:
            self._finish_primary_or_backup(pipeline, op, payload)
        self._start_next(pipeline)
        self._maybe_end_round()

    def _finish_primary_or_backup(
        self, pipeline: _Pipeline, op: _Operation, payload: object
    ) -> None:
        assert self._loop is not None
        item = op.item
        instance = item.instance
        now = self._loop.now_ms
        if instance.resolved:
            return
        instance.runners.pop(pipeline.phone_id, None)
        # First result wins: cancel any rival primary/backup copies.
        for rival_phone, rival_item in list(instance.runners.items()):
            self._cancel_runner(rival_phone, rival_item)
        instance.runners.clear()
        if item.role is _Role.BACKUP:
            self._note("speculation_won", pipeline.phone_id, instance)
        elif instance.speculated:
            self._note("primary_won", pipeline.phone_id, instance)
        data = _CompletionData(
            phone_id=pipeline.phone_id,
            time_ms=now,
            local_execution_ms=op.duration_ms,
            rescheduled=pipeline.rescheduled,
            payload=payload,
        )
        if self._policy.verify_results:
            verifier = self._pick_dispatch_phone(exclude={pipeline.phone_id})
            if verifier is not None:
                instance.primary_data = data
                instance.pending_verify = True
                verify_item = _WorkItem(instance=instance, role=_Role.VERIFY)
                verifier.queue.append(verify_item)
                self._note("verify_launched", verifier.phone_id, instance)
                if verifier.current is None:
                    self._start_next(verifier)
                return
            self._note("verify_skipped", pipeline.phone_id, instance)
        self._credit(instance, data)

    def _finish_verify(
        self, pipeline: _Pipeline, instance: _Instance, payload: object
    ) -> None:
        assert self._loop is not None
        instance.pending_verify = False
        if instance.resolved:
            return
        primary = instance.primary_data
        assert primary is not None
        if payload == primary.payload:
            self._note("verify_ok", pipeline.phone_id, instance)
            self._credit(instance, primary)
            return
        self._note(
            "verify_mismatch",
            pipeline.phone_id,
            instance,
            detail=f"duplicate on {pipeline.phone_id} disagrees with "
            f"{primary.phone_id}",
        )
        instance.primary_data = None
        instance.attempt += 1
        if instance.attempt > self._policy.max_retries:
            self._quarantine(instance)
            return
        target = self._pick_dispatch_phone()
        if target is None:
            self._quarantine(instance)
            return
        self._note("retry", target.phone_id, instance, detail="after mismatch")
        retry_item = _WorkItem(instance=instance, role=_Role.PRIMARY)
        instance.runners[target.phone_id] = retry_item
        target.queue.append(retry_item)
        if target.current is None:
            self._start_next(target)

    def _quarantine(self, instance: _Instance) -> None:
        assert self._loop is not None
        assignment = instance.assignment
        job = self._jobs_by_id[assignment.job_id]
        self._failed.record_quarantined(job, assignment.input_kb)
        instance.abandoned = True
        self._outstanding -= 1
        self._note("quarantined", "", instance)

    def _credit(self, instance: _Instance, data: _CompletionData) -> None:
        """Credit a partition exactly once and release its slot."""
        assert self._loop is not None and self._trace is not None
        assignment = instance.assignment
        instance.completed = True
        instance.pending_verify = False
        # The credit instant can lag the completion's own time_ms (a
        # verification duplicate holds the primary result back), so the
        # trace order check uses the arrival clock explicitly.
        now = self._loop.now_ms
        self._trace.add_completion(
            CompletionRecord(
                phone_id=data.phone_id,
                job_id=assignment.job_id,
                time_ms=data.time_ms,
                input_kb=assignment.input_kb,
                local_execution_ms=data.local_execution_ms,
                rescheduled=data.rescheduled,
            ),
            at_ms=now,
        )
        self._tel.maybe_sample(now)
        if self._on_result is not None:
            self._on_result(
                assignment.job_id,
                assignment.task,
                data.phone_id,
                assignment.input_kb,
                data.payload,
            )
        self._outstanding -= 1

    def _make_payload(
        self, pipeline: _Pipeline, assignment: Assignment
    ) -> tuple:
        if pipeline.corrupt_pending > 0:
            pipeline.corrupt_pending -= 1
            self._corruption_seq += 1
            return (
                "corrupt",
                pipeline.phone_id,
                assignment.job_id,
                self._corruption_seq,
            )
        return _true_payload(assignment)

    # ------------------------------------------------------------------
    # resilience: timeouts, stragglers, speculation
    # ------------------------------------------------------------------

    def _note(
        self,
        kind: str,
        phone_id: str,
        instance: _Instance | None = None,
        *,
        detail: str = "",
    ) -> None:
        assert self._loop is not None and self._trace is not None
        now = self._loop.now_ms
        job_id = instance.assignment.job_id if instance is not None else None
        self._trace.add_resilience_event(
            ResilienceEvent(
                kind=kind,
                phone_id=phone_id,
                time_ms=now,
                job_id=job_id,
                detail=detail,
            ),
            at_ms=now,
        )

    def _cancel_guard_tokens(self, op: _Operation) -> None:
        if op.timeout_token is not None:
            op.timeout_token.cancel()
            op.timeout_token = None
        if op.watchdog_token is not None:
            op.watchdog_token.cancel()
            op.watchdog_token = None

    def _arm_timeout(
        self, pipeline: _Pipeline, op: _Operation, *, expected_ms: float
    ) -> None:
        factor = self._policy.dispatch_timeout_factor
        if factor is None or expected_ms <= 0:
            return
        assert self._loop is not None
        op.timeout_token = self._loop.schedule_after(
            factor * expected_ms, lambda: self._on_timeout(pipeline, op)
        )

    def _arm_straggler_watchdog(
        self, pipeline: _Pipeline, op: _Operation, *, predicted_ms: float
    ) -> None:
        factor = self._policy.straggler_factor
        if factor is None or predicted_ms <= 0:
            return
        if op.item.role is _Role.VERIFY:
            return
        assert self._loop is not None
        op.watchdog_token = self._loop.schedule_after(
            factor * predicted_ms, lambda: self._on_straggler(pipeline, op)
        )

    def _on_timeout(self, pipeline: _Pipeline, op: _Operation) -> None:
        if not pipeline.runtime.available or pipeline.current is not op:
            return
        if op.item.instance.resolved:
            return
        self._note(
            "timeout",
            pipeline.phone_id,
            op.item.instance,
            detail=f"{op.kind.value} exceeded its dispatch timeout",
        )
        self._abort_current(pipeline, cause="timeout")

    def _on_straggler(self, pipeline: _Pipeline, op: _Operation) -> None:
        if not pipeline.runtime.available or pipeline.current is not op:
            return
        instance = op.item.instance
        if instance.resolved:
            return
        self._note(
            "straggler_detected",
            pipeline.phone_id,
            instance,
            detail=f"running > {self._policy.straggler_factor:g}x prediction",
        )
        if not self._policy.speculate or instance.speculated:
            return
        backup = self._pick_idle_phone(exclude=set(instance.runners))
        if backup is None:
            return
        instance.speculated = True
        backup_item = _WorkItem(instance=instance, role=_Role.BACKUP)
        instance.runners[backup.phone_id] = backup_item
        backup.queue.append(backup_item)
        self._note("speculation_launched", backup.phone_id, instance)
        if backup.current is None:
            self._start_next(backup)

    def _abort_current(self, pipeline: _Pipeline, *, cause: str) -> None:
        """Cancel the in-flight op (crash/timeout) and retry or give up."""
        assert self._loop is not None and self._trace is not None
        op = pipeline.current
        if op is None:
            return
        item = op.item
        instance = item.instance
        now = self._loop.now_ms
        op.token.cancel()
        self._cancel_guard_tokens(op)
        self._close_op(pipeline, op, end_ms=now, interrupted=True)
        pipeline.current = None
        if item.role is _Role.VERIFY:
            # Verification lost its duplicate: credit the held-back
            # primary result rather than stall the partition.
            if not instance.resolved and instance.primary_data is not None:
                self._note("verify_abandoned", pipeline.phone_id, instance)
                self._credit(instance, instance.primary_data)
        else:
            instance.runners.pop(pipeline.phone_id, None)
            if instance.resolved or instance.runners:
                pass  # a rival copy is still racing; nothing lost
            else:
                self._retry_or_give_up(instance, cause=cause)
        self._start_next(pipeline)
        self._maybe_end_round()

    def _retry_or_give_up(self, instance: _Instance, *, cause: str) -> None:
        assert self._loop is not None
        instance.attempt += 1
        assignment = instance.assignment
        job = self._jobs_by_id[assignment.job_id]
        if instance.attempt > self._policy.max_retries:
            if cause == "crash":
                self._failed.record_crashed(job, assignment.input_kb)
            else:
                self._failed.record_offline_failure(job, assignment.input_kb)
            instance.abandoned = True
            self._outstanding -= 1
            self._note("gave_up", "", instance, detail=f"after {cause}")
            return
        backoff = self._policy.retry_backoff_ms * (
            self._policy.backoff_multiplier ** (instance.attempt - 1)
        )
        self._note("retry", "", instance, detail=f"{cause}, backoff {backoff:g} ms")
        wait_span = None
        tracer = self._tracer
        if tracer is not None:
            parent = self._round_span
            if parent is None or parent.closed:
                parent = self._run_span
            wait_span = tracer.start(
                "retry_backoff",
                category="fleet",
                parent=parent,
                sim_time_ms=self._loop.now_ms,
                job_id=assignment.job_id,
                task=assignment.task,
                attempt=instance.attempt,
                cause=cause,
                backoff_ms=backoff,
            )
        self._loop.schedule_after(
            backoff, lambda: self._requeue_after_backoff(instance, wait_span)
        )

    def _requeue_after_backoff(
        self, instance: _Instance, wait_span=None
    ) -> None:
        if wait_span is not None and not wait_span.closed:
            self._tracer.end(wait_span, sim_time_ms=self._loop.now_ms)
        if instance.resolved:
            return
        target = self._pick_dispatch_phone()
        if target is None:
            assignment = instance.assignment
            job = self._jobs_by_id[assignment.job_id]
            self._failed.record_offline_failure(job, assignment.input_kb)
            instance.abandoned = True
            self._outstanding -= 1
            self._note("gave_up", "", instance, detail="no phone available")
            self._maybe_end_round()
            return
        retry_item = _WorkItem(instance=instance, role=_Role.PRIMARY)
        instance.runners[target.phone_id] = retry_item
        target.queue.append(retry_item)
        if target.current is None:
            self._start_next(target)

    def _pick_idle_phone(self, *, exclude: set[str]) -> _Pipeline | None:
        """First fully idle phone, in fleet order (deterministic)."""
        for phone in self._phones:
            pipeline = self._pipelines[phone.phone_id]
            if phone.phone_id in exclude:
                continue
            if not pipeline.runtime.available:
                continue
            if pipeline.current is None and not pipeline.queue:
                return pipeline
        return None

    def _pick_dispatch_phone(
        self, *, exclude: set[str] | None = None
    ) -> _Pipeline | None:
        """Least-loaded available phone, ties broken by fleet order."""
        exclude = exclude or set()
        best: _Pipeline | None = None
        best_load = -1
        for phone in self._phones:
            pipeline = self._pipelines[phone.phone_id]
            if phone.phone_id in exclude or not pipeline.runtime.available:
                continue
            load = len(pipeline.queue) + (1 if pipeline.current else 0)
            if best is None or load < best_load:
                best = pipeline
                best_load = load
        return best

    def _cancel_runner(self, phone_id: str, item: _WorkItem) -> None:
        """Withdraw a rival copy (it lost the speculation race)."""
        assert self._loop is not None and self._trace is not None
        pipeline = self._pipelines[phone_id]
        op = pipeline.current
        if op is not None and op.item is item:
            op.token.cancel()
            self._cancel_guard_tokens(op)
            end = self._loop.now_ms
            if pipeline.failed_at_ms is not None:
                end = min(end, pipeline.failed_at_ms)
            self._close_op(pipeline, op, end_ms=end, interrupted=True)
            pipeline.current = None
            self._start_next(pipeline)
        else:
            try:
                pipeline.queue.remove(item)
            except ValueError:
                pass

    # ------------------------------------------------------------------
    # failures
    # ------------------------------------------------------------------

    def _make_failure_action(self, failure: PlannedFailure):
        def action() -> None:
            pipeline = self._pipelines[failure.phone_id]
            if not pipeline.runtime.available:
                return  # already failed
            if failure.online:
                self._fail_online(pipeline)
            else:
                self._fail_offline(pipeline)
            if failure.rejoin_after_ms is not None:
                assert self._loop is not None
                self._loop.schedule_after(
                    failure.rejoin_after_ms,
                    lambda: self._rejoin(pipeline),
                )

        return action

    def _rejoin(self, pipeline: _Pipeline) -> None:
        """A failed phone re-enters the fleet (Section 5's re-entry case).

        New work reaches it only at the *next scheduling instant* — in-
        flight rounds are not re-planned — but a silent failure whose
        keep-alive detection had not yet fired resumes its own queue:
        connectivity was restored before the server ever marked the
        phone failed, so the in-flight partition simply restarts.
        """
        assert self._loop is not None and self._trace is not None
        if pipeline.runtime.available:
            return
        interrupted = pipeline.current
        pipeline.current = None
        pipeline.runtime.state = PhoneState.IDLE
        if interrupted is not None:
            # Offline failure, not yet detected: record the lost span
            # and restart the partition from scratch.
            self._cancel_guard_tokens(interrupted)
            failed_at = (
                pipeline.failed_at_ms
                if pipeline.failed_at_ms is not None
                else interrupted.start_ms
            )
            self._close_op(
                pipeline, interrupted, end_ms=failed_at, interrupted=True
            )
            # Restarting means re-copying the input (the phone-side
            # runtime lost its state); the executable is still on disk.
            pipeline.queue.appendleft(interrupted.item)
        pipeline.failed_at_ms = None
        self._note("rejoin", pipeline.phone_id)
        # The monitor is stale (stopped or mid-miss-count): reset it to a
        # clean probe cycle rather than constructing a replacement.
        monitor = self._monitors.get(pipeline.phone_id)
        if monitor is not None:
            monitor.reset()
            monitor.start()
        else:
            self._start_monitor(pipeline.phone_id)
        if pipeline.queue:
            self._start_next(pipeline)
        elif not self._round_active:
            self._next_scheduling_instant()

    def _fail_online(self, pipeline: _Pipeline) -> None:
        """Clean unplug: the phone checkpoints and reports immediately."""
        assert self._loop is not None and self._trace is not None
        now = self._loop.now_ms
        failed_job_id: str | None = None
        processed_kb = 0.0
        op = pipeline.current
        if op is not None:
            item = op.item
            instance = item.instance
            op.token.cancel()
            self._cancel_guard_tokens(op)
            if op.kind is SpanKind.EXECUTE and op.duration_ms > 0:
                fraction = min(1.0, (now - op.start_ms) / op.duration_ms)
                processed_kb = fraction * instance.assignment.input_kb
            self._close_op(pipeline, op, end_ms=now, interrupted=True)
            pipeline.current = None
            failed_job_id = instance.assignment.job_id
            if item.role is _Role.VERIFY:
                self._resolve_verify_loss(pipeline, instance)
                processed_kb = 0.0
            else:
                instance.runners.pop(pipeline.phone_id, None)
                if instance.resolved or instance.runners:
                    # A rival copy survives; nothing is lost, so the
                    # phone has nothing worth checkpointing.
                    processed_kb = 0.0
                else:
                    job = self._jobs_by_id[instance.assignment.job_id]
                    checkpoint = Checkpoint(
                        job_id=instance.assignment.job_id,
                        task=instance.assignment.task,
                        phone_id=pipeline.phone_id,
                        partition_kb=instance.assignment.input_kb,
                        processed_kb=processed_kb,
                        partial_result=None,
                        time_ms=now,
                    )
                    self._failed.record_online_failure(job, checkpoint)
                    instance.abandoned = True
                    self._outstanding -= 1
        self._drain_queue_on_loss(pipeline, online=True)
        pipeline.runtime.state = PhoneState.UNPLUGGED
        self._monitors[pipeline.phone_id].stop()
        self._record_failure(
            FailureRecord(
                phone_id=pipeline.phone_id,
                failed_at_ms=now,
                detected_at_ms=now,
                online=True,
                job_id=failed_job_id,
                processed_kb=processed_kb,
            )
        )
        self._maybe_end_round()

    def _fail_offline(self, pipeline: _Pipeline) -> None:
        """Silent failure: the phone vanishes; keep-alives will notice."""
        assert self._loop is not None
        op = pipeline.current
        if op is not None:
            # The phone is gone; its in-flight operation never completes.
            op.token.cancel()
            self._cancel_guard_tokens(op)
        pipeline.failed_at_ms = self._loop.now_ms
        pipeline.runtime.state = PhoneState.OFFLINE
        # Detection (and F_A bookkeeping) happens in _on_offline_detected,
        # fired by the keep-alive monitor.

    def _resolve_verify_loss(
        self, pipeline: _Pipeline, instance: _Instance
    ) -> None:
        """A verification duplicate died; credit the held-back result."""
        instance.pending_verify = False
        if not instance.resolved and instance.primary_data is not None:
            self._note("verify_abandoned", pipeline.phone_id, instance)
            self._credit(instance, instance.primary_data)

    def _drain_queue_on_loss(self, pipeline: _Pipeline, *, online: bool) -> None:
        """Re-enqueue everything the failed phone never started."""
        while pipeline.queue:
            item = pipeline.queue.popleft()
            instance = item.instance
            if item.role is _Role.VERIFY:
                self._resolve_verify_loss(pipeline, instance)
                continue
            instance.runners.pop(pipeline.phone_id, None)
            if instance.resolved or instance.runners:
                continue
            job = self._jobs_by_id[instance.assignment.job_id]
            self._failed.record_pending(job, instance.assignment.input_kb)
            instance.abandoned = True
            self._outstanding -= 1

    def _start_monitor(self, phone_id: str) -> None:
        pipeline = self._pipelines[phone_id]

        # ``_monitors`` outlives the run; reaching the server through a
        # weak proxy leaves no cycle, so a finished run is freed as soon
        # as its last reference goes.
        server = weakref.proxy(self)

        def is_responsive() -> bool:
            return pipeline.runtime.state is not PhoneState.OFFLINE

        def on_detect(detected_at_ms: float) -> None:
            server._on_offline_detected(pipeline, detected_at_ms)

        assert self._loop is not None
        monitor = KeepAliveMonitor(
            self._loop,
            phone_id,
            is_responsive=is_responsive,
            on_detect=on_detect,
            period_ms=self._keepalive_period_ms,
            tolerated_misses=self._keepalive_misses,
        )
        monitor.start()
        self._monitors[phone_id] = monitor

    def _on_offline_detected(
        self, pipeline: _Pipeline, detected_at_ms: float
    ) -> None:
        assert self._trace is not None
        failed_job_id: str | None = None
        op = pipeline.current
        if op is not None:
            item = op.item
            instance = item.instance
            # Record the truncated span up to the true failure instant
            # (the server only learns of it now); progress is lost.
            failed_at = pipeline.failed_at_ms
            if failed_at is None:
                failed_at = min(detected_at_ms, op.start_ms + op.duration_ms)
            self._close_op(pipeline, op, end_ms=failed_at, interrupted=True)
            pipeline.current = None
            failed_job_id = instance.assignment.job_id
            if item.role is _Role.VERIFY:
                self._resolve_verify_loss(pipeline, instance)
            else:
                instance.runners.pop(pipeline.phone_id, None)
                if not (instance.resolved or instance.runners):
                    job = self._jobs_by_id[instance.assignment.job_id]
                    self._failed.record_offline_failure(
                        job, instance.assignment.input_kb
                    )
                    instance.abandoned = True
                    self._outstanding -= 1
        self._drain_queue_on_loss(pipeline, online=False)
        failed_at = (
            pipeline.failed_at_ms
            if pipeline.failed_at_ms is not None
            else detected_at_ms
        )
        self._record_failure(
            FailureRecord(
                phone_id=pipeline.phone_id,
                failed_at_ms=failed_at,
                detected_at_ms=detected_at_ms,
                online=False,
                job_id=failed_job_id,
                processed_kb=0.0,
            )
        )
        self._maybe_end_round()

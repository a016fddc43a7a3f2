"""Multi-night campaigns: CWC as an ongoing service.

The paper evaluates single runs; an enterprise would operate CWC every
night — re-measuring bandwidth before scheduling (Section 3.1's
periodic measurement), carrying the runtime predictor's learned
estimates forward (Section 4.1), sampling that night's unplug failures
from the charging-behaviour profiles (Figure 3), and rolling any work
that could not finish into the next night's queue.

:class:`ContinuousCampaign` is that service: one
:class:`~repro.sim.server.CentralServer` run per charging window, fed
by a Poisson arrival stream over a churning fleet, with the whole
campaign state checkpointed at every night boundary so a killed run
resumes byte-identically.  :func:`capacity_planning_report` turns its
result into the enterprise question — does this fleet keep up?

Replaying a fixed list of job batches needs no engine: call
``CentralServer.run`` once per night with the same predictor (see
``examples/it_log_audit.py``).
"""

from __future__ import annotations

import dataclasses
import random
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from ..core.model import Job, PhoneSpec
from ..core.prediction import RuntimePredictor
from ..core.serialize import (
    job_from_dict,
    job_to_dict,
    phone_from_dict,
    phone_to_dict,
)
from ..durability.snapshot import (
    SnapshotStore,
    rng_state_from_json,
    rng_state_to_json,
    stable_seed,
)
from ..netmodel.links import WirelessLink
from ..netmodel.measurement import measure_fleet
from ..obs.telemetry import NULL_TELEMETRY, Telemetry
from ..workloads.arrivals import PoissonArrivalStream
from .churn import FleetChurnModel
from .entities import FleetGroundTruth
from .failures import RandomUnplugModel
from .server import CentralServer

if TYPE_CHECKING:
    from ..core.policies import SchedulerConfig

__all__ = [
    "CAMPAIGN_SNAPSHOT_KIND",
    "ContinuousCampaign",
    "ContinuousCampaignResult",
    "ContinuousNightRecord",
    "capacity_planning_report",
]

MS_PER_DAY = 24.0 * 3_600_000.0

#: Scheduler settings a resumed campaign must share with its
#: checkpoint; the rest (kernel, warm start, pool size) never change a
#: schedule.
_RESUME_PINNED_FIELDS = ("policy", "pods")

#: Snapshot kind for night-boundary campaign checkpoints.
CAMPAIGN_SNAPSHOT_KIND = "campaign-night"


@dataclass(frozen=True)
class ContinuousNightRecord:
    """Summary of one night of continuous operation."""

    night_index: int
    fleet_size: int
    joined: int
    departed: int
    jobs_submitted: int
    jobs_carried_over: int
    arrivals_in_window: int
    arrivals_deferred: int
    #: Jobs that entered the night's server and finished (job-level).
    jobs_completed: int
    #: Partition-completion records in the night's trace.
    completions: int
    failures: int
    predicted_makespan_ms: float
    measured_makespan_ms: float
    unfinished: int
    idle: bool = False

    @property
    def prediction_error(self) -> float:
        if self.measured_makespan_ms == 0:
            return 0.0
        return (
            abs(self.predicted_makespan_ms - self.measured_makespan_ms)
            / self.measured_makespan_ms
        )

    def to_dict(self) -> dict:
        return {
            "night_index": self.night_index,
            "fleet_size": self.fleet_size,
            "joined": self.joined,
            "departed": self.departed,
            "jobs_submitted": self.jobs_submitted,
            "jobs_carried_over": self.jobs_carried_over,
            "arrivals_in_window": self.arrivals_in_window,
            "arrivals_deferred": self.arrivals_deferred,
            "jobs_completed": self.jobs_completed,
            "completions": self.completions,
            "failures": self.failures,
            "predicted_makespan_ms": self.predicted_makespan_ms,
            "measured_makespan_ms": self.measured_makespan_ms,
            "unfinished": self.unfinished,
            "idle": self.idle,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ContinuousNightRecord":
        return cls(**{f.name: data[f.name] for f in dataclasses.fields(cls)})


@dataclass
class ContinuousCampaignResult:
    """Outcome of a (possibly resumed) continuous campaign."""

    nights: list[ContinuousNightRecord]
    final_backlog: tuple[Job, ...]
    #: Arrivals stamped past the last simulated window, still queued.
    pending_arrivals: int = 0
    #: Night index the run resumed from, None for a fresh run.
    resumed_from_night: int | None = None
    checkpoints: int = 0

    @property
    def total_submitted(self) -> int:
        return sum(n.jobs_submitted for n in self.nights)

    @property
    def total_jobs_completed(self) -> int:
        return sum(n.jobs_completed for n in self.nights)

    @property
    def total_completions(self) -> int:
        return sum(n.completions for n in self.nights)

    @property
    def total_failures(self) -> int:
        return sum(n.failures for n in self.nights)

    @property
    def peak_carryover(self) -> int:
        return max((n.jobs_carried_over for n in self.nights), default=0)

    def to_dict(self) -> dict:
        return {
            "nights": [n.to_dict() for n in self.nights],
            "final_backlog": [job.job_id for job in self.final_backlog],
            "pending_arrivals": self.pending_arrivals,
            "resumed_from_night": self.resumed_from_night,
            "checkpoints": self.checkpoints,
            "total_submitted": self.total_submitted,
            "total_jobs_completed": self.total_jobs_completed,
            "total_completions": self.total_completions,
            "total_failures": self.total_failures,
        }


def capacity_planning_report(
    result: ContinuousCampaignResult, *, window_hours: float
) -> dict:
    """Can this fleet absorb this workload night after night?

    Per night: window utilisation (makespan over the charging window)
    and the backlog flow.  Aggregate: throughput, mean utilisation, and
    a ``keeps_up`` verdict — the backlog must not grow across the
    campaign (the enterprise question: do we have enough phones, or do
    jobs pile up faster than charging windows retire them?).
    """
    if window_hours <= 0:
        raise ValueError("window_hours must be > 0")
    window_ms = window_hours * 3_600_000.0
    rows = []
    for night in result.nights:
        rows.append(
            {
                "night": night.night_index,
                "fleet_size": night.fleet_size,
                "joined": night.joined,
                "departed": night.departed,
                "submitted": night.jobs_submitted,
                "carried_over": night.jobs_carried_over,
                "jobs_completed": night.jobs_completed,
                "failures": night.failures,
                "unfinished": night.unfinished,
                "makespan_h": round(night.measured_makespan_ms / 3_600_000.0, 3),
                "window_utilization": round(
                    night.measured_makespan_ms / window_ms, 4
                ),
            }
        )
    active = [n for n in result.nights if not n.idle]
    mean_util = (
        sum(r["window_utilization"] for r in rows) / len(rows) if rows else 0.0
    )
    backlog_trend = (
        result.nights[-1].unfinished - result.nights[0].unfinished
        if result.nights
        else 0
    )
    return {
        "nights": len(result.nights),
        "active_nights": len(active),
        "window_hours": window_hours,
        "rows": rows,
        "total_submitted": result.total_submitted,
        "total_jobs_completed": result.total_jobs_completed,
        "total_failures": result.total_failures,
        "final_backlog": len(result.final_backlog),
        "pending_arrivals": result.pending_arrivals,
        "peak_carryover": result.peak_carryover,
        "mean_window_utilization": round(mean_util, 4),
        "throughput_jobs_per_night": round(
            result.total_jobs_completed / len(result.nights), 3
        )
        if result.nights
        else 0.0,
        "backlog_trend": backlog_trend,
        "keeps_up": len(result.final_backlog) == 0 or backlog_trend <= 0,
    }


class ContinuousCampaign:
    """True multi-night continuous operation with durable state.

    This models the *service*: jobs arrive from a single Poisson
    stream chained across nights
    (:class:`~repro.workloads.arrivals.PoissonArrivalStream`), the
    fleet churns between nights (enrollments, departures, habit drift —
    :class:`~repro.sim.churn.FleetChurnModel`), bandwidth is re-derived
    per night from per-(phone, night) link seeds, and after every night
    the full campaign state — backlog, deferred arrivals, predictor
    memory, scheduler warm cache, churned fleet, drifted unplug
    profile, every RNG position — is checkpointed to a
    :class:`~repro.durability.snapshot.SnapshotStore`.

    ``run(nights, resume=True)`` restores the latest checkpoint and
    continues; because every random draw flows through checkpointed
    state, a killed-and-resumed campaign produces *exactly* the night
    records the uninterrupted one would have, and no backlog or
    deferred arrival is ever lost across the boundary.

    ``scheduler`` (a :class:`~repro.core.policies.SchedulerConfig`;
    default: warm-started ``cwc-greedy``) picks the scheduler.  Every
    checkpoint records it, and resuming under a different policy, pod
    count or pod splitter raises ``ValueError`` instead of silently
    continuing as a different run.

    Everything a night consumes is derived from ``seed`` plus
    checkpointed state, so the campaign needs no live objects in its
    constructor — which is also what makes it resumable from a fresh
    process.
    """

    def __init__(
        self,
        *,
        seed: int = 2012,
        jobs_per_night: int = 12,
        arrival_rate_per_hour: float = 40.0,
        window_start_hour: float = 22.0,
        window_hours: float = 6.0,
        churn: FleetChurnModel | None = None,
        hourly_unplug: Sequence[float] | None = None,
        online_fraction: float = 0.9,
        rejoin_probability: float = 0.35,
        scheduler: SchedulerConfig | None = None,
        deviation_sigma: float = 0.03,
        max_rounds_per_night: int = 40,
        checkpoint_dir: str | Path | None = None,
        keep_snapshots: int | None = 14,
        telemetry: Telemetry | None = None,
    ) -> None:
        if jobs_per_night < 0:
            raise ValueError("jobs_per_night must be >= 0")
        if window_hours <= 0:
            raise ValueError("window_hours must be > 0")
        if window_hours > 24:
            raise ValueError("window_hours must be <= 24 (one night per day)")
        if max_rounds_per_night < 1:
            raise ValueError(
                f"max_rounds_per_night must be >= 1, got {max_rounds_per_night!r}"
            )
        if keep_snapshots is not None and keep_snapshots < 1:
            raise ValueError(
                f"keep_snapshots must be >= 1 or None, got {keep_snapshots!r}"
            )
        # Lazy: ``core.greedy`` itself imports the obs facade, whose
        # package import reaches back into ``sim.campaign`` — a
        # module-level import here would be circular.
        from ..core.policies import SchedulerConfig
        from ..workloads.mixes import (
            evaluation_workload,
            paper_task_profiles,
        )

        self._seed = seed
        self._jobs_per_night = jobs_per_night
        self._rate = arrival_rate_per_hour
        self._start_hour = window_start_hour
        self._window_hours = window_hours
        self._churn = churn
        self._online_fraction = online_fraction
        self._rejoin_probability = rejoin_probability
        self._max_rounds = max_rounds_per_night
        self._keep_snapshots = keep_snapshots
        if hourly_unplug is None:
            # Figure 3's shape: quiet during the charging night, busy
            # during the day.
            hourly_unplug = [
                0.03 if h in (22, 23, 0, 1, 2, 3, 4) else 0.12
                for h in range(24)
            ]
        self._hourly0 = [float(p) for p in hourly_unplug]
        # Every night builds its own model from the drifted profile;
        # building night 0's here rejects a bad profile or fraction
        # before anything runs.
        RandomUnplugModel(
            self._hourly0,
            online_fraction=online_fraction,
            rejoin_probability=rejoin_probability,
        )

        profiles = paper_task_profiles()
        self._truth = FleetGroundTruth(
            profiles, deviation_sigma=deviation_sigma, seed=seed
        )
        self._predictor = RuntimePredictor(profiles)
        if scheduler is None:
            scheduler = SchedulerConfig(warm_start=True)
        self._config = scheduler
        self._scheduler = scheduler.build()
        # A dozen deterministic job prototypes (cycled with fresh ids);
        # 4 of each task keeps the paper's 3-task mix.
        self._templates = evaluation_workload(seed=seed, instances_per_task=4)
        self._store = (
            SnapshotStore(checkpoint_dir) if checkpoint_dir is not None else None
        )
        #: Campaign-scope facade.  When its tracer is armed, every
        #: night's server runs under a per-night child facade whose
        #: spans are adopted back under a campaign-side ``night`` span
        #: — telemetry never touches the checkpointed state, so traced
        #: and untraced campaigns stay byte-identical.
        self._tel = telemetry if telemetry is not None else NULL_TELEMETRY
        self._reset_state()

    @property
    def window_hours(self) -> float:
        """Length of the nightly charging window, in hours."""
        return self._window_hours

    # -- durable state -----------------------------------------------------

    def _reset_state(self) -> None:
        from ..workloads.mixes import paper_testbed

        self._fleet: tuple[PhoneSpec, ...] = paper_testbed(
            seed=self._seed
        ).phones
        self._backlog: tuple[Job, ...] = ()
        self._deferred: list[tuple[float, Job]] = []
        self._probs = list(self._hourly0)
        self._rng = random.Random(stable_seed(self._seed, "campaign"))
        self._stream = PoissonArrivalStream(
            rate_per_hour=self._rate,
            rng=random.Random(stable_seed(self._seed, "arrivals")),
            start_ms=0.0,
        )
        self._job_counter = 0
        self._next_night = 0
        self._records: list[ContinuousNightRecord] = []

    def _capture_state(self) -> dict:
        scheduler_state = None
        warm = getattr(self._scheduler, "warm_state", None)
        if callable(warm):
            scheduler_state = warm()
        return {
            "next_night": self._next_night,
            "job_counter": self._job_counter,
            "fleet": [phone_to_dict(p) for p in self._fleet],
            "backlog": [job_to_dict(j) for j in self._backlog],
            "deferred": [
                [time_ms, job_to_dict(job)] for time_ms, job in self._deferred
            ],
            "hourly_unplug": list(self._probs),
            "rng_state": rng_state_to_json(self._rng.getstate()),
            "stream": self._stream.state(),
            "predictor_learned": [
                [phone_id, task, value]
                for (phone_id, task), value in sorted(
                    self._predictor.learned_pairs().items()
                )
            ],
            "scheduler": scheduler_state,
            "scheduler_config": self._config.to_dict(),
            "records": [record.to_dict() for record in self._records],
        }

    def _restore_state(self, state: dict) -> None:
        from ..core.policies import drop_retired_keys

        saved = drop_retired_keys(state.get("scheduler_config") or {})
        current = self._config.to_dict()
        for field in _RESUME_PINNED_FIELDS:
            if field in saved and saved[field] != current[field]:
                raise ValueError(
                    f"cannot resume: the checkpoint ran {field}="
                    f"{saved[field]!r} but this campaign has {field}="
                    f"{current[field]!r}"
                )
        self._next_night = int(state["next_night"])
        self._job_counter = int(state["job_counter"])
        self._fleet = tuple(phone_from_dict(p) for p in state["fleet"])
        self._backlog = tuple(job_from_dict(j) for j in state["backlog"])
        self._deferred = [
            (float(time_ms), job_from_dict(job))
            for time_ms, job in state["deferred"]
        ]
        self._probs = [float(p) for p in state["hourly_unplug"]]
        self._rng = random.Random()
        self._rng.setstate(rng_state_from_json(state["rng_state"]))
        self._stream = PoissonArrivalStream.from_state(state["stream"])
        self._predictor.load_learned(
            {
                (phone_id, task): value
                for phone_id, task, value in state["predictor_learned"]
            }
        )
        if state.get("scheduler") is not None:
            restore = getattr(self._scheduler, "restore_warm_state", None)
            if callable(restore):
                restore(state["scheduler"])
        self._records = [
            ContinuousNightRecord.from_dict(r) for r in state["records"]
        ]

    # -- one night ---------------------------------------------------------

    def _run_night(self, night_index: int) -> ContinuousNightRecord:
        joined = departed = 0
        if night_index > 0 and self._churn is not None:
            event = self._churn.apply(
                self._fleet, night_index=night_index, rng=self._rng
            )
            self._fleet = event.phones
            joined, departed = len(event.joined), len(event.departed)
            self._probs = self._churn.drift_hourly_probabilities(
                self._probs, rng=self._rng
            )

        night_start = night_index * MS_PER_DAY
        window_end = night_start + self._window_hours * 3_600_000.0

        new_jobs: list[Job] = []
        for _ in range(self._jobs_per_night):
            template = self._templates[
                self._job_counter % len(self._templates)
            ]
            new_jobs.append(
                dataclasses.replace(
                    template,
                    job_id=(
                        f"n{night_index:03d}-{template.task}"
                        f"-{self._job_counter:05d}"
                    ),
                )
            )
            self._job_counter += 1

        # Chain the arrival process: fast-forward through the idle day,
        # then stamp this night's jobs as a continuation of the stream.
        if self._stream.last_ms < night_start:
            self._stream.advance_to(night_start)
        stamped = self._stream.take(new_jobs) if new_jobs else []

        matured = [job for t, job in self._deferred if t <= night_start]
        in_window = [
            (t, job)
            for t, job in self._deferred
            if night_start < t < window_end
        ]
        later = [(t, job) for t, job in self._deferred if t >= window_end]
        for t, job in stamped:
            if t < window_end:
                in_window.append((t, job))
            else:
                later.append((t, job))
        in_window.sort(key=lambda pair: pair[0])
        self._deferred = sorted(later, key=lambda pair: pair[0])

        carried = len(self._backlog) + len(matured)
        arrivals_rel = [
            (t - night_start, job) for t, job in in_window
        ]
        initial = self._backlog + tuple(matured)
        if not initial and arrivals_rel:
            # CentralServer.run needs a non-empty initial batch: the
            # night effectively starts when its first job arrives.
            _, first_job = arrivals_rel.pop(0)
            initial = (first_job,)

        if not initial:
            record = ContinuousNightRecord(
                night_index=night_index,
                fleet_size=len(self._fleet),
                joined=joined,
                departed=departed,
                jobs_submitted=len(new_jobs),
                jobs_carried_over=carried,
                arrivals_in_window=0,
                arrivals_deferred=len(self._deferred),
                jobs_completed=0,
                completions=0,
                failures=0,
                predicted_makespan_ms=0.0,
                measured_makespan_ms=0.0,
                unfinished=0,
                idle=True,
            )
            self._backlog = ()
            return record

        # Links are re-derived per (phone, night): charging phones are
        # static but nightly conditions are not, and a resumed campaign
        # rebuilds exactly these links from the same stable seeds.
        links = {
            phone.phone_id: WirelessLink.for_technology(
                phone.network,
                interference_factor=0.85,
                seed=stable_seed(self._seed, phone.phone_id, night_index),
            )
            for phone in self._fleet
        }
        b = measure_fleet(links)
        model = RandomUnplugModel(
            self._probs,
            online_fraction=self._online_fraction,
            rejoin_probability=self._rejoin_probability,
        )
        plan = model.sample_plan(
            [phone.phone_id for phone in self._fleet],
            start_hour=self._start_hour,
            duration_hours=self._window_hours,
            rng=self._rng,
        )
        tracer = self._tel.tracer if self._tel.enabled else None
        night_tel: Telemetry | None = None
        if tracer is not None:
            night_tel = Telemetry.create(
                run_id=f"{self._tel.run_id}-night{night_index}",
                tracing=True,
            )
        server = CentralServer(
            self._fleet,
            self._truth,
            self._predictor,
            self._scheduler,
            b,
            failure_plan=plan,
            max_rounds=self._max_rounds,
            telemetry=night_tel,
        )
        if tracer is not None:
            assert night_tel is not None and night_tel.tracer is not None
            with tracer.span(
                "night",
                category="campaign",
                night_index=night_index,
                fleet=len(self._fleet),
                jobs=len(initial) + len(arrivals_rel),
            ) as night_span:
                result = server.run(initial, arrivals=arrivals_rel)
                tracer.adopt(
                    night_tel.tracer.drain_dicts(), parent=night_span
                )
        else:
            result = server.run(initial, arrivals=arrivals_rel)
        self._backlog = result.unfinished_jobs
        return ContinuousNightRecord(
            night_index=night_index,
            fleet_size=len(self._fleet),
            joined=joined,
            departed=departed,
            jobs_submitted=len(new_jobs),
            jobs_carried_over=carried,
            arrivals_in_window=len(arrivals_rel),
            arrivals_deferred=len(self._deferred),
            jobs_completed=(
                len(initial) + len(arrivals_rel) - len(result.unfinished_jobs)
            ),
            completions=len(result.trace.completions),
            failures=len(result.trace.failures),
            predicted_makespan_ms=result.predicted_makespan_ms,
            measured_makespan_ms=result.measured_makespan_ms,
            unfinished=len(result.unfinished_jobs),
        )

    # -- the campaign loop -------------------------------------------------

    def run(
        self,
        nights: int,
        *,
        resume: bool = False,
        on_night: Callable[["ContinuousCampaign", int, ContinuousNightRecord], None]
        | None = None,
    ) -> ContinuousCampaignResult:
        """Operate for ``nights`` nights, checkpointing each boundary.

        With ``resume`` (and a checkpoint directory holding a campaign
        snapshot), completed nights are skipped and the run continues
        from the restored state; a corrupted latest snapshot falls back
        to the previous good one.  ``on_night`` fires after each
        night's checkpoint is durable — raising from it models a crash
        between nights, which is exactly what the kill/restore drill
        does.
        """
        if nights < 1:
            raise ValueError(f"nights must be >= 1, got {nights!r}")
        resumed_from: int | None = None
        if resume and self._store is not None:
            snapshot = self._store.latest(kind=CAMPAIGN_SNAPSHOT_KIND)
            if snapshot is not None:
                self._restore_state(snapshot.state)
                resumed_from = self._next_night
        checkpoints = 0
        while self._next_night < nights:
            night_index = self._next_night
            record = self._run_night(night_index)
            self._records.append(record)
            self._next_night = night_index + 1
            if self._store is not None:
                self._store.save(
                    CAMPAIGN_SNAPSHOT_KIND, self._capture_state()
                )
                checkpoints += 1
                if self._keep_snapshots is not None:
                    self._store.prune(keep_last=self._keep_snapshots)
            if on_night is not None:
                on_night(self, night_index, record)
        return ContinuousCampaignResult(
            nights=list(self._records),
            final_backlog=self._backlog,
            pending_arrivals=len(self._deferred),
            resumed_from_night=resumed_from,
            checkpoints=checkpoints,
        )


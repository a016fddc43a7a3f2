"""The three fleet-night workloads: inputs, timed run, gate, fingerprint.

Every workload is a batch run: job arrivals are stamped in simulated
time, so there is no wall-clock load generator.  All inputs derive from
the workload seed alone (see :func:`derive_seed`); the program under
test receives only the generated inputs.

A workload is driven in three steps by :mod:`perfbench.worker`:

* ``setup(seed, workdir)`` builds everything the run consumes (its
  time, with the imports before it, is ``setup_s``);
* ``run(state)`` is the timed region;
* ``finish(state)`` runs the correctness gate outside the timed region
  and returns the quality metrics, exact counters and fingerprint.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import random
import statistics
import tempfile
import time
from collections.abc import Callable

#: Fleet size and job count of the two fleet-scale nights.
FLEET_PHONES = 1000
FLEET_JOBS = 5000
#: Continuous-campaign shape.
CAMPAIGN_NIGHTS = 30
CAMPAIGN_JOBS_PER_NIGHT = 60
CAMPAIGN_ARRIVALS_PER_HOUR = 40.0
#: Charging window the fleet nights sample unplug failures over.
NIGHT_START_HOUR = 22.0
NIGHT_HOURS = 6.0
#: Figure 3's shape: quiet during the charging night, busy by day.
NIGHT_UNPLUG_PROFILE = tuple(
    0.03 if hour in (22, 23, 0, 1, 2, 3, 4) else 0.12 for hour in range(24)
)
#: Tolerance of the certified-bound sandwich check.
_BOUND_TOL = 1e-9


def derive_seed(seed: int, *parts) -> int:
    """A 31-bit seed for one input stream, stable across processes."""
    text = repr((seed,) + parts).encode("utf-8")
    return int.from_bytes(hashlib.sha256(text).digest()[:4], "big") >> 1


def fingerprint(payload) -> str:
    """sha256 over the canonical JSON of ``payload``."""
    data = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


def fleet_inputs(seed: int):
    """The paper testbed replicated to fleet size, plus replicated jobs.

    The 18-phone testbed of Section 6 is copied until the fleet holds
    ``FLEET_PHONES`` phones (ids suffixed ``-c<copy>``); the 150-job
    evaluation workload is repeated with a fresh seed per copy until
    ``FLEET_JOBS`` jobs exist (ids suffixed ``-r<repeat>``).  Returns
    ``(phones, measured_b, jobs)``.
    """
    from repro.netmodel.measurement import measure_fleet
    from repro.workloads.mixes import evaluation_workload, paper_testbed

    testbed = paper_testbed()
    base_b = measure_fleet(testbed.links)
    copies = -(-FLEET_PHONES // len(testbed.phones))
    phones = [
        dataclasses.replace(phone, phone_id=f"{phone.phone_id}-c{copy}")
        for copy in range(copies)
        for phone in testbed.phones
    ][:FLEET_PHONES]
    measured_b = {
        phone.phone_id: base_b[phone.phone_id.rsplit("-c", 1)[0]]
        for phone in phones
    }
    per_copy = len(evaluation_workload())
    repeats = -(-FLEET_JOBS // per_copy)
    jobs = [
        dataclasses.replace(job, job_id=f"{job.job_id}-r{repeat}")
        for repeat in range(repeats)
        for job in evaluation_workload(seed=derive_seed(seed, "jobs", repeat))
    ][:FLEET_JOBS]
    return tuple(phones), measured_b, tuple(jobs)


# ---------------------------------------------------------------------------
# fleet_night / sharded_night
# ---------------------------------------------------------------------------


def _night_scheduler(sharded: bool):
    from repro.core.capacity import available_cpus
    from repro.core.greedy import CwcScheduler
    from repro.core.sharding import ShardedScheduler

    if sharded:
        return ShardedScheduler(
            pods=4, pod_workers=min(2, available_cpus()), warm_start=True
        )
    return CwcScheduler(warm_start=True)


def _setup_night(seed: int, *, sharded: bool) -> dict:
    from repro.core.prediction import RuntimePredictor
    from repro.sim.entities import FleetGroundTruth
    from repro.sim.failures import RandomUnplugModel
    from repro.sim.server import CentralServer
    from repro.workloads.mixes import paper_task_profiles

    phones, measured_b, jobs = fleet_inputs(seed)
    profiles = paper_task_profiles()
    plan = RandomUnplugModel(
        NIGHT_UNPLUG_PROFILE, online_fraction=0.9, rejoin_probability=0.35
    ).sample_plan(
        [phone.phone_id for phone in phones],
        start_hour=NIGHT_START_HOUR,
        duration_hours=NIGHT_HOURS,
        rng=random.Random(derive_seed(seed, "unplug")),
    )
    scheduler = _night_scheduler(sharded)
    server = CentralServer(
        phones,
        FleetGroundTruth(
            profiles, deviation_sigma=0.03, seed=derive_seed(seed, "truth")
        ),
        RuntimePredictor(profiles),
        scheduler,
        measured_b,
        failure_plan=plan,
    )
    return {"server": server, "scheduler": scheduler, "jobs": jobs}


def _run_night(state: dict):
    spans: list[tuple[float, float]] = []
    with _first_schedules(spans):
        state["result"] = state["server"].run(state["jobs"])
    result = state["result"]
    return {
        "jobs_completed": len(state["jobs"]) - len(result.unfinished_jobs),
        "first_schedule_spans": spans,
    }


def _finish_night(state: dict, *, sharded: bool) -> dict:
    from repro.core.serialize import schedule_to_dict
    from repro.verify.oracle import Oracle

    result, jobs, scheduler = state["result"], state["jobs"], state["scheduler"]
    errors: list[str] = []
    violations = Oracle().check_run(result, jobs, collect=True)
    errors.extend(f"{v.invariant}: {v.message}" for v in violations)

    submitted = {job.job_id for job in jobs}
    unfinished = {job.job_id for job in result.unfinished_jobs}
    credited = {c.job_id for c in result.trace.completions}
    credited |= {f.job_id for f in result.trace.failures}
    completed = submitted - unfinished
    if not unfinished <= submitted:
        errors.append("unfinished jobs that were never submitted")
    if len(completed) + len(unfinished) != len(submitted):
        errors.append("completed + unfinished != submitted")
    if not completed <= credited:
        errors.append("a job counted complete has no credited partition")

    first = result.rounds[0]
    measured = result.measured_makespan_ms
    quality = {
        "makespan_s": measured / 1000.0,
        "prediction_error": abs(measured - first.predicted_makespan_ms)
        / measured,
        "jobs_failed_fraction": len(unfinished) / len(submitted),
    }
    if sharded:
        last = scheduler.last_result
        if last is None or last.lp_floor_ms is None:
            errors.append("the pod LP did not certify the last round")
        for record in result.rounds:
            if record.pods > 1 and record.shard_bound_ratio < 1 - _BOUND_TOL:
                errors.append(
                    f"round {record.round_index}: shard_bound_ratio "
                    f"{record.shard_bound_ratio} < 1"
                )
        quality["shard_bound_ratio"] = first.shard_bound_ratio

    stats = scheduler.stats
    counters = {
        "jobs": len(jobs),
        "rounds": len(result.rounds),
        "completions": len(result.trace.completions),
        "failures": len(result.trace.failures),
        "unfinished": len(unfinished),
        "packer_passes": stats.packer_passes,
        "bisection_steps": stats.bisection_steps,
        "shortcircuit_skips": stats.shortcircuit_skips,
    }
    digest = fingerprint(
        {
            "round0": schedule_to_dict(first.schedule),
            "counters": counters,
            "quality": quality,
        }
    )
    return {
        "errors": errors,
        "quality": quality,
        "counters": counters,
        "fingerprint": digest,
    }


# ---------------------------------------------------------------------------
# campaign_month
# ---------------------------------------------------------------------------


def _setup_campaign(seed: int, workdir: str) -> dict:
    from repro.sim.campaign import ContinuousCampaign
    from repro.sim.churn import FleetChurnModel

    checkpoint_dir = tempfile.mkdtemp(prefix="campaign-", dir=workdir)
    campaign = ContinuousCampaign(
        seed=derive_seed(seed, "campaign"),
        jobs_per_night=CAMPAIGN_JOBS_PER_NIGHT,
        arrival_rate_per_hour=CAMPAIGN_ARRIVALS_PER_HOUR,
        churn=FleetChurnModel(),
        checkpoint_dir=checkpoint_dir,
    )
    return {"campaign": campaign, "checkpoint_dir": checkpoint_dir}


@contextlib.contextmanager
def _first_schedules(spans: list[tuple[float, float]]):
    """Record the ``perf_counter`` span of each server run's round-0 solve.

    Wraps ``CentralServer.run`` and both schedulers' ``schedule`` while
    the block runs: the first outermost ``schedule`` call inside a server
    run is its round 0.  An untraced run pays one extra call per wrapped
    call.
    """
    from repro.core.greedy import CwcScheduler
    from repro.core.sharding import ShardedScheduler
    from repro.sim.server import CentralServer

    clock = time.perf_counter
    #: One flag per server run in progress: True until it has scheduled.
    waiting: list[bool] = []
    raw_run = vars(CentralServer)["run"]

    def run(self, *args, **kwargs):
        waiting.append(True)
        try:
            return raw_run(self, *args, **kwargs)
        finally:
            waiting.pop()

    def first_only(raw):
        def schedule(self, *args, **kwargs):
            if not waiting or not waiting[-1]:
                return raw(self, *args, **kwargs)
            waiting[-1] = False
            began = clock()
            try:
                return raw(self, *args, **kwargs)
            finally:
                spans.append((began, clock()))

        return schedule

    patched = [(CentralServer, "run", raw_run, run)]
    for owner in (CwcScheduler, ShardedScheduler):
        raw = vars(owner)["schedule"]
        patched.append((owner, "schedule", raw, first_only(raw)))
    for owner, name, _, wrapper in patched:
        setattr(owner, name, wrapper)
    try:
        yield
    finally:
        for owner, name, raw, _ in patched:
            setattr(owner, name, raw)


def _run_campaign(state: dict):
    spans: list[tuple[float, float]] = []
    with _first_schedules(spans):
        state["result"] = state["campaign"].run(CAMPAIGN_NIGHTS)
    state["active_nights"] = len(spans)
    return {
        "jobs_completed": state["result"].total_jobs_completed,
        "first_schedule_spans": spans,
    }


def _finish_campaign(state: dict) -> dict:
    from repro.durability.snapshot import SnapshotStore
    from repro.sim.campaign import CAMPAIGN_SNAPSHOT_KIND

    result = state["result"]
    errors: list[str] = []
    backlog = len(result.final_backlog) + result.pending_arrivals
    if result.total_jobs_completed + backlog != result.total_submitted:
        errors.append(
            f"completed {result.total_jobs_completed} + backlog {backlog} "
            f"!= submitted {result.total_submitted}"
        )
    if result.checkpoints != CAMPAIGN_NIGHTS:
        errors.append(
            f"{result.checkpoints} checkpoints for {CAMPAIGN_NIGHTS} nights"
        )
    store = SnapshotStore(state["checkpoint_dir"])
    latest = store.latest(kind=CAMPAIGN_SNAPSHOT_KIND)
    if latest is None or store.corrupt_files:
        errors.append(f"no verifiable checkpoint ({store.corrupt_files})")
    elif (
        latest.snapshot_id != CAMPAIGN_NIGHTS - 1
        or latest.state["next_night"] != CAMPAIGN_NIGHTS
    ):
        errors.append(
            f"latest checkpoint is snapshot {latest.snapshot_id} "
            f"(next night {latest.state['next_night']})"
        )

    active = [night for night in result.nights if not night.idle]
    if not active:
        errors.append("every night was idle")
        active = result.nights
    quality = {
        "makespan_s": statistics.fmean(
            night.measured_makespan_ms for night in active
        )
        / 1000.0,
        "prediction_error": statistics.fmean(
            night.prediction_error for night in active
        ),
        "jobs_failed_fraction": backlog / result.total_submitted,
    }
    counters = {
        "jobs": result.total_submitted,
        "active_nights": state["active_nights"],
        "completions": result.total_completions,
        "failures": result.total_failures,
        "unfinished": backlog,
        "checkpoints": result.checkpoints,
    }
    digest = fingerprint(
        {"campaign": result.to_dict(), "counters": counters, "quality": quality}
    )
    return {
        "errors": errors,
        "quality": quality,
        "counters": counters,
        "fingerprint": digest,
    }


@dataclasses.dataclass(frozen=True)
class Workload:
    #: ``(seed, workdir) -> state``: everything the run consumes.
    setup: Callable[[int, str], dict]
    #: ``state -> {"jobs_completed", "first_schedule_spans"}``, the
    #: latter the ``perf_counter`` span of each night's round-0 solve:
    #: the timed run.
    run: Callable[[dict], dict]
    #: ``state -> {"errors", "quality", "counters", "fingerprint"}``.
    finish: Callable[[dict], dict]


WORKLOADS = {
    "fleet_night": Workload(
        lambda seed, workdir: _setup_night(seed, sharded=False),
        _run_night,
        lambda state: _finish_night(state, sharded=False),
    ),
    "sharded_night": Workload(
        lambda seed, workdir: _setup_night(seed, sharded=True),
        _run_night,
        lambda state: _finish_night(state, sharded=True),
    ),
    "campaign_month": Workload(_setup_campaign, _run_campaign, _finish_campaign),
}

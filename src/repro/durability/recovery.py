"""Round-boundary checkpointing and replay-verified crash recovery.

The event loop's pending actions are closures over live pipelines, so a
snapshot cannot serialise the heap itself.  What it *can* serialise —
and what :meth:`~repro.sim.server.CentralServer.capture_state` captures
— is everything that determines the remaining run: queues, ``F_A``,
learned predictions, warm-start caches, per-phone runtime state,
monitor state, the engine clock, and the timing skeleton of the pending
events.  Restore is therefore **deterministic replay with state
verification**:

1. rebuild the server from the scenario's inputs (they are the durable
   ground truth — a :class:`~repro.verify.fuzz.Scenario` is replayable
   by construction);
2. replay to the snapshot's scheduling instant;
3. byte-compare the live :meth:`capture_state` against the snapshot
   (:class:`RecoveryError` on any mismatch — the snapshot proves the
   replay reached the exact pre-crash state);
4. keep running: engine determinism guarantees the continuation is
   byte-identical to the run that was never killed.

Directly re-scheduling pending events from a snapshot was rejected: a
rebuilt heap assigns fresh sequence numbers, which can flip the
deterministic tie-break between same-time events (an init-scheduled
chaos fault vs. a mid-run rescheduled keep-alive probe) and silently
change the continuation.  Replay keeps the original sequence numbers by
construction.

:func:`crash_restore_check` packages the full drill — baseline run,
killed run with checkpoints, restore, byte-identity comparison, oracle
pass — and is what ``repro fuzz --crash-restore`` drives per scenario.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from ..core.serialize import schedule_to_dict
from ..verify.fuzz import Scenario, build_scenario_server, scenario_workload
from ..verify.oracle import Oracle
from .snapshot import Snapshot, SnapshotStore

__all__ = [
    "RUN_SNAPSHOT_KIND",
    "RunKilled",
    "RecoveryError",
    "CrashRestoreOutcome",
    "checkpointing_hook",
    "verification_hook",
    "execute_scenario",
    "run_digests",
    "crash_restore_check",
]

#: Snapshot kind for round-boundary server checkpoints.
RUN_SNAPSHOT_KIND = "server-round"


class RunKilled(RuntimeError):
    """Raised by a crash drill's hook to kill a run at an instant."""

    def __init__(self, instant: int) -> None:
        super().__init__(f"run killed at scheduling instant {instant}")
        self.instant = instant


class RecoveryError(RuntimeError):
    """A replayed restore failed to reproduce the snapshotted state."""


def _canonical(payload: object) -> bytes:
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def checkpointing_hook(
    store: SnapshotStore, *, kill_at_instant: int | None = None
):
    """An ``on_round`` hook that checkpoints every scheduling instant.

    Instants are counted by hook invocation (a round that aborts for
    lack of phones still counts), so the sequence is identical across
    replays of the same scenario.  When ``kill_at_instant`` is given,
    the hook raises :class:`RunKilled` *before* saving that instant's
    snapshot — the crash happens mid-flight, with only the earlier
    checkpoints on disk, exactly like a real power cut.
    """
    counter = {"instant": 0}

    def hook(server, round_index: int) -> None:
        instant = counter["instant"]
        counter["instant"] += 1
        if kill_at_instant is not None and instant >= kill_at_instant:
            raise RunKilled(instant)
        store.save(
            RUN_SNAPSHOT_KIND,
            {
                "instant": instant,
                "round_index": round_index,
                "server": server.capture_state(),
            },
        )

    return hook


def verification_hook(snapshot: Snapshot, witness: dict | None = None):
    """An ``on_round`` hook that proves a replay reached the snapshot.

    At the snapshot's scheduling instant the live
    :meth:`~repro.sim.server.CentralServer.capture_state` must equal the
    snapshotted state byte for byte; ``witness["verified"]`` flips True
    when it does, and :class:`RecoveryError` carries the diff summary
    when it does not.
    """
    if snapshot.kind != RUN_SNAPSHOT_KIND:
        raise ValueError(
            f"expected a {RUN_SNAPSHOT_KIND!r} snapshot, got {snapshot.kind!r}"
        )
    counter = {"instant": 0}
    target = int(snapshot.state["instant"])
    expected = snapshot.state["server"]

    def hook(server, round_index: int) -> None:
        instant = counter["instant"]
        counter["instant"] += 1
        if instant != target:
            return
        live = server.capture_state()
        if _canonical(live) != _canonical(expected):
            diverged = sorted(
                key
                for key in set(live) | set(expected)
                if _canonical(live.get(key)) != _canonical(expected.get(key))
            )
            raise RecoveryError(
                f"replay reached scheduling instant {target} with state "
                f"diverging from snapshot {snapshot.snapshot_id} in "
                f"fields: {', '.join(diverged)}"
            )
        if witness is not None:
            witness["verified"] = True

    return hook


def execute_scenario(
    scenario: Scenario, *, on_round=None, pods=None, telemetry=None
):
    """Run one scenario deterministically, returning its ``RunResult``.

    Telemetry stays disarmed by default (event envelopes and spans
    carry wall-clock times, which have no place in byte-identity
    checks) — but :func:`run_digests` covers only deterministic fields,
    so passing an armed ``telemetry`` (e.g. with the span tracer on)
    never changes a drill's digests.  Per-round instances are retained
    so the oracle's schedule-scope invariants can run.
    ``pods`` swaps in the sharded scheduler on a pod worker pool (see
    :func:`~repro.verify.fuzz.build_scenario_server`), so drills can
    kill runs while pool workers are live.
    """
    server = build_scenario_server(
        scenario,
        telemetry=telemetry,
        on_round=on_round,
        record_instances=True,
        pods=pods,
    )
    initial, arrivals = scenario_workload(scenario)
    return server.run(initial, arrivals=arrivals)


def run_digests(result) -> dict:
    """Deterministic digests of a finished run's schedule and trace.

    Covers every round's schedule (canonical
    :func:`~repro.core.serialize.schedule_to_dict` form plus the
    deterministic search diagnostics) and the full trace; wall-clock
    fields (``scheduling_wall_ms``) are excluded by construction.  Two
    runs are considered byte-identical when these digests match.
    """
    rounds_doc = [
        {
            "round_index": record.round_index,
            "scheduled_at_ms": record.scheduled_at_ms,
            "schedule": schedule_to_dict(record.schedule),
            "predicted_makespan_ms": record.predicted_makespan_ms,
            "rescheduled": record.rescheduled,
            "job_ids": list(record.job_ids),
            "capacity_ms": record.capacity_ms,
            "kernel": record.kernel,
            "warm_started": record.warm_started,
        }
        for record in result.rounds
    ]
    return {
        "schedule_sha256": hashlib.sha256(
            _canonical(rounds_doc)
        ).hexdigest(),
        "trace_sha256": hashlib.sha256(
            _canonical(result.trace.to_dict())
        ).hexdigest(),
        "rounds": len(result.rounds),
        "makespan_ms": result.measured_makespan_ms,
        "completions": len(result.trace.completions),
        "unfinished_jobs": len(result.unfinished_jobs),
    }


@dataclass(frozen=True)
class CrashRestoreOutcome:
    """One scenario's verdict under the kill/restore drill."""

    seed: int
    kill_instant: int
    baseline_instants: int
    killed: bool
    snapshot_id: int | None
    snapshot_instant: int | None
    state_verified: bool
    identical: bool
    violations: tuple[str, ...] = ()
    error: str | None = None

    @property
    def ok(self) -> bool:
        return (
            self.identical and not self.violations and self.error is None
        )


def crash_restore_check(
    scenario: Scenario,
    *,
    store_dir: str | Path,
    kill_instant: int | None = None,
    pods: int | None = None,
    tracing: bool = False,
) -> CrashRestoreOutcome:
    """The full crash-at-any-round recovery drill for one scenario.

    1. **Baseline** — run the scenario uninterrupted, recording its
       schedule/trace digests and counting its scheduling instants.
    2. **Kill** — rerun with round-boundary checkpoints into
       ``store_dir`` and a :class:`RunKilled` injected at
       ``kill_instant`` (seed-chosen from the baseline's instant count
       when not given; instant 0 exercises the cold-restart path where
       no snapshot exists yet).
    3. **Restore** — replay from the scenario, byte-verifying the live
       state against the latest surviving snapshot at its instant, and
       run to completion.
    4. **Prove** — the restored run's digests must equal the baseline's
       and the invariant oracle must report zero violations.

    With ``tracing=True`` the killed and restored legs run with the
    span tracer armed: the kill must leave the tracer holding only
    closed (checkpointable) spans, and the restored run additionally
    passes the span invariants.  Digest comparison is unaffected —
    spans never enter :func:`run_digests`.
    """
    import random as _random

    try:
        baseline = execute_scenario(scenario, pods=pods)
    except Exception as exc:  # noqa: BLE001 - sim crashes are findings
        return CrashRestoreOutcome(
            seed=scenario.seed,
            kill_instant=-1,
            baseline_instants=0,
            killed=False,
            snapshot_id=None,
            snapshot_instant=None,
            state_verified=False,
            identical=False,
            error=f"baseline crashed: {type(exc).__name__}: {exc}",
        )
    base_digests = run_digests(baseline)
    # Hook invocations >= len(rounds) (aborted rounds fire the hook
    # without appending a RoundRecord), so any instant below the round
    # count is guaranteed to fire.
    instants = max(1, len(baseline.rounds))
    if kill_instant is None:
        kill_instant = _random.Random(
            f"crash-restore:{scenario.seed}"
        ).randrange(instants)

    def _drill_telemetry(leg: str):
        if not tracing:
            return None
        from ..obs.telemetry import Telemetry

        return Telemetry.create(
            run_id=f"crash-{scenario.seed}-{leg}", tracing=True
        )

    store = SnapshotStore(store_dir)
    killed = False
    kill_telemetry = _drill_telemetry("kill")
    try:
        execute_scenario(
            scenario,
            on_round=checkpointing_hook(store, kill_at_instant=kill_instant),
            pods=pods,
            telemetry=kill_telemetry,
        )
    except RunKilled:
        killed = True
        if kill_telemetry is not None:
            open_count = kill_telemetry.tracer.open_count
            if open_count:
                return CrashRestoreOutcome(
                    seed=scenario.seed,
                    kill_instant=kill_instant,
                    baseline_instants=instants,
                    killed=True,
                    snapshot_id=None,
                    snapshot_instant=None,
                    state_verified=False,
                    identical=False,
                    error=(
                        f"kill left {open_count} span(s) open — the crash "
                        f"boundary must close every span"
                    ),
                )
    except Exception as exc:  # noqa: BLE001
        return CrashRestoreOutcome(
            seed=scenario.seed,
            kill_instant=kill_instant,
            baseline_instants=instants,
            killed=False,
            snapshot_id=None,
            snapshot_instant=None,
            state_verified=False,
            identical=False,
            error=f"killed run crashed: {type(exc).__name__}: {exc}",
        )

    snapshot = store.latest(kind=RUN_SNAPSHOT_KIND)
    witness = {"verified": False}
    hook = None if snapshot is None else verification_hook(snapshot, witness)
    restore_telemetry = _drill_telemetry("restore")
    try:
        restored = execute_scenario(
            scenario,
            on_round=hook,
            pods=pods,
            telemetry=restore_telemetry,
        )
    except RecoveryError as exc:
        return CrashRestoreOutcome(
            seed=scenario.seed,
            kill_instant=kill_instant,
            baseline_instants=instants,
            killed=killed,
            snapshot_id=snapshot.snapshot_id if snapshot else None,
            snapshot_instant=(
                int(snapshot.state["instant"]) if snapshot else None
            ),
            state_verified=False,
            identical=False,
            error=str(exc),
        )

    restored_digests = run_digests(restored)
    oracle = Oracle()
    restore_spans = (
        restore_telemetry.tracer.spans
        if restore_telemetry is not None
        else None
    )
    restore_events = (
        restore_telemetry.bus.events if restore_telemetry is not None else None
    )
    violations = [
        str(v)
        for v in oracle.check_run(
            restored,
            scenario.jobs,
            events=restore_events,
            spans=restore_spans,
            collect=True,
        )
    ]
    violations.extend(
        str(v) for v in oracle.check_rounds(restored, collect=True)
    )
    return CrashRestoreOutcome(
        seed=scenario.seed,
        kill_instant=kill_instant,
        baseline_instants=instants,
        killed=killed,
        snapshot_id=snapshot.snapshot_id if snapshot else None,
        snapshot_instant=(
            int(snapshot.state["instant"]) if snapshot else None
        ),
        state_verified=witness["verified"] if snapshot else True,
        identical=restored_digests == base_digests,
        violations=tuple(violations),
    )

"""Deterministic scenario fuzzer: seed -> fleet -> chaos -> oracle.

FoundationDB-style simulation testing for the CWC stack.  A single
integer seed deterministically generates a complete scenario — fleet
(sizes, speeds, link rates, hidden efficiency deviation), job mix
(breakable/atomic, sizes, executables), availability pattern (delayed
Poisson arrivals), a :class:`~repro.sim.chaos.ChaosPlan`, the server's
resilience posture, and the scheduler's kernel/warm-start knobs.  The
scenario runs through the full event-driven simulation with telemetry
(including the span tracer) armed and per-round instances retained,
then the
:class:`~repro.verify.oracle.Oracle` checks every registered invariant.

Scenarios serialise to JSON (:meth:`Scenario.to_dict`) and carry a
sha256 **digest** of that canonical form, so a campaign's digests prove
rerun-for-rerun determinism.  When a scenario fails, the shrinker
(:func:`minimize_scenario`) greedily drops arrivals, chaos streams,
individual faults, jobs, and phones while the failure persists, and the
result is written as a replayable ``fuzz-<seed>.json`` artifact that
``repro fuzz --replay`` re-executes exactly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from pathlib import Path

from ..core.instance import SchedulingInstance
from ..core.policies import DEFAULT_POLICY, POLICY_NAMES, SchedulerConfig
from ..core.model import Job, JobKind, NetworkTechnology, PhoneSpec
from ..core.prediction import RuntimePredictor
from ..core.serialize import (
    job_from_dict,
    job_to_dict,
    phone_from_dict,
    phone_to_dict,
)
from ..sim.chaos import ChaosMonkey, ChaosPlan, ResiliencePolicy
from ..sim.entities import FleetGroundTruth
from ..sim.server import CentralServer, RunResult
from ..workloads.arrivals import poisson_arrivals
from ..workloads.mixes import paper_task_profiles
from .invariants import Violation
from .oracle import Oracle

__all__ = [
    "ARTIFACT_FORMAT",
    "Scenario",
    "FuzzOutcome",
    "FuzzReport",
    "CrashRestoreReport",
    "ReplayResult",
    "build_scenario_server",
    "derive_seeds",
    "generate_instance",
    "generate_scenario",
    "run_checked",
    "run_scenario",
    "scenario_workload",
    "minimize_scenario",
    "write_artifact",
    "replay_artifact",
    "run_campaign",
    "run_crash_restore_campaign",
]

#: Version stamp of the ``fuzz-<seed>.json`` artifact layout.
ARTIFACT_FORMAT = 1

_TASKS = ("primes", "wordcount", "blur")


# ---------------------------------------------------------------------------
# seeded generation
# ---------------------------------------------------------------------------


def derive_seeds(master_seed: int, count: int) -> list[int]:
    """Per-run seeds derived deterministically from one master seed."""
    rng = random.Random(master_seed)
    return [rng.randrange(2**32) for _ in range(count)]


def _gen_phones(rng: random.Random) -> tuple[PhoneSpec, ...]:
    n_phones = rng.randint(2, 8)
    networks = tuple(NetworkTechnology)
    return tuple(
        PhoneSpec(
            phone_id=f"ph{index:02d}",
            cpu_mhz=float(rng.choice((600, 800, 1000, 1200, 1500))),
            network=rng.choice(networks),
            cpu_efficiency=round(rng.uniform(0.7, 1.3), 3),
            model_name="fuzz",
        )
        for index in range(n_phones)
    )


def _gen_jobs(rng: random.Random) -> tuple[Job, ...]:
    n_jobs = rng.randint(1, 10)
    jobs = []
    for index in range(n_jobs):
        kind = JobKind.BREAKABLE if rng.random() < 0.7 else JobKind.ATOMIC
        jobs.append(
            Job(
                job_id=f"job{index:02d}",
                task=rng.choice(_TASKS),
                kind=kind,
                executable_kb=round(rng.uniform(10.0, 150.0), 3),
                input_kb=round(rng.uniform(40.0, 2500.0), 3),
            )
        )
    return tuple(jobs)


def _gen_b(
    rng: random.Random, phones: Sequence[PhoneSpec]
) -> tuple[dict[str, float], dict[str, float]]:
    """Measured and true per-KB transfer rates (the truth may deviate)."""
    measured = {
        phone.phone_id: round(rng.uniform(0.5, 40.0), 4) for phone in phones
    }
    true = {
        phone_id: round(value * rng.uniform(0.85, 1.2), 4)
        for phone_id, value in measured.items()
    }
    return measured, true


def generate_instance(seed: int) -> SchedulingInstance:
    """One fuzzed scheduling instance (the differential runner's input)."""
    rng = random.Random(seed)
    phones = _gen_phones(rng)
    jobs = _gen_jobs(rng)
    measured_b, _ = _gen_b(rng, phones)
    predictor = RuntimePredictor(paper_task_profiles())
    return SchedulingInstance.build(jobs, phones, measured_b, predictor)


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """A fully-specified, replayable simulation input."""

    seed: int
    phones: tuple[PhoneSpec, ...]
    jobs: tuple[Job, ...]
    measured_b: dict[str, float]
    true_b: dict[str, float]
    chaos: ChaosPlan
    #: ``(time_ms, job_id)`` pairs for jobs that arrive mid-run; every
    #: named job must appear in ``jobs`` and at least one job must stay
    #: in the initial batch.
    arrivals: tuple[tuple[float, str], ...] = ()
    hardened: bool = False
    verify_results: bool = False
    warm_start: bool = False
    kernel: str = "python"
    deviation_sigma: float = 0.0
    keepalive_period_ms: float = 15_000.0
    keepalive_tolerated_misses: int = 2
    max_rounds: int = 20
    #: Scheduling policy the scenario runs under.  The default keeps
    #: the canonical form — and therefore every pre-policy digest —
    #: byte-identical: ``to_dict`` only emits the field when it
    #: deviates from ``cwc-greedy``.
    policy: str = DEFAULT_POLICY

    def __post_init__(self) -> None:
        if self.policy not in POLICY_NAMES:
            raise ValueError(
                f"unknown scenario policy {self.policy!r}; known "
                f"policies: {', '.join(POLICY_NAMES)}"
            )
        if not self.phones:
            raise ValueError("scenario needs at least one phone")
        if not self.jobs:
            raise ValueError("scenario needs at least one job")
        job_ids = {job.job_id for job in self.jobs}
        arriving = {job_id for _, job_id in self.arrivals}
        if not arriving <= job_ids:
            raise ValueError(
                f"arrivals name unknown jobs: {sorted(arriving - job_ids)}"
            )
        if arriving >= job_ids:
            raise ValueError("at least one job must be in the initial batch")

    # -- serialisation -----------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-safe canonical form (the digest is computed over this)."""
        data = {
            "seed": self.seed,
            "phones": [phone_to_dict(p) for p in self.phones],
            "jobs": [job_to_dict(j) for j in self.jobs],
            "measured_b": {k: self.measured_b[k] for k in sorted(self.measured_b)},
            "true_b": {k: self.true_b[k] for k in sorted(self.true_b)},
            "chaos": self.chaos.to_dict(),
            "arrivals": [[t, job_id] for t, job_id in self.arrivals],
            "hardened": self.hardened,
            "verify_results": self.verify_results,
            "warm_start": self.warm_start,
            "kernel": self.kernel,
            "deviation_sigma": self.deviation_sigma,
            "keepalive_period_ms": self.keepalive_period_ms,
            "keepalive_tolerated_misses": self.keepalive_tolerated_misses,
            "max_rounds": self.max_rounds,
        }
        if self.policy != DEFAULT_POLICY:
            data["policy"] = self.policy
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        """Rebuild a scenario, re-validating every component."""
        try:
            return cls(
                seed=int(data["seed"]),
                phones=tuple(phone_from_dict(p) for p in data["phones"]),
                jobs=tuple(job_from_dict(j) for j in data["jobs"]),
                measured_b={
                    str(k): float(v) for k, v in data["measured_b"].items()
                },
                true_b={str(k): float(v) for k, v in data["true_b"].items()},
                chaos=ChaosPlan.from_dict(data["chaos"]),
                arrivals=tuple(
                    (float(t), str(job_id)) for t, job_id in data["arrivals"]
                ),
                hardened=bool(data["hardened"]),
                verify_results=bool(data["verify_results"]),
                warm_start=bool(data["warm_start"]),
                kernel=str(data["kernel"]),
                deviation_sigma=float(data["deviation_sigma"]),
                keepalive_period_ms=float(data["keepalive_period_ms"]),
                keepalive_tolerated_misses=int(
                    data["keepalive_tolerated_misses"]
                ),
                max_rounds=int(data["max_rounds"]),
                policy=str(data.get("policy", DEFAULT_POLICY)),
            )
        except KeyError as exc:
            raise ValueError(f"scenario dict missing field {exc}") from exc

    def digest(self) -> str:
        """sha256 over the canonical JSON form."""
        payload = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()


def generate_scenario(seed: int) -> Scenario:
    """Deterministically generate one scenario from a seed."""
    rng = random.Random(seed)
    phones = _gen_phones(rng)
    jobs = _gen_jobs(rng)
    measured_b, true_b = _gen_b(rng, phones)

    chaos = ChaosPlan.none()
    if rng.random() < 0.75:
        monkey = ChaosMonkey(
            flap_probability=0.25,
            max_flap_cycles=2,
            flap_down_range_ms=(5_000.0, 120_000.0),
            flap_up_range_ms=(5_000.0, 120_000.0),
            straggler_probability=0.2,
            straggler_factor_range=(2.0, 6.0),
            bandwidth_probability=0.15,
            bandwidth_factor_range=(2.0, 8.0),
            crash_rate=0.3,
            corruption_rate=0.15,
            online_fraction=0.8,
        )
        chaos = monkey.sample_plan(
            [phone.phone_id for phone in phones],
            duration_ms=rng.uniform(30_000.0, 400_000.0),
            rng=rng,
        )

    hardened = rng.random() < 0.5
    verify_results = hardened and rng.random() < 0.4
    warm_start = rng.random() < 0.5
    kernel = rng.choice(("python", "numpy"))
    deviation_sigma = rng.choice((0.0, 0.03, 0.1))

    arrivals: tuple[tuple[float, str], ...] = ()
    if len(jobs) >= 2 and rng.random() < 0.35:
        late_count = rng.randint(1, len(jobs) - 1)
        late = jobs[len(jobs) - late_count :]
        pairs = poisson_arrivals(
            late, rate_per_hour=rng.uniform(60.0, 1200.0), rng=rng
        )
        arrivals = tuple(
            (round(time_ms, 3), job.job_id) for time_ms, job in pairs
        )

    return Scenario(
        seed=seed,
        phones=phones,
        jobs=jobs,
        measured_b=measured_b,
        true_b=true_b,
        chaos=chaos,
        arrivals=arrivals,
        hardened=hardened,
        verify_results=verify_results,
        warm_start=warm_start,
        kernel=kernel,
        deviation_sigma=deviation_sigma,
        keepalive_period_ms=rng.choice((5_000.0, 15_000.0, 30_000.0)),
        keepalive_tolerated_misses=rng.choice((1, 2, 3)),
        max_rounds=20,
    )


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FuzzOutcome:
    """One scenario's verdict under the oracle."""

    scenario: Scenario
    digest: str
    violations: tuple[Violation, ...]
    error: str | None = None
    makespan_ms: float | None = None
    rounds: int = 0
    completions: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations and self.error is None


def build_scenario_server(
    scenario: Scenario,
    *,
    telemetry=None,
    on_round=None,
    record_instances: bool = True,
    pods: int | None = None,
) -> CentralServer:
    """Construct a scenario's server exactly as the fuzzer runs it.

    This is *the* scenario→server mapping: the crash-recovery layer
    (``repro.durability.recovery``) replays runs by rebuilding the
    server through this same function, so any knob added to
    :class:`Scenario` must be threaded through here to keep replays
    byte-identical.  ``pods`` is deliberately *not* part of the
    scenario: it swaps in the sharded scheduler (same kernel/warm-start
    knobs) on a real pod worker pool — ``repro trace --pods`` uses it
    to profile the pod-parallel path on fuzz fleets, and ``repro fuzz
    --crash-restore --pods`` to kill/restore-drill it.
    """
    profiles = paper_task_profiles()
    truth = FleetGroundTruth(
        profiles, deviation_sigma=scenario.deviation_sigma, seed=scenario.seed
    )
    predictor = RuntimePredictor(profiles)
    resilience = (
        ResiliencePolicy.hardened(verify_results=scenario.verify_results)
        if scenario.hardened
        else None
    )
    scheduler = SchedulerConfig(
        policy=scenario.policy,
        kernel=scenario.kernel,
        warm_start=scenario.warm_start,
        pods=pods,
    ).build(telemetry=telemetry)
    return CentralServer(
        scenario.phones,
        truth,
        predictor,
        scheduler,
        scenario.measured_b,
        true_b_ms_per_kb=scenario.true_b,
        chaos=scenario.chaos,
        resilience=resilience,
        keepalive_period_ms=scenario.keepalive_period_ms,
        keepalive_tolerated_misses=scenario.keepalive_tolerated_misses,
        max_rounds=scenario.max_rounds,
        telemetry=telemetry,
        record_instances=record_instances,
        on_round=on_round,
    )


def scenario_workload(
    scenario: Scenario,
) -> tuple[tuple[Job, ...], tuple[tuple[float, Job], ...]]:
    """Split a scenario's jobs into ``(initial batch, timed arrivals)``."""
    jobs_by_id = {job.job_id: job for job in scenario.jobs}
    arriving_ids = {job_id for _, job_id in scenario.arrivals}
    initial = tuple(
        job for job in scenario.jobs if job.job_id not in arriving_ids
    )
    arrivals = tuple(
        (time_ms, jobs_by_id[job_id])
        for time_ms, job_id in scenario.arrivals
    )
    return initial, arrivals


def run_checked(
    scenario: Scenario, *, run_id: str, arm_telemetry: bool = True
) -> tuple[RunResult | None, tuple[Violation, ...], str | None]:
    """Run one scenario end to end with the oracle armed.

    Returns ``(result, violations, error)``.  A crash inside the
    simulator is a finding, not a tooling failure: it comes back as no
    result, a synthetic ``no-crash`` violation and the error text.
    ``arm_telemetry`` arms a tracer (named ``run_id``) so the oracle
    also checks the run's span tree.
    """
    telemetry = None
    if arm_telemetry:
        from ..obs.telemetry import Telemetry

        telemetry = Telemetry.create(run_id=run_id, tracing=True)
    initial, arrivals = scenario_workload(scenario)
    try:
        server = build_scenario_server(
            scenario, telemetry=telemetry, record_instances=True
        )
        result = server.run(initial, arrivals=arrivals)
    except Exception as exc:  # noqa: BLE001 - crashes are findings
        error = f"{type(exc).__name__}: {exc}"
        crash = Violation(invariant="no-crash", scope="run", message=error)
        return None, (crash,), error

    oracle = Oracle()
    spans = telemetry.tracer.spans if telemetry is not None else None
    violations = list(
        oracle.check_run(
            result, scenario.jobs, spans=spans, collect=True
        )
    )
    violations.extend(oracle.check_rounds(result, collect=True))
    return result, tuple(violations), None


def run_scenario(
    scenario: Scenario, *, arm_telemetry: bool = True
) -> FuzzOutcome:
    """Execute one scenario end to end and apply the oracle."""
    result, violations, error = run_checked(
        scenario, run_id=f"fuzz-{scenario.seed}", arm_telemetry=arm_telemetry
    )
    if result is None:
        return FuzzOutcome(
            scenario=scenario,
            digest=scenario.digest(),
            violations=violations,
            error=error,
        )
    return FuzzOutcome(
        scenario=scenario,
        digest=scenario.digest(),
        violations=violations,
        makespan_ms=result.measured_makespan_ms,
        rounds=len(result.rounds),
        completions=len(result.trace.completions),
    )


# ---------------------------------------------------------------------------
# shrinking
# ---------------------------------------------------------------------------


def _without_phone(scenario: Scenario, phone_id: str) -> Scenario:
    """Drop one phone plus every fault and rate table entry naming it."""
    chaos = scenario.chaos
    return dataclasses.replace(
        scenario,
        phones=tuple(p for p in scenario.phones if p.phone_id != phone_id),
        measured_b={
            k: v for k, v in scenario.measured_b.items() if k != phone_id
        },
        true_b={k: v for k, v in scenario.true_b.items() if k != phone_id},
        chaos=ChaosPlan(
            failures=[f for f in chaos.failures if f.phone_id != phone_id],
            slowdowns=[s for s in chaos.slowdowns if s.phone_id != phone_id],
            bandwidth=[b for b in chaos.bandwidth if b.phone_id != phone_id],
            crashes=[c for c in chaos.crashes if c.phone_id != phone_id],
            corruptions=[
                c for c in chaos.corruptions if c.phone_id != phone_id
            ],
        ),
    )


def _without_job(scenario: Scenario, job_id: str) -> Scenario:
    return dataclasses.replace(
        scenario,
        jobs=tuple(j for j in scenario.jobs if j.job_id != job_id),
        arrivals=tuple(
            (t, jid) for t, jid in scenario.arrivals if jid != job_id
        ),
    )


def _chaos_stream_variants(scenario: Scenario) -> list[Scenario]:
    """Variants with one whole chaos stream emptied, then single faults cut."""
    chaos = scenario.chaos
    streams = {
        "failures": tuple(chaos.failures),
        "slowdowns": chaos.slowdowns,
        "bandwidth": chaos.bandwidth,
        "crashes": chaos.crashes,
        "corruptions": chaos.corruptions,
    }
    base = {name: list(faults) for name, faults in streams.items()}
    variants = []
    for name, faults in streams.items():
        if not faults:
            continue
        whole = dict(base)
        whole[name] = []
        variants.append(whole)
        for index in range(len(faults)):
            single = dict(base)
            single[name] = [f for i, f in enumerate(faults) if i != index]
            variants.append(single)
    scenarios = []
    for spec in variants:
        try:
            scenarios.append(
                dataclasses.replace(scenario, chaos=ChaosPlan(**spec))
            )
        except ValueError:
            # Removing one failure from a flap chain can invalidate the
            # remaining stream; such candidates are simply skipped.
            continue
    return scenarios


def _shrink_candidates(scenario: Scenario) -> list[Scenario]:
    """All one-step-smaller scenarios, cheapest cuts first."""
    candidates: list[Scenario] = []
    if scenario.arrivals:
        candidates.append(dataclasses.replace(scenario, arrivals=()))
    if scenario.hardened:
        candidates.append(
            dataclasses.replace(
                scenario, hardened=False, verify_results=False
            )
        )
    elif scenario.verify_results:
        candidates.append(
            dataclasses.replace(scenario, verify_results=False)
        )
    candidates.extend(_chaos_stream_variants(scenario))
    if len(scenario.jobs) > 1:
        for job in scenario.jobs:
            try:
                candidates.append(_without_job(scenario, job.job_id))
            except ValueError:
                continue
    if len(scenario.phones) > 1:
        for phone in scenario.phones:
            try:
                candidates.append(_without_phone(scenario, phone.phone_id))
            except ValueError:
                continue
    return candidates


def minimize_scenario(
    scenario: Scenario,
    *,
    is_failing: Callable[[Scenario], bool] | None = None,
    budget: int = 120,
) -> Scenario:
    """Greedy shrink: keep cutting while the scenario still fails.

    ``is_failing`` defaults to "the oracle reports any violation or the
    sim crashes"; the minimum may therefore exhibit a *different*
    violation than the original — both are findings.  At most
    ``budget`` candidate simulations run.
    """
    if is_failing is None:

        def is_failing(candidate: Scenario) -> bool:
            return not run_scenario(candidate).ok

    if not is_failing(scenario):
        return scenario
    spent = 0
    current = scenario
    progressed = True
    while progressed and spent < budget:
        progressed = False
        for candidate in _shrink_candidates(current):
            if spent >= budget:
                break
            spent += 1
            if is_failing(candidate):
                current = candidate
                progressed = True
                break
    return current


# ---------------------------------------------------------------------------
# artifacts and replay
# ---------------------------------------------------------------------------


def write_artifact(
    outcome: FuzzOutcome, directory: str | Path, *, minimized: bool = False
) -> Path:
    """Write ``fuzz-<seed>.json``; returns the artifact path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"fuzz-{outcome.scenario.seed}.json"
    payload = {
        "format": ARTIFACT_FORMAT,
        "seed": outcome.scenario.seed,
        "digest": outcome.digest,
        "minimized": minimized,
        "violations": [
            {
                "invariant": v.invariant,
                "scope": v.scope,
                "message": v.message,
            }
            for v in outcome.violations
        ],
        "error": outcome.error,
        "makespan_ms": outcome.makespan_ms,
        "scenario": outcome.scenario.to_dict(),
    }
    with path.open("w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path


@dataclass(frozen=True)
class ReplayResult:
    """Outcome of re-executing a saved artifact."""

    outcome: FuzzOutcome
    digest_matches: bool
    recorded_violations: tuple[str, ...]

    @property
    def reproduced(self) -> bool:
        """The replay shows the same failing/passing verdict as recorded."""
        return bool(self.recorded_violations) == (not self.outcome.ok)


def replay_artifact(path: str | Path) -> ReplayResult:
    """Re-execute a ``fuzz-<seed>.json`` artifact deterministically."""
    with Path(path).open(encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("format") != ARTIFACT_FORMAT:
        raise ValueError(
            f"unsupported artifact format {payload.get('format')!r} "
            f"(expected {ARTIFACT_FORMAT})"
        )
    scenario = Scenario.from_dict(payload["scenario"])
    outcome = run_scenario(scenario)
    return ReplayResult(
        outcome=outcome,
        digest_matches=outcome.digest == payload.get("digest"),
        recorded_violations=tuple(
            v["invariant"] for v in payload.get("violations", ())
        ),
    )


# ---------------------------------------------------------------------------
# campaigns
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FuzzReport:
    """Summary of a whole fuzz campaign."""

    runs: int
    seed: int
    digests: tuple[str, ...]
    failures: tuple[FuzzOutcome, ...]
    artifacts: tuple[str, ...]
    campaign_digest: str

    @property
    def ok(self) -> bool:
        return not self.failures


def run_campaign(
    runs: int,
    *,
    seed: int = 0,
    out_dir: str | Path | None = None,
    minimize: bool = True,
    minimize_budget: int = 120,
    progress: Callable[[int, FuzzOutcome], None] | None = None,
) -> FuzzReport:
    """Fuzz ``runs`` scenarios derived from ``seed``.

    Failing scenarios are shrunk (when ``minimize``) and written as
    replay artifacts under ``out_dir``.  The campaign digest hashes
    every run's scenario digest, measured makespan, and violation
    count, so two campaigns from the same seed must produce identical
    digests — the determinism acceptance check.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs!r}")
    digests: list[str] = []
    failures: list[FuzzOutcome] = []
    artifacts: list[str] = []
    hasher = hashlib.sha256()
    for index, scenario_seed in enumerate(derive_seeds(seed, runs)):
        scenario = generate_scenario(scenario_seed)
        outcome = run_scenario(scenario)
        digests.append(outcome.digest)
        hasher.update(
            f"{outcome.digest}:{outcome.makespan_ms!r}:"
            f"{len(outcome.violations)}\n".encode()
        )
        if progress is not None:
            progress(index, outcome)
        if outcome.ok:
            continue
        if minimize:
            minimal = minimize_scenario(
                scenario, budget=minimize_budget
            )
            outcome = run_scenario(minimal)
            if outcome.ok:
                # Shrinking lost the failure (flaky only under the full
                # scenario): fall back to the original outcome.
                outcome = run_scenario(scenario)
        failures.append(outcome)
        if out_dir is not None:
            artifacts.append(
                str(write_artifact(outcome, out_dir, minimized=minimize))
            )
    return FuzzReport(
        runs=runs,
        seed=seed,
        digests=tuple(digests),
        failures=tuple(failures),
        artifacts=tuple(artifacts),
        campaign_digest=hasher.hexdigest(),
    )


@dataclass(frozen=True)
class CrashRestoreReport:
    """Summary of a crash/restore drill campaign.

    ``outcomes`` are :class:`~repro.durability.recovery.CrashRestoreOutcome`
    records, one per scenario; ``failures`` are those whose restored run
    was not byte-identical to the baseline, tripped the oracle, or
    errored.  ``campaign_digest`` hashes each scenario's digest together
    with its kill instant and verdict, so two campaigns from the same
    seed must match digest-for-digest.
    """

    runs: int
    seed: int
    outcomes: tuple
    failures: tuple
    campaign_digest: str
    kills: int
    cold_restarts: int

    @property
    def ok(self) -> bool:
        return not self.failures


def run_crash_restore_campaign(
    runs: int,
    *,
    seed: int = 0,
    store_root: str | Path | None = None,
    progress: Callable[[int, object], None] | None = None,
    pods: int | None = None,
    tracing: bool = True,
) -> CrashRestoreReport:
    """Kill/restore-drill ``runs`` scenarios derived from ``seed``.

    Each scenario goes through the full
    :func:`~repro.durability.recovery.crash_restore_check`: baseline
    run, a rerun killed at a seed-chosen scheduling instant with
    round-boundary checkpoints, and a replay-verified restore whose
    remaining schedule and trace must be byte-identical to the
    baseline's with zero oracle violations.  Snapshot stores live under
    ``store_root`` (a temporary directory when omitted), one
    ``crash-<seed>`` subdirectory per scenario.

    ``pods`` runs every leg through the sharded scheduler on a pod
    worker pool (see :func:`build_scenario_server`), so kills land
    while pool workers are live; the baseline shares the knob, so the
    drill still compares like with like.

    ``tracing`` (default on) arms the span tracer on the killed and
    restored legs: every kill must leave only closed spans behind and
    the restored run additionally passes the span invariants — again
    without perturbing digests, since spans never enter them.
    """
    import tempfile

    from ..durability.recovery import crash_restore_check

    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs!r}")

    cleanup = None
    if store_root is None:
        cleanup = tempfile.TemporaryDirectory(prefix="crash-restore-")
        store_root = cleanup.name
    root = Path(store_root)

    outcomes = []
    failures = []
    kills = 0
    cold_restarts = 0
    hasher = hashlib.sha256()
    try:
        for index, scenario_seed in enumerate(derive_seeds(seed, runs)):
            scenario = generate_scenario(scenario_seed)
            outcome = crash_restore_check(
                scenario,
                store_dir=root / f"crash-{scenario_seed}",
                pods=pods,
                tracing=tracing,
            )
            outcomes.append(outcome)
            hasher.update(
                f"{scenario.digest()}:{outcome.kill_instant}:"
                f"{outcome.identical}:{len(outcome.violations)}\n".encode()
            )
            if outcome.killed:
                kills += 1
            if outcome.snapshot_id is None and outcome.error is None:
                cold_restarts += 1
            if not outcome.ok:
                failures.append(outcome)
            if progress is not None:
                progress(index, outcome)
    finally:
        if cleanup is not None:
            cleanup.cleanup()
    return CrashRestoreReport(
        runs=runs,
        seed=seed,
        outcomes=tuple(outcomes),
        failures=tuple(failures),
        campaign_digest=hasher.hexdigest(),
        kills=kills,
        cold_restarts=cold_restarts,
    )

"""Monte Carlo policy tournaments: policies race on shared chaos.

The pluggable-policy layer (:mod:`repro.core.policies`) makes "which
scheduler should the fleet run tonight?" an empirical question.  This
module answers it the FoundationDB way: every competitor runs the
*same* seeded scenarios under the *same* chaos plans (paired
comparison — variance between policies is policy variance, not
scenario luck), the full invariant oracle is armed on every leg, and
the whole tournament folds into one sha256 digest so a rerun from the
same seed must reproduce it byte for byte.

A tournament is ``policies x regimes x scenarios``.  Scenarios come
from the fuzzer grammar (:func:`~repro.verify.fuzz.generate_scenario`);
each :class:`ChaosRegime` then overwrites the scenario's chaos with a
plan sampled from its own :class:`~repro.sim.chaos.ChaosMonkey`
profile, so the regimes span conditions the fuzzer's single mixed
profile would blur together (a calm fleet vs. heavy churn).  Per leg
the harness scores

* **makespan_ms** — measured finish time of the whole workload,
* **energy_j** — fleet joules via the policy layer's own electrical
  model (:func:`~repro.core.policies.run_energy_joules`), and
* **recovery_ms** — mean failure-detection latency (server keep-alive
  reaction time), 0 when the regime injected no detectable failure,

and the scoreboard reports per-(policy, regime) means with bootstrap
confidence bands.  A policy *wins* a (regime, metric) cell when its
mean is lowest; the win is *significant* when its band does not
overlap the default policy's band.

Artifacts (``tournament-<seed>.json``) carry the full config, every
leg, the scoreboard, and the digest; :func:`replay_tournament` reruns
the config and flags any divergence — the CLI turns that into exit
code 2.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import random
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from ..core.policies import DEFAULT_POLICY, POLICY_NAMES, run_energy_joules
from ..sim.chaos import ChaosMonkey
from .fuzz import Scenario, derive_seeds, generate_scenario, run_checked

__all__ = [
    "TOURNAMENT_FORMAT",
    "REGIMES",
    "ChaosRegime",
    "TournamentLeg",
    "PolicyCell",
    "TournamentReport",
    "TournamentReplayResult",
    "bootstrap_ci",
    "run_leg",
    "run_tournament",
    "write_tournament_artifact",
    "replay_tournament",
]

#: Version stamp of the ``tournament-<seed>.json`` artifact layout.
TOURNAMENT_FORMAT = 1

#: Metrics scored per leg, in scoreboard order (all lower-is-better).
METRICS = ("makespan_ms", "energy_j", "recovery_ms")


@dataclass(frozen=True)
class ChaosRegime:
    """A named chaos intensity: ChaosMonkey rates plus a fault window.

    ``monkey`` holds :class:`~repro.sim.chaos.ChaosMonkey` constructor
    kwargs verbatim so a regime serialises to JSON and replays exactly.
    """

    name: str
    description: str
    monkey: Mapping[str, object] = field(default_factory=dict)
    duration_ms: float = 240_000.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("regime name must be non-empty")
        if self.duration_ms <= 0:
            raise ValueError(
                f"duration_ms must be > 0, got {self.duration_ms!r}"
            )
        # Fail fast on bad rates instead of at the first sampled leg.
        ChaosMonkey(**dict(self.monkey))

    def sample_plan(self, phone_ids: Sequence[str], rng: random.Random):
        """One chaos plan for a fleet (list conversion keeps rng use fixed)."""
        monkey = ChaosMonkey(**dict(self.monkey))
        return monkey.sample_plan(
            list(phone_ids), duration_ms=self.duration_ms, rng=rng
        )


#: The stock regimes: a mostly-healthy night and a hostile one.  The
#: churn profile is deliberately flap-heavy, so reactive speculation
#: and rescheduling carry real weight.
REGIMES: dict[str, ChaosRegime] = {
    "calm": ChaosRegime(
        name="calm",
        description="mostly-healthy fleet: rare slowdowns, no churn",
        monkey={
            "flap_probability": 0.05,
            "max_flap_cycles": 1,
            "flap_down_range_ms": (5_000.0, 30_000.0),
            "flap_up_range_ms": (5_000.0, 30_000.0),
            "straggler_probability": 0.1,
            "straggler_factor_range": (2.0, 3.0),
            "bandwidth_probability": 0.05,
            "bandwidth_factor_range": (2.0, 4.0),
            "crash_rate": 0.05,
            "corruption_rate": 0.0,
            "online_fraction": 1.0,
        },
        duration_ms=240_000.0,
    ),
    "churn": ChaosRegime(
        name="churn",
        description="hostile night: heavy flapping, crashes, stragglers",
        monkey={
            "flap_probability": 0.65,
            "max_flap_cycles": 3,
            "flap_down_range_ms": (20_000.0, 180_000.0),
            "flap_up_range_ms": (10_000.0, 90_000.0),
            "straggler_probability": 0.35,
            "straggler_factor_range": (3.0, 8.0),
            "bandwidth_probability": 0.2,
            "bandwidth_factor_range": (2.0, 6.0),
            "crash_rate": 0.5,
            "corruption_rate": 0.0,
            "online_fraction": 0.6,
        },
        duration_ms=300_000.0,
    ),
}


def bootstrap_ci(
    values: Sequence[float],
    *,
    rng: random.Random,
    resamples: int = 200,
    alpha: float = 0.05,
) -> tuple[float, float]:
    """Percentile bootstrap band for the mean of ``values``.

    Deterministic given the rng, so bands enter the digest safely.
    Degenerate samples (0 or 1 value) collapse to a zero-width band.
    """
    if resamples < 1:
        raise ValueError(f"resamples must be >= 1, got {resamples!r}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    if not values:
        return (0.0, 0.0)
    if len(values) == 1:
        return (values[0], values[0])
    means = sorted(
        sum(rng.choice(values) for _ in values) / len(values)
        for _ in range(resamples)
    )
    lo_index = int(math.floor(alpha / 2.0 * (resamples - 1)))
    hi_index = int(math.ceil((1.0 - alpha / 2.0) * (resamples - 1)))
    return (means[lo_index], means[hi_index])


@dataclass(frozen=True)
class TournamentLeg:
    """One policy's run of one scenario under one regime."""

    policy: str
    regime: str
    scenario_seed: int
    scenario_digest: str
    makespan_ms: float
    energy_j: float
    recovery_ms: float
    violations: tuple[str, ...]
    error: str | None = None

    @property
    def ok(self) -> bool:
        return not self.violations and self.error is None

    def digest_line(self) -> str:
        """The leg's contribution to the tournament digest."""
        return (
            f"{self.policy}:{self.regime}:{self.scenario_digest}:"
            f"{self.makespan_ms!r}:{self.energy_j!r}:"
            f"{self.recovery_ms!r}:{len(self.violations)}\n"
        )

    def to_dict(self) -> dict:
        return {
            "policy": self.policy,
            "regime": self.regime,
            "scenario_seed": self.scenario_seed,
            "scenario_digest": self.scenario_digest,
            "makespan_ms": self.makespan_ms,
            "energy_j": self.energy_j,
            "recovery_ms": self.recovery_ms,
            "violations": list(self.violations),
            "error": self.error,
        }


@dataclass(frozen=True)
class PolicyCell:
    """Aggregated scoreboard cell: one policy under one regime.

    ``stats`` carries raw per-metric means with bootstrap bands.
    ``vs_default`` carries the *paired* per-scenario ratio against the
    default policy (same scenarios, same chaos — the ratio cancels
    scenario luck), which is what significance judgements use; it is
    empty for the default policy itself and skips legs where the
    default's metric is zero.
    """

    policy: str
    regime: str
    legs: int
    #: metric -> (mean, ci_low, ci_high) over raw per-leg values
    stats: Mapping[str, tuple[float, float, float]]
    #: metric -> (ratio mean, ci_low, ci_high) vs the default policy
    vs_default: Mapping[str, tuple[float, float, float]] = field(
        default_factory=dict
    )

    def mean(self, metric: str) -> float:
        return self.stats[metric][0]

    def band(self, metric: str) -> tuple[float, float]:
        _, lo, hi = self.stats[metric]
        return (lo, hi)

    def ratio_band(self, metric: str) -> tuple[float, float] | None:
        if metric not in self.vs_default:
            return None
        _, lo, hi = self.vs_default[metric]
        return (lo, hi)

    def to_dict(self) -> dict:
        return {
            "policy": self.policy,
            "regime": self.regime,
            "legs": self.legs,
            "stats": {
                metric: {
                    "mean": mean,
                    "ci_low": lo,
                    "ci_high": hi,
                }
                for metric, (mean, lo, hi) in sorted(self.stats.items())
            },
            "vs_default": {
                metric: {
                    "mean": mean,
                    "ci_low": lo,
                    "ci_high": hi,
                }
                for metric, (mean, lo, hi) in sorted(
                    self.vs_default.items()
                )
            },
        }


@dataclass(frozen=True)
class TournamentReport:
    """A finished tournament: every leg, the scoreboard, the digest."""

    seed: int
    runs: int
    policies: tuple[str, ...]
    regimes: tuple[str, ...]
    legs: tuple[TournamentLeg, ...]
    cells: tuple[PolicyCell, ...]
    #: regime -> metric -> {"policy", "significant"}
    winners: Mapping[str, Mapping[str, Mapping[str, object]]]
    digest: str
    #: The full regime specs the tournament actually ran (artifacts
    #: serialise these, so replays survive stock-regime retuning).
    regime_specs: tuple[ChaosRegime, ...] = ()

    @property
    def ok(self) -> bool:
        """True when every leg passed the oracle cleanly."""
        return all(leg.ok for leg in self.legs)

    @property
    def violation_count(self) -> int:
        return sum(len(leg.violations) for leg in self.legs)

    def cell(self, policy: str, regime: str) -> PolicyCell:
        for cell in self.cells:
            if cell.policy == policy and cell.regime == regime:
                return cell
        raise KeyError(f"no cell for policy={policy!r} regime={regime!r}")

    def summary_lines(self) -> list[str]:
        """Human-readable scoreboard (what the CLI prints)."""
        lines = [
            f"tournament: seed={self.seed} runs={self.runs} "
            f"policies={len(self.policies)} regimes={len(self.regimes)} "
            f"legs={len(self.legs)} violations={self.violation_count}"
        ]
        for regime in self.regimes:
            lines.append(f"  regime {regime}:")
            for metric in METRICS:
                ranked = sorted(
                    (c for c in self.cells if c.regime == regime),
                    key=lambda c: c.mean(metric),
                )
                verdict = self.winners[regime][metric]
                mark = "**" if verdict["significant"] else ""

                def _cell_text(cell: PolicyCell) -> str:
                    text = (
                        f"{cell.policy}={cell.mean(metric):.1f}"
                        f"[{cell.band(metric)[0]:.1f},"
                        f"{cell.band(metric)[1]:.1f}]"
                    )
                    band = cell.ratio_band(metric)
                    if band is not None:
                        ratio = cell.vs_default[metric][0]
                        text += (
                            f"(x{ratio:.2f}[{band[0]:.2f},{band[1]:.2f}])"
                        )
                    return text

                lines.append(
                    f"    {metric:<12}: "
                    + "  ".join(_cell_text(c) for c in ranked)
                    + f"  -> {verdict['policy']}{mark}"
                )
        lines.append(f"  digest: {self.digest}")
        return lines


def _leg_metrics(result, scenario: Scenario) -> tuple[float, float, float]:
    """(makespan_ms, energy_j, recovery_ms) for one finished run."""
    trace = result.trace
    makespan = result.measured_makespan_ms
    energy = run_energy_joules(trace, scenario.phones)
    latencies = [
        record.detected_at_ms - record.failed_at_ms
        for record in trace.failures
    ]
    recovery = sum(latencies) / len(latencies) if latencies else 0.0
    return makespan, energy, recovery


def run_leg(scenario: Scenario, *, arm_telemetry: bool = True) -> TournamentLeg:
    """Run one scenario, oracle armed, and score the three metrics.

    Simulator crashes are findings, not tooling failures: they surface
    as a synthetic ``no-crash`` violation, as in the fuzzer
    (:func:`~repro.verify.fuzz.run_checked`).
    """
    result, violations, error = run_checked(
        scenario,
        run_id=f"tournament-{scenario.policy}-{scenario.seed}",
        arm_telemetry=arm_telemetry,
    )
    makespan, energy, recovery = (
        (0.0, 0.0, 0.0) if result is None else _leg_metrics(result, scenario)
    )
    return TournamentLeg(
        policy=scenario.policy,
        regime="",
        scenario_seed=scenario.seed,
        scenario_digest=scenario.digest(),
        makespan_ms=makespan,
        energy_j=energy,
        recovery_ms=recovery,
        violations=tuple(v.invariant for v in violations),
        error=error,
    )


def _resolve_regimes(
    regimes: Sequence[str | ChaosRegime],
) -> tuple[ChaosRegime, ...]:
    resolved = []
    for regime in regimes:
        if isinstance(regime, ChaosRegime):
            resolved.append(regime)
        elif regime in REGIMES:
            resolved.append(REGIMES[regime])
        else:
            raise ValueError(
                f"unknown chaos regime {regime!r}; known regimes: "
                f"{', '.join(sorted(REGIMES))}"
            )
    if not resolved:
        raise ValueError("tournament needs at least one regime")
    names = [regime.name for regime in resolved]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate regime names: {names}")
    return tuple(resolved)


def _check_policies(policies: Sequence[str]) -> tuple[str, ...]:
    if not policies:
        raise ValueError("tournament needs at least one policy")
    for policy in policies:
        if policy not in POLICY_NAMES:
            raise ValueError(
                f"unknown policy {policy!r}; known policies: "
                f"{', '.join(POLICY_NAMES)}"
            )
    if len(set(policies)) != len(policies):
        raise ValueError(f"duplicate policies: {list(policies)}")
    return tuple(policies)


def _score(
    legs: Sequence[TournamentLeg],
    policies: Sequence[str],
    regimes: Sequence[str],
) -> tuple[tuple[PolicyCell, ...], dict]:
    # Pair up legs: same (regime, scenario) across policies.
    default_by_key: dict[tuple[str, int], TournamentLeg] = {
        (leg.regime, leg.scenario_seed): leg
        for leg in legs
        if leg.policy == DEFAULT_POLICY
    }
    cells: list[PolicyCell] = []
    for regime in regimes:
        for policy in policies:
            sample = [
                leg
                for leg in legs
                if leg.policy == policy and leg.regime == regime
            ]
            stats = {}
            vs_default = {}
            for metric in METRICS:
                values = [getattr(leg, metric) for leg in sample]
                mean = sum(values) / len(values) if values else 0.0
                rng = random.Random(f"bootstrap:{policy}:{regime}:{metric}")
                lo, hi = bootstrap_ci(values, rng=rng)
                stats[metric] = (mean, lo, hi)
                if policy == DEFAULT_POLICY:
                    continue
                ratios = []
                for leg in sample:
                    base = default_by_key.get(
                        (leg.regime, leg.scenario_seed)
                    )
                    if base is None:
                        continue
                    base_value = getattr(base, metric)
                    if base_value > 0:
                        ratios.append(getattr(leg, metric) / base_value)
                if ratios:
                    ratio_rng = random.Random(
                        f"paired:{policy}:{regime}:{metric}"
                    )
                    ratio_lo, ratio_hi = bootstrap_ci(ratios, rng=ratio_rng)
                    vs_default[metric] = (
                        sum(ratios) / len(ratios),
                        ratio_lo,
                        ratio_hi,
                    )
            cells.append(
                PolicyCell(
                    policy=policy,
                    regime=regime,
                    legs=len(sample),
                    stats=stats,
                    vs_default=vs_default,
                )
            )
    winners: dict[str, dict[str, dict[str, object]]] = {}
    for regime in regimes:
        winners[regime] = {}
        regime_cells = [cell for cell in cells if cell.regime == regime]
        for metric in METRICS:
            best = min(regime_cells, key=lambda c: c.mean(metric))
            # A non-default win is significant when the whole paired
            # confidence band sits below ratio 1.0 — the policy beat
            # the default on the same scenarios, not on easier ones.
            significant = False
            band = best.ratio_band(metric)
            if best.policy != DEFAULT_POLICY and band is not None:
                significant = band[1] < 1.0
            winners[regime][metric] = {
                "policy": best.policy,
                "significant": significant,
            }
    return tuple(cells), winners


def run_tournament(
    runs: int,
    *,
    policies: Sequence[str] = POLICY_NAMES,
    regimes: Sequence[str | ChaosRegime] = ("calm", "churn"),
    seed: int = 0,
    progress: Callable[[int, TournamentLeg], None] | None = None,
) -> TournamentReport:
    """Race ``policies`` over ``runs`` scenarios per regime.

    Per (regime, scenario) every policy sees the *identical* fuzzed
    scenario and the *identical* regime-sampled chaos plan — the only
    free variable on a leg is the policy, so the scoreboard compares
    like with like.  Legs are hardened (speculation armed) so every
    policy's placements meet the server's reactive backups; result
    verification stays off to keep duplicate executions out of the
    energy bill.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs!r}")
    policy_names = _check_policies(policies)
    regime_objs = _resolve_regimes(regimes)
    hasher = hashlib.sha256()
    legs: list[TournamentLeg] = []
    index = 0
    for regime in regime_objs:
        for scenario_seed in derive_seeds(seed, runs):
            base = generate_scenario(scenario_seed)
            # String-seeded Random is stable across processes (unlike
            # hash()), so the plan replays byte-for-byte.
            plan_rng = random.Random(
                f"tournament:{seed}:{regime.name}:{scenario_seed}"
            )
            plan = regime.sample_plan(
                [phone.phone_id for phone in base.phones], plan_rng
            )
            for policy in policy_names:
                scenario = dataclasses.replace(
                    base,
                    chaos=plan,
                    hardened=True,
                    verify_results=False,
                    policy=policy,
                )
                leg = dataclasses.replace(
                    run_leg(scenario), regime=regime.name
                )
                legs.append(leg)
                hasher.update(leg.digest_line().encode())
                if progress is not None:
                    progress(index, leg)
                index += 1
    cells, winners = _score(
        legs, policy_names, [regime.name for regime in regime_objs]
    )
    return TournamentReport(
        seed=seed,
        runs=runs,
        policies=policy_names,
        regimes=tuple(regime.name for regime in regime_objs),
        legs=tuple(legs),
        cells=cells,
        winners=winners,
        digest=hasher.hexdigest(),
        regime_specs=regime_objs,
    )


# ---------------------------------------------------------------------------
# artifacts and replay
# ---------------------------------------------------------------------------


def write_tournament_artifact(
    report: TournamentReport, directory: str | Path
) -> Path:
    """Write ``tournament-<seed>.json``; returns the artifact path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"tournament-{report.seed}.json"
    payload = {
        "format": TOURNAMENT_FORMAT,
        "seed": report.seed,
        "runs": report.runs,
        "policies": list(report.policies),
        "regimes": [
            {
                "name": regime.name,
                "description": regime.description,
                "monkey": {
                    key: list(value) if isinstance(value, tuple) else value
                    for key, value in regime.monkey.items()
                },
                "duration_ms": regime.duration_ms,
            }
            for regime in report.regime_specs
        ],
        "digest": report.digest,
        "violations": report.violation_count,
        "legs": [leg.to_dict() for leg in report.legs],
        "cells": [cell.to_dict() for cell in report.cells],
        "winners": {
            regime: {
                metric: dict(verdict)
                for metric, verdict in metrics.items()
            }
            for regime, metrics in report.winners.items()
        },
    }
    with path.open("w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path


@dataclass(frozen=True)
class TournamentReplayResult:
    """Outcome of re-running a saved tournament artifact."""

    report: TournamentReport
    recorded_digest: str
    digest_matches: bool


def replay_tournament(
    path: str | Path,
    *,
    progress: Callable[[int, TournamentLeg], None] | None = None,
) -> TournamentReplayResult:
    """Re-run a ``tournament-<seed>.json`` artifact's exact config.

    Regimes are rebuilt from the serialised monkey rates (not the
    stock :data:`REGIMES` table), so artifacts survive future regime
    retuning.  ``digest_matches`` is the determinism verdict.
    """
    with Path(path).open(encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("format") != TOURNAMENT_FORMAT:
        raise ValueError(
            f"unsupported tournament artifact format "
            f"{payload.get('format')!r} (expected {TOURNAMENT_FORMAT})"
        )
    regimes = []
    for spec in payload["regimes"]:
        if "monkey" not in spec:
            raise ValueError(
                f"artifact regime {spec.get('name')!r} carries no monkey "
                "rates; cannot replay"
            )
        regimes.append(
            ChaosRegime(
                name=str(spec["name"]),
                description=str(spec.get("description", "")),
                monkey={
                    key: tuple(value) if isinstance(value, list) else value
                    for key, value in spec["monkey"].items()
                },
                duration_ms=float(spec["duration_ms"]),
            )
        )
    report = run_tournament(
        int(payload["runs"]),
        policies=tuple(str(p) for p in payload["policies"]),
        regimes=regimes,
        seed=int(payload["seed"]),
        progress=progress,
    )
    return TournamentReplayResult(
        report=report,
        recorded_digest=str(payload["digest"]),
        digest_matches=report.digest == str(payload["digest"]),
    )

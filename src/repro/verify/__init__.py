"""Correctness tooling: invariant oracle, differential runner, fuzzer.

The paper's central correctness claim — every dispatched byte is
processed exactly once, despite failures, migration, speculation, and
verification (Sections 4–5) — is too easy to break silently while
evolving the scheduler hot path.  This package machine-checks it:

``repro.verify.invariants``
    A registry of named behavioural invariants over schedules and
    timeline traces (conservation of work, capacity soundness, makespan
    consistency, tracer/event agreement, dark-window/zombie rules).
``repro.verify.oracle``
    :class:`Oracle` applies the registry to any
    :class:`~repro.sim.server.RunResult` or
    (:class:`~repro.core.instance.SchedulingInstance`,
    :class:`~repro.core.schedule.Schedule`) pair, raising or collecting
    :class:`Violation` records.
``repro.verify.differential``
    Runs one instance through the reference, incremental-python, and
    vectorized-numpy kernels, warm and cold, asserting byte-identical
    schedules and the LP sandwich ``lp <= makespan <= greedy_bound``.
    The sharded leg additionally pins ``pods=1`` byte-identical to the
    monolithic scheduler and multi-pod makespans inside the
    pod-aggregated LP sandwich.
``repro.verify.fuzz``
    A deterministic scenario fuzzer (``repro fuzz``): one seed generates
    a random fleet, job mix, availability pattern, and chaos plan; the
    full simulation runs under the oracle; failures are minimized into
    replayable ``fuzz-<seed>.json`` artifacts.
``repro.verify.tournament``
    Monte Carlo policy-vs-policy campaigns (``repro tournament``):
    every :mod:`repro.core.policies` competitor runs the same fuzzed
    scenarios under the same chaos regimes with the oracle armed,
    scored on makespan/energy/recovery with bootstrap confidence
    bands, the whole tournament folded into one replayable digest.
"""

import importlib

from .invariants import (
    Invariant,
    InvariantViolation,
    RunContext,
    ScheduleContext,
    Violation,
    run_registry,
    schedule_registry,
)
from .oracle import Oracle

# The fuzzer and the differential runner import the scheduler and the
# simulator wholesale; loading them eagerly here would close an import
# cycle (core -> obs -> sim -> validation -> verify -> fuzz -> core).
# They resolve lazily on first attribute access instead (PEP 562).
_LAZY_EXPORTS = {
    "DifferentialMismatchError": ".differential",
    "DifferentialReport": ".differential",
    "ShardedDifferentialReport": ".differential",
    "differential_check": ".differential",
    "run_differential_campaign": ".differential",
    "run_sharded_campaign": ".differential",
    "sharded_differential_check": ".differential",
    "FuzzOutcome": ".fuzz",
    "FuzzReport": ".fuzz",
    "ReplayResult": ".fuzz",
    "Scenario": ".fuzz",
    "derive_seeds": ".fuzz",
    "generate_instance": ".fuzz",
    "generate_scenario": ".fuzz",
    "minimize_scenario": ".fuzz",
    "replay_artifact": ".fuzz",
    "run_campaign": ".fuzz",
    "run_scenario": ".fuzz",
    "write_artifact": ".fuzz",
    "ChaosRegime": ".tournament",
    "PolicyCell": ".tournament",
    "REGIMES": ".tournament",
    "TournamentLeg": ".tournament",
    "TournamentReplayResult": ".tournament",
    "TournamentReport": ".tournament",
    "replay_tournament": ".tournament",
    "run_tournament": ".tournament",
    "write_tournament_artifact": ".tournament",
}


def __getattr__(name: str):
    """Resolve the lazily-exported fuzz/differential names."""
    try:
        module_name = _LAZY_EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    value = getattr(importlib.import_module(module_name, __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    """Advertise lazy exports alongside the eagerly-bound names."""
    return sorted(set(globals()) | set(_LAZY_EXPORTS))


__all__ = [
    "DifferentialMismatchError",
    "DifferentialReport",
    "ShardedDifferentialReport",
    "differential_check",
    "run_differential_campaign",
    "run_sharded_campaign",
    "sharded_differential_check",
    "FuzzOutcome",
    "FuzzReport",
    "ReplayResult",
    "Scenario",
    "derive_seeds",
    "generate_instance",
    "generate_scenario",
    "minimize_scenario",
    "replay_artifact",
    "run_campaign",
    "run_scenario",
    "write_artifact",
    "ChaosRegime",
    "PolicyCell",
    "REGIMES",
    "TournamentLeg",
    "TournamentReplayResult",
    "TournamentReport",
    "replay_tournament",
    "run_tournament",
    "write_tournament_artifact",
    "Invariant",
    "InvariantViolation",
    "RunContext",
    "ScheduleContext",
    "Violation",
    "run_registry",
    "schedule_registry",
    "Oracle",
]

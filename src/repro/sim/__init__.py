"""Discrete-event simulation substrate for CWC.

This package replaces the paper's physical testbed: an event loop
(:class:`EventLoop`), ground-truth phone runtimes
(:class:`FleetGroundTruth`, :class:`PhoneRuntime`), keep-alive failure
detection (:class:`KeepAliveMonitor`), failure injection
(:class:`FailurePlan`, :class:`RandomUnplugModel`), composable chaos
injection (:class:`ChaosPlan`, :class:`ChaosMonkey`), the resilience
policy knobs (:class:`ResiliencePolicy`), and the central server
orchestration (:class:`CentralServer`) that dispatches schedules,
collects completions, refines predictions, migrates failed work, and —
when hardened — detects stragglers, speculates, retries timeouts, and
verifies results.
"""

from .campaign import (
    CAMPAIGN_SNAPSHOT_KIND,
    ContinuousCampaign,
    ContinuousCampaignResult,
    ContinuousNightRecord,
    capacity_planning_report,
)
from .churn import ChurnEvent, FleetChurnModel, unplug_profile_from_logs
from .chaos import (
    BandwidthDegradation,
    ChaosMonkey,
    ChaosPlan,
    CpuSlowdown,
    ResiliencePolicy,
    ResultCorruption,
    TaskCrash,
)
from .engine import EventLoop, EventToken, SimulationError
from .entities import FleetGroundTruth, PhoneRuntime, PhoneState
from .failures import FailurePlan, PlannedFailure, RandomUnplugModel
from .keepalive import (
    DEFAULT_PERIOD_MS,
    DEFAULT_TOLERATED_MISSES,
    KeepAliveMonitor,
)
from .metrics import (
    PhoneUtilisation,
    ResilienceReport,
    RunMetrics,
    compute_resilience_report,
    compute_run_metrics,
)
from .realrun import (
    Migration,
    RealExecutionRunner,
    RealRunResult,
    direct_results,
)
from .server import CentralServer, RoundRecord, RunResult
from .validation import TraceInvariantError, check_run_invariants
from .trace import (
    ChaosRecord,
    CompletionRecord,
    FailureRecord,
    ResilienceEvent,
    Span,
    SpanKind,
    TimelineTrace,
    TraceOrderError,
)

__all__ = [
    "DEFAULT_PERIOD_MS",
    "DEFAULT_TOLERATED_MISSES",
    "BandwidthDegradation",
    "CAMPAIGN_SNAPSHOT_KIND",
    "ChurnEvent",
    "ContinuousCampaign",
    "ContinuousCampaignResult",
    "ContinuousNightRecord",
    "FleetChurnModel",
    "capacity_planning_report",
    "unplug_profile_from_logs",
    "CentralServer",
    "ChaosMonkey",
    "ChaosPlan",
    "ChaosRecord",
    "CompletionRecord",
    "CpuSlowdown",
    "EventLoop",
    "EventToken",
    "FailurePlan",
    "FailureRecord",
    "FleetGroundTruth",
    "KeepAliveMonitor",
    "Migration",
    "PhoneUtilisation",
    "ResilienceEvent",
    "ResiliencePolicy",
    "ResilienceReport",
    "ResultCorruption",
    "RunMetrics",
    "compute_resilience_report",
    "compute_run_metrics",
    "RealExecutionRunner",
    "RealRunResult",
    "direct_results",
    "PhoneRuntime",
    "PhoneState",
    "PlannedFailure",
    "RandomUnplugModel",
    "RoundRecord",
    "RunResult",
    "SimulationError",
    "Span",
    "SpanKind",
    "TaskCrash",
    "TimelineTrace",
    "TraceOrderError",
    "TraceInvariantError",
    "check_run_invariants",
]

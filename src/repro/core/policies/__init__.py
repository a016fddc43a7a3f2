"""Pluggable scheduling policies and the one scheduler config.

:class:`SchedulerConfig` is the single place the CLI, the scenario
fuzzer, the continuous campaign, and the tournament harness choose a
scheduler: it validates the settings once and ``build()`` returns the
scheduler.  ``POLICY_NAMES`` is the closed set of competitors.  The
default policy *is* :class:`~repro.core.greedy.CwcScheduler` —
``"cwc-greedy"`` builds the exact scheduler every previous release
ran, so default-policy schedules (and therefore the fuzz digests and
the differential harness) stay byte-identical.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from ..capacity import _KERNELS
from ..greedy import CwcScheduler
from ..sharding import _POD_ASSIGN_POLICIES, ShardedScheduler
from .base import ReplicaDirective, SchedulingPolicy
from .energy import (
    EnergyAwarePolicy,
    assignment_energy_j,
    phone_cpu_draw_w,
    run_energy_joules,
)
from .replication import ReplicationPolicy
from .sec import ShortestExpectedCompletionPolicy

__all__ = [
    "DEFAULT_POLICY",
    "POLICY_NAMES",
    "EnergyAwarePolicy",
    "ReplicaDirective",
    "ReplicationPolicy",
    "SchedulerConfig",
    "SchedulingPolicy",
    "ShortestExpectedCompletionPolicy",
    "assignment_energy_j",
    "phone_cpu_draw_w",
    "run_energy_joules",
]

#: The policy whose schedules are pinned byte-identical across releases.
DEFAULT_POLICY = "cwc-greedy"

#: Every known policy, default first.
POLICY_NAMES = (
    DEFAULT_POLICY,
    "replication",
    "energy-aware",
    "shortest-expected",
)


def _positive_or_auto(name: str, value) -> None:
    if value == "auto":
        return
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"{name} must be >= 1 or 'auto', got {value!r}")


@dataclass(frozen=True)
class SchedulerConfig:
    """Which scheduler a run uses, with which knobs — validated once.

    ``pods`` set selects the pod-parallel
    :class:`~repro.core.sharding.ShardedScheduler`, which only runs the
    default policy; ``pod_assign`` and ``pod_workers`` configure it.
    Otherwise ``policy`` names the scheduler.  ``kernel`` and
    ``warm_start`` configure the capacity search of the CWC-backed
    schedulers and are ignored by the searchless policies.
    """

    policy: str = DEFAULT_POLICY
    kernel: str = "auto"
    warm_start: bool = False
    pods: int | str | None = None
    pod_assign: str = "greedy"
    pod_workers: int | str = "auto"

    def __post_init__(self) -> None:
        if self.policy not in POLICY_NAMES:
            raise ValueError(
                f"unknown scheduling policy {self.policy!r}; known policies: "
                f"{', '.join(POLICY_NAMES)}"
            )
        if self.kernel not in _KERNELS:
            raise ValueError(
                f"unknown kernel {self.kernel!r}; expected one of {_KERNELS}"
            )
        if self.pod_assign not in _POD_ASSIGN_POLICIES:
            raise ValueError(
                f"unknown pod_assign {self.pod_assign!r}; "
                f"expected one of {_POD_ASSIGN_POLICIES}"
            )
        if self.pods is not None:
            _positive_or_auto("pods", self.pods)
        _positive_or_auto("pod_workers", self.pod_workers)
        if self.pods is not None and self.policy != DEFAULT_POLICY:
            raise ValueError(
                f"pods={self.pods!r} only runs the default "
                f"{DEFAULT_POLICY!r} policy (got {self.policy!r}): pod "
                "solves and the LP certificate assume capacity-search "
                "schedules; run other policies with pods=None"
            )
        if self.pods is None and self.pod_workers != "auto":
            raise ValueError(
                f"pod_workers={self.pod_workers!r} needs pods "
                "(--pod-workers requires --pods): pods are the only "
                "parallel axis, a monolithic search always runs in-process"
            )

    def to_dict(self) -> dict:
        """JSON-safe form; :meth:`from_dict` inverts it."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SchedulerConfig":
        """Rebuild (and re-validate) a config; unknown keys are rejected."""
        unknown = set(data) - {field.name for field in dataclasses.fields(cls)}
        if unknown:
            raise ValueError(
                f"unknown scheduler config key(s): {sorted(unknown)}"
            )
        return cls(**data)

    def build(self, *, telemetry=None, unreliable=()) -> SchedulingPolicy:
        """Construct the configured scheduler.

        ``unreliable`` (phone ids to distrust) only reaches the
        replication policy.
        """
        if self.pods is not None:
            return ShardedScheduler(
                pods=self.pods,
                pod_assign=self.pod_assign,
                pod_workers=self.pod_workers,
                kernel=self.kernel,
                warm_start=self.warm_start,
                telemetry=telemetry,
            )
        search = {
            "kernel": self.kernel,
            "warm_start": self.warm_start,
            "telemetry": telemetry,
        }
        if self.policy == DEFAULT_POLICY:
            return CwcScheduler(**search)
        if self.policy == "replication":
            return ReplicationPolicy(unreliable=unreliable, **search)
        if self.policy == "energy-aware":
            return EnergyAwarePolicy(telemetry=telemetry)
        return ShortestExpectedCompletionPolicy(telemetry=telemetry)

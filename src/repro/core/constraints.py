"""Resource constraints on schedules — the paper's footnote 4.

Phones have 1–2 GB of RAM against desktops' 4 GB; CWC handles this by
splitting job inputs so every partition fits in phone memory.  The
paper notes the scheduling program extends with ``l_ij <= r_i`` (any
partition assigned to phone *i* is at most its RAM).  This module
implements that extension:

* :class:`RamConstraint` — per-phone partition caps, in KB;
* :func:`clamp_fit` — the hook the packer uses to cap partition sizes;
* :func:`validate_ram` — post-hoc check that a schedule respects the
  caps (used by tests and the simulated server).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from .schedule import InfeasibleScheduleError, Schedule

__all__ = ["RamConstraint", "validate_ram"]


@dataclass(frozen=True)
class RamConstraint:
    """Per-phone cap on the input partition size (KB).

    A cap is the share of a phone's RAM left to a CWC task once the OS,
    the Android runtime, and the task executable are resident — the
    paper's "1 GB RAM per phone is enough" remark assumes the input
    partition fits in memory.
    """

    caps_kb: Mapping[str, float]

    def __post_init__(self) -> None:
        for phone_id, cap in self.caps_kb.items():
            if cap <= 0:
                raise ValueError(
                    f"RAM cap for {phone_id!r} must be > 0, got {cap!r}"
                )

    def cap_kb(self, phone_id: str) -> float:
        """Partition cap for a phone; unknown phones are unconstrained."""
        return self.caps_kb.get(phone_id, float("inf"))

    def clamp_fit(self, phone_id: str, fit_kb: float) -> float:
        """Cap a would-be partition size to the phone's RAM."""
        return min(fit_kb, self.cap_kb(phone_id))

    def admits(self, phone_id: str, partition_kb: float) -> bool:
        return partition_kb <= self.cap_kb(phone_id) + 1e-9


def validate_ram(schedule: Schedule, constraint: RamConstraint) -> None:
    """Raise if any assignment exceeds its phone's RAM cap."""
    for assignment in schedule:
        if not constraint.admits(assignment.phone_id, assignment.input_kb):
            raise InfeasibleScheduleError(
                f"partition of {assignment.input_kb:.0f} KB for job "
                f"{assignment.job_id!r} exceeds phone "
                f"{assignment.phone_id!r}'s RAM cap "
                f"{constraint.cap_kb(assignment.phone_id):.0f} KB"
            )

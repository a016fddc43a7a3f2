"""Execution-time prediction (Section 4.1).

CWC must know ``c_ij`` — the time for phone *i* to process one KB of job
*j*'s input — for every (phone, task) pair, but profiling each pair is
too expensive.  The paper instead profiles each *task* once on the
slowest phone in the fleet (clock speed ``S`` MHz, measured per-KB time
``T_s``) and scales by clock ratio: a phone at ``A`` MHz is predicted to
take ``T_s * S / A`` per KB.

The prediction is refined online: when a phone returns a result it also
reports how long the task actually took locally, and the scheduler
updates its estimate for that (phone, task) pair so the next scheduling
round uses the measured reality instead of the clock-ratio guess.  The
paper does not specify the update rule; we use an exponentially weighted
moving average with configurable weight ``alpha`` (``alpha=1`` replaces
the estimate with the latest observation, ``alpha=0`` disables learning;
the ablation bench sweeps this).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .model import PhoneSpec

__all__ = ["TaskProfile", "RuntimePredictor"]


@dataclass(frozen=True, slots=True)
class TaskProfile:
    """Profiling result for one task on the reference (slowest) phone.

    ``base_ms_per_kb`` is ``T_s`` — the measured per-KB local execution
    time on the reference phone; ``base_mhz`` is ``S`` — that phone's
    clock speed.
    """

    task: str
    base_ms_per_kb: float
    base_mhz: float

    def __post_init__(self) -> None:
        if not self.task:
            raise ValueError("task must be a non-empty string")
        if not math.isfinite(self.base_ms_per_kb) or self.base_ms_per_kb <= 0:
            raise ValueError(
                f"base_ms_per_kb must be finite and > 0, got {self.base_ms_per_kb!r}"
            )
        if not math.isfinite(self.base_mhz) or self.base_mhz <= 0:
            raise ValueError(f"base_mhz must be finite and > 0, got {self.base_mhz!r}")

    def scaled_ms_per_kb(self, cpu_mhz: float) -> float:
        """Clock-ratio scaling: ``T_s * S / A`` for a phone at ``A`` MHz."""
        if cpu_mhz <= 0:
            raise ValueError(f"cpu_mhz must be > 0, got {cpu_mhz!r}")
        return self.base_ms_per_kb * self.base_mhz / cpu_mhz

    def expected_speedup(self, cpu_mhz: float) -> float:
        """Predicted speedup of a phone at ``cpu_mhz`` over the reference.

        This is the quantity on the x-axis of Figure 6: ``A / S``.
        """
        if cpu_mhz <= 0:
            raise ValueError(f"cpu_mhz must be > 0, got {cpu_mhz!r}")
        return cpu_mhz / self.base_mhz


class RuntimePredictor:
    """Predicts ``c_ij`` for every (phone, task) pair and learns online.

    Parameters
    ----------
    profiles:
        One :class:`TaskProfile` per task name, from profiling on the
        slowest phone.
    alpha:
        EWMA weight for online updates in ``[0, 1]``.  After a phone
        reports a measured per-KB time ``m`` for a task, the estimate
        becomes ``(1 - alpha) * old + alpha * m``.
    """

    def __init__(self, profiles: dict[str, TaskProfile], alpha: float = 0.5) -> None:
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {alpha!r}")
        self._profiles = dict(profiles)
        self._alpha = alpha
        # Learned overrides: (phone_id, task) -> ms/KB estimate.
        self._learned: dict[tuple[str, str], float] = {}

    @classmethod
    def from_reference_phone(
        cls,
        reference: PhoneSpec,
        base_times_ms_per_kb: dict[str, float],
        alpha: float = 0.5,
    ) -> "RuntimePredictor":
        """Build a predictor from per-task measurements on one phone."""
        profiles = {
            task: TaskProfile(task=task, base_ms_per_kb=t, base_mhz=reference.cpu_mhz)
            for task, t in base_times_ms_per_kb.items()
        }
        return cls(profiles, alpha=alpha)

    @property
    def alpha(self) -> float:
        return self._alpha

    @property
    def tasks(self) -> frozenset[str]:
        return frozenset(self._profiles)

    def profile(self, task: str) -> TaskProfile:
        try:
            return self._profiles[task]
        except KeyError:
            raise KeyError(f"no profile for task {task!r}") from None

    def predict_ms_per_kb(self, phone: PhoneSpec, task: str) -> float:
        """Current ``c_ij`` estimate for ``phone`` running ``task``.

        Returns the learned estimate if this pair has reported a runtime
        before, else the clock-scaled initial prediction.
        """
        learned = self._learned.get((phone.phone_id, task))
        if learned is not None:
            return learned
        return self.profile(task).scaled_ms_per_kb(phone.cpu_mhz)

    def observe(self, phone: PhoneSpec, task: str, measured_ms_per_kb: float) -> float:
        """Fold a reported local execution rate into the estimate.

        Returns the updated estimate.  Called by the central server when
        a phone reports a task completion along with the time the task
        actually took locally (Section 4.1, last paragraph).
        """
        if not math.isfinite(measured_ms_per_kb) or measured_ms_per_kb <= 0:
            raise ValueError(
                "measured_ms_per_kb must be finite and > 0, "
                f"got {measured_ms_per_kb!r}"
            )
        key = (phone.phone_id, task)
        old = self.predict_ms_per_kb(phone, task)
        new = (1.0 - self._alpha) * old + self._alpha * measured_ms_per_kb
        self._learned[key] = new
        return new

    def learned_pairs(self) -> dict[tuple[str, str], float]:
        """Snapshot of the (phone, task) pairs refined by observation."""
        return dict(self._learned)

    def load_learned(self, pairs: dict[tuple[str, str], float]) -> None:
        """Replace the learned estimates wholesale.

        The restore half of :meth:`learned_pairs`: a resumed campaign
        reinstates the predictor's memory from a checkpoint so prediction
        error keeps decaying across a crash instead of resetting.
        """
        for (phone_id, task), value in pairs.items():
            if not isinstance(phone_id, str) or not isinstance(task, str):
                raise ValueError(f"learned key must be (phone_id, task) strings, got {(phone_id, task)!r}")
            if not math.isfinite(value) or value <= 0:
                raise ValueError(
                    f"learned estimate for {(phone_id, task)!r} must be finite and > 0, got {value!r}"
                )
        self._learned = {
            (phone_id, task): float(value)
            for (phone_id, task), value in pairs.items()
        }

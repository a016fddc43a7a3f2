"""Availability-aware scheduling — the Section 3.1 extension.

CWC's base scheduler treats every plugged-in phone as equally likely to
finish its queue; failures are handled reactively (checkpoint, migrate,
reschedule).  The paper's feasibility study points at a preventive
option: per-user unplug profiles predict device-specific failures, so
"tasks can be migrated to phones that are less likely to fail at the
time of consideration."

:class:`AvailabilityAwareScheduler` implements that idea as a wrapper
around any base scheduler:

* a phone's survival probability ``s_i`` over the scheduling window
  comes from an
  :class:`~repro.profiling.forecast.AvailabilityForecast`;
* phones below ``min_survival`` are excluded outright (they would
  almost surely hand their work back);
* the remaining phones' per-KB costs are inflated by the expected
  rework factor ``1 / s_i ** risk_aversion`` — work placed on a flaky
  phone is expected to be partially repeated, so it is accounted as
  proportionally more expensive — and the base scheduler runs on the
  adjusted instance.

The returned schedule is valid for the *original* instance (same jobs,
same phones); only the placement decisions change.  Measured against
the plain greedy scheduler on the 18-phone testbed, it lengthens the
makespan in every regime tried; its one gain is about 0.4 % less
energy when flaky phones fail silently (EXPERIMENTS.md,
"Availability-aware decided").
"""

from __future__ import annotations

from .greedy import Scheduler
from .instance import SchedulingInstance
from .schedule import InfeasibleScheduleError, Schedule

__all__ = ["AvailabilityAwareScheduler"]


class AvailabilityAwareScheduler:
    """Bias any scheduler toward phones unlikely to unplug mid-window.

    Parameters
    ----------
    base:
        The scheduler that does the actual packing (e.g.
        :class:`~repro.core.greedy.CwcScheduler`).
    forecast:
        Survival-probability source
        (:class:`~repro.profiling.forecast.AvailabilityForecast`).
    start_hour / expected_duration_hours:
        The scheduling window in the owners' local time.
    min_survival:
        Phones whose survival probability falls below this are not
        scheduled at all (0 disables exclusion).
    risk_aversion:
        Exponent on the expected-rework inflation; 0 disables cost
        adjustment, 1 charges flaky phones the full expected rework.
    """

    def __init__(
        self,
        base: Scheduler,
        forecast,
        *,
        start_hour: float,
        expected_duration_hours: float,
        min_survival: float = 0.2,
        risk_aversion: float = 1.0,
    ) -> None:
        if expected_duration_hours <= 0:
            raise ValueError("expected_duration_hours must be > 0")
        if not 0.0 <= min_survival < 1.0:
            raise ValueError(f"min_survival must lie in [0, 1), got {min_survival!r}")
        if risk_aversion < 0:
            raise ValueError(f"risk_aversion must be >= 0, got {risk_aversion!r}")
        self._base = base
        self._forecast = forecast
        self._start_hour = start_hour
        self._duration_hours = expected_duration_hours
        self._min_survival = min_survival
        self._risk_aversion = risk_aversion
        self.name = f"availability({base.name})"

    def survival(self, phone_id: str) -> float:
        return self._forecast.survival_probability(
            phone_id,
            start_hour=self._start_hour,
            duration_hours=self._duration_hours,
        )

    def schedule(self, instance: SchedulingInstance) -> Schedule:
        survivals = {
            phone.phone_id: self.survival(phone.phone_id)
            for phone in instance.phones
        }
        eligible = tuple(
            phone
            for phone in instance.phones
            if survivals[phone.phone_id] >= self._min_survival
        )
        if not eligible:
            raise InfeasibleScheduleError(
                "no phone meets the minimum survival probability "
                f"{self._min_survival} for the window"
            )

        def inflation(phone_id: str) -> float:
            survival = max(survivals[phone_id], 1e-6)
            return (1.0 / survival) ** self._risk_aversion

        adjusted = SchedulingInstance(
            jobs=instance.jobs,
            phones=eligible,
            b_ms_per_kb={
                phone.phone_id: instance.b(phone.phone_id)
                * inflation(phone.phone_id)
                for phone in eligible
            },
            c_ms_per_kb={
                (phone.phone_id, job.job_id): instance.c(
                    phone.phone_id, job.job_id
                )
                * inflation(phone.phone_id)
                for phone in eligible
                for job in instance.jobs
            },
        )
        schedule = self._base.schedule(adjusted)
        # Placements are valid for the original instance: the same jobs
        # went to a subset of the same phones.
        schedule.validate(instance)
        return schedule

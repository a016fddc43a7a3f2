"""Per-user failure forecasting from charging profiles (Section 3.1).

The paper observes that "profiling an individual user's behavior can
allow the prediction of device specific failures.  This can help since
tasks can be migrated to phones that are less likely to fail at the
time of consideration."  This module turns the per-user hourly unplug
likelihoods of Figure 3b/3c into exactly that prediction:

* :class:`AvailabilityForecast` maps each phone to its owner's hourly
  unplug profile and answers *"what is the probability this phone stays
  plugged in through a given window?"*;
* :meth:`AvailabilityForecast.from_study` builds the forecast directly
  from state-change logs, the same pipeline the Figure 3 analysis uses.

The :class:`~repro.core.availability.AvailabilityAwareScheduler`
consumes these survival probabilities to bias work toward reliable
phones.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from .analysis import hourly_unplug_likelihood
from .logs import LogRecord

__all__ = ["AvailabilityForecast"]


class AvailabilityForecast:
    """Survival probabilities for phones over scheduling windows.

    Parameters
    ----------
    hourly_by_phone:
        For each phone id, 24 values: the probability that the phone's
        owner unplugs it during local hour ``h`` (the Figure 3b/3c
        per-user profiles).
    default_hourly:
        Profile used for phones with no study data (defaults to a flat,
        mildly pessimistic 10 %/hour).
    """

    def __init__(
        self,
        hourly_by_phone: Mapping[str, Sequence[float]],
        *,
        default_hourly: Sequence[float] | None = None,
    ) -> None:
        self._profiles: dict[str, tuple[float, ...]] = {}
        for phone_id, profile in hourly_by_phone.items():
            self._profiles[phone_id] = self._validated(profile, phone_id)
        if default_hourly is None:
            default_hourly = (0.1,) * 24
        self._default = self._validated(default_hourly, "<default>")

    @staticmethod
    def _validated(profile: Sequence[float], owner: str) -> tuple[float, ...]:
        values = tuple(float(p) for p in profile)
        if len(values) != 24:
            raise ValueError(
                f"profile for {owner} needs 24 hourly values, got {len(values)}"
            )
        if any(not 0.0 <= p <= 1.0 for p in values):
            raise ValueError(f"profile for {owner} has values outside [0, 1]")
        return values

    @classmethod
    def from_study(
        cls,
        logs_by_user: Mapping[str, Sequence[LogRecord]],
        phone_owner: Mapping[str, str],
        *,
        days: int,
        default_hourly: Sequence[float] | None = None,
    ) -> "AvailabilityForecast":
        """Build a forecast from raw study logs.

        ``phone_owner`` maps phone ids to the study user whose charging
        behaviour governs that phone.
        """
        profiles = {
            user: hourly_unplug_likelihood(records, days=days)
            for user, records in logs_by_user.items()
        }
        hourly_by_phone = {}
        for phone_id, user in phone_owner.items():
            if user not in profiles:
                raise KeyError(f"no study logs for user {user!r}")
            hourly_by_phone[phone_id] = profiles[user]
        return cls(hourly_by_phone, default_hourly=default_hourly)

    # -- queries -----------------------------------------------------------

    def hourly_profile(self, phone_id: str) -> tuple[float, ...]:
        return self._profiles.get(phone_id, self._default)

    def survival_probability(
        self, phone_id: str, *, start_hour: float, duration_hours: float
    ) -> float:
        """P(phone stays plugged in for the whole window).

        Treats hourly unplug probabilities as independent per
        hour-slice: ``prod(1 - p_h * slice_fraction)`` over the window.
        """
        if duration_hours < 0:
            raise ValueError(f"duration_hours must be >= 0, got {duration_hours!r}")
        profile = self.hourly_profile(phone_id)
        survival = 1.0
        elapsed = 0.0
        while elapsed < duration_hours:
            slice_hours = min(1.0, duration_hours - elapsed)
            hour = int(start_hour + elapsed) % 24
            survival *= max(0.0, 1.0 - profile[hour] * slice_hours)
            elapsed += slice_hours
        return survival

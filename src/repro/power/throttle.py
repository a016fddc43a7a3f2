"""CPU throttling policies, including the paper's MIMD controller.

CWC cannot change CPU voltage/frequency without root, so it preserves
the charging profile by *duty-cycling* the task: run for ``δ/2``, sleep,
and adapt the sleep length multiplicatively (Section 4.3):

* ``δ`` — the *target charging parameter*: measured seconds for the
  residual charge to rise 1 % with no task running;
* run the task for ``δ/2``, sleep for the current sleep length, repeat,
  until the charge has risen 1 %; call the elapsed time ``β`` — the
  *actual charging parameter*;
* ``β ≈ δ`` → there is charger headroom: multiply the sleep length by
  0.75 (more CPU);
* ``β > δ`` → the CPU is eating into charging: multiply the sleep
  length by 2 (less CPU);
* re-measure ``δ`` every 5 % of charge, since the profile can shift
  (other apps, USB vs wall charger).

A policy is anything with ``cpu_on(now_s, percent) -> bool``; the
simulator in :mod:`repro.power.charging` ticks it forward in time.
"""

from __future__ import annotations

import enum
import math

__all__ = ["NoTaskPolicy", "ContinuousPolicy", "FixedDutyPolicy", "MimdThrottle"]


class NoTaskPolicy:
    """The ideal charging profile: CPU never used."""

    name = "no-task"

    def cpu_on(self, now_s: float, percent: float) -> bool:
        return False


class ContinuousPolicy:
    """Heavy utilisation without throttling (the paper's worst case)."""

    name = "continuous"

    def cpu_on(self, now_s: float, percent: float) -> bool:
        return True


class FixedDutyPolicy:
    """Open-loop duty cycling — the ablation baseline for MIMD.

    Runs ``duty`` of every ``period_s`` seconds.  Unlike MIMD it cannot
    adapt to the actual charging rate, so it either wastes headroom or
    delays charging depending on how well ``duty`` was guessed.
    """

    def __init__(self, duty: float, period_s: float = 30.0) -> None:
        if not 0.0 <= duty <= 1.0:
            raise ValueError(f"duty must lie in [0, 1], got {duty!r}")
        if period_s <= 0:
            raise ValueError(f"period_s must be > 0, got {period_s!r}")
        self._duty = duty
        self._period_s = period_s
        self.name = f"fixed-duty-{duty:.2f}"

    def cpu_on(self, now_s: float, percent: float) -> bool:
        return (now_s % self._period_s) < self._duty * self._period_s


class _Phase(enum.Enum):
    CALIBRATE = "calibrate"
    RUN = "run"


class MimdThrottle:
    """The paper's multiplicative-increase/multiplicative-decrease throttle.

    Parameters
    ----------
    tolerance:
        ``β <= δ * (1 + tolerance)`` counts as "β = δ" (charging
        unaffected), triggering the sleep decrease.
    sleep_decrease / sleep_increase:
        The multiplicative factors (paper: 0.75 and 2).
    recalibrate_every_percent:
        Re-measure ``δ`` (with the task paused) after this much charge
        gain (paper: 5 %).
    min_sleep_s:
        Floor for the sleep interval so the duty cycle can approach —
        but never reach — 100 % CPU.
    """

    name = "mimd"

    def __init__(
        self,
        *,
        tolerance: float = 0.05,
        sleep_decrease: float = 0.75,
        sleep_increase: float = 2.0,
        recalibrate_every_percent: float = 5.0,
        min_sleep_s: float = 0.5,
        telemetry=None,
    ) -> None:
        if tolerance < 0:
            raise ValueError(f"tolerance must be >= 0, got {tolerance!r}")
        if not 0.0 < sleep_decrease < 1.0:
            raise ValueError(
                f"sleep_decrease must lie in (0, 1), got {sleep_decrease!r}"
            )
        if sleep_increase <= 1.0:
            raise ValueError(
                f"sleep_increase must be > 1, got {sleep_increase!r}"
            )
        if recalibrate_every_percent <= 0:
            raise ValueError("recalibrate_every_percent must be > 0")
        if min_sleep_s <= 0:
            raise ValueError(f"min_sleep_s must be > 0, got {min_sleep_s!r}")
        self._tolerance = tolerance
        self._sleep_decrease = sleep_decrease
        self._sleep_increase = sleep_increase
        self._recal_percent = recalibrate_every_percent
        self._min_sleep_s = min_sleep_s

        self._phase = _Phase.CALIBRATE
        self._delta_s: float | None = None
        self._run_s: float | None = None
        self._sleep_s: float | None = None
        self._phase_started_s = 0.0
        self._phase_started_percent: float | None = None
        self._percent_window_start_s = 0.0
        self._window_base_percent: float | None = None
        self._cycle_position_s = 0.0
        self._last_now_s: float | None = None
        self._running = True  # within the duty cycle: currently in run half?
        self._last_recal_percent: float | None = None
        self.adjustments: list[tuple[float, float, float]] = []  # (t, beta, sleep)
        #: Optional repro.obs Telemetry facade (duty-cycle decisions are
        #: counted; β/δ deviation and sleep are gauges).
        self._tel = telemetry

    # -- introspection (used by tests and the Fig. 10 experiment) --------

    @property
    def delta_s(self) -> float | None:
        """The current target charging parameter δ (None while calibrating)."""
        return self._delta_s

    @property
    def sleep_s(self) -> float | None:
        return self._sleep_s

    @property
    def calibrating(self) -> bool:
        return self._phase is _Phase.CALIBRATE

    # -- policy protocol --------------------------------------------------

    def cpu_on(self, now_s: float, percent: float) -> bool:
        if self._window_base_percent is None:
            self._window_base_percent = percent
            self._percent_window_start_s = now_s
            self._last_recal_percent = percent

        if self._phase is _Phase.CALIBRATE:
            if percent - self._window_base_percent >= 1.0:
                self._finish_calibration(now_s, percent)
                return self._tick_duty_cycle(now_s)
            return False

        # RUN phase: first check the 1 % window (β measurement), then the
        # 5 % recalibration trigger, then advance the duty cycle.
        if percent - self._window_base_percent >= 1.0:
            beta = now_s - self._percent_window_start_s
            self._adapt(now_s, beta)
            self._window_base_percent = percent
            self._percent_window_start_s = now_s
        assert self._last_recal_percent is not None
        if percent - self._last_recal_percent >= self._recal_percent:
            self._begin_recalibration(now_s, percent)
            return False
        return self._tick_duty_cycle(now_s)

    # -- internals --------------------------------------------------------

    def _finish_calibration(self, now_s: float, percent: float) -> None:
        delta = now_s - self._percent_window_start_s
        self._delta_s = max(delta, 2 * self._min_sleep_s)
        self._run_s = self._delta_s / 2.0
        if self._sleep_s is None:
            self._sleep_s = self._delta_s / 2.0
        self._phase = _Phase.RUN
        self._window_base_percent = percent
        self._percent_window_start_s = now_s
        self._cycle_position_s = 0.0
        self._last_now_s = now_s
        self._running = True

    def _begin_recalibration(self, now_s: float, percent: float) -> None:
        self._phase = _Phase.CALIBRATE
        self._window_base_percent = percent
        self._percent_window_start_s = now_s
        self._last_recal_percent = percent

    def _adapt(self, now_s: float, beta: float) -> None:
        assert self._delta_s is not None and self._sleep_s is not None
        headroom = beta <= self._delta_s * (1.0 + self._tolerance)
        if headroom:
            self._sleep_s = max(
                self._min_sleep_s, self._sleep_s * self._sleep_decrease
            )
        else:
            self._sleep_s = self._sleep_s * self._sleep_increase
        self.adjustments.append((now_s, beta, self._sleep_s))
        tel = self._tel
        if tel is not None and tel.enabled:
            deviation = beta / self._delta_s - 1.0
            tel.inc(
                "throttle_adjustments_total",
                direction="more_cpu" if headroom else "less_cpu",
            )
            tel.set_gauge("throttle_profile_deviation", deviation)
            tel.set_gauge("throttle_sleep_s", self._sleep_s)

    def _tick_duty_cycle(self, now_s: float) -> bool:
        assert self._run_s is not None and self._sleep_s is not None
        if self._last_now_s is None:
            self._last_now_s = now_s
        elapsed = now_s - self._last_now_s
        self._last_now_s = now_s
        self._cycle_position_s += elapsed
        while True:
            if self._running:
                if self._cycle_position_s < self._run_s:
                    return True
                self._cycle_position_s -= self._run_s
                self._running = False
            else:
                if self._cycle_position_s < self._sleep_s:
                    return False
                self._cycle_position_s -= self._sleep_s
                self._running = True

"""Tests for per-user availability forecasting."""

import pytest

from repro.profiling.behavior import generate_study
from repro.profiling.forecast import AvailabilityForecast


def night_quiet_profile():
    """No unplug risk 0–8, certain unplug 8–24."""
    return [0.0] * 8 + [1.0] * 16


class TestSurvival:
    def test_quiet_window_survives(self):
        forecast = AvailabilityForecast({"p": night_quiet_profile()})
        assert forecast.survival_probability(
            "p", start_hour=0.0, duration_hours=8.0
        ) == pytest.approx(1.0)

    def test_risky_window_dies(self):
        forecast = AvailabilityForecast({"p": night_quiet_profile()})
        assert forecast.survival_probability(
            "p", start_hour=9.0, duration_hours=2.0
        ) == pytest.approx(0.0)

    def test_partial_hour_scales_risk(self):
        forecast = AvailabilityForecast({"p": [0.5] * 24})
        half = forecast.survival_probability(
            "p", start_hour=0.0, duration_hours=0.5
        )
        assert half == pytest.approx(0.75)

    def test_multi_hour_window_compounds(self):
        forecast = AvailabilityForecast({"p": [0.1] * 24})
        survival = forecast.survival_probability(
            "p", start_hour=0.0, duration_hours=3.0
        )
        assert survival == pytest.approx(0.9**3)

    def test_window_wraps_midnight(self):
        forecast = AvailabilityForecast({"p": night_quiet_profile()})
        survival = forecast.survival_probability(
            "p", start_hour=23.0, duration_hours=2.0
        )
        assert survival == pytest.approx(0.0)  # hour 23 has p=1

    def test_zero_duration_is_certain(self):
        forecast = AvailabilityForecast({"p": [1.0] * 24})
        assert forecast.survival_probability(
            "p", start_hour=0.0, duration_hours=0.0
        ) == 1.0

    def test_unknown_phone_uses_default(self):
        forecast = AvailabilityForecast({}, default_hourly=[0.0] * 24)
        assert forecast.survival_probability(
            "mystery", start_hour=0.0, duration_hours=24.0
        ) == 1.0

    def test_negative_duration_rejected(self):
        forecast = AvailabilityForecast({"p": [0.1] * 24})
        with pytest.raises(ValueError):
            forecast.survival_probability(
                "p", start_hour=0.0, duration_hours=-1.0
            )


class TestValidation:
    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="24"):
            AvailabilityForecast({"p": [0.1] * 23})

    def test_out_of_range_rejected(self):
        profile = [0.1] * 24
        profile[5] = 1.5
        with pytest.raises(ValueError):
            AvailabilityForecast({"p": profile})


class TestFromStudy:
    def test_built_from_generated_logs(self):
        study = generate_study(days=14, seed=5)
        users = sorted(study)
        phone_owner = {f"phone-{i}": users[i % len(users)] for i in range(6)}
        forecast = AvailabilityForecast.from_study(
            study, phone_owner, days=14
        )
        # Overnight windows should look safe for everyone.
        for phone_id in phone_owner:
            survival = forecast.survival_probability(
                phone_id, start_hour=0.0, duration_hours=5.0
            )
            assert survival > 0.5

    def test_unknown_owner_rejected(self):
        study = generate_study(days=7, seed=5)
        with pytest.raises(KeyError):
            AvailabilityForecast.from_study(
                study, {"phone-0": "nobody"}, days=7
            )

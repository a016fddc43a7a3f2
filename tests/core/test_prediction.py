"""Unit tests for the CPU-scaling runtime predictor (Section 4.1)."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.model import PhoneSpec
from repro.core.prediction import RuntimePredictor, TaskProfile

REF = PhoneSpec(phone_id="ref", cpu_mhz=806.0)
FAST = PhoneSpec(phone_id="fast", cpu_mhz=1612.0)


class TestTaskProfile:
    def test_scaling_halves_time_at_double_clock(self):
        profile = TaskProfile(task="t", base_ms_per_kb=10.0, base_mhz=806.0)
        assert profile.scaled_ms_per_kb(1612.0) == pytest.approx(5.0)

    def test_scaling_identity_at_reference(self):
        profile = TaskProfile(task="t", base_ms_per_kb=10.0, base_mhz=806.0)
        assert profile.scaled_ms_per_kb(806.0) == pytest.approx(10.0)

    def test_expected_speedup_is_clock_ratio(self):
        profile = TaskProfile(task="t", base_ms_per_kb=10.0, base_mhz=806.0)
        assert profile.expected_speedup(1209.0) == pytest.approx(1.5)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    def test_bad_base_time_rejected(self, bad):
        with pytest.raises(ValueError):
            TaskProfile(task="t", base_ms_per_kb=bad, base_mhz=806.0)

    def test_bad_clock_rejected(self):
        with pytest.raises(ValueError):
            TaskProfile(task="t", base_ms_per_kb=1.0, base_mhz=0.0)

    def test_empty_task_rejected(self):
        with pytest.raises(ValueError):
            TaskProfile(task="", base_ms_per_kb=1.0, base_mhz=806.0)

    def test_scaled_rejects_bad_clock(self):
        profile = TaskProfile(task="t", base_ms_per_kb=10.0, base_mhz=806.0)
        with pytest.raises(ValueError):
            profile.scaled_ms_per_kb(0.0)

    @given(mhz=st.floats(min_value=100, max_value=5000))
    def test_time_and_speedup_are_inverse(self, mhz):
        profile = TaskProfile(task="t", base_ms_per_kb=10.0, base_mhz=806.0)
        time = profile.scaled_ms_per_kb(mhz)
        speedup = profile.expected_speedup(mhz)
        assert time * speedup == pytest.approx(profile.base_ms_per_kb)


class TestRuntimePredictor:
    def make(self, alpha=0.5):
        return RuntimePredictor.from_reference_phone(
            REF, {"primes": 10.0, "blur": 20.0}, alpha=alpha
        )

    def test_initial_prediction_scales_by_clock(self):
        predictor = self.make()
        assert predictor.predict_ms_per_kb(FAST, "primes") == pytest.approx(5.0)
        assert predictor.predict_ms_per_kb(REF, "blur") == pytest.approx(20.0)

    def test_unknown_task_raises(self):
        with pytest.raises(KeyError, match="wordcount"):
            self.make().predict_ms_per_kb(REF, "wordcount")

    def test_observe_moves_estimate_toward_measurement(self):
        predictor = self.make(alpha=0.5)
        updated = predictor.observe(FAST, "primes", 9.0)
        # old 5.0, measured 9.0, alpha 0.5 -> 7.0
        assert updated == pytest.approx(7.0)
        assert predictor.predict_ms_per_kb(FAST, "primes") == pytest.approx(7.0)

    def test_alpha_one_replaces(self):
        predictor = self.make(alpha=1.0)
        predictor.observe(FAST, "primes", 9.0)
        assert predictor.predict_ms_per_kb(FAST, "primes") == pytest.approx(9.0)

    def test_alpha_zero_never_learns(self):
        predictor = self.make(alpha=0.0)
        predictor.observe(FAST, "primes", 9.0)
        assert predictor.predict_ms_per_kb(FAST, "primes") == pytest.approx(5.0)

    def test_observation_is_per_phone(self):
        predictor = self.make(alpha=1.0)
        predictor.observe(FAST, "primes", 9.0)
        assert predictor.predict_ms_per_kb(REF, "primes") == pytest.approx(10.0)

    def test_observation_is_per_task(self):
        predictor = self.make(alpha=1.0)
        predictor.observe(FAST, "primes", 9.0)
        assert predictor.predict_ms_per_kb(FAST, "blur") == pytest.approx(10.0)

    def test_bad_measurement_rejected(self):
        predictor = self.make()
        with pytest.raises(ValueError):
            predictor.observe(FAST, "primes", 0.0)
        with pytest.raises(ValueError):
            predictor.observe(FAST, "primes", math.inf)

    def test_bad_alpha_rejected(self):
        with pytest.raises(ValueError):
            self.make(alpha=1.5)

    def test_learned_pairs_snapshot_is_copy(self):
        predictor = self.make(alpha=1.0)
        predictor.observe(FAST, "primes", 9.0)
        snapshot = predictor.learned_pairs()
        snapshot.clear()
        assert predictor.learned_pairs()

    def test_tasks_property(self):
        assert self.make().tasks == frozenset({"primes", "blur"})

    @given(
        measurements=st.lists(
            st.floats(min_value=0.1, max_value=100.0), min_size=1, max_size=20
        ),
        alpha=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_estimate_stays_within_observed_envelope(self, measurements, alpha):
        """EWMA never leaves the convex hull of {initial} ∪ measurements."""
        predictor = RuntimePredictor.from_reference_phone(
            REF, {"primes": 10.0}, alpha=alpha
        )
        low = min(measurements + [10.0])
        high = max(measurements + [10.0])
        for m in measurements:
            estimate = predictor.observe(REF, "primes", m)
            assert low - 1e-9 <= estimate <= high + 1e-9

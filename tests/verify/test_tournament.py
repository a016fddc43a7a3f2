"""The Monte Carlo policy tournament harness.

Determinism is the backbone: the same seed must produce the same
digest on a rerun *and* through the artifact replay path, and the
oracle must stay clean on every leg.  The statistics layer (bootstrap
bands, paired-ratio significance) is pinned on synthetic data where
the right answer is computable by hand.
"""

import dataclasses
import json
import random

import pytest

from repro.verify.tournament import (
    METRICS,
    REGIMES,
    TOURNAMENT_FORMAT,
    ChaosRegime,
    PolicyCell,
    TournamentLeg,
    bootstrap_ci,
    replay_tournament,
    run_leg,
    run_tournament,
    write_tournament_artifact,
)

POLICIES = ("cwc-greedy", "energy-aware", "shortest-expected")


def small_tournament(seed=5, runs=2, regimes=("calm", "churn")):
    return run_tournament(
        runs, policies=POLICIES, regimes=regimes, seed=seed
    )


# ---------------------------------------------------------------------------
# regimes
# ---------------------------------------------------------------------------


class TestRegimes:
    def test_stock_regimes_exist(self):
        assert set(REGIMES) >= {"calm", "churn"}
        for regime in REGIMES.values():
            assert regime.name
            assert regime.duration_ms > 0

    def test_bad_monkey_rates_fail_fast(self):
        with pytest.raises(ValueError):
            ChaosRegime(
                name="bad", description="", monkey={"crash_rate": -1.0}
            )

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError, match="name"):
            ChaosRegime(name="", description="")

    def test_bad_duration_rejected(self):
        with pytest.raises(ValueError, match="duration"):
            ChaosRegime(name="x", description="", duration_ms=0.0)

    def test_sampling_is_deterministic_given_rng(self):
        regime = REGIMES["churn"]
        ids = [f"p{i}" for i in range(6)]
        one = regime.sample_plan(ids, random.Random("fixed"))
        two = regime.sample_plan(ids, random.Random("fixed"))
        assert one.to_dict() == two.to_dict()


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


class TestBootstrap:
    def test_empty_and_singleton_collapse(self):
        rng = random.Random(0)
        assert bootstrap_ci([], rng=rng) == (0.0, 0.0)
        assert bootstrap_ci([4.2], rng=rng) == (4.2, 4.2)

    def test_band_brackets_the_mean(self):
        values = [float(v) for v in range(1, 21)]
        lo, hi = bootstrap_ci(values, rng=random.Random(1))
        mean = sum(values) / len(values)
        assert lo <= mean <= hi
        assert lo < hi

    def test_deterministic_given_rng_seed(self):
        values = [1.0, 5.0, 9.0, 2.0, 7.0]
        a = bootstrap_ci(values, rng=random.Random("s"))
        b = bootstrap_ci(values, rng=random.Random("s"))
        assert a == b

    def test_parameter_validation(self):
        rng = random.Random(0)
        with pytest.raises(ValueError, match="resamples"):
            bootstrap_ci([1.0, 2.0], rng=rng, resamples=0)
        with pytest.raises(ValueError, match="alpha"):
            bootstrap_ci([1.0, 2.0], rng=rng, alpha=1.5)


# ---------------------------------------------------------------------------
# tournaments
# ---------------------------------------------------------------------------


class TestTournamentDeterminism:
    def test_same_seed_byte_identical_digest(self):
        first = small_tournament()
        second = small_tournament()
        assert first.digest == second.digest
        assert [leg.digest_line() for leg in first.legs] == [
            leg.digest_line() for leg in second.legs
        ]

    def test_different_seed_changes_digest(self):
        assert small_tournament(seed=5).digest != small_tournament(
            seed=6
        ).digest

    def test_oracle_clean_and_fully_crossed(self):
        report = small_tournament()
        assert report.ok
        assert report.violation_count == 0
        assert len(report.legs) == 2 * len(POLICIES) * len(report.regimes)
        # Paired design: every policy saw the same scenarios (digests
        # differ only through the scenario's policy field).
        for regime in report.regimes:
            seeds = {
                policy: sorted(
                    leg.scenario_seed
                    for leg in report.legs
                    if leg.regime == regime and leg.policy == policy
                )
                for policy in report.policies
            }
            baseline = seeds[report.policies[0]]
            assert all(s == baseline for s in seeds.values())

    def test_scoreboard_covers_every_cell(self):
        report = small_tournament()
        assert len(report.cells) == len(POLICIES) * len(report.regimes)
        for cell in report.cells:
            assert cell.legs == report.runs
            assert set(cell.stats) == set(METRICS)
            if cell.policy != "cwc-greedy":
                # Paired ratios exist for makespan (never zero).
                assert "makespan_ms" in cell.vs_default
        for regime in report.regimes:
            for metric in METRICS:
                verdict = report.winners[regime][metric]
                assert verdict["policy"] in report.policies

    def test_cell_lookup_and_summary(self):
        report = small_tournament()
        cell = report.cell("energy-aware", "calm")
        assert isinstance(cell, PolicyCell)
        with pytest.raises(KeyError):
            report.cell("energy-aware", "no-such-regime")
        lines = report.summary_lines()
        assert any("regime calm" in line for line in lines)
        assert any(report.digest in line for line in lines)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="runs"):
            run_tournament(0)
        with pytest.raises(ValueError, match="unknown policy"):
            run_tournament(1, policies=("round-robin",))
        with pytest.raises(ValueError, match="at least one policy"):
            run_tournament(1, policies=())
        with pytest.raises(ValueError, match="duplicate policies"):
            run_tournament(1, policies=("cwc-greedy", "cwc-greedy"))
        with pytest.raises(ValueError, match="unknown chaos regime"):
            run_tournament(1, regimes=("hurricane",))
        with pytest.raises(ValueError, match="at least one regime"):
            run_tournament(1, regimes=())
        with pytest.raises(ValueError, match="duplicate regime"):
            run_tournament(
                1, regimes=(REGIMES["calm"], REGIMES["calm"])
            )

    def test_progress_callback_sees_every_leg(self):
        seen = []
        run_tournament(
            1,
            policies=("cwc-greedy",),
            regimes=("calm",),
            seed=3,
            progress=lambda index, leg: seen.append((index, leg.policy)),
        )
        assert seen == [(0, "cwc-greedy")]


class TestRunLeg:
    def test_crash_becomes_no_crash_violation(self):
        from repro.verify.fuzz import generate_scenario

        scenario = generate_scenario(11)
        broken = dataclasses.replace(scenario, measured_b={})
        leg = run_leg(broken)
        assert not leg.ok
        assert leg.violations == ("no-crash",)
        assert leg.error is not None


# ---------------------------------------------------------------------------
# artifacts and replay
# ---------------------------------------------------------------------------


class TestArtifacts:
    def test_write_replay_round_trip(self, tmp_path):
        report = run_tournament(
            1, policies=POLICIES[:2], regimes=("calm",), seed=9
        )
        path = write_tournament_artifact(report, tmp_path)
        assert path.name == "tournament-9.json"
        replay = replay_tournament(path)
        assert replay.digest_matches
        assert replay.report.digest == report.digest
        assert replay.recorded_digest == report.digest

    def test_tampered_digest_detected(self, tmp_path):
        report = run_tournament(
            1, policies=POLICIES[:2], regimes=("calm",), seed=9
        )
        path = write_tournament_artifact(report, tmp_path)
        payload = json.loads(path.read_text())
        payload["digest"] = "0" * 64
        path.write_text(json.dumps(payload))
        replay = replay_tournament(path)
        assert not replay.digest_matches

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "tournament-1.json"
        path.write_text(json.dumps({"format": TOURNAMENT_FORMAT + 1}))
        with pytest.raises(ValueError, match="format"):
            replay_tournament(path)

    def test_regime_without_rates_rejected(self, tmp_path):
        report = run_tournament(
            1, policies=("cwc-greedy",), regimes=("calm",), seed=9
        )
        path = write_tournament_artifact(report, tmp_path)
        payload = json.loads(path.read_text())
        del payload["regimes"][0]["monkey"]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="monkey"):
            replay_tournament(path)

    def test_replay_uses_serialised_regime_not_stock_table(self, tmp_path):
        # A custom regime absent from REGIMES must replay fine.
        custom = ChaosRegime(
            name="custom",
            description="tiny",
            monkey={"crash_rate": 0.1},
            duration_ms=50_000.0,
        )
        report = run_tournament(
            1, policies=("cwc-greedy",), regimes=(custom,), seed=4
        )
        path = write_tournament_artifact(report, tmp_path)
        replay = replay_tournament(path)
        assert replay.digest_matches


# ---------------------------------------------------------------------------
# scoring on synthetic legs
# ---------------------------------------------------------------------------


def synthetic_leg(policy, regime, seed, makespan, energy=100.0, recovery=0.0):
    return TournamentLeg(
        policy=policy,
        regime=regime,
        scenario_seed=seed,
        scenario_digest=f"d{seed}",
        makespan_ms=makespan,
        energy_j=energy,
        recovery_ms=recovery,
        violations=(),
    )


class TestScoring:
    def test_paired_ratio_flags_consistent_winner(self):
        from repro.verify.tournament import _score

        legs = []
        for seed in range(8):
            base = 1000.0 * (seed + 1)
            legs.append(synthetic_leg("cwc-greedy", "r", seed, base))
            # Challenger is always exactly 20% faster: raw bands overlap
            # wildly across scenarios, but the paired ratio is pinned.
            legs.append(
                synthetic_leg("shortest-expected", "r", seed, base * 0.8)
            )
        cells, winners = _score(
            legs, ("cwc-greedy", "shortest-expected"), ("r",)
        )
        verdict = winners["r"]["makespan_ms"]
        assert verdict["policy"] == "shortest-expected"
        assert verdict["significant"] is True
        challenger = next(
            c for c in cells if c.policy == "shortest-expected"
        )
        mean, lo, hi = challenger.vs_default["makespan_ms"]
        assert mean == pytest.approx(0.8)
        assert lo == pytest.approx(0.8)
        assert hi == pytest.approx(0.8)

    def test_noisy_challenger_not_significant(self):
        from repro.verify.tournament import _score

        rng = random.Random(13)
        legs = []
        for seed in range(8):
            base = 1000.0
            legs.append(synthetic_leg("cwc-greedy", "r", seed, base))
            legs.append(
                synthetic_leg(
                    "shortest-expected",
                    "r",
                    seed,
                    base * rng.uniform(0.7, 1.4),
                )
            )
        _cells, winners = _score(
            legs, ("cwc-greedy", "shortest-expected"), ("r",)
        )
        assert winners["r"]["makespan_ms"]["significant"] is False

    def test_default_win_is_never_marked_significant(self):
        from repro.verify.tournament import _score

        legs = []
        for seed in range(4):
            legs.append(synthetic_leg("cwc-greedy", "r", seed, 500.0))
            legs.append(
                synthetic_leg("shortest-expected", "r", seed, 900.0)
            )
        _cells, winners = _score(
            legs, ("cwc-greedy", "shortest-expected"), ("r",)
        )
        verdict = winners["r"]["makespan_ms"]
        assert verdict["policy"] == "cwc-greedy"
        assert verdict["significant"] is False

    def test_zero_baseline_metric_skipped_in_ratios(self):
        from repro.verify.tournament import _score

        legs = [
            synthetic_leg("cwc-greedy", "r", 0, 500.0, recovery=0.0),
            synthetic_leg(
                "shortest-expected", "r", 0, 400.0, recovery=100.0
            ),
        ]
        cells, _winners = _score(
            legs, ("cwc-greedy", "shortest-expected"), ("r",)
        )
        challenger = next(
            c for c in cells if c.policy == "shortest-expected"
        )
        assert "recovery_ms" not in challenger.vs_default

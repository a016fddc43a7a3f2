"""Tests for the deterministic scenario fuzzer: generation, replay, shrinking."""

import json

import pytest

from repro.sim.chaos import ChaosPlan
from repro.verify.fuzz import (
    Scenario,
    derive_seeds,
    generate_instance,
    generate_scenario,
    minimize_scenario,
    replay_artifact,
    run_campaign,
    run_scenario,
    write_artifact,
)


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seeds(0, 10) == derive_seeds(0, 10)

    def test_prefix_stable(self):
        assert derive_seeds(0, 20)[:10] == derive_seeds(0, 10)

    def test_master_seed_matters(self):
        assert derive_seeds(0, 10) != derive_seeds(1, 10)


class TestGeneration:
    def test_same_seed_same_digest(self):
        assert generate_scenario(5).digest() == generate_scenario(5).digest()

    def test_different_seeds_differ(self):
        digests = {generate_scenario(s).digest() for s in range(20)}
        assert len(digests) == 20

    def test_grammar_bounds(self):
        for seed in range(30):
            scenario = generate_scenario(seed)
            assert 2 <= len(scenario.phones) <= 8
            assert 1 <= len(scenario.jobs) <= 10
            assert scenario.kernel in ("python", "numpy")
            assert set(scenario.measured_b) == {
                p.phone_id for p in scenario.phones
            }
            arriving = {job_id for _, job_id in scenario.arrivals}
            assert arriving < {j.job_id for j in scenario.jobs} or not arriving

    def test_generate_instance_deterministic(self):
        a = generate_instance(11)
        b = generate_instance(11)
        assert len(a.phones) == len(b.phones)
        assert len(a.jobs) == len(b.jobs)


class TestScenarioSerialization:
    def test_round_trip_preserves_digest(self):
        scenario = generate_scenario(9)
        clone = Scenario.from_dict(
            json.loads(json.dumps(scenario.to_dict()))
        )
        assert clone.digest() == scenario.digest()

    def test_missing_field_rejected(self):
        data = generate_scenario(9).to_dict()
        del data["jobs"]
        with pytest.raises(ValueError, match="missing field"):
            Scenario.from_dict(data)

    def test_arrivals_must_name_known_jobs(self):
        scenario = generate_scenario(9)
        data = scenario.to_dict()
        data["arrivals"] = [[100.0, "no-such-job"]]
        with pytest.raises(ValueError, match="unknown jobs"):
            Scenario.from_dict(data)

    def test_at_least_one_initial_job_required(self):
        data = generate_scenario(9).to_dict()
        data["arrivals"] = [
            [100.0 * (i + 1), job["job_id"]]
            for i, job in enumerate(data["jobs"])
        ]
        with pytest.raises(ValueError, match="initial batch"):
            Scenario.from_dict(data)


class TestRunScenario:
    def test_clean_seed_passes_all_invariants(self):
        outcome = run_scenario(generate_scenario(12345))
        assert outcome.ok
        assert outcome.makespan_ms is not None and outcome.makespan_ms > 0
        assert outcome.rounds >= 1
        assert outcome.completions >= 1

    def test_execution_is_deterministic(self):
        scenario = generate_scenario(2012)
        first = run_scenario(scenario)
        second = run_scenario(scenario)
        assert first.makespan_ms == second.makespan_ms
        assert first.completions == second.completions
        assert first.digest == second.digest


class TestCampaign:
    def test_runs_validated(self):
        with pytest.raises(ValueError, match="runs"):
            run_campaign(0)

    def test_campaign_digest_is_reproducible(self):
        first = run_campaign(10, seed=0, minimize=False)
        second = run_campaign(10, seed=0, minimize=False)
        assert first.campaign_digest == second.campaign_digest
        assert first.digests == second.digests
        assert len(first.digests) == 10

    def test_seed_changes_campaign(self):
        assert (
            run_campaign(5, seed=0, minimize=False).campaign_digest
            != run_campaign(5, seed=1, minimize=False).campaign_digest
        )


class TestArtifacts:
    def test_write_and_replay_round_trip(self, tmp_path):
        outcome = run_scenario(generate_scenario(42))
        path = write_artifact(outcome, tmp_path)
        assert path.name == "fuzz-42.json"
        replay = replay_artifact(path)
        assert replay.digest_matches
        assert replay.reproduced
        assert replay.outcome.ok == outcome.ok

    def test_tampered_scenario_fails_digest(self, tmp_path):
        outcome = run_scenario(generate_scenario(42))
        path = write_artifact(outcome, tmp_path)
        payload = json.loads(path.read_text())
        payload["scenario"]["measured_b"] = {
            k: v * 2.0 for k, v in payload["scenario"]["measured_b"].items()
        }
        path.write_text(json.dumps(payload))
        assert not replay_artifact(path).digest_matches

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "fuzz-1.json"
        path.write_text(json.dumps({"format": 999, "scenario": {}}))
        with pytest.raises(ValueError, match="unsupported artifact format"):
            replay_artifact(path)


class TestMinimizer:
    def test_shrinks_against_synthetic_predicate(self):
        # "Fails" whenever job00 is present alongside any crash fault —
        # the minimum under that predicate is tiny, and the shrinker
        # must find it without ever running the simulator.
        scenario = None
        for seed in range(200):
            candidate = generate_scenario(seed)
            if candidate.chaos.crashes and len(candidate.jobs) >= 4:
                scenario = candidate
                break
        assert scenario is not None, "grammar never produced crashes"

        def is_failing(candidate):
            return bool(candidate.chaos.crashes) and any(
                j.job_id == "job00" for j in candidate.jobs
            )

        minimal = minimize_scenario(
            scenario, is_failing=is_failing, budget=100_000
        )
        assert is_failing(minimal)
        assert len(minimal.jobs) == 1
        assert len(minimal.phones) == 1
        assert len(minimal.chaos.crashes) == 1
        assert not minimal.chaos.slowdowns
        assert not minimal.arrivals

    def test_passing_scenario_returned_unchanged(self):
        scenario = generate_scenario(3)
        assert (
            minimize_scenario(scenario, is_failing=lambda s: False)
            is scenario
        )

    def test_budget_bounds_work(self):
        scenario = generate_scenario(8)
        calls = 0

        def is_failing(candidate):
            nonlocal calls
            calls += 1
            return True

        minimize_scenario(scenario, is_failing=is_failing, budget=5)
        # One call proves the original fails, five more spend the budget.
        assert calls <= 6


class TestChaosPlanRoundTrip:
    def test_chaos_survives_scenario_serialization(self):
        for seed in range(50):
            scenario = generate_scenario(seed)
            if not scenario.chaos.is_empty:
                clone = ChaosPlan.from_dict(scenario.chaos.to_dict())
                assert clone.to_dict() == scenario.chaos.to_dict()
                return
        pytest.fail("grammar never produced chaos")


class TestPolicyScenarios:
    """Scenarios parametrised over the pluggable scheduling policies."""

    NON_DEFAULT = ("energy-aware", "shortest-expected")

    def test_default_scenario_dict_has_no_policy_key(self):
        # Digest compatibility: pre-policy artifacts replay unchanged,
        # so the default policy must not appear in the serialised form.
        data = generate_scenario(7).to_dict()
        assert "policy" not in data
        clone = Scenario.from_dict(json.loads(json.dumps(data)))
        assert clone.policy == "cwc-greedy"
        assert clone.digest() == generate_scenario(7).digest()

    def test_policy_field_round_trips_and_shifts_digest(self):
        import dataclasses

        base = generate_scenario(7)
        for name in self.NON_DEFAULT:
            variant = dataclasses.replace(base, policy=name)
            data = variant.to_dict()
            assert data["policy"] == name
            clone = Scenario.from_dict(json.loads(json.dumps(data)))
            assert clone.policy == name
            assert clone.digest() == variant.digest()
            assert variant.digest() != base.digest()

    def test_unknown_policy_rejected(self):
        import dataclasses

        with pytest.raises(ValueError, match="unknown scenario policy"):
            dataclasses.replace(
                generate_scenario(7), policy="round-robin"
            )

    @pytest.mark.parametrize("policy", NON_DEFAULT)
    def test_policy_scenarios_pass_the_full_oracle(self, policy):
        import dataclasses

        scenario = dataclasses.replace(
            generate_scenario(12345), policy=policy
        )
        first = run_scenario(scenario)
        assert first.ok, first.violations
        second = run_scenario(scenario)
        assert first.digest == second.digest

    @pytest.mark.parametrize("policy", NON_DEFAULT)
    def test_policy_artifacts_replay(self, policy, tmp_path):
        import dataclasses

        scenario = dataclasses.replace(
            generate_scenario(31), policy=policy
        )
        outcome = run_scenario(scenario)
        path = write_artifact(outcome, tmp_path)
        recorded = json.loads(path.read_text())
        assert recorded["scenario"]["policy"] == policy
        replay = replay_artifact(path)
        assert replay.digest_matches
        assert replay.outcome.scenario.policy == policy
        assert replay.outcome.digest == outcome.digest

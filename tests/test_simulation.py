"""World construction and the multi-arm experiment harness."""

import numpy as np
import pytest

from divset import GrpoConfig, ValidationError, make_world, run_experiment, simulation
from divset import train as train_policy
from divset.simulation import DEFAULT_WORLD

FAST_WORLD = dict(n_modes=3, n_candidates=12, dim=8, sigma=0.1, seed=5)
FAST_GRPO = dict(iterations=60)


class TestMakeWorld:
    def test_deterministic(self):
        a = make_world(**FAST_WORLD)
        b = make_world(**FAST_WORLD)
        np.testing.assert_array_equal(a.centers, b.centers)
        np.testing.assert_array_equal(a.vocabulary.matrix(), b.vocabulary.matrix())
        assert a.labels == b.labels

    def test_zero_noise_candidates_equal_centers(self):
        world = make_world(n_modes=3, n_candidates=9, dim=6, sigma=0.0, seed=1)
        for i, item in enumerate(world.vocabulary):
            np.testing.assert_allclose(item.vector, world.centers[i % 3], atol=1e-12)

    def test_centers_orthonormal(self):
        world = make_world(**FAST_WORLD)
        gram = world.centers @ world.centers.T
        np.testing.assert_allclose(gram, np.eye(world.n_modes), atol=1e-12)
        offdiag = gram - np.diag(np.diagonal(gram))
        assert np.max(np.abs(offdiag)) <= 0.3

    def test_labels_match_nearest_center(self):
        world = make_world(n_modes=4, n_candidates=40, dim=16, sigma=0.1, seed=3)
        sims = world.vocabulary.matrix() @ world.centers.T
        nearest = np.argmax(sims, axis=1)
        for i, item in enumerate(world.vocabulary):
            assert world.labels[item.id] == int(nearest[i])
        # at this noise level nearest-center recovers the seeded assignment exactly
        np.testing.assert_array_equal(nearest, np.arange(40) % 4)

    def test_query_correlated_with_all_centers(self):
        world = make_world(**DEFAULT_WORLD)
        cos = world.centers @ world.query.vector
        assert np.all(cos > 0.1)
        assert abs(world.query.norm() - 1.0) <= 1e-12

    def test_single_mode_world(self):
        world = make_world(n_modes=1, n_candidates=5, dim=4, sigma=0.05, seed=2)
        assert set(world.labels.values()) == {0}
        assert world.mode_coverage(world.vocabulary.ids()[:2]) == 1.0

    def test_modes_exceeding_dim_rejected(self):
        with pytest.raises(ValidationError, match="exceed"):
            make_world(n_modes=5, n_candidates=10, dim=4, sigma=0.1, seed=0)

    def test_too_few_candidates_rejected(self):
        with pytest.raises(ValidationError, match="n_candidates"):
            make_world(n_modes=4, n_candidates=3, dim=8, sigma=0.1, seed=0)


class TestModeCoverage:
    def test_bounds(self):
        world = make_world(**FAST_WORLD)
        ids = world.vocabulary.ids()
        one = world.mode_coverage([ids[0]])
        assert one == pytest.approx(1 / 3)
        assert world.mode_coverage(ids) == 1.0

    def test_empty_selection_rejected(self):
        world = make_world(**FAST_WORLD)
        with pytest.raises(ValidationError):
            world.mode_coverage([])


class TestRunExperiment:
    def test_needs_two_arms(self):
        world = make_world(**FAST_WORLD)
        with pytest.raises(ValidationError, match="two arms"):
            run_experiment(world, [GrpoConfig(**FAST_GRPO)], k=3, seeds=[0])

    def test_deterministic_repeat(self):
        world = make_world(**FAST_WORLD)
        arms = [
            GrpoConfig(lambda_div=0.5, lambda_rel=0.5, **FAST_GRPO),
            GrpoConfig(lambda_div=0.0, lambda_rel=1.0, **FAST_GRPO),
        ]
        a = run_experiment(world, arms, k=3, seeds=[0, 1])
        b = run_experiment(world, arms, k=3, seeds=[0, 1])
        assert a.to_report() == b.to_report()

    def test_records_and_aggregates(self):
        world = make_world(**FAST_WORLD)
        arms = [
            GrpoConfig(lambda_div=0.5, lambda_rel=0.5, **FAST_GRPO),
            GrpoConfig(lambda_div=0.0, lambda_rel=1.0, **FAST_GRPO),
        ]
        result = run_experiment(world, arms, k=3, seeds=[0, 1, 2], arm_names=["composite", "rel"])
        assert [arm.name for arm in result.arms] == ["composite", "rel"]
        for arm in result.arms:
            assert len(arm.runs) == 3
            for run in arm.runs:
                assert len(run.selected_ids) == 3
                assert 1 / 3 <= run.mode_coverage <= 1.0
                assert 1.0 - 1e-9 <= run.vendi <= 3 + 1e-9
        rows = result.csv_rows()
        assert len(rows) == 2
        assert "vendi_mean" in rows[0]

    def test_arms_batch_by_group_size_and_iterations_and_equal_per_run_train(self, monkeypatch):
        world = make_world(**FAST_WORLD)
        arms = [
            GrpoConfig(lambda_div=0.5, lambda_rel=0.5, group_size=4, iterations=30),
            GrpoConfig(lambda_div=0.0, lambda_rel=1.0, group_size=6, iterations=30),
            GrpoConfig(lambda_div=0.9, lambda_rel=0.1, group_size=4, iterations=30),
            GrpoConfig(lambda_div=0.1, lambda_rel=0.9, group_size=4, iterations=20),
        ]
        batches = []
        real = simulation.train_batch

        def recording(configs, task):
            batches.append([(c.lambda_div, c.group_size, c.iterations, c.seed) for c in configs])
            return real(configs, task)

        monkeypatch.setattr(simulation, "train_batch", recording)
        result = run_experiment(world, arms, k=3, seeds=[0, 1])
        assert batches == [
            [(0.5, 4, 30, 0), (0.5, 4, 30, 1), (0.9, 4, 30, 0), (0.9, 4, 30, 1)],
            [(0.0, 6, 30, 0), (0.0, 6, 30, 1)],
            [(0.1, 4, 20, 0), (0.1, 4, 20, 1)],
        ]

        # the oracle: every run trained alone by train, in arm and seed order
        def per_run(configs, task):
            return [train_policy(config, task)[0] for config in configs], None

        monkeypatch.setattr(simulation, "train_batch", per_run)
        assert result.to_report() == run_experiment(world, arms, k=3, seeds=[0, 1]).to_report()

    def test_duplicate_arm_names_rejected(self):
        world = make_world(**FAST_WORLD)
        arms = [GrpoConfig(**FAST_GRPO), GrpoConfig(**FAST_GRPO)]
        with pytest.raises(ValidationError, match="unique"):
            run_experiment(world, arms, k=3, seeds=[0])


class TestRewardDirections:
    def test_relevance_only_training_collapses_mode_coverage(self):
        from dataclasses import replace

        from divset import rollout_policy
        from divset.grpo import ToyPolicy

        world = make_world(**DEFAULT_WORLD)
        config = GrpoConfig(lambda_div=0.0, lambda_rel=1.0, iterations=800)
        untrained = ToyPolicy(world.vocabulary)
        for seed in (0, 1, 2):
            policy, _ = train_policy(replace(config, seed=seed), world.training_task())
            before = world.mode_coverage(
                rollout_policy(untrained, world.query, 8, mode="greedy-prob", seed=seed).selected.ids()
            )
            after = world.mode_coverage(
                rollout_policy(policy, world.query, 8, mode="greedy-prob", seed=seed).selected.ids()
            )
            assert after < before
            assert after <= 2 / world.n_modes  # concentrated near a single mode


class TestSetSizeDiminishingReturns:
    def test_vendi_gains_shrink_as_the_set_grows(self):
        # Per-step vendi increments are not strictly monotone (balanced
        # duplicates can nudge the score back up near the end), so the
        # diminishing-returns claim is asserted on seed-averaged gains:
        # the early half of the rollout must out-gain the late half, and
        # the last step must gain less than the first.
        from dataclasses import replace

        from divset import rollout_policy, vendi_score

        world = make_world(**DEFAULT_WORLD)
        config = GrpoConfig(lambda_div=0.5, lambda_rel=0.5, iterations=400)
        profiles = []
        k = 8
        for seed in range(10):
            policy, _ = train_policy(replace(config, seed=seed), world.training_task())
            result = rollout_policy(policy, world.query, k=k, mode="greedy-prob", seed=seed)
            running = [
                vendi_score(result.selected.take(range(t))) for t in range(1, k + 1)
            ]
            profiles.append(np.diff([0.0] + running))
        avg = np.mean(profiles, axis=0)
        assert np.mean(avg[: k // 2]) >= np.mean(avg[k // 2 :])
        assert avg[-1] < avg[0]

"""Policy distribution, group sampling, advantages, the clipped surrogate
and its gradient, and the training loop."""

import dataclasses
import math

import numpy as np
import pytest

from divset import (
    Embedding,
    EmbeddingSet,
    GrpoConfig,
    ReferenceSet,
    ToyPolicy,
    TrainingTask,
    ValidationError,
    compute_advantages,
    composite_reward,
    policy_probs,
    rollout_policy,
    sample_group,
    surrogate_gradient,
    surrogate_objective,
    train,
)
from divset import grpo
from divset.cli import _write_jsonl
from divset.grpo import context_features
from divset.simulation import DEFAULT_WORLD, make_world
from grpo_oracles import clipped_surrogate, policy_entropy


def rand_unit(rng, d):
    v = rng.standard_normal(d)
    return v / np.linalg.norm(v)


def unit_set(rng, n, d, prefix="c"):
    return EmbeddingSet([Embedding(f"{prefix}{i}", rand_unit(rng, d)) for i in range(n)])


def copy_policy(policy):
    return ToyPolicy(policy.vocabulary, policy.theta.copy(), policy.bias.copy())


def exact_kl(p, q):
    """Discrete KL(p || q), the oracle of the KL the surrogate computes;
    infinite when q has a zero where p does not."""
    support = p > 0
    with np.errstate(divide="ignore"):
        terms = p[support] * (np.log(p[support]) - np.log(q[support]))
    return float(terms.sum())


def make_context(seed=0, n_vocab=8, d=6, n_ref=2):
    rng = np.random.default_rng(seed)
    vocab = unit_set(rng, n_vocab, d)
    query = Embedding("q", rand_unit(rng, d))
    ref = ReferenceSet(unit_set(rng, n_ref, d, "g"), query)
    return rng, vocab, query, ref


class TestPolicyProbs:
    def test_zero_parameters_give_uniform(self):
        _, vocab, query, ref = make_context()
        probs = policy_probs(ToyPolicy(vocab), query, ref)
        np.testing.assert_allclose(probs, np.full(len(vocab), 1 / len(vocab)), atol=1e-12)

    def test_single_item_vocabulary(self):
        q = Embedding("q", [1.0, 0.0])
        vocab = EmbeddingSet([Embedding("only", [0.0, 1.0])])
        probs = policy_probs(ToyPolicy(vocab, [0.3, -1.0]), q, ReferenceSet.empty(q))
        np.testing.assert_allclose(probs, [1.0], atol=1e-15)

    def test_negative_ref_weight_penalizes_similar_candidates(self):
        q = Embedding("q", [1.0, 0.0, 0.0])
        member = Embedding("g", [0.0, 1.0, 0.0])
        vocab = EmbeddingSet([Embedding("same", [0.0, 1.0, 0.0]), Embedding("orth", [0.0, 0.0, 1.0])])
        ref = ReferenceSet(EmbeddingSet([member]), q)
        probs = policy_probs(ToyPolicy(vocab, [0.0, -10.0]), q, ref)
        assert probs[1] > probs[0]

    def test_distribution_sums_to_one(self):
        rng, vocab, query, ref = make_context(3)
        for _ in range(20):
            policy = ToyPolicy(vocab, rng.normal(0, 2, 2), rng.normal(0, 2, len(vocab)))
            probs = policy_probs(policy, query, ref)
            assert np.all(probs >= 0)
            np.testing.assert_allclose(probs.sum(), 1.0, atol=1e-12)

    def test_empty_reference_feature_is_zero(self):
        _, vocab, query, _ = make_context()
        f = context_features(ToyPolicy(vocab), query, ReferenceSet.empty(query))
        np.testing.assert_array_equal(f[:, 1], 0.0)


GROUP = np.array([0, 1]), np.array([1.0, -1.0])
QUERY_ENTRY_POINTS = {
    "policy_probs": policy_probs,
    "sample_group": lambda policy, query, ref: sample_group(policy, query, ref, 4, rng_seed=0),
    "surrogate_objective": lambda p, query, ref: surrogate_objective(p, p, p, *GROUP, query, ref, 0.2, 0.04),
    "surrogate_gradient": lambda p, query, ref: surrogate_gradient(p, p, p, *GROUP, query, ref, 0.2, 0.04),
    "rollout_policy": lambda policy, query, ref: rollout_policy(policy, query, k=2),
}


@pytest.mark.parametrize("entry", QUERY_ENTRY_POINTS)
def test_wrong_dimension_query_rejected_naming_both(entry):
    rng, vocab, _, _ = make_context()  # vocabulary of dimension 6
    query = Embedding("q", rand_unit(rng, 4))
    ref = ReferenceSet(unit_set(rng, 2, 4, "g"), query)
    with pytest.raises(ValidationError, match="dimension") as excinfo:
        QUERY_ENTRY_POINTS[entry](ToyPolicy(vocab), query, ref)
    assert "4" in str(excinfo.value) and "6" in str(excinfo.value)


class TestSampleGroup:
    def test_deterministic_for_fixed_seed(self):
        _, vocab, query, ref = make_context()
        policy = ToyPolicy(vocab)
        a = sample_group(policy, query, ref, 4, rng_seed=99)
        b = sample_group(policy, query, ref, 4, rng_seed=99)
        np.testing.assert_array_equal(a, b)

    def test_point_mass_policy(self):
        _, vocab, query, ref = make_context()
        bias = np.zeros(len(vocab))
        bias[3] = 60.0
        indices = sample_group(ToyPolicy(vocab, bias=bias), query, ref, 6, rng_seed=1)
        assert np.all(indices == 3)

    def test_uniform_two_item_frequency(self):
        q = Embedding("q", [1.0, 0.0])
        vocab = EmbeddingSet([Embedding("a", [1.0, 0.0]), Embedding("b", [0.0, 1.0])])
        # theta = 0 so both logits are equal regardless of features
        indices = sample_group(ToyPolicy(vocab), q, ReferenceSet.empty(q), 10_000, rng_seed=7)
        freq = float(np.mean(indices == 0))
        assert abs(freq - 0.5) < 0.02

    def test_group_too_small_rejected(self):
        _, vocab, query, ref = make_context()
        with pytest.raises(ValidationError, match="at least 2"):
            sample_group(ToyPolicy(vocab), query, ref, 1, rng_seed=0)


class TestComputeAdvantages:
    def test_one_two_three(self):
        np.testing.assert_allclose(
            compute_advantages([1.0, 2.0, 3.0]), [-1.22474487, 0.0, 1.22474487], atol=1e-8
        )

    def test_constant_rewards_give_zeros(self):
        np.testing.assert_array_equal(compute_advantages([5.0, 5.0, 5.0, 5.0]), np.zeros(4))

    def test_two_elements(self):
        np.testing.assert_allclose(compute_advantages([0.0, 1.0]), [-1.0, 1.0], atol=1e-12)

    def test_normalization_invariants(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            g = int(rng.integers(2, 65))
            rewards = rng.normal(rng.normal(0, 5), rng.uniform(0.1, 10), g)
            adv = compute_advantages(rewards)
            assert abs(adv.mean()) <= 1e-12
            assert abs(adv.std() - 1.0) <= 1e-9

    def test_too_short_rejected(self):
        with pytest.raises(ValidationError, match="two"):
            compute_advantages([1.0])

    def test_constant_test_is_scale_free(self):
        rewards = np.array([0.25, 0.5, 0.75, 0.5])
        for scale in (2.0**-60, 1.0, 2.0**40):
            np.testing.assert_array_equal(compute_advantages(rewards * scale), compute_advantages(rewards))
        np.testing.assert_array_equal(compute_advantages(np.full(3, 0.1) * 2.0**-60), np.zeros(3))

    def test_stack_equals_each_row_bitwise(self):
        rng = np.random.default_rng(31)
        rows = rng.normal(0, 3, (6, 8))
        rows[1] = 0.375  # constant: zero advantages
        rows[2] = rows[3] * 2.0**-60  # scaled: the same advantages as its unscaled row
        stack = compute_advantages(rows)
        assert stack.shape == rows.shape
        for row, got in zip(rows, stack):
            assert got.tobytes() == compute_advantages(row).tobytes()
        np.testing.assert_array_equal(stack[1], np.zeros(8))
        assert stack[2].tobytes() == stack[3].tobytes()
        assert compute_advantages(rows[None]).tobytes() == stack.tobytes()

    @pytest.mark.parametrize("shape", [(4, 1), (2, 3, 1)])
    def test_stack_of_single_rewards_rejected(self, shape):
        with pytest.raises(ValidationError, match="advantage normalization needs at least two rewards"):
            compute_advantages(np.ones(shape))

    def test_tiny_reward_weights_train_like_their_power_of_two_multiple(self):
        # scaling both weights by 2**-49 scales every reward exactly, so the
        # advantages, and with them theta and bias, are bitwise unchanged
        task = make_world(n_modes=3, n_candidates=12, dim=8, sigma=0.1, seed=5).training_task()
        tiny = 0.5 * 2.0**-49
        base, _ = train(GrpoConfig(lambda_div=0.5, lambda_rel=0.5, iterations=50, seed=7), task)
        scaled, _ = train(GrpoConfig(lambda_div=tiny, lambda_rel=tiny, iterations=50, seed=7), task)
        assert np.any(base.theta != 0.0)
        np.testing.assert_array_equal(scaled.theta, base.theta)
        np.testing.assert_array_equal(scaled.bias, base.bias)


def make_surrogate_instance(seed, n_vocab=8, d=6, spread=0.5):
    rng, vocab, query, ref = make_context(seed, n_vocab, d)
    new = ToyPolicy(vocab, rng.normal(0, spread, 2), rng.normal(0, spread, n_vocab))
    old = ToyPolicy(vocab, new.theta + rng.normal(0, 0.15, 2), new.bias + rng.normal(0, 0.15, n_vocab))
    ref_policy = ToyPolicy(vocab, rng.normal(0, spread, 2), rng.normal(0, spread, n_vocab))
    indices = sample_group(old, query, ref, 8, rng_seed=int(rng.integers(2**31)))
    advantages = compute_advantages(rng.normal(0, 1, 8))
    return rng, vocab, query, ref, new, old, ref_policy, indices, advantages


class TestSurrogateObjective:
    def test_identical_policies_zero_objective(self):
        _, vocab, query, ref, new, old, ref_policy, indices, advantages = make_surrogate_instance(11)
        policy = copy_policy(new)
        value = surrogate_objective(policy, policy, policy, indices, advantages, query, ref, 0.2, 0.1)
        # ratios are 1 and inside the clip band, KL is 0, advantages are normalized
        np.testing.assert_allclose(value, advantages.mean(), atol=1e-12)
        np.testing.assert_allclose(value, 0.0, atol=1e-12)

    def test_clip_arithmetic_positive_advantage(self):
        # a single ratio 1.5 with eps 0.2 and A=1 contributes min(1.5, 1.2) = 1.2
        assert min(1.5 * 1.0, np.clip(1.5, 0.8, 1.2) * 1.0) == pytest.approx(1.2)

    def test_clip_arithmetic_negative_advantage(self):
        # ratio 0.5, eps 0.2, A=-1 contributes min(-0.5, -0.8) = -0.8
        assert min(0.5 * -1.0, np.clip(0.5, 0.8, 1.2) * -1.0) == pytest.approx(-0.8)

    def test_matches_direct_formula(self):
        for seed in range(5):
            _, vocab, query, ref, new, old, ref_policy, indices, adv = make_surrogate_instance(seed)
            eps, beta = 0.2, 0.07
            value = surrogate_objective(new, old, ref_policy, indices, adv, query, ref, eps, beta)
            p_new = policy_probs(new, query, ref)
            p_old = policy_probs(old, query, ref)
            p_ref = policy_probs(ref_policy, query, ref)
            rho = p_new[indices] / p_old[indices]
            expected = np.minimum(rho * adv, np.clip(rho, 1 - eps, 1 + eps) * adv).mean()
            expected -= beta * float(np.sum(p_new * (np.log(p_new) - np.log(p_ref))))
            np.testing.assert_allclose(value, expected, atol=1e-12)


class TestExactKl:
    def test_non_negative_and_zero_iff_equal(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            n = int(rng.integers(2, 12))
            p = rng.dirichlet(np.ones(n))
            q = rng.dirichlet(np.ones(n))
            assert exact_kl(p, q) >= 0.0
            assert exact_kl(p, p) <= 1e-12
        p = np.array([0.3, 0.7])
        assert exact_kl(p, np.array([0.7, 0.3])) > 0.0

    def test_entropy_of_uniform(self):
        p = np.full(8, 1 / 8)
        np.testing.assert_allclose(policy_entropy(p), math.log(8), atol=1e-12)


class TestSurrogateGradient:
    def test_matches_finite_differences(self):
        checked = 0
        seed = 0
        h = 1e-5
        while checked < 50:
            seed += 1
            rng, vocab, query, ref, new, old, ref_policy, indices, advantages = make_surrogate_instance(seed)
            eps, beta = 0.2, 0.05
            p_new = policy_probs(new, query, ref)
            p_old = policy_probs(old, query, ref)
            rho = p_new[indices] / p_old[indices]
            if np.any(np.abs(rho - (1 - eps)) < 1e-3) or np.any(np.abs(rho - (1 + eps)) < 1e-3):
                continue
            g_theta, g_bias = surrogate_gradient(
                new, old, ref_policy, indices, advantages, query, ref, eps, beta
            )
            analytic = np.concatenate([g_theta, g_bias])

            def objective_at(flat):
                policy = ToyPolicy(vocab, flat[:2], flat[2:])
                return surrogate_objective(policy, old, ref_policy, indices, advantages, query, ref, eps, beta)

            flat0 = np.concatenate([new.theta, new.bias])
            numeric = np.zeros_like(flat0)
            for j in range(flat0.size):
                up, down = flat0.copy(), flat0.copy()
                up[j] += h
                down[j] -= h
                numeric[j] = (objective_at(up) - objective_at(down)) / (2 * h)
            rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
            assert rel <= 1e-5
            checked += 1

    def test_reinforce_equivalence_at_sync(self):
        # with beta = 0 and new == old, the gradient is the score-function
        # estimator with the group baseline: (1/G) sum A_i grad log pi(a_i)
        for seed in range(10):
            rng, vocab, query, ref, new, old, ref_policy, _, _ = make_surrogate_instance(seed + 100)
            policy = copy_policy(new)
            indices = sample_group(policy, query, ref, 8, rng_seed=seed)
            advantages = compute_advantages(rng.normal(0, 1, 8))
            g_theta, g_bias = surrogate_gradient(
                policy, policy, ref_policy, indices, advantages, query, ref, 0.2, 0.0
            )

            probs = policy_probs(policy, query, ref)
            features = context_features(policy, query, ref)
            expect_logits = np.zeros(len(vocab))
            for idx, a in zip(indices, advantages):
                onehot = np.zeros(len(vocab))
                onehot[idx] = 1.0
                expect_logits += a * (onehot - probs) / len(indices)
            np.testing.assert_allclose(g_bias, expect_logits, atol=1e-12)
            np.testing.assert_allclose(g_theta, features.T @ expect_logits, atol=1e-12)


def same_bits(a, b):
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


class TestBatchedSurrogateMatchesOneRowOracle:
    """_clipped_surrogate takes a stack of runs; each row equals the one-row oracle bit for bit."""

    @staticmethod
    def rows(underflow):
        rng, vocab, query, ref = make_context(41, n_vocab=24)
        features = context_features(ToyPolicy(vocab), query, ref)
        rows = []
        for r in range(3):
            bias = rng.normal(0, 1, len(vocab))
            if underflow and r == 1:
                bias[5] = -1e4  # exp underflows: this item's probability is exactly 0
            new = ToyPolicy(vocab, rng.normal(0, 1, 2), bias)
            old = ToyPolicy(vocab, new.theta + rng.normal(0, 0.2, 2), new.bias + rng.normal(0, 0.2, len(vocab)))
            ref_policy = ToyPolicy(vocab, rng.normal(0, 1, 2), rng.normal(0, 1, len(vocab)))
            p_new, p_old, p_ref = (policy_probs(p, query, ref) for p in (new, old, ref_policy))
            indices = rng.choice(np.flatnonzero(p_new > 0), size=8)  # never the zero item
            rows.append((p_new, p_old, p_ref, indices, compute_advantages(rng.normal(0, 1, 8))))
        return features, rows

    @pytest.mark.parametrize("underflow", [False, True], ids=["positive", "exact-zero"])
    @pytest.mark.parametrize("kl_beta", [0.0, 0.3])
    def test_rows_equal_oracle_bitwise(self, underflow, kl_beta):
        features, rows = self.rows(underflow)
        assert (rows[1][0] == 0.0).any() == underflow
        p_new, p_old, p_ref, indices, advantages = (np.stack(part) for part in zip(*rows))
        epsilon, beta = np.array([0.05, 0.2, 0.5]), np.full(3, kl_beta)
        objective, kl, entropy, theta_grad, bias_grad = grpo._clipped_surrogate(
            np.stack([features] * 3), p_new, p_old, np.log(p_ref), indices, advantages, epsilon, beta
        )
        for r, (new, old, ref, idx, adv) in enumerate(rows):
            expected = clipped_surrogate(features, new, old, ref, idx, adv, epsilon[r], kl_beta)
            got = objective[r], kl[r], theta_grad[r], bias_grad[r]
            assert all(same_bits(a, b) for a, b in zip(got, expected)), r
            assert same_bits(entropy[r], policy_entropy(new)), r


def toy_task(rng, n_vocab=12, d=8, include_query_item=False, exemplars=None, context_sizes=None):
    items = [Embedding(f"c{i:02d}", rand_unit(rng, d)) for i in range(n_vocab)]
    query = Embedding("q", rand_unit(rng, d))
    if include_query_item:
        items[0] = Embedding("c00", query.vector.copy())
    return TrainingTask(
        vocabulary=EmbeddingSet(items),
        query=query,
        exemplars=exemplars if exemplars is not None else EmbeddingSet([]),
        context_sizes=context_sizes,
    )


class TestTrain:
    def test_zero_iterations_is_identity(self):
        task = toy_task(np.random.default_rng(1))
        policy, records = train(GrpoConfig(iterations=0, seed=5), task)
        np.testing.assert_array_equal(policy.theta, np.zeros(2))
        np.testing.assert_array_equal(policy.bias, np.zeros(len(task.vocabulary)))
        assert records == []

    def test_deterministic_given_seed(self):
        task = toy_task(np.random.default_rng(2))
        config = GrpoConfig(iterations=40, seed=123)
        p1, r1 = train(config, task)
        p2, r2 = train(config, task)
        np.testing.assert_array_equal(p1.theta, p2.theta)
        np.testing.assert_array_equal(p1.bias, p2.bias)
        assert r1 == r2

    def test_relevance_only_concentrates_on_query_item(self):
        rng = np.random.default_rng(3)
        task = toy_task(rng, include_query_item=True)
        config = GrpoConfig(lambda_div=0.0, lambda_rel=1.0, iterations=200, seed=11)
        policy, _ = train(config, task)
        ref = ReferenceSet(EmbeddingSet([]), task.query)
        before = policy_probs(ToyPolicy(task.vocabulary), task.query, ref)
        after = policy_probs(policy, task.query, ref)
        assert after[0] > before[0]

    def test_diversity_only_shifts_mass_off_covered_cluster(self):
        rng = np.random.default_rng(4)
        d = 8
        centroid = rand_unit(rng, d)
        # half the vocabulary sits on the covered centroid, half elsewhere
        items = [Embedding(f"on{i}", centroid) for i in range(4)]
        items += [Embedding(f"off{i}", rand_unit(rng, d)) for i in range(4)]
        query = Embedding("q", rand_unit(rng, d))
        task = TrainingTask(
            vocabulary=EmbeddingSet(items),
            query=query,
            exemplars=EmbeddingSet([Embedding("centroid", centroid)]),
            context_sizes=None,
        )
        config = GrpoConfig(lambda_div=1.0, lambda_rel=0.0, iterations=200, seed=13)
        policy, _ = train(config, task)
        ref = ReferenceSet(task.exemplars, query)
        after = policy_probs(policy, query, ref)
        assert after[4:].sum() > 0.5  # off-centroid mass strictly above initialization

    def test_log_records_structure(self):
        task = toy_task(np.random.default_rng(5))
        _, records = train(GrpoConfig(iterations=10, seed=3), task)
        assert len(records) == 10
        assert [r["iteration"] for r in records] == list(range(10))
        for r in records:
            assert set(r) == {"iteration", "objective", "mean_reward", "kl", "policy_entropy"}
            assert np.isfinite(list(r.values())).all()


def reference_train(config, task):
    """train() as the plain GRPO loop: sync a copy of the policy as the old
    policy, keep the all-zero initial policy as the reference, and take the
    objective, gradient and KL from the public surrogate functions."""
    policy = ToyPolicy(task.vocabulary)
    ref_policy = copy_policy(policy)
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    records = []
    for iteration in range(config.iterations):
        lo, hi = task.context_sizes
        size = int(rng.integers(lo, hi + 1))
        chosen = sorted(rng.choice(len(task.exemplars), size=size, replace=False).tolist())
        ref = ReferenceSet(EmbeddingSet([task.exemplars[i] for i in chosen]), task.query)
        group_seed = int(rng.integers(0, 2**63))
        old = copy_policy(policy)
        indices = sample_group(old, task.query, ref, config.group_size, group_seed)
        items = [task.vocabulary[int(i)] for i in indices]
        rewards = np.array(
            [composite_reward(item, ref, config.lambda_div, config.lambda_rel).composite for item in items]
        )
        advantages = compute_advantages(rewards)
        args = (
            policy, old, ref_policy, indices, advantages, task.query, ref, config.clip_epsilon, config.kl_beta
        )
        objective = surrogate_objective(*args)
        theta_grad, bias_grad = surrogate_gradient(*args)
        p_new = policy_probs(policy, task.query, ref)
        kl = exact_kl(p_new, policy_probs(ref_policy, task.query, ref))
        policy.theta = policy.theta + config.learning_rate * theta_grad
        policy.bias = policy.bias + config.learning_rate * bias_grad
        records.append(
            {
                "iteration": iteration,
                "objective": objective,
                "mean_reward": float(rewards.mean()),
                "kl": kl,
                "policy_entropy": policy_entropy(p_new),
            }
        )
    return policy, records


class TestTrainMatchesReferenceLoop:
    """train() builds each distinct context once; it must equal the plain loop bit for bit."""

    @pytest.mark.parametrize(
        "n_exemplars, context_sizes, kl_beta, learning_rate, table_floats",
        [
            pytest.param(4, (0, 4), 0.04, 0.01, grpo.CONTEXT_TABLE_FLOATS, id="0.04-0.01"),
            pytest.param(4, (0, 4), 0.5, 0.3, grpo.CONTEXT_TABLE_FLOATS, id="0.5-0.3"),
            pytest.param(4, (4, 4), 0.5, 0.3, grpo.CONTEXT_TABLE_FLOATS, id="whole-pool"),
            pytest.param(1, None, 0.5, 0.3, grpo.CONTEXT_TABLE_FLOATS, id="no-context-draw"),
            pytest.param(4, (0, 4), 0.5, 0.3, 0, id="uncached"),
        ],
    )
    def test_records_and_parameters_equal(
        self, monkeypatch, n_exemplars, context_sizes, kl_beta, learning_rate, table_floats
    ):
        monkeypatch.setattr(grpo, "CONTEXT_TABLE_FLOATS", table_floats)
        rng = np.random.default_rng(21)
        exemplars = unit_set(rng, n_exemplars, 8, "x")
        task = toy_task(rng, exemplars=exemplars, context_sizes=context_sizes)
        # reference_train always draws a context; on a one-exemplar pool (1, 1) draws
        # nothing from the stream, so it is the oracle of train without context_sizes
        oracle_task = task if context_sizes else dataclasses.replace(task, context_sizes=(1, 1))
        config = GrpoConfig(iterations=60, kl_beta=kl_beta, learning_rate=learning_rate, seed=9)
        policy, records = train(config, task)
        expected_policy, expected_records = reference_train(config, oracle_task)
        assert records == expected_records
        assert np.array_equal(policy.theta, expected_policy.theta)
        assert np.array_equal(policy.bias, expected_policy.bias)
        assert any(r["kl"] > 0.0 for r in records)

    @staticmethod
    def count_context_features(monkeypatch, config, task):
        """context_features calls made by train, and the distinct contexts drawn on its seed."""
        calls = []
        real = grpo.context_features

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(grpo, "context_features", counting)
        train(config, task)
        rng = np.random.default_rng(np.random.SeedSequence(config.seed))
        keys = set()
        for _ in range(config.iterations):
            keys.add(grpo._iteration_context(task, rng))
            rng.integers(0, 2**63)
        return len(calls), len(keys)

    def test_context_features_at_most_twice_per_iteration(self, monkeypatch):
        task = toy_task(
            np.random.default_rng(22),
            exemplars=unit_set(np.random.default_rng(23), 3, 8, "x"),
            context_sizes=(0, 3),
        )
        calls, contexts = self.count_context_features(monkeypatch, GrpoConfig(iterations=20, seed=2), task)
        assert 1 < contexts < 20
        assert calls == contexts  # once per distinct context

    def test_default_world_builds_at_most_every_exemplar_subset(self, monkeypatch):
        task = make_world(**DEFAULT_WORLD).training_task()
        calls, contexts = self.count_context_features(monkeypatch, GrpoConfig(iterations=1200), task)
        assert calls == contexts <= 2 ** DEFAULT_WORLD["n_modes"]

    def test_clip_epsilon_does_not_change_training(self):
        task = toy_task(np.random.default_rng(24))
        runs = [train(GrpoConfig(iterations=30, clip_epsilon=eps, seed=3), task)[1] for eps in (0.01, 0.9)]
        assert runs[0] == runs[1]


class TestTrainBatchMatchesReferenceLoop:
    """One lockstep batch of mixed configs; every run equals the plain loop bit for bit."""

    CONFIGS = [
        dict(lambda_div=lambda_div, lambda_rel=lambda_rel, kl_beta=kl_beta, seed=seed)
        for lambda_div, lambda_rel in ((0.5, 0.5), (0.0, 1.0))
        for kl_beta in (0.0, 0.3)
        for seed in (4, 11)
    ]

    @pytest.mark.parametrize("iterations", [0, 40])
    @pytest.mark.parametrize("table_floats", [grpo.CONTEXT_TABLE_FLOATS, 0], ids=["table", "no-table"])
    @pytest.mark.parametrize("context_sizes", [(0, 4), None], ids=["drawn", "whole-pool"])
    def test_each_run_equals_reference_train(self, monkeypatch, iterations, table_floats, context_sizes):
        monkeypatch.setattr(grpo, "CONTEXT_TABLE_FLOATS", table_floats)
        rng = np.random.default_rng(25)
        exemplars = unit_set(rng, 4 if context_sizes else 1, 8, "x")
        task = toy_task(rng, exemplars=exemplars, context_sizes=context_sizes)
        # as in TestTrainMatchesReferenceLoop: (1, 1) on a one-exemplar pool draws nothing
        oracle_task = task if context_sizes else dataclasses.replace(task, context_sizes=(1, 1))
        configs = [GrpoConfig(iterations=iterations, learning_rate=0.3, **c) for c in self.CONFIGS]
        policies, log = grpo.train_batch(configs, task)
        assert log.shape == (iterations, len(grpo.LOG_FIELDS), len(configs))
        for run, (config, policy) in enumerate(zip(configs, policies)):
            expected_policy, expected_records = reference_train(config, oracle_task)
            assert grpo.log_records(log, run) == expected_records
            assert same_bits(policy.theta, expected_policy.theta)
            assert same_bits(policy.bias, expected_policy.bias)

    def test_configs_must_share_group_size_and_iterations(self):
        task = toy_task(np.random.default_rng(26))
        for other in (GrpoConfig(group_size=4), GrpoConfig(iterations=5)):
            with pytest.raises(ValidationError, match="group_size and iterations"):
                grpo.train_batch([GrpoConfig(), other], task)


class TestGrpoConfig:
    def test_epsilon_out_of_range(self):
        with pytest.raises(ValidationError, match=r"\(0, 1\)"):
            GrpoConfig(clip_epsilon=1.5)

    def test_group_size_too_small(self):
        with pytest.raises(ValidationError, match="group_size"):
            GrpoConfig(group_size=1)

    def test_negative_learning_rate(self):
        with pytest.raises(ValidationError, match="learning_rate"):
            GrpoConfig(learning_rate=0.0)

    def test_negative_kl_beta(self):
        with pytest.raises(ValidationError, match="kl_beta"):
            GrpoConfig(kl_beta=-0.1)

    @pytest.mark.parametrize("field", ["learning_rate", "kl_beta", "lambda_div", "lambda_rel"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValidationError, match="finite"):
            GrpoConfig(**{field: value})

    def test_training_log_refuses_nan(self, tmp_path):
        with pytest.raises(ValueError, match="JSON compliant"):
            _write_jsonl([{"iteration": 0, "objective": math.nan}], tmp_path / "log.jsonl")

    @pytest.mark.parametrize(
        "field, value",
        [("group_size", "8"), ("learning_rate", "x"), ("lambda_div", True), ("seed", None), ("iterations", math.nan)],
    )
    def test_wrong_type_rejected_naming_field(self, field, value):
        with pytest.raises(ValidationError, match=field):
            GrpoConfig(**{field: value})

    def test_integral_float_fields_become_ints(self):
        config = GrpoConfig(group_size=4.0, iterations=10.0, seed=3.0)
        assert (config.group_size, config.iterations, config.seed) == (4, 10, 3)
        assert all(type(v) is int for v in (config.group_size, config.iterations, config.seed))

    def test_defaults_valid(self):
        config = GrpoConfig()
        assert config.group_size == 8
        assert config.clip_epsilon == 0.2
        assert config.kl_beta == 0.04

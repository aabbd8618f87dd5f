"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines alongside pytest's own verdicts. The end-to-end criteria
train real policies on the default world and take a minute or two.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from divset import (
    Embedding,
    EmbeddingSet,
    ReferenceSet,
    ToyPolicy,
    compute_advantages,
    greedy_select,
    brute_force_select,
    marginal_gain,
    policy_probs,
    sample_group,
    surrogate_gradient,
    vendi_score,
)
from divset.cli import main
from divset.kernel import build_kernel, logdet_regularized_gram
from grpo_oracles import surrogate_objective

LN2 = math.log(2)
LN3 = math.log(3)


@contextmanager
def criterion(num: int, description: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num} FAIL: {description}")
        raise
    print(f"criterion {num} PASS: {description}")


def rand_unit(rng, d):
    v = rng.standard_normal(d)
    return v / np.linalg.norm(v)


def unit_set(rng, n, d, prefix="e"):
    return EmbeddingSet([Embedding(f"{prefix}{i:02d}", rand_unit(rng, d)) for i in range(n)])


def det_by_cofactor(m):
    n = m.shape[0]
    if n == 0:
        return 1.0
    if n == 1:
        return float(m[0, 0])
    total = 0.0
    rest = m[1:]
    for j in range(n):
        minor = np.delete(rest, j, axis=1)
        total += ((-1.0) ** j) * float(m[0, j]) * det_by_cofactor(minor)
    return total


def test_criterion_1_logdet_oracle_equivalence():
    with criterion(1, "logdet_regularized_gram matches cofactor determinant on 500 random sets"):
        rng = np.random.default_rng(101)
        start = time.perf_counter()
        for _ in range(500):
            n, d = int(rng.integers(1, 7)), int(rng.integers(1, 9))
            kernel = build_kernel(unit_set(rng, n, d))
            oracle = math.log(det_by_cofactor(kernel + np.eye(n)))
            assert abs(logdet_regularized_gram(kernel) - oracle) <= 1e-9
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_2_diminishing_returns():
    with criterion(2, "marginal gains are submodular; duplicate insertion gives ln3 - ln2"):
        rng = np.random.default_rng(102)
        start = time.perf_counter()
        for _ in range(200):
            d = int(rng.integers(2, 17))
            n = int(rng.integers(1, 8))
            query = Embedding("q", rand_unit(rng, d))
            members = list(unit_set(rng, n, d, "m"))
            size_a = int(rng.integers(0, n))
            chosen = sorted(rng.choice(n, size=size_a, replace=False).tolist())
            small = ReferenceSet(EmbeddingSet([members[i] for i in chosen]), query)
            large = ReferenceSet(EmbeddingSet(members), query)
            x = Embedding("x", rand_unit(rng, d))
            assert marginal_gain(x, small) >= marginal_gain(x, large) - 1e-9

        x_vec = rand_unit(rng, 8)
        ref = ReferenceSet(EmbeddingSet([Embedding("m", x_vec)]), Embedding("q", x_vec))
        assert abs(marginal_gain(Embedding("x", x_vec), ref) - (LN3 - LN2)) <= 1e-12
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_3_greedy_submodular_guarantee():
    with criterion(3, "greedy diversity-only selection attains the (1 - 1/e) bound on 100 pools"):
        rng = np.random.default_rng(103)
        factor = 1 - 1 / math.e
        start = time.perf_counter()
        for _ in range(100):
            n = int(rng.integers(2, 13))
            k = int(rng.integers(1, min(n, 4) + 1))
            d = int(rng.integers(2, 9))
            pool = unit_set(rng, n, d, "p")
            query = Embedding("q", rand_unit(rng, d))
            greedy = greedy_select(pool, query, k, lambda_div=1.0, lambda_rel=0.0).final_diversity
            _, optimum = brute_force_select(pool, k)
            assert greedy >= factor * optimum - 1e-12
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_criterion_4_advantage_normalization():
    with criterion(4, "group advantages have zero mean, unit std, and the frozen spot values"):
        rng = np.random.default_rng(104)
        for _ in range(300):
            g = int(rng.integers(2, 65))
            rewards = rng.normal(rng.normal(0, 3), rng.uniform(0.05, 20), g)
            adv = compute_advantages(rewards)
            if rewards.std() > 1e-12:
                assert abs(adv.mean()) <= 1e-12
                assert abs(adv.std() - 1.0) <= 1e-9
        np.testing.assert_array_equal(compute_advantages([7.0, 7.0, 7.0]), np.zeros(3))
        spot = compute_advantages([1.0, 2.0, 3.0])
        np.testing.assert_allclose(spot, [-1.22474487, 0.0, 1.22474487], atol=1e-8)
        np.testing.assert_allclose(spot, (np.array([1.0, 2.0, 3.0]) - 2.0) / math.sqrt(2 / 3), atol=1e-15)


def _gradient_check_instance(seed):
    rng = np.random.default_rng(seed)
    d, n_vocab = 6, 8
    vocab = unit_set(rng, n_vocab, d, "c")
    query = Embedding("q", rand_unit(rng, d))
    ref = ReferenceSet(unit_set(rng, 2, d, "g"), query)
    new = ToyPolicy(vocab, rng.normal(0, 0.5, 2), rng.normal(0, 0.5, n_vocab))
    old = ToyPolicy(vocab, new.theta + rng.normal(0, 0.15, 2), new.bias + rng.normal(0, 0.15, n_vocab))
    ref_policy = ToyPolicy(vocab, rng.normal(0, 0.5, 2), rng.normal(0, 0.5, n_vocab))
    indices = sample_group(old, query, ref, 8, rng_seed=int(rng.integers(2**31)))
    advantages = compute_advantages(rng.normal(0, 1, 8))
    return vocab, query, ref, new, old, ref_policy, indices, advantages


def test_criterion_5_surrogate_gradient_check():
    with criterion(5, "analytic gradient matches finite differences; clip arithmetic exact"):
        eps, beta, h = 0.2, 0.05, 1e-5
        checked, seed = 0, 0
        while checked < 50:
            seed += 1
            vocab, query, ref, new, old, ref_policy, indices, advantages = _gradient_check_instance(seed)
            rho = policy_probs(new, query, ref)[indices] / policy_probs(old, query, ref)[indices]
            if np.any(np.abs(rho - (1 - eps)) < 1e-3) or np.any(np.abs(rho - (1 + eps)) < 1e-3):
                continue
            g_theta, g_bias = surrogate_gradient(
                new, old, ref_policy, indices, advantages, query, ref, eps, beta
            )
            analytic = np.concatenate([g_theta, g_bias])
            flat0 = np.concatenate([new.theta, new.bias])
            numeric = np.zeros_like(flat0)
            for j in range(flat0.size):
                up, down = flat0.copy(), flat0.copy()
                up[j] += h
                down[j] -= h
                numeric[j] = (
                    surrogate_objective(
                        ToyPolicy(vocab, up[:2], up[2:]), old, ref_policy, indices, advantages, query, ref, eps,
                        beta,
                    )
                    - surrogate_objective(
                        ToyPolicy(vocab, down[:2], down[2:]), old, ref_policy, indices, advantages, query, ref, eps,
                        beta,
                    )
                ) / (2 * h)
            rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
            assert rel <= 1e-5
            checked += 1

        # frozen clip arithmetic
        assert min(1.5 * 1.0, min(max(1.5, 0.8), 1.2) * 1.0) == 1.2
        assert min(0.5 * -1.0, min(max(0.5, 0.8), 1.2) * -1.0) == -0.8
        # and through the objective itself: two identical samples, beta = 0,
        # theta = 0 so the two-item softmax is set purely by the biases
        e = np.eye(2)
        vocab2 = EmbeddingSet([Embedding("u", e[0]), Embedding("v", e[1])])
        q2 = Embedding("q", e[0])
        ref2 = ReferenceSet.empty(q2)
        for target_ratio, advantage, expected in ((1.5, 1.0, 1.2), (0.5, -1.0, -0.8)):
            old2 = ToyPolicy(vocab2, [0.0, 0.0], [0.0, 0.0])
            # p_old(u) = 0.5; choose the new bias so p_new(u) = 0.5 * ratio
            new2 = ToyPolicy(
                vocab2, [0.0, 0.0], [math.log(target_ratio / (2.0 - target_ratio)), 0.0]
            )
            indices2, advantages2 = np.array([0, 0]), np.array([advantage, advantage])
            value = surrogate_objective(new2, old2, old2, indices2, advantages2, q2, ref2, 0.2, 0.0)
            assert abs(value - expected) <= 1e-9, (target_ratio, advantage, value)


def test_criterion_6_vendi_endpoints():
    with criterion(6, "vendi endpoints: identical -> 1, orthogonal -> n, duplication invariant"):
        v = np.zeros(6)
        v[0] = 1.0
        for n in (1, 3, 8):
            dup = EmbeddingSet([Embedding(f"d{i}", v) for i in range(n)])
            assert abs(vendi_score(dup) - 1.0) <= 1e-9
        for n in (1, 4, 8):
            eye = np.eye(n)
            orth = EmbeddingSet([Embedding(f"o{i}", eye[i]) for i in range(n)])
            assert abs(vendi_score(orth) - n) <= 1e-9
        rng = np.random.default_rng(106)
        for _ in range(20):
            items = list(unit_set(rng, int(rng.integers(1, 7)), int(rng.integers(2, 10))))
            doubled = items + [Embedding(f"copy-{item.id}", item.vector) for item in items]
            assert abs(vendi_score(EmbeddingSet(items)) - vendi_score(EmbeddingSet(doubled))) <= 1e-6


@pytest.mark.slow
def test_criterion_7_composite_beats_relevance_only(default_world_experiment):
    with criterion(7, "composite arm beats relevance-only on coverage and vendi within the alignment budget"):
        result, elapsed = default_world_experiment
        composite = result.arm("div0.5")
        rel_only = result.arm("relevance-only")
        assert composite.metric_mean("mode_coverage") > rel_only.metric_mean("mode_coverage")
        assert composite.metric_mean("vendi") > rel_only.metric_mean("vendi")
        degradation = (
            rel_only.metric_mean("mean_alignment") - composite.metric_mean("mean_alignment")
        ) / rel_only.metric_mean("mean_alignment")
        assert degradation < 0.15, f"alignment degraded by {degradation:.1%}"
        assert elapsed < 120.0, f"experiment took {elapsed:.1f}s"


@pytest.mark.slow
def test_criterion_8_lambda_ablation_direction(default_world_experiment):
    with criterion(8, "vendi non-decreasing and alignment non-increasing in lambda_div"):
        result, _ = default_world_experiment
        vendi = [result.arm(n).metric_mean("vendi") for n in ("div0.1", "div0.5", "div0.9")]
        align = [result.arm(n).metric_mean("mean_alignment") for n in ("div0.1", "div0.5", "div0.9")]
        assert vendi[0] <= vendi[1] <= vendi[2], vendi
        assert align[0] >= align[1] >= align[2], align


def test_criterion_9_simulate_determinism(tmp_path):
    with criterion(9, "simulate twice with one config yields byte-identical reports"):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "version": 1,
                    "world": {"n_modes": 3, "n_candidates": 15, "dim": 8, "sigma": 0.1, "seed": 9},
                    "grpo": {"iterations": 80},
                    "arms": [
                        {"name": "composite", "lambda_div": 0.5, "lambda_rel": 0.5},
                        {"name": "relevance-only", "lambda_div": 0.0, "lambda_rel": 1.0},
                    ],
                    "k": 4,
                    "seeds": [0, 1, 2],
                }
            )
        )
        outs = []
        for name in ("first", "second"):
            out = tmp_path / name
            assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
            outs.append(out)
        for artifact in ("report.json", "runs.jsonl", "config.json"):
            assert (outs[0] / artifact).read_bytes() == (outs[1] / artifact).read_bytes(), artifact

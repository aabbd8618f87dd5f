"""Diversity gains, relevance, and the composite reward."""

import math

import numpy as np
import pytest

from divset import (
    Embedding,
    EmbeddingSet,
    ReferenceSet,
    ValidationError,
    composite_reward,
    diversity_score,
    marginal_gain,
    relevance,
)
from divset.rewards import LAMBDA_ABLATION_GRID

LN2 = math.log(2)
LN3 = math.log(3)


def rand_unit(rng, d):
    v = rng.standard_normal(d)
    return v / np.linalg.norm(v)


def unit_set(rng, n, d, prefix="e"):
    return EmbeddingSet([Embedding(f"{prefix}{i}", rand_unit(rng, d)) for i in range(n)])


class TestDiversityScore:
    def test_orthogonal_vectors(self):
        for k in (1, 2, 4):
            items = [Embedding(f"e{i}", np.eye(5)[i]) for i in range(k)]
            np.testing.assert_allclose(diversity_score(EmbeddingSet(items)), k * LN2, atol=1e-12)

    def test_duplicate_pair(self):
        x = [0.6, 0.8]
        s = EmbeddingSet([Embedding("a", x), Embedding("b", x)])
        np.testing.assert_allclose(diversity_score(s), LN3, atol=1e-12)

    def test_empty(self):
        assert diversity_score(EmbeddingSet([])) == 0.0

    def test_permutation_invariant(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            items = list(unit_set(rng, int(rng.integers(2, 8)), 6))
            base = diversity_score(EmbeddingSet(items))
            perm = [items[i] for i in rng.permutation(len(items))]
            np.testing.assert_allclose(diversity_score(EmbeddingSet(perm)), base, atol=1e-12)


class TestMarginalGain:
    def test_first_insertion(self):
        q = Embedding("q", [1.0, 0.0])
        ref = ReferenceSet.empty(q)
        np.testing.assert_allclose(marginal_gain(Embedding("x", [0.0, 1.0]), ref), LN2, atol=1e-12)

    def test_duplicate_insertion_diminishes(self):
        x = [1.0, 0.0]
        q = Embedding("q", x)
        ref = ReferenceSet(EmbeddingSet([Embedding("m", x)]), q)
        gain = marginal_gain(Embedding("x", x), ref)
        np.testing.assert_allclose(gain, LN3 - LN2, atol=1e-12)
        assert gain < LN2

    def test_orthogonal_keeps_full_gain(self):
        q = Embedding("q", [1.0, 0.0])
        ref = ReferenceSet(EmbeddingSet([Embedding("m", [1.0, 0.0])]), q)
        np.testing.assert_allclose(marginal_gain(Embedding("y", [0.0, 1.0]), ref), LN2, atol=1e-12)

    def test_always_positive(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            d = int(rng.integers(1, 17))
            n = int(rng.integers(0, 8))
            q = Embedding("q", rand_unit(rng, d))
            ref = ReferenceSet(unit_set(rng, n, d, "m"), q)
            assert marginal_gain(Embedding("x", rand_unit(rng, d)), ref) > 1e-12

    def test_submodular_diminishing_returns(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            d = int(rng.integers(2, 17))
            n = int(rng.integers(1, 8))
            q = Embedding("q", rand_unit(rng, d))
            members = list(unit_set(rng, n, d, "m"))
            small = int(rng.integers(0, n))
            chosen = sorted(rng.choice(n, size=small, replace=False).tolist())
            ref_a = ReferenceSet(EmbeddingSet([members[i] for i in chosen]), q)
            ref_b = ReferenceSet(EmbeddingSet(members), q)
            x = Embedding("x", rand_unit(rng, d))
            assert marginal_gain(x, ref_a) >= marginal_gain(x, ref_b) - 1e-9


class TestRelevance:
    def test_candidate_equals_query_and_member(self):
        v = [1.0, 0.0]
        q = Embedding("q", v)
        ref = ReferenceSet(EmbeddingSet([Embedding("m", v)]), q)
        np.testing.assert_allclose(relevance(Embedding("p", v), ref), 1.0, atol=1e-12)

    def test_orthogonal_to_query_vanishes(self):
        q = Embedding("q", [1.0, 0.0, 0.0])
        ref = ReferenceSet(
            EmbeddingSet([Embedding("m0", [0.0, 1.0, 0.0]), Embedding("m1", [0.6, 0.8, 0.0])]), q
        )
        np.testing.assert_allclose(relevance(Embedding("p", [0.0, 0.0, 1.0]), ref), 0.0, atol=1e-12)

    def test_two_member_example(self):
        # cos(p, q) = 0.8, cos(p, g0) = 0.5, cos(p, g1) = 0.7 -> 0.8 * 0.6 = 0.48
        p = Embedding("p", [1.0, 0.0, 0.0])
        q = Embedding("q", [0.8, 0.6, 0.0])
        g0 = Embedding("g0", [0.5, math.sqrt(1 - 0.25), 0.0])
        g1 = Embedding("g1", [0.7, math.sqrt(1 - 0.49), 0.0])
        ref = ReferenceSet(EmbeddingSet([g0, g1]), q)
        np.testing.assert_allclose(relevance(p, ref), 0.48, atol=1e-12)

    def test_empty_reference_rejected(self):
        q = Embedding("q", [1.0, 0.0])
        with pytest.raises(ValidationError, match="non-empty"):
            relevance(Embedding("p", [0.0, 1.0]), ReferenceSet.empty(q))

    def test_factorization_identity(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            d = int(rng.integers(2, 12))
            n = int(rng.integers(1, 6))
            q = Embedding("q", rand_unit(rng, d))
            ref = ReferenceSet(unit_set(rng, n, d, "m"), q)
            p = Embedding("p", rand_unit(rng, d))
            lhs = relevance(p, ref)
            member_mean = float(np.mean(ref.members.matrix() @ p.vector))
            rhs = float(p.vector @ q.vector) * member_mean
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)
            assert -1 - 1e-12 <= lhs <= 1 + 1e-12


class TestCompositeReward:
    def test_breakdown_arithmetic(self):
        # a breakdown is a row of the evaluator: the weighted sum holds by construction
        rng = np.random.default_rng(44)
        q = Embedding("q", rand_unit(rng, 5))
        ref = ReferenceSet(unit_set(rng, 3, 5, "m"), q)
        b = composite_reward(Embedding("x", rand_unit(rng, 5)), ref, 0.3, 0.7)
        assert abs(b.composite - (0.3 * b.diversity_gain + 0.7 * b.relevance)) <= 1e-12
        assert b.to_dict() == {
            "diversity_gain": b.diversity_gain,
            "relevance": b.relevance,
            "composite": b.composite,
            "lambda_div": 0.3,
            "lambda_rel": 0.7,
        }
        assert list(b.to_dict()) == ["diversity_gain", "relevance", "composite", "lambda_div", "lambda_rel"]

    def test_diversity_only(self):
        rng = np.random.default_rng(43)
        q = Embedding("q", rand_unit(rng, 5))
        ref = ReferenceSet(unit_set(rng, 3, 5, "m"), q)
        cand = Embedding("x", rand_unit(rng, 5))
        b = composite_reward(cand, ref, 1.0, 0.0)
        assert b.composite == b.diversity_gain
        np.testing.assert_allclose(b.diversity_gain, marginal_gain(cand, ref), atol=1e-15)

    def test_relevance_only(self):
        rng = np.random.default_rng(47)
        q = Embedding("q", rand_unit(rng, 5))
        ref = ReferenceSet(unit_set(rng, 3, 5, "m"), q)
        cand = Embedding("x", rand_unit(rng, 5))
        b = composite_reward(cand, ref, 0.0, 1.0)
        assert b.composite == b.relevance
        np.testing.assert_allclose(b.relevance, relevance(cand, ref), atol=1e-15)

    def test_weighted_sum_invariant(self):
        rng = np.random.default_rng(53)
        for lam_div, lam_rel in LAMBDA_ABLATION_GRID:
            q = Embedding("q", rand_unit(rng, 6))
            ref = ReferenceSet(unit_set(rng, 4, 6, "m"), q)
            b = composite_reward(Embedding("x", rand_unit(rng, 6)), ref, lam_div, lam_rel)
            np.testing.assert_allclose(
                b.composite, lam_div * b.diversity_gain + lam_rel * b.relevance, atol=1e-12
            )

    def test_empty_reference_degrades_to_query_cosine(self):
        q = Embedding("q", [1.0, 0.0])
        b = composite_reward(Embedding("p", [0.6, 0.8]), ReferenceSet.empty(q), 0.0, 1.0)
        np.testing.assert_allclose(b.relevance, 0.6, atol=1e-12)
        np.testing.assert_allclose(b.composite, 0.6, atol=1e-12)

    def test_negative_weights_rejected(self):
        q = Embedding("q", [1.0, 0.0])
        ref = ReferenceSet.empty(q)
        with pytest.raises(ValidationError, match="non-negative"):
            composite_reward(Embedding("p", [0.0, 1.0]), ref, -0.5, 0.5)

    @pytest.mark.parametrize(
        "weights", [(math.nan, 0.5), (0.5, math.nan), (math.inf, 0.5), (0.5, math.inf)], ids=str
    )
    def test_non_finite_weights_rejected(self, weights):
        q = Embedding("q", [1.0, 0.0])
        with pytest.raises(ValidationError, match="finite"):
            composite_reward(Embedding("p", [0.0, 1.0]), ReferenceSet.empty(q), *weights)

    def test_both_zero_weights_rejected(self):
        q = Embedding("q", [1.0, 0.0])
        with pytest.raises(ValidationError, match="both"):
            composite_reward(Embedding("p", [0.0, 1.0]), ReferenceSet.empty(q), 0.0, 0.0)


class TestReferenceSet:
    def test_rejects_unnormalized_member(self):
        q = Embedding("q", [1.0, 0.0])
        with pytest.raises(ValidationError, match="unit-normalized"):
            ReferenceSet(EmbeddingSet([Embedding("m", [2.0, 0.0])]), q)

    def test_rejects_dim_mismatch(self):
        q = Embedding("q", [1.0, 0.0, 0.0])
        with pytest.raises(ValidationError, match="dimension"):
            ReferenceSet(EmbeddingSet([Embedding("m", [1.0, 0.0])]), q)

    @pytest.mark.parametrize(
        "view, n_members",
        [(marginal_gain, 0), (composite_reward, 0), (marginal_gain, 1), (relevance, 1), (composite_reward, 1)],
    )
    def test_candidate_dim_mismatch_rejected(self, view, n_members):
        ref = ReferenceSet(EmbeddingSet([Embedding("m", [0.0, 1.0])][:n_members]), Embedding("q", [1.0, 0.0]))
        with pytest.raises(ValidationError, match="dimension 3"):
            view(Embedding("c", [0.0, 0.0, 1.0]), ref)

    def test_members_taken_from_a_pool(self):
        q = Embedding("q", [1.0, 0.0])
        pool = EmbeddingSet([Embedding("x", [1.0, 0.0]), Embedding("m", [0.0, 1.0])])
        ref = ReferenceSet(pool.take([1]), q)
        assert len(ref) == 1
        assert ref.members.ids() == ["m"]

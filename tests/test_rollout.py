"""Autoregressive rollouts, greedy selection, and the exhaustive oracle."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from divset import (
    Embedding,
    EmbeddingSet,
    GrpoConfig,
    NumericalError,
    ToyPolicy,
    ValidationError,
    brute_force_select,
    diversity_score,
    greedy_select,
    rollout_policy,
    train,
)
from divset import rollout
from divset.cli import TRAIN_DEFAULTS
from divset.kernel import logdet_regularized_gram, unit_gram
from divset.rollout import BRUTE_FORCE_TIE_TOL
from selection_oracles import batched_cholesky_search

LN2 = math.log(2)
LN3 = math.log(3)


def rand_unit(rng, d):
    v = rng.standard_normal(d)
    return v / np.linalg.norm(v)


def unit_set(rng, n, d, prefix="p"):
    return EmbeddingSet([Embedding(f"{prefix}{i:02d}", rand_unit(rng, d)) for i in range(n)])


def oracle_pool():
    """Three orthogonal items plus a duplicate of the first."""
    e = np.eye(3)
    return EmbeddingSet(
        [
            Embedding("a", e[0]),
            Embedding("b", e[1]),
            Embedding("c", e[2]),
            Embedding("d", e[0]),
        ]
    )


class TestRolloutPolicy:
    def test_single_step_gain_is_ln2(self):
        rng = np.random.default_rng(1)
        vocab = unit_set(rng, 5, 4)
        query = Embedding("q", rand_unit(rng, 4))
        result = rollout_policy(ToyPolicy(vocab), query, k=1, seed=0)
        assert len(result.selected) == 1
        np.testing.assert_allclose(result.per_step[0].diversity_gain, LN2, atol=1e-12)
        np.testing.assert_allclose(result.final_diversity, LN2, atol=1e-12)

    def test_default_mode_is_the_program_default(self):
        rng = np.random.default_rng(7)
        vocab = unit_set(rng, 10, 6)
        query = Embedding("q", rand_unit(rng, 6))
        policy = ToyPolicy(vocab, rng.normal(0, 2, 2), rng.normal(0, 2, 10))
        assert TRAIN_DEFAULTS["rollout_mode"] == rollout.DEFAULT_ROLLOUT_MODE == "greedy-prob"
        ids = [rollout_policy(policy, query, k=5, seed=seed).selected.ids() for seed in range(4)]
        assert ids == [rollout_policy(policy, query, k=5, mode="greedy-prob").selected.ids()] * 4

    def test_reproducible_sequence(self):
        rng = np.random.default_rng(2)
        vocab = unit_set(rng, 10, 6)
        query = Embedding("q", rand_unit(rng, 6))
        a = rollout_policy(ToyPolicy(vocab), query, k=5, mode="sample", seed=77)
        b = rollout_policy(ToyPolicy(vocab), query, k=5, mode="sample", seed=77)
        assert a.selected.ids() == b.selected.ids()

    def test_masking_exhausts_vocabulary(self):
        rng = np.random.default_rng(3)
        vocab = unit_set(rng, 6, 8)
        query = Embedding("q", rand_unit(rng, 8))
        result = rollout_policy(ToyPolicy(vocab), query, k=6, mode="sample", seed=5)
        assert sorted(result.selected.ids()) == sorted(vocab.ids())

    def test_never_selects_twice(self):
        rng = np.random.default_rng(4)
        vocab = unit_set(rng, 8, 5)
        query = Embedding("q", rand_unit(rng, 5))
        for seed in range(10):
            result = rollout_policy(ToyPolicy(vocab), query, k=8, mode="sample", seed=seed)
            ids = result.selected.ids()
            assert len(set(ids)) == len(ids)

    def test_k_beyond_vocabulary_rejected(self):
        rng = np.random.default_rng(5)
        vocab = unit_set(rng, 3, 4)
        query = Embedding("q", rand_unit(rng, 4))
        with pytest.raises(ValidationError, match="exhausted"):
            rollout_policy(ToyPolicy(vocab), query, k=4)

    def test_final_diversity_matches_recomputation(self):
        rng = np.random.default_rng(6)
        vocab = unit_set(rng, 9, 6)
        query = Embedding("q", rand_unit(rng, 6))
        result = rollout_policy(ToyPolicy(vocab), query, k=4, mode="sample", seed=3)
        np.testing.assert_allclose(result.final_diversity, diversity_score(result.selected), atol=1e-9)

    def test_gains_positive_and_repeat_offers_diminish(self):
        rng = np.random.default_rng(7)
        vocab = unit_set(rng, 10, 6)
        query = Embedding("q", rand_unit(rng, 6))
        result = rollout_policy(ToyPolicy(vocab), query, k=10, mode="sample", seed=9)
        gains = [step.diversity_gain for step in result.per_step]
        assert all(g > 0 for g in gains)
        # a candidate's gain at step t bounds the same candidate's gain later;
        # check via a fixed probe against the growing prefix
        from divset import ReferenceSet, marginal_gain

        probe = Embedding("probe", rand_unit(rng, 6))
        prev = np.inf
        for t in range(len(result.selected) + 1):
            ref = ReferenceSet(result.selected.take(range(t)), query)
            gain = marginal_gain(probe, ref)
            assert gain <= prev + 1e-12
            prev = gain

    def test_greedy_prob_mode_deterministic_and_tiebreaks_by_id(self):
        # identical logits everywhere: argmax ties resolve to the lowest id
        e = np.eye(4)
        vocab = EmbeddingSet([Embedding(n, e[i]) for i, n in enumerate(["d", "b", "a", "c"])])
        query = Embedding("q", e[0])
        result = rollout_policy(ToyPolicy(vocab, [0.0, 0.0]), query, k=2, mode="greedy-prob")
        assert result.selected.ids()[0] == "a"

    def test_trained_policy_rolls_out_diversely(self):
        # after diversity-only training the rollout should spread across
        # near-duplicate groups rather than repeat one of them
        rng = np.random.default_rng(8)
        from divset import TrainingTask

        d = 8
        base = [rand_unit(rng, d) for _ in range(4)]
        items = []
        for i, vec in enumerate(base):
            for j in range(3):
                noisy = vec + 0.05 * rng.standard_normal(d)
                items.append(Embedding(f"g{i}-{j}", noisy / np.linalg.norm(noisy)))
        query = Embedding("q", rand_unit(rng, d))
        task = TrainingTask(
            vocabulary=EmbeddingSet(items),
            query=query,
            exemplars=EmbeddingSet([Embedding(f"ex{i}", v) for i, v in enumerate(base)]),
            context_sizes=(0, 4),
        )
        policy, _ = train(GrpoConfig(lambda_div=1.0, lambda_rel=0.0, iterations=400, seed=21), task)
        result = rollout_policy(policy, query, k=4, mode="greedy-prob", lambda_div=1.0, lambda_rel=0.0)
        groups = {i.split("-")[0] for i in result.selected.ids()}
        assert len(groups) >= 3

    def test_invalid_mode_rejected(self):
        rng = np.random.default_rng(9)
        vocab = unit_set(rng, 3, 4)
        query = Embedding("q", rand_unit(rng, 4))
        with pytest.raises(ValidationError, match="mode"):
            rollout_policy(ToyPolicy(vocab), query, k=1, mode="argmax")


class TestGreedySelect:
    def test_duplicate_pool_prefers_orthogonal_second_pick(self):
        # pool {x, x-duplicate, y orthogonal}: after x, the orthogonal item's
        # gain ln 2 beats the duplicate's ln 3 - ln 2
        e = np.eye(2)
        pool = EmbeddingSet([Embedding("a", e[0]), Embedding("b", e[0]), Embedding("c", e[1])])
        query = Embedding("q", (e[0] + e[1]) / math.sqrt(2))
        result = greedy_select(pool, query, k=2, lambda_div=1.0, lambda_rel=0.0)
        assert result.selected.ids() == ["a", "c"]
        np.testing.assert_allclose(result.per_step[0].diversity_gain, LN2, atol=1e-12)
        np.testing.assert_allclose(result.per_step[1].diversity_gain, LN2, atol=1e-12)

    def test_ties_go_to_the_lowest_id_with_trailing_nul(self):
        # "a" sorts before "a\x00" in Python; numpy's string sort would tie them and keep file order
        e = np.eye(2)
        pool = EmbeddingSet([Embedding("a\x00", e[0]), Embedding("a", e[0]), Embedding("b", e[1])])
        result = greedy_select(pool, Embedding("q", e[0]), k=1)
        assert result.selected.ids() == ["a"]
        assert brute_force_select(pool, 2)[0].ids() == ["a", "b"]

    def test_orthogonal_pool_gain_constant_per_step(self):
        e = np.eye(4)
        pool = EmbeddingSet([Embedding(f"e{i}", e[i]) for i in range(4)])
        query = Embedding("q", e[0])
        result = greedy_select(pool, query, k=4, lambda_div=1.0, lambda_rel=0.0)
        for step in result.per_step:
            np.testing.assert_allclose(step.diversity_gain, LN2, atol=1e-12)

    def test_k_equals_pool_size(self):
        rng = np.random.default_rng(10)
        pool = unit_set(rng, 5, 6)
        query = Embedding("q", rand_unit(rng, 6))
        result = greedy_select(pool, query, k=5)
        assert sorted(result.selected.ids()) == sorted(pool.ids())

    def test_k_too_large_rejected(self):
        rng = np.random.default_rng(11)
        pool = unit_set(rng, 3, 4)
        query = Embedding("q", rand_unit(rng, 4))
        with pytest.raises(ValidationError):
            greedy_select(pool, query, k=4)

    def test_pool_query_dim_mismatch_rejected(self):
        pool = unit_set(np.random.default_rng(12), 3, 4)
        with pytest.raises(ValidationError, match="dimension"):
            greedy_select(pool, Embedding("q", [1.0, 0.0]), k=1)

    def test_matches_oracle_on_small_pool(self):
        result = greedy_select(oracle_pool(), Embedding("q", np.eye(3)[0]), k=3, lambda_div=1.0, lambda_rel=0.0)
        assert sorted(result.selected.ids()) == ["a", "b", "c"]
        np.testing.assert_allclose(result.final_diversity, 3 * LN2, atol=1e-12)


def per_subset_brute_force(pool, k):
    """Exhaustive search that stacks each subset's vectors and builds that
    subset's own Gram; scores within BRUTE_FORCE_TIE_TOL tie, and ties go to
    the smallest id tuple."""
    items = sorted(pool, key=lambda item: item.id)
    vectors = np.stack([item.vector for item in items]) if items else np.zeros((0, 0))
    best_subset, best_score = (), -np.inf
    for subset in itertools.combinations(range(len(items)), k):
        score = logdet_regularized_gram(unit_gram(vectors[list(subset)])) if subset else 0.0
        if score > best_score + BRUTE_FORCE_TIE_TOL:
            best_subset, best_score = subset, score
    return [items[i].id for i in best_subset], float(best_score)


@st.composite
def pools_with_duplicates(draw):
    """Up to 8 rows (so n <= d and n > d both occur) drawn from at most 4
    distinct unit vectors, so duplicate rows and exactly tied subsets are
    common; k is 0, n or anything between."""
    d = draw(st.integers(1, 5))
    coords = st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d)
    vector = coords.map(np.array).filter(lambda v: np.linalg.norm(v) > 0.1)
    distinct = draw(st.lists(vector, min_size=1, max_size=4))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), max_size=8))
    units = [v / np.linalg.norm(v) for v in distinct]
    pool = EmbeddingSet([Embedding(f"p{i}", units[j]) for i, j in enumerate(picks)])
    k = draw(st.one_of(st.just(0), st.just(len(pool)), st.integers(0, len(pool))))
    return pool, k


class TestBruteForceOracle:
    """Scoring every subset as a block of the one pool Gram picks exactly the
    subset the per-subset Grams pick."""

    @settings(max_examples=300, deadline=None)
    @given(pools_with_duplicates())
    @example((oracle_pool(), 0))
    @example((oracle_pool(), 4))
    @example((oracle_pool(), 2))
    def test_matches_per_subset_oracle(self, case):
        pool, k = case
        subset, score = brute_force_select(pool, k)
        expected_ids, expected_score = per_subset_brute_force(pool, k)
        assert subset.ids() == expected_ids
        assert abs(score - expected_score) <= 1e-12


def first_within_tie_tol(pool, k):
    """Score every subset on its own Gram, then take the first subset in id
    order whose score is within 1e-9 of the best, as bench/oracle.py does."""
    items = sorted(pool, key=lambda item: item.id)
    vectors = np.stack([item.vector for item in items])
    subsets = list(itertools.combinations(range(len(items)), k))
    scores = np.array([logdet_regularized_gram(unit_gram(vectors[list(s)])) for s in subsets])
    best = int(np.flatnonzero(scores >= scores.max() - 1e-9)[0])
    return [items[i].id for i in subsets[best]], float(scores[best])


def large_duplicate_pool(seed):
    """12 to 14 rows drawn from 4 distinct unit vectors, ids shuffled, and k from 2 to 4."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 7))
    distinct = unit_set(rng, 4, d).matrix()
    n = int(rng.integers(12, 15))
    rows = distinct[rng.integers(0, 4, n)]
    pool = EmbeddingSet([Embedding(f"p{j:02d}", row) for j, row in zip(rng.permutation(n), rows)])
    return pool, int(rng.integers(2, 5))


def test_ties_on_large_duplicate_pools_go_to_smallest_ids():
    # from about 12 items a subset's block of the pool Gram need not be
    # bitwise its own Gram, so subsets that swap duplicates differ by rounding
    mismatches = []
    for seed in range(40):
        pool, k = large_duplicate_pool(seed)
        subset, score = brute_force_select(pool, k)
        expected_ids, expected_score = first_within_tie_tol(pool, k)
        if subset.ids() != expected_ids or abs(score - expected_score) > 1e-12:
            mismatches.append(seed)
    assert mismatches == []


def batch_budget(prefixes, pool, k):
    """A BRUTE_FORCE_BATCH_FLOATS that makes batches of ``prefixes`` (k - 1)-prefixes of the pool."""
    return prefixes * max(k - 1, 1) * len(pool)


@pytest.mark.parametrize("prefixes", [1, 2, 3, 7])
class TestBruteForceChunks:
    """Prefixes are scored in batches sized by BRUTE_FORCE_BATCH_FLOATS; with
    batches of a few prefixes, tied subsets fall on both sides of a boundary,
    and the sequential tie rule still picks what the per-subset loop picks."""

    @settings(max_examples=100, deadline=None)
    @given(case=pools_with_duplicates())
    @example(case=(oracle_pool(), 2))
    def test_matches_per_subset_oracle(self, prefixes, case):
        pool, k = case
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rollout, "BRUTE_FORCE_BATCH_FLOATS", batch_budget(prefixes, pool, k))
            subset, score = brute_force_select(pool, k)
        expected_ids, expected_score = per_subset_brute_force(pool, k)
        assert subset.ids() == expected_ids
        assert abs(score - expected_score) <= 1e-12

    def test_large_duplicate_pools_match_per_subset_oracle(self, prefixes, monkeypatch):
        mismatches = []
        for seed in range(40):
            pool, k = large_duplicate_pool(seed)
            monkeypatch.setattr(rollout, "BRUTE_FORCE_BATCH_FLOATS", batch_budget(prefixes, pool, k))
            subset, score = brute_force_select(pool, k)
            expected_ids, expected_score = per_subset_brute_force(pool, k)
            if subset.ids() != expected_ids or abs(score - expected_score) > 1e-12:
                mismatches.append(seed)
        assert mismatches == []


def benchmark_shaped_file(seed):
    """29 unit rows in 64 dimensions around 32 orthonormal centers (scale 0.05),
    ids shuffled: a query and a 28-item pool as the select-bruteforce workload draws them."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((64, 64)))
    centers = (q * np.sign(np.diagonal(r))).T[:32]
    rows = centers[rng.choice(32, 29)] + 0.05 * rng.standard_normal((29, 64))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return EmbeddingSet([Embedding(f"item-{i:05d}", row) for i, row in zip(rng.permutation(1000)[:29], rows)])


class TestBatchedCholeskyOracle:
    """The prefix recurrence picks the ids that one Cholesky per subset picks,
    and reports their score bit for bit."""

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("query", [0, 9, 28])
    def test_benchmark_shaped_pools(self, seed, query):
        items = benchmark_shaped_file(seed)
        pool = items.take([i for i in range(len(items)) if i != query])
        subset, score = brute_force_select(pool, 5)
        assert (subset.ids(), score) == batched_cholesky_search(pool, 5)

    @pytest.mark.parametrize("k", [1, 27, 28])
    def test_edge_sizes(self, k):
        pool = benchmark_shaped_file(2).take(range(28))
        subset, score = brute_force_select(pool, k)
        assert (subset.ids(), score) == batched_cholesky_search(pool, k)


class TestCompletionScores:
    """_completion_scores, the search's scorer, on every prefix at once."""

    @pytest.mark.parametrize("k", [1, 2, 4, 7])
    def test_every_subset_within_1e_12_of_its_own_gram(self, k):
        rng = np.random.default_rng(30 + k)
        vectors = unit_set(rng, 9, 4).matrix().copy()
        vectors[5] = vectors[2]  # a duplicate row
        prefixes = np.array(list(itertools.combinations(range(8), k - 1)), dtype=np.intp)
        prefixes = prefixes.reshape(math.comb(8, k - 1), k - 1)
        scores = rollout._completion_scores(unit_gram(vectors), prefixes)
        seen = 0
        for prefix, row in zip(prefixes.tolist(), scores):
            for j, score in enumerate(row):
                if prefix and j <= prefix[-1]:
                    assert score == -np.inf
                    continue
                expected = logdet_regularized_gram(unit_gram(vectors[[*prefix, j]]))
                assert abs(score - expected) <= 1e-12
                seen += 1
        assert seen == math.comb(9, k)

    def test_non_psd_gram_raises(self):
        gram = np.array([[1.0, 3.0, 0.0], [3.0, 1.0, 0.0], [0.0, 0.0, 1.0]])  # G + I has eigenvalue -1
        for prefixes in ([[0]], [[0, 1]]):  # item 1's Schur complement fails as a completion, then in a prefix
            with pytest.raises(NumericalError, match="Schur complement"):
                rollout._completion_scores(gram, np.array(prefixes))


class TestBruteForceSelect:
    def test_oracle_pool(self):
        subset, score = brute_force_select(oracle_pool(), k=3)
        assert subset.ids() == ["a", "b", "c"]
        np.testing.assert_allclose(score, 3 * LN2, atol=1e-12)

    def test_k_zero(self):
        subset, score = brute_force_select(oracle_pool(), k=0)
        assert len(subset) == 0
        assert score == 0.0

    def test_k_equals_pool(self):
        pool = oracle_pool()
        subset, score = brute_force_select(pool, k=4)
        assert sorted(subset.ids()) == sorted(pool.ids())
        np.testing.assert_allclose(score, diversity_score(pool), atol=1e-12)

    def test_budget_guard_reports_count(self):
        rng = np.random.default_rng(12)
        pool = unit_set(rng, 40, 4)
        with pytest.raises(ValidationError, match=str(math.comb(40, 12))):
            brute_force_select(pool, k=12)

    def test_tie_break_lexicographic(self):
        # two identical copies of an orthogonal pair: the first-by-id pair wins
        e = np.eye(2)
        pool = EmbeddingSet(
            [Embedding("c", e[0]), Embedding("d", e[1]), Embedding("a", e[0]), Embedding("b", e[1])]
        )
        subset, _ = brute_force_select(pool, k=2)
        assert subset.ids() == ["a", "b"]

    def test_greedy_achieves_submodular_bound(self):
        rng = np.random.default_rng(13)
        factor = 1 - 1 / math.e
        for _ in range(50):
            n = int(rng.integers(4, 13))
            k = int(rng.integers(1, 5))
            pool = unit_set(rng, n, int(rng.integers(2, 9)))
            query = Embedding("q", rand_unit(rng, pool.dim))
            greedy_score = greedy_select(pool, query, k, lambda_div=1.0, lambda_rel=0.0).final_diversity
            _, best = brute_force_select(pool, k)
            assert greedy_score >= factor * best - 1e-9

"""Kernel construction and regularized log-determinants against a
cofactor-expansion oracle."""

import math

import numpy as np
import pytest

from divset import (
    Embedding,
    EmbeddingSet,
    ReferenceSet,
    ToyPolicy,
    ValidationError,
    build_kernel,
    composite_reward,
    diversity_score,
    marginal_gain,
    mean_alignment,
    metric_report,
    save_embeddings,
    truncated_spectral_entropy,
    vendi_score,
)
from divset.cli import main
from divset.kernel import logdet_regularized_gram


def det_by_cofactor(m: np.ndarray) -> float:
    """Brute-force determinant by first-row cofactor expansion.

    Independent of any factorization; only usable for small matrices.
    """
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


def random_unit_rows(rng, n, d):
    v = rng.standard_normal((n, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def unit_set(rng, n, d, prefix="e"):
    return EmbeddingSet([Embedding(f"{prefix}{i}", row) for i, row in enumerate(random_unit_rows(rng, n, d))])


class TestBuildKernel:
    def test_duplicate_pair(self):
        x = Embedding("a", [1.0, 0.0])
        y = Embedding("b", [1.0, 0.0])
        k = build_kernel(EmbeddingSet([x, y]))
        np.testing.assert_allclose(k, [[1, 1], [1, 1]], atol=1e-15)

    def test_orthogonal_pair(self):
        k = build_kernel(EmbeddingSet([Embedding("a", [1, 0]), Embedding("b", [0, 1])]))
        np.testing.assert_allclose(k, [[1, 0], [0, 1]], atol=1e-15)

    def test_forty_five_degrees(self):
        s = EmbeddingSet([Embedding("a", [1.0, 0.0]), Embedding("b", [2**0.5 / 2, 2**0.5 / 2])])
        k = build_kernel(s)
        np.testing.assert_allclose(k[0, 1], 0.70710678, atol=1e-8)

    def test_rejects_unnormalized(self):
        s = EmbeddingSet([Embedding("a", [1, 0]), Embedding("big", [0, 2])])
        with pytest.raises(ValidationError, match="'big'"):
            build_kernel(s)

    def test_empty_set(self):
        k = build_kernel(EmbeddingSet([]))
        assert k.shape == (0, 0)
        assert logdet_regularized_gram(k) == 0.0

    def test_invariants_hold_on_random_sets(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n, d = int(rng.integers(1, 9)), int(rng.integers(1, 10))
            k = build_kernel(unit_set(rng, n, d))
            assert np.max(np.abs(k - k.T)) <= 1e-12
            assert np.max(np.abs(np.diagonal(k) - 1.0)) <= 1e-12
            # eigenvalues of Gram + I are >= 1, so every Cholesky pivot is >= 1
            chol = np.linalg.cholesky(k + np.eye(n))
            assert np.all(np.diagonal(chol) >= 1.0 - 1e-12)


class TestLogDetRegularized:
    def test_three_orthogonal(self):
        k = build_kernel(
            EmbeddingSet([Embedding("a", [1, 0, 0]), Embedding("b", [0, 1, 0]), Embedding("c", [0, 0, 1])])
        )
        np.testing.assert_allclose(logdet_regularized_gram(k), 3 * math.log(2), atol=1e-12)

    def test_duplicate_pair(self):
        x = [1.0, 0.0]
        k = build_kernel(EmbeddingSet([Embedding("a", x), Embedding("b", x)]))
        np.testing.assert_allclose(logdet_regularized_gram(k), math.log(3), atol=1e-12)

    def test_matches_cofactor_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n, d = int(rng.integers(1, 7)), int(rng.integers(1, 9))
            k = build_kernel(unit_set(rng, n, d))
            oracle = math.log(det_by_cofactor(k + np.eye(n)))
            np.testing.assert_allclose(logdet_regularized_gram(k), oracle, atol=1e-9)

    def test_monotone_in_subsets(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n, d = int(rng.integers(2, 9)), int(rng.integers(2, 10))
            k = build_kernel(unit_set(rng, n, d))
            size_a = int(rng.integers(0, n))
            subset_b = sorted(rng.choice(n, size=int(rng.integers(size_a + 1, n + 1)), replace=False).tolist())
            subset_a = sorted(rng.choice(subset_b, size=size_a, replace=False).tolist())
            ld_a = logdet_regularized_gram(k[np.ix_(subset_a, subset_a)])
            ld_b = logdet_regularized_gram(k[np.ix_(subset_b, subset_b)])
            assert ld_a <= ld_b + 1e-12


class TestPrincipalSubmatrix:
    """A subset's kernel is the matching block of its pool's kernel, the
    identity exhaustive search scores every subset by."""

    def test_corner_selection(self):
        s = unit_set(np.random.default_rng(2), 3, 4)
        block = build_kernel(s)[np.ix_([0, 2], [0, 2])]
        np.testing.assert_allclose(block, build_kernel(EmbeddingSet([s[0], s[2]])), atol=1e-15)

    def test_empty_indices(self):
        k = build_kernel(unit_set(np.random.default_rng(2), 3, 4))
        block = k[np.ix_((), ())]
        assert block.shape == (0, 0)
        assert logdet_regularized_gram(block) == 0.0


def counting(monkeypatch, name):
    """Count the calls of numpy.linalg.<name> for the rest of the test."""
    calls = []
    real = getattr(np.linalg, name)

    def counted(a):
        calls.append(a.shape)
        return real(a)

    monkeypatch.setattr(np.linalg, name, counted)
    return calls


class TestValidationCost:
    """Kernels built from checked rows are not re-validated."""

    @pytest.fixture
    def cholesky_calls(self, monkeypatch):
        return counting(monkeypatch, "cholesky")

    def test_diversity_score_factors_once(self, cholesky_calls):
        diversity_score(unit_set(np.random.default_rng(0), 5, 4))
        assert len(cholesky_calls) == 1

    def test_build_kernel_does_not_factor(self, cholesky_calls):
        build_kernel(unit_set(np.random.default_rng(1), 5, 4))
        assert cholesky_calls == []

    def test_metric_report_does_not_factor(self, cholesky_calls):
        rng = np.random.default_rng(2)
        metric_report(unit_set(rng, 6, 4), Embedding("q", random_unit_rows(rng, 1, 4)[0]))
        assert cholesky_calls == []


class TestRepeatedWork:
    """A reference set factors its members once, when it is built, and a
    metric report takes one spectrum."""

    def test_one_cholesky_per_reward_against_fixed_reference(self, monkeypatch):
        rng = np.random.default_rng(3)
        ref = ReferenceSet(unit_set(rng, 4, 6, "m"), Embedding("q", random_unit_rows(rng, 1, 6)[0]))
        candidates = unit_set(rng, 10, 6)
        calls = counting(monkeypatch, "cholesky")
        for candidate in candidates:
            composite_reward(candidate, ref)
        assert calls == []  # every gain is a Schur complement on the factor built with ref

    def test_reference_log_volume_is_subtracted(self):
        rng = np.random.default_rng(4)
        members = unit_set(rng, 3, 5, "m")
        candidate = unit_set(rng, 1, 5)[0]
        ref = ReferenceSet(members, Embedding("q", random_unit_rows(rng, 1, 5)[0]))
        union = EmbeddingSet([*members, candidate])
        # the Schur complement and the difference of two log-volumes round differently
        assert abs(marginal_gain(candidate, ref) - (diversity_score(union) - diversity_score(members))) <= 1e-12

    def test_metric_report_one_eigendecomposition(self, monkeypatch):
        # n = 12 > d = 6: the spectrum comes from the (d, d) Gram
        rng = np.random.default_rng(5)
        items = unit_set(rng, 12, 6)
        calls = counting(monkeypatch, "eigvalsh")
        report = metric_report(items, Embedding("q", random_unit_rows(rng, 1, 6)[0]), top_m=4)
        assert calls == [(6, 6)]
        assert report.vendi == vendi_score(items)
        assert report.truncated_entropy == truncated_spectral_entropy(items, 4)


GOOD = Embedding("good", [1.0, 0.0])
ORTHO = Embedding("ortho", [0.0, 1.0])
BAD = Embedding("bad", [2.0, 0.0])

UNIT_NORM_CASES = {
    "build_kernel": lambda: build_kernel(EmbeddingSet([GOOD, BAD])),
    "refset_member": lambda: ReferenceSet(EmbeddingSet([GOOD, BAD]), ORTHO),
    "refset_query": lambda: ReferenceSet(EmbeddingSet([GOOD]), BAD),
    "marginal_gain": lambda: marginal_gain(BAD, ReferenceSet(EmbeddingSet([ORTHO]), GOOD)),
    "toy_policy": lambda: ToyPolicy(EmbeddingSet([GOOD, BAD])),
    "mean_alignment_item": lambda: mean_alignment(EmbeddingSet([GOOD, BAD]), ORTHO),
    "mean_alignment_query": lambda: mean_alignment(EmbeddingSet([GOOD]), BAD),
}


@pytest.mark.parametrize("case", [*UNIT_NORM_CASES, "cli_query_id"])
def test_unit_norm_rejection_names_offender(case, tmp_path, capsys):
    if case == "cli_query_id":
        path = tmp_path / "emb.jsonl"
        save_embeddings(EmbeddingSet([BAD, GOOD, ORTHO]), path)
        argv = ["select", "--embeddings", str(path), "--query-id", "bad", "--k", "1", "--mode", "bruteforce"]
        assert main(argv) == 2
        message = capsys.readouterr().err
    else:
        with pytest.raises(ValidationError) as exc:
            UNIT_NORM_CASES[case]()
        message = str(exc.value)
    assert "'bad'" in message
    assert "unit-normalized" in message

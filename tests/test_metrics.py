"""Vendi score, truncated spectral entropy, and alignment."""

import math

import numpy as np
import pytest

from divset import (
    Embedding,
    EmbeddingSet,
    ValidationError,
    build_kernel,
    mean_alignment,
    metric_report,
    truncated_spectral_entropy,
    vendi_score,
)
from divset.metrics import EIGENVALUE_TOL


def rand_unit(rng, d):
    v = rng.standard_normal(d)
    return v / np.linalg.norm(v)


def unit_set(rng, n, d, prefix="e"):
    return EmbeddingSet([Embedding(f"{prefix}{i}", rand_unit(rng, d)) for i in range(n)])


def identical_set(n, d=4):
    v = np.zeros(d)
    v[0] = 1.0
    return EmbeddingSet([Embedding(f"dup{i}", v) for i in range(n)])


def orthogonal_set(n, prefix="o"):
    e = np.eye(n)
    return EmbeddingSet([Embedding(f"{prefix}{i}", e[i]) for i in range(n)])


class TestVendiScore:
    def test_identical_items_score_one(self):
        for n in (1, 2, 5, 9):
            np.testing.assert_allclose(vendi_score(identical_set(n)), 1.0, atol=1e-9)

    def test_orthogonal_items_score_n(self):
        for n in (1, 2, 4, 7):
            np.testing.assert_allclose(vendi_score(orthogonal_set(n)), float(n), atol=1e-9)

    def test_single_element(self):
        np.testing.assert_allclose(vendi_score(identical_set(1)), 1.0, atol=1e-12)

    def test_duplication_invariance(self):
        rng = np.random.default_rng(61)
        for _ in range(30):
            n, d = int(rng.integers(1, 7)), int(rng.integers(2, 10))
            items = list(unit_set(rng, n, d))
            doubled = items + [Embedding(f"copy-{item.id}", item.vector) for item in items]
            a = vendi_score(EmbeddingSet(items))
            b = vendi_score(EmbeddingSet(doubled))
            np.testing.assert_allclose(a, b, atol=1e-6)

    def test_matches_eigendecomposition_oracle(self):
        rng = np.random.default_rng(67)
        for _ in range(50):
            n, d = int(rng.integers(1, 9)), int(rng.integers(1, 12))
            s = unit_set(rng, n, d)
            V = s.matrix()
            lam = np.linalg.eigvalsh((V @ V.T) / n)
            lam = lam[lam > 1e-12]
            oracle = float(np.exp(-(lam * np.log(lam)).sum()))
            np.testing.assert_allclose(vendi_score(s), oracle, atol=1e-9)

    def test_bounds_and_orthogonal_addition(self):
        rng = np.random.default_rng(71)
        for _ in range(30):
            n = int(rng.integers(1, 6))
            d = n + 5
            base = unit_set(rng, n, d)
            v = float(vendi_score(base))
            assert 1.0 - 1e-9 <= v <= n + 1e-9
            # extend with an item orthogonal to the span of the set
            V = base.matrix()
            q, _ = np.linalg.qr(V.T, mode="complete")
            extra = Embedding("orthx", q[:, -1])
            grown = EmbeddingSet(list(base) + [extra])
            assert vendi_score(grown) >= v - 1e-9

    def test_permutation_invariance(self):
        rng = np.random.default_rng(73)
        items = list(unit_set(rng, 6, 8))
        base = vendi_score(EmbeddingSet(items))
        for _ in range(10):
            perm = [items[i] for i in rng.permutation(6)]
            np.testing.assert_allclose(vendi_score(EmbeddingSet(perm)), base, atol=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            vendi_score(EmbeddingSet([]))


class TestTruncatedSpectralEntropy:
    def test_identical_items_zero(self):
        for top_m in (1, 2, 4):
            np.testing.assert_allclose(truncated_spectral_entropy(identical_set(4), top_m), 0.0, atol=1e-12)

    def test_orthogonal_full_spectrum(self):
        for n in (2, 5, 8):
            np.testing.assert_allclose(
                truncated_spectral_entropy(orthogonal_set(n), n), math.log(n), atol=1e-9
            )

    def test_top_one_always_zero(self):
        rng = np.random.default_rng(79)
        for _ in range(20):
            s = unit_set(rng, int(rng.integers(1, 7)), 8)
            np.testing.assert_allclose(truncated_spectral_entropy(s, 1), 0.0, atol=1e-12)

    def test_out_of_range_rejected(self):
        s = orthogonal_set(3)
        with pytest.raises(ValidationError, match="top_m"):
            truncated_spectral_entropy(s, 0)
        with pytest.raises(ValidationError, match="top_m"):
            truncated_spectral_entropy(s, 4)


class TestMeanAlignment:
    def test_all_equal_query(self):
        q = Embedding("q", [1.0, 0.0])
        s = EmbeddingSet([Embedding("a", [1.0, 0.0]), Embedding("b", [1.0, 0.0])])
        np.testing.assert_allclose(mean_alignment(s, q), 1.0, atol=1e-12)

    def test_all_orthogonal_to_query(self):
        q = Embedding("q", [1.0, 0.0, 0.0])
        s = EmbeddingSet([Embedding("a", [0.0, 1.0, 0.0]), Embedding("b", [0.0, 0.0, 1.0])])
        np.testing.assert_allclose(mean_alignment(s, q), 0.0, atol=1e-12)

    def test_two_cosines_average(self):
        q = Embedding("q", [1.0, 0.0])
        a = Embedding("a", [0.2, math.sqrt(1 - 0.04)])
        b = Embedding("b", [0.6, math.sqrt(1 - 0.36)])
        np.testing.assert_allclose(mean_alignment(EmbeddingSet([a, b]), q), 0.4, atol=1e-12)

    def test_empty_rejected(self):
        q = Embedding("q", [1.0, 0.0])
        with pytest.raises(ValidationError, match="non-empty"):
            mean_alignment(EmbeddingSet([]), q)


class TestMetricReport:
    def test_default_top_m_is_capped_at_eight(self):
        rng = np.random.default_rng(83)
        s = unit_set(rng, 12, 16)
        q = Embedding("q", rand_unit(rng, 16))
        report = metric_report(s, q)
        np.testing.assert_allclose(report.truncated_entropy, truncated_spectral_entropy(s, 8), atol=1e-12)
        assert report.n == 12

    def test_small_set_uses_n(self):
        s = orthogonal_set(3)
        q = Embedding("q", np.eye(3)[0])
        report = metric_report(s, q)
        np.testing.assert_allclose(report.truncated_entropy, math.log(3), atol=1e-9)

    def test_serializes(self):
        s = orthogonal_set(2)
        q = Embedding("q", np.eye(2)[0])
        d = metric_report(s, q).to_dict()
        assert set(d) == {"vendi", "truncated_entropy", "mean_alignment", "n"}


def nxn_metrics(set_, top_m):
    """Vendi score and truncated entropy from the eigenvalues of the (n, n)
    kernel: the oracle for the (d, d) Gram the metrics use when n > d."""
    spectrum = np.linalg.eigvalsh(build_kernel(set_))
    weights = spectrum / spectrum.size
    weights = weights[weights > EIGENVALUE_TOL]
    top = spectrum[spectrum.size - top_m :]
    top = top[top > EIGENVALUE_TOL]
    top = top / top.sum()
    return float(np.exp(-(weights * np.log(weights)).sum())), float(-(top * np.log(top)).sum())


def spectrum_cases(scale=None):
    """Seeded sets with n < d, n = d, n = d + 1 and n > d, every other one made of
    duplicates of a few rows, each with top_m of 1, min(n, 8) and n. ``scale``
    maps a seeded generator and n to per-row factors applied after normalisation."""
    rng = np.random.default_rng(89)
    for i in range(80):
        d = int(rng.integers(1, 11))
        n = max(1, [d - 1, d, d + 1, int(rng.integers(d + 2, 4 * d + 20))][i % 4])
        rows = rng.standard_normal((n, d))
        if i % 2:
            rows = rows[rng.integers(0, max(1, n // 3), n)]
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        if scale is not None:
            rows *= scale(rng, n)[:, None]
        items = EmbeddingSet([Embedding(f"e{j}", row) for j, row in enumerate(rows)])
        for top_m in sorted({1, min(n, 8), n}):
            yield items, top_m


def largest_metric_difference(cases):
    worst = 0.0
    for items, top_m in cases:
        report = metric_report(items, Embedding("q", np.eye(items.dim)[0]), top_m)
        vendi, entropy = nxn_metrics(items, top_m)
        worst = max(worst, abs(report.vendi - vendi), abs(report.truncated_entropy - entropy))
    return worst


class TestSpectrumOracle:
    """For n > d the spectrum comes from the (d, d) Gram; it agrees with the
    (n, n) kernel's."""

    def test_rows_normalised_by_division_agree(self):
        assert largest_metric_difference(spectrum_cases()) <= 1e-12

    def test_golden_sized_pool_agrees(self):
        rows = np.random.default_rng(97).standard_normal((199, 16))
        items = EmbeddingSet([Embedding(f"e{j}", row / np.linalg.norm(row)) for j, row in enumerate(rows)])
        assert largest_metric_difference([(items, 8), (items, 199)]) <= 1e-12

    def test_rows_at_the_norm_tolerance_agree_to_noise(self):
        # norms 1 +- 0.999e-9 pass require_unit; the (n, n) kernel, its diagonal
        # pinned to 1, then holds n - d noise eigenvalues of about 1e-9, above
        # EIGENVALUE_TOL, which the (d, d) Gram of the renormalised rows leaves
        # out; these cases differ by up to 1.1e-7
        cases = spectrum_cases(lambda rng, n: 1.0 + rng.choice([-0.999e-9, 0.999e-9], n))
        assert largest_metric_difference(cases) <= 1e-6

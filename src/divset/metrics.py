"""Spectral diversity metrics and query alignment for embedding sets.

The Vendi score is the exponentiated Shannon entropy of the normalized
similarity spectrum: the effective number of distinct items in a set. The
truncated spectral entropy keeps only the leading eigenvalues before
renormalizing, mirroring truncated-entropy diversity measures; applied to
semantic embeddings it plays the role of a semantic-variation measure, and
to perceptual embeddings a perceptual one. Both operate on whatever
embedding space is supplied, so absolute magnitudes are not comparable to
scores computed from frame-level encoder features.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embeddings import Embedding, EmbeddingSet
from .errors import NumericalError, ValidationError
from .kernel import build_kernel, require_unit, require_unit_rows

# Eigenvalues at or below this are numerical noise of rank-deficient Grams.
EIGENVALUE_TOL = 1e-12

DEFAULT_TOP_M = 8


@dataclass
class MetricReport:
    vendi: float
    truncated_entropy: float
    mean_alignment: float
    n: int

    def __post_init__(self) -> None:
        if not 1.0 - 1e-9 <= self.vendi <= self.n + 1e-9:
            raise ValidationError(f"vendi score {self.vendi!r} outside [1, n={self.n}]")
        if not -1.0 - 1e-9 <= self.mean_alignment <= 1.0 + 1e-9:
            raise ValidationError(f"mean alignment {self.mean_alignment!r} outside [-1, 1]")

    def to_dict(self) -> dict:
        return {
            "vendi": self.vendi,
            "truncated_entropy": self.truncated_entropy,
            "mean_alignment": self.mean_alignment,
            "n": self.n,
        }


def _spectrum(set_: EmbeddingSet) -> np.ndarray:
    """Eigenvalues of the cosine Gram matrix, ascending."""
    kernel = build_kernel(set_)
    try:
        return np.linalg.eigvalsh(kernel.entries)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("eigendecomposition of the similarity matrix failed") from exc


def vendi_score(set_: EmbeddingSet) -> float:
    """exp of the entropy of the normalized similarity spectrum, in [1, n]."""
    if len(set_) < 1:
        raise ValidationError("vendi score requires a non-empty set")
    weights = _spectrum(set_) / len(set_)
    weights = weights[weights > EIGENVALUE_TOL]
    return float(np.exp(-(weights * np.log(weights)).sum()))


def truncated_spectral_entropy(set_: EmbeddingSet, top_m: int) -> float:
    """Entropy (nats) of the top-m Gram eigenvalues, renormalized to sum 1."""
    n = len(set_)
    if n < 1:
        raise ValidationError("truncated spectral entropy requires a non-empty set")
    if not 1 <= top_m <= n:
        raise ValidationError(f"top_m must lie in [1, {n}], got {top_m}")
    top = _spectrum(set_)[n - top_m :]
    top = top[top > EIGENVALUE_TOL]
    weights = top / top.sum()
    return float(-(weights * np.log(weights)).sum())


def mean_alignment(set_: EmbeddingSet, query: Embedding) -> float:
    """Arithmetic mean of cos(item, query) over the set."""
    if len(set_) < 1:
        raise ValidationError("mean alignment requires a non-empty set")
    require_unit(query)
    if set_.dim != query.dim:
        raise ValidationError(f"set dimension {set_.dim} does not match query dimension {query.dim}")
    require_unit_rows(set_)
    return float(np.mean(set_.matrix() @ query.vector))


def metric_report(set_: EmbeddingSet, query: Embedding, top_m: int | None = None) -> MetricReport:
    """Bundle the three metrics; top_m defaults to min(n, 8)."""
    if top_m is None:
        top_m = min(len(set_), DEFAULT_TOP_M)
    return MetricReport(
        vendi=vendi_score(set_),
        truncated_entropy=truncated_spectral_entropy(set_, top_m),
        mean_alignment=mean_alignment(set_, query),
        n=len(set_),
    )

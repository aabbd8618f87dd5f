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

from dataclasses import asdict, dataclass

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
        return asdict(self)


def _spectrum(set_: EmbeddingSet, metric: str) -> np.ndarray:
    """Eigenvalues of the cosine Gram matrix, ascending; ``metric`` names the caller."""
    if len(set_) < 1:
        raise ValidationError(f"{metric} requires a non-empty set")
    try:
        return np.linalg.eigvalsh(build_kernel(set_))
    except np.linalg.LinAlgError as exc:
        raise NumericalError("eigendecomposition of the similarity matrix failed") from exc


def _vendi(spectrum: np.ndarray) -> float:
    weights = spectrum / spectrum.size
    weights = weights[weights > EIGENVALUE_TOL]
    return float(np.exp(-(weights * np.log(weights)).sum()))


def _truncated_entropy(spectrum: np.ndarray, top_m: int) -> float:
    n = spectrum.size
    if not 1 <= top_m <= n:
        raise ValidationError(f"top_m must lie in [1, {n}], got {top_m}")
    top = spectrum[n - top_m :]
    top = top[top > EIGENVALUE_TOL]
    weights = top / top.sum()
    return float(-(weights * np.log(weights)).sum())


def vendi_score(set_: EmbeddingSet) -> float:
    """exp of the entropy of the normalized similarity spectrum, in [1, n]."""
    return _vendi(_spectrum(set_, "vendi score"))


def truncated_spectral_entropy(set_: EmbeddingSet, top_m: int) -> float:
    """Entropy (nats) of the top-m Gram eigenvalues, renormalized to sum 1."""
    return _truncated_entropy(_spectrum(set_, "truncated spectral entropy"), top_m)


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
    spectrum = _spectrum(set_, "vendi score")
    return MetricReport(
        vendi=_vendi(spectrum),
        truncated_entropy=_truncated_entropy(spectrum, top_m),
        mean_alignment=mean_alignment(set_, query),
        n=len(set_),
    )

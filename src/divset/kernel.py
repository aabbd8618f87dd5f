"""Cosine similarity kernels and numerically stable log-determinants.

The similarity matrix of a set of unit embeddings is their Gram matrix,
which is symmetric positive semi-definite by construction (no eigenvalue
repair needed). Diversity computations always operate on the regularized
matrix L + I: its eigenvalues are at least 1, so a Cholesky factorization
cannot fail on valid input, and a failure is treated as an invariant alarm
rather than something to patch up silently.
"""

from __future__ import annotations

import numpy as np

from .embeddings import Embedding, EmbeddingSet
from .errors import NumericalError, ValidationError

UNIT_NORM_TOL = 1e-9


def require_unit(e: Embedding) -> None:
    """Reject an embedding whose norm deviates from 1 by more than UNIT_NORM_TOL."""
    with np.errstate(over="ignore"):  # a norm that overflows is inf, and rejected by name
        norm = e.norm()
    if abs(norm - 1.0) > UNIT_NORM_TOL:
        raise ValidationError(f"embedding {e.id!r} is not unit-normalized (norm {norm!r})")


def require_unit_rows(set_: EmbeddingSet) -> None:
    """require_unit over a set, vectorised; flagged rows go to require_unit."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(set_.matrix(), axis=1)
    for i in np.flatnonzero(np.abs(norms - 1.0) > UNIT_NORM_TOL):
        require_unit(set_[int(i)])


def unit_gram(rows: np.ndarray) -> np.ndarray:
    """Gram matrix of unit-normalized row vectors.

    Symmetrizes and pins the diagonal to exactly 1 to absorb rounding in
    dot products; callers are responsible for row normalization.
    """
    g = rows @ rows.T
    g = (g + g.T) / 2.0
    np.fill_diagonal(g, 1.0)
    return g


def build_kernel(set_: EmbeddingSet) -> np.ndarray:
    """(n, n) cosine similarity kernel of a unit-normalized embedding set.

    Rejects any embedding whose norm deviates from 1 by more than
    UNIT_NORM_TOL; an empty set yields the empty matrix.
    """
    require_unit_rows(set_)
    return unit_gram(set_.matrix())


def regularized_cholesky(gram: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of G + I for a PSD Gram matrix G, or for each of a stack
    of them; a failure, impossible for valid input, is raised as NumericalError,
    never replaced by a fallback."""
    try:
        return np.linalg.cholesky(gram + np.eye(gram.shape[-1]))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            "Cholesky factorization of L + I failed; upstream PSD invariant violated"
        ) from exc


def logdet_regularized_gram(gram: np.ndarray) -> float:
    """log det(G + I) via Cholesky for a PSD Gram matrix G; 0 for the empty matrix."""
    return float(2.0 * np.sum(np.log(np.diagonal(regularized_cholesky(gram)))))

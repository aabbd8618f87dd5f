"""Cosine similarity kernels and numerically stable log-determinants.

The similarity matrix of a set of unit embeddings is their Gram matrix,
which is symmetric positive semi-definite by construction (no eigenvalue
repair needed). Diversity computations always operate on the regularized
matrix L + I: its eigenvalues are at least 1, so a Cholesky factorization
cannot fail on valid input, and a failure is treated as an invariant alarm
rather than something to patch up silently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embeddings import Embedding, EmbeddingSet
from .errors import NumericalError, ValidationError

UNIT_NORM_TOL = 1e-9
SYMMETRY_TOL = 1e-12
DIAGONAL_TOL = 1e-12


def require_unit(e: Embedding) -> None:
    """Reject an embedding whose norm deviates from 1 by more than UNIT_NORM_TOL."""
    if abs(e.norm() - 1.0) > UNIT_NORM_TOL:
        raise ValidationError(f"embedding {e.id!r} is not unit-normalized (norm {e.norm()!r})")


def require_unit_rows(set_: EmbeddingSet) -> None:
    """require_unit over a set, vectorised; flagged rows go to require_unit."""
    norms = np.linalg.norm(set_.matrix(), axis=1)
    for i in np.flatnonzero(np.abs(norms - 1.0) > UNIT_NORM_TOL):
        require_unit(set_[int(i)])


@dataclass(eq=False)
class KernelMatrix:
    """Symmetric PSD similarity matrix with unit diagonal, checked when a caller builds one."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError(f"kernel entries must be square, got shape {m.shape}")
        if m.size:
            if not np.all(np.isfinite(m)):
                raise ValidationError("kernel entries contain non-finite values")
            if float(np.max(np.abs(m - m.T))) > SYMMETRY_TOL:
                raise ValidationError("kernel matrix is not symmetric")
            if float(np.max(np.abs(np.diagonal(m) - 1.0))) > DIAGONAL_TOL:
                raise ValidationError("kernel diagonal entries must equal 1")
            try:
                np.linalg.cholesky(m + np.eye(m.shape[0]))
            except np.linalg.LinAlgError as exc:
                raise ValidationError("kernel matrix is not positive semi-definite") from exc
        self.entries = m

    @classmethod
    def _trusted(cls, entries: np.ndarray) -> "KernelMatrix":
        # skips __post_init__: unit Grams and their principal submatrices are valid by construction
        kernel = object.__new__(cls)
        kernel.entries = entries
        return kernel

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def unit_gram(rows: np.ndarray) -> np.ndarray:
    """Gram matrix of unit-normalized row vectors.

    Symmetrizes and pins the diagonal to exactly 1 to absorb rounding in
    dot products; callers are responsible for row normalization.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    if rows.shape[0] == 0:
        return np.zeros((0, 0))
    g = rows @ rows.T
    g = (g + g.T) / 2.0
    np.fill_diagonal(g, 1.0)
    return g


def build_kernel(set_: EmbeddingSet) -> KernelMatrix:
    """Cosine similarity kernel of a unit-normalized embedding set.

    Rejects any embedding whose norm deviates from 1 by more than
    UNIT_NORM_TOL; an empty set yields the empty matrix.
    """
    require_unit_rows(set_)
    return KernelMatrix._trusted(unit_gram(set_.matrix()))


def regularized_cholesky(gram: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of G + I for a PSD Gram matrix G; a failure, impossible
    for valid input, is raised as NumericalError, never replaced by a fallback."""
    try:
        return np.linalg.cholesky(gram + np.eye(gram.shape[0]))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            "Cholesky factorization of L + I failed; upstream PSD invariant violated"
        ) from exc


def logdet_regularized_gram(gram: np.ndarray) -> float:
    """log det(G + I) via Cholesky for a PSD Gram matrix G; 0 for the empty matrix."""
    return float(2.0 * np.sum(np.log(np.diagonal(regularized_cholesky(gram)))))


def log_det_regularized(kernel: KernelMatrix) -> float:
    """log det(L + I) of a kernel matrix, 0 for the empty matrix."""
    return logdet_regularized_gram(kernel.entries)


def principal_submatrix(kernel: KernelMatrix, indices: list[int]) -> KernelMatrix:
    """Rows and columns restricted to ``indices``, order preserved."""
    n = kernel.n
    seen: set[int] = set()
    for idx in indices:
        if not 0 <= idx < n:
            raise ValidationError(f"index {idx} out of range for {n}x{n} kernel")
        if idx in seen:
            raise ValidationError(f"duplicate index {idx}")
        seen.add(idx)
    sel = np.asarray(indices, dtype=int)
    return KernelMatrix._trusted(kernel.entries[np.ix_(sel, sel)])

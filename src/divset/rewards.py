"""Composite diversity-plus-relevance rewards for candidate scoring.

The diversity term is the marginal increase of the regularized log-volume
log det(L + I) when a candidate joins the reference set. It is strictly
positive for every unit candidate and shrinks as the set comes to span the
candidate's direction, which is the diminishing-returns behaviour that
discourages redundant picks. The relevance term couples alignment with the
query and with the reference members: the product of the candidate-query
cosine and the candidate-member cosine, averaged over members. Negative
relevance is a legitimate penalty and is never clamped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .embeddings import Embedding, EmbeddingSet
from .errors import ValidationError
from .kernel import build_kernel, logdet_regularized_gram, regularized_cholesky
from .kernel import require_unit, require_unit_rows, unit_gram

DEFAULT_LAMBDA_DIV = 0.5
DEFAULT_LAMBDA_REL = 0.5

# Weight pairs (lambda_div, lambda_rel) used by the ablation harness.
LAMBDA_ABLATION_GRID = ((0.9, 0.1), (0.5, 0.5), (0.1, 0.9))


def check_weights(lambda_div: float, lambda_rel: float) -> None:
    """Reject reward weights that are negative, NaN, infinite or both zero."""
    # chained comparisons are False for NaN
    if not (0.0 <= lambda_div < math.inf and 0.0 <= lambda_rel < math.inf):
        raise ValidationError("reward weights lambda_div and lambda_rel must be finite and non-negative")
    if lambda_div == 0 and lambda_rel == 0:
        raise ValidationError("reward weights lambda_div and lambda_rel must not both be zero")


@dataclass
class ReferenceSet:
    """Query plus the accumulated or curated variants scored against it."""

    members: EmbeddingSet
    query: Embedding

    def __post_init__(self) -> None:
        require_unit(self.query)
        require_unit_rows(self.members)
        if self.members.dim is not None and self.members.dim != self.query.dim:
            raise ValidationError(
                f"reference members have dimension {self.members.dim}, query has {self.query.dim}"
            )
        # a candidate v's products with these rows: its query cosine, mean member cosine and z (see rewards)
        self._basis = self.query.vector[None, :]
        members = self.members.matrix()
        if len(members):
            whitened = np.linalg.solve(regularized_cholesky(unit_gram(members)), members)
            self._basis = np.vstack([self.query.vector, members.mean(axis=0), whitened])

    @classmethod
    def empty(cls, query: Embedding) -> "ReferenceSet":
        return cls(EmbeddingSet([]), query)

    def __len__(self) -> int:
        return len(self.members)

    def rewards(self, rows: np.ndarray, lambda_div: float, lambda_rel: float) -> tuple[np.ndarray, ...]:
        """(gain, relevance, composite) arrays for an (n, d) array of unit rows,
        whose norms and dimension are the caller's to check.

        A row v's gain, the log det(G + I) it adds to the members', is the log
        of its Schur complement 2 - |z|^2, z = L^-1 V_S v with L the Cholesky
        factor of G_S + I. Relevance is the query cosine times the mean member
        cosine (the bare query cosine without members).
        """
        check_weights(lambda_div, lambda_rel)
        # einsum, not BLAS: a row gets bitwise the same rewards wherever it sits in rows
        products = np.einsum("nd,md->nm", rows, self._basis)
        z = products[:, 2:]
        gain = np.log(2.0 - np.einsum("ns,ns->n", z, z))
        rel = products[:, 0] * products[:, 1] if len(self) else products[:, 0]
        return gain, rel, lambda_div * gain + lambda_rel * rel


@dataclass
class RewardBreakdown:
    """One candidate's reward components and their weighted combination: a
    row of ReferenceSet.rewards, so the weights are checked and composite is
    lambda_div * diversity_gain + lambda_rel * relevance by construction."""

    diversity_gain: float
    relevance: float
    composite: float
    lambda_div: float
    lambda_rel: float

    def to_dict(self) -> dict:
        return dict(vars(self))


def diversity_score(set_: EmbeddingSet) -> float:
    """Regularized log-volume log det(L + I) of a set; empty set scores 0."""
    return logdet_regularized_gram(build_kernel(set_))


def _row(candidate: Embedding, ref: ReferenceSet) -> np.ndarray:
    """The candidate as a one-row array, once its norm and dimension are checked."""
    require_unit(candidate)
    if candidate.dim != ref.query.dim:
        raise ValidationError(f"candidate {candidate.id!r}: dimension {candidate.dim}, not {ref.query.dim}")
    return candidate.vector[None, :]


def marginal_gain(candidate: Embedding, ref: ReferenceSet) -> float:
    """Diversity gained by adding the candidate to the reference members.

    Always strictly positive, and non-increasing as the reference set grows
    (submodularity of the regularized log-det).
    """
    return float(ref.rewards(_row(candidate, ref), DEFAULT_LAMBDA_DIV, DEFAULT_LAMBDA_REL)[0][0])


def relevance(candidate: Embedding, ref: ReferenceSet) -> float:
    """Mean over members of cos(candidate, query) * cos(candidate, member).

    Factorizes as cos(candidate, query) times the mean member cosine.
    Undefined (rejected) for an empty reference set; composite_reward
    degrades to the bare query cosine in that case.
    """
    if len(ref) == 0:
        raise ValidationError("relevance requires a non-empty reference set")
    return float(ref.rewards(_row(candidate, ref), DEFAULT_LAMBDA_DIV, DEFAULT_LAMBDA_REL)[1][0])


def composite_reward(
    candidate: Embedding,
    ref: ReferenceSet,
    lambda_div: float = DEFAULT_LAMBDA_DIV,
    lambda_rel: float = DEFAULT_LAMBDA_REL,
) -> RewardBreakdown:
    """Weighted sum of diversity gain and relevance for one candidate.

    For an empty reference set the relevance term degrades to the plain
    candidate-query cosine, the limit consistent with requiring alignment
    to the query when no variants exist yet.
    """
    gain, rel, composite = (float(a[0]) for a in ref.rewards(_row(candidate, ref), lambda_div, lambda_rel))
    return RewardBreakdown(gain, rel, composite, lambda_div, lambda_rel)

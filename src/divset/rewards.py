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
from .kernel import build_kernel, log_det_regularized, logdet_regularized_gram, require_unit, unit_gram

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
        for m in self.members:
            require_unit(m)
        if self.members.dim is not None and self.members.dim != self.query.dim:
            raise ValidationError(
                f"reference members have dimension {self.members.dim}, query has {self.query.dim}"
            )
        # log det(G_S + I) of the members, the base every marginal gain subtracts
        self._logdet = logdet_regularized_gram(unit_gram(self.members.matrix()))

    @classmethod
    def empty(cls, query: Embedding) -> "ReferenceSet":
        return cls(EmbeddingSet([]), query)

    def __len__(self) -> int:
        return len(self.members)

    def with_member(self, e: Embedding) -> "ReferenceSet":
        return ReferenceSet(EmbeddingSet([*self.members.items, e]), self.query)


@dataclass
class RewardBreakdown:
    """Per-candidate reward components and their weighted combination."""

    diversity_gain: float
    relevance: float
    composite: float
    lambda_div: float
    lambda_rel: float

    def __post_init__(self) -> None:
        check_weights(self.lambda_div, self.lambda_rel)
        expected = self.lambda_div * self.diversity_gain + self.lambda_rel * self.relevance
        if abs(self.composite - expected) > 1e-12:
            raise ValidationError(
                f"composite {self.composite!r} does not equal "
                f"lambda_div*gain + lambda_rel*relevance = {expected!r}"
            )
        if not -1.0 - 1e-9 <= self.relevance <= 1.0 + 1e-9:
            raise ValidationError(f"relevance {self.relevance!r} outside [-1, 1]")

    def to_dict(self) -> dict:
        return {
            "diversity_gain": self.diversity_gain,
            "relevance": self.relevance,
            "composite": self.composite,
            "lambda_div": self.lambda_div,
            "lambda_rel": self.lambda_rel,
        }


def diversity_score(set_: EmbeddingSet) -> float:
    """Regularized log-volume log det(L + I) of a set; empty set scores 0."""
    return log_det_regularized(build_kernel(set_))


def marginal_gain(candidate: Embedding, ref: ReferenceSet) -> float:
    """Diversity gained by adding the candidate to the reference members.

    Always strictly positive, and non-increasing as the reference set grows
    (submodularity of the regularized log-det).
    """
    require_unit(candidate)
    if ref.members.dim is not None and candidate.dim != ref.members.dim:
        raise ValidationError(
            f"candidate {candidate.id!r} has dimension {candidate.dim}, "
            f"reference set has {ref.members.dim}"
        )
    union = np.vstack([ref.members.matrix(), candidate.vector]) if len(ref) else candidate.vector[None, :]
    return logdet_regularized_gram(unit_gram(union)) - ref._logdet


def relevance(candidate: Embedding, ref: ReferenceSet) -> float:
    """Mean over members of cos(candidate, query) * cos(candidate, member).

    Factorizes as cos(candidate, query) times the mean member cosine.
    Undefined (rejected) for an empty reference set; composite_reward
    degrades to the bare query cosine in that case.
    """
    if len(ref) == 0:
        raise ValidationError("relevance requires a non-empty reference set")
    require_unit(candidate)
    query_cos = float(candidate.vector @ ref.query.vector)
    member_cos = ref.members.matrix() @ candidate.vector
    return query_cos * float(np.mean(member_cos))


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
    gain = marginal_gain(candidate, ref)
    rel = relevance(candidate, ref) if len(ref) else float(candidate.vector @ ref.query.vector)
    return RewardBreakdown(
        diversity_gain=gain,
        relevance=rel,
        composite=lambda_div * gain + lambda_rel * rel,
        lambda_div=lambda_div,
        lambda_rel=lambda_rel,
    )

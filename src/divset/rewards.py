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

# The most lambda_div + lambda_rel may be. A gain lies in (0, ln 2] and |relevance| <= 1,
# so |composite| <= lambda_div * ln 2 + lambda_rel <= 1e100. A group of G rewards then has
# a mean of at most 1e100, squared deviations of at most (2e100)^2 = 4e200 and a sum of
# those of at most 4e200 * G, finite (below 1.8e308) for any G under 4e107: every reward,
# group mean and group std is finite. GRPO advantages do not change when the reward is scaled.
MAX_WEIGHT_SUM = 1e100


def check_weights(lambda_div: float, lambda_rel: float) -> None:
    """Reject reward weights that are negative, NaN, infinite, both zero or
    summing to more than MAX_WEIGHT_SUM."""
    # chained comparisons are False for NaN
    if not (0.0 <= lambda_div < math.inf and 0.0 <= lambda_rel < math.inf):
        raise ValidationError("reward weights lambda_div and lambda_rel must be finite and non-negative")
    if lambda_div == 0 and lambda_rel == 0:
        raise ValidationError("reward weights lambda_div and lambda_rel must not both be zero")
    if lambda_div + lambda_rel > MAX_WEIGHT_SUM:
        raise ValidationError(
            f"reward weights lambda_div and lambda_rel must sum to at most {MAX_WEIGHT_SUM:g}, "
            f"got {lambda_div!r} + {lambda_rel!r}"
        )


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
        members = self.members.matrix()
        # a candidate v's products with these rows: its query cosine, mean member cosine (0 without
        # members) and z (see basis_rewards)
        self._basis = np.zeros((2 + len(members), self.query.dim))
        self._basis[0] = self.query.vector
        if len(members):
            self._basis[1] = members.mean(axis=0)
            self._basis[2:] = np.linalg.solve(regularized_cholesky(unit_gram(members)), members)

    @classmethod
    def empty(cls, query: Embedding) -> "ReferenceSet":
        return cls(EmbeddingSet([]), query)

    def __len__(self) -> int:
        return len(self.members)

    def basis(self, rows: int) -> np.ndarray:
        """The set's basis for basis_rewards, zero-padded to ``rows`` >= 2 + len(self) rows."""
        basis = np.zeros((rows, self.query.dim))
        basis[: len(self._basis)] = self._basis
        return basis

    def rewards(self, rows: np.ndarray, lambda_div: float, lambda_rel: float) -> tuple[np.ndarray, ...]:
        """(gain, relevance, composite) arrays for an (n, d) array of unit rows,
        whose norms and dimension are the caller's to check (see basis_rewards)."""
        check_weights(lambda_div, lambda_rel)
        return basis_rewards(rows, self._basis, len(self) > 0, lambda_div, lambda_rel)


def basis_rewards(rows, basis, has_members, lambda_div, lambda_rel) -> tuple[np.ndarray, ...]:
    """(gain, relevance, composite) arrays for unit rows (..., n, d) against
    reference-set bases (..., m, d) (ReferenceSet.basis), the leading axes
    broadcast; has_members and the weights broadcast against (..., n).

    A row v's gain, the log det(G + I) it adds to the members', is the log
    of its Schur complement 2 - |z|^2, z = L^-1 V_S v with L the Cholesky
    factor of G_S + I. Relevance is the query cosine times the mean member
    cosine (the bare query cosine without members). Zero rows padded into a
    basis change no bit of any reward.
    """
    # einsum, not BLAS: a row gets bitwise the same rewards wherever it sits in rows
    products = np.einsum("...nd,...md->...nm", rows, basis)
    z = products[..., 2:]
    gain = np.log(2.0 - np.einsum("...ns,...ns->...n", z, z))
    rel = products[..., 0] * np.where(has_members, products[..., 1], 1.0)
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

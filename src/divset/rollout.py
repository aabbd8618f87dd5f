"""Diverse sets grown one item at a time, plus an exhaustive oracle.

A set is grown by one step loop, the greedy MAP loop for determinantal
objectives (Chen, Zhang & Zhou, arXiv:1709.05135): each step scores every candidate against the partial set with
one call of the array reward evaluator, a choice rule names one candidate
not yet taken, that candidate's row of the evaluator is recorded as the
step's reward, and the candidate joins the set. The policy rollout chooses
by the policy, re-conditioned on the partial set; greedy selection chooses
the largest composite reward. Exhaustive search over a fixed pool embodies
the same objective and serves as a deterministic baseline and test oracle.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .embeddings import Embedding, EmbeddingSet
from .errors import NumericalError, ValidationError
from .grpo import ToyPolicy, policy_probs
from .kernel import build_kernel, regularized_cholesky, require_unit_rows
# unused here, kept for the trace target divset.rollout.logdet_regularized_gram in bench/spans.py
from .kernel import logdet_regularized_gram  # noqa: F401
from .rewards import DEFAULT_LAMBDA_DIV, DEFAULT_LAMBDA_REL, ReferenceSet, RewardBreakdown, diversity_score
# unused here, kept for the trace target divset.rollout.composite_reward in bench/spans.py
from .rewards import composite_reward  # noqa: F401

ROLLOUT_MODES = ("sample", "greedy-prob")

# Exhaustive search refuses instances with more candidate subsets than this.
BRUTE_FORCE_BUDGET = 1_000_000

# Exhaustive-search scores this close are ties, which go to the smaller id tuple.
BRUTE_FORCE_TIE_TOL = 1e-9

# Exhaustive search factors this many subsets' blocks in one batched Cholesky.
BRUTE_FORCE_CHUNK = 4096


@dataclass(eq=False)
class RolloutResult:
    """Ordered selection with per-step reward components."""

    selected: EmbeddingSet
    per_step: list[RewardBreakdown]
    final_diversity: float

    def to_report(self) -> dict:
        return {
            "selected_ids": self.selected.ids(),
            "per_step": [step.to_dict() for step in self.per_step],
            "final_diversity": self.final_diversity,
        }


def _grow(
    items: EmbeddingSet,
    query: Embedding,
    k: int,
    lambda_div: float,
    lambda_rel: float,
    choose: Callable[[ReferenceSet, np.ndarray, np.ndarray], int],
) -> RolloutResult:
    """Grow a k-item set out of items, unit rows whose norms the caller checked.

    Each step scores every item against the partial set, asks
    choose(partial set, composite rewards, taken mask) for an untaken
    index, records that index's reward row and adds the item to the set.
    """
    if len(items) and items.dim != query.dim:
        raise ValidationError(f"candidates have dimension {items.dim}, query has {query.dim}")
    ref = ReferenceSet.empty(query)
    taken = np.zeros(len(items), dtype=bool)
    order: list[int] = []
    per_step: list[RewardBreakdown] = []

    for _ in range(k):
        values = np.array(ref.rewards(items.matrix(), lambda_div, lambda_rel))  # gain, relevance, composite
        best = choose(ref, values[2], taken)
        taken[best] = True
        order.append(best)
        per_step.append(RewardBreakdown(*values[:, best].tolist(), lambda_div, lambda_rel))
        ref = ReferenceSet(items.take(order), query)

    return RolloutResult(ref.members, per_step, diversity_score(ref.members))


def rollout_policy(
    policy: ToyPolicy,
    query: Embedding,
    k: int,
    mode: str = "sample",
    seed: int = 0,
    lambda_div: float = DEFAULT_LAMBDA_DIV,
    lambda_rel: float = DEFAULT_LAMBDA_REL,
) -> RolloutResult:
    """Select k vocabulary items autoregressively.

    Starts with an empty reference set; at each step the policy
    distribution is computed in the current context, already-selected items
    are masked out and the rest renormalized, then one item is drawn
    ("sample") or taken by argmax ("greedy-prob", ties to the lowest id).
    The chosen item's reward against the partial set is recorded and the
    item joins the reference set.
    """
    if mode not in ROLLOUT_MODES:
        raise ValidationError(f"mode must be one of {ROLLOUT_MODES}, got {mode!r}")
    if k < 1:
        raise ValidationError(f"k must be at least 1, got {k}")
    if k > len(policy.vocabulary):
        raise ValidationError(
            f"vocabulary of size {len(policy.vocabulary)} exhausted before {k} selections"
        )
    rng = np.random.default_rng(seed)

    def choose(ref: ReferenceSet, composite: np.ndarray, taken: np.ndarray) -> int:
        probs = np.where(taken, 0.0, policy_probs(policy, query, ref))
        total = probs.sum()
        if total <= 0.0:
            raise NumericalError("all unselected candidates have zero probability")
        probs = probs / total
        if mode == "sample":
            return int(rng.choice(len(probs), p=probs))
        best = np.flatnonzero(probs == probs.max())
        return int(min(best, key=lambda i: policy.vocabulary[int(i)].id))

    return _grow(policy.vocabulary, query, k, lambda_div, lambda_rel, choose)


def greedy_select(
    pool: EmbeddingSet,
    query: Embedding,
    k: int,
    lambda_div: float = DEFAULT_LAMBDA_DIV,
    lambda_rel: float = DEFAULT_LAMBDA_REL,
) -> RolloutResult:
    """Pick k pool items, each maximizing the composite reward against the
    partial selection; ties go to the lowest id."""
    if k < 0 or k > len(pool):
        raise ValidationError(f"k must lie in [0, {len(pool)}], got {k}")
    # id order by Python's str comparison: numpy's string sort ignores trailing NULs
    items = pool.take(sorted(range(len(pool)), key=pool.ids().__getitem__))
    require_unit_rows(items)

    def choose(ref: ReferenceSet, composite: np.ndarray, taken: np.ndarray) -> int:
        return int(np.argmax(np.where(taken, -np.inf, composite)))  # the first maximum: the lowest id

    return _grow(items, query, k, lambda_div, lambda_rel, choose)


def brute_force_select(pool: EmbeddingSet, k: int) -> tuple[EmbeddingSet, float]:
    """Exhaustively maximize the diversity score over all size-k subsets.

    Scores within BRUTE_FORCE_TIE_TOL of each other tie, and ties break to
    the lexicographically smallest id tuple. Refuses instances whose subset
    count exceeds BRUTE_FORCE_BUDGET.
    """
    if k < 0 or k > len(pool):
        raise ValidationError(f"k must lie in [0, {len(pool)}], got {k}")
    count = math.comb(len(pool), k)
    if count > BRUTE_FORCE_BUDGET:
        raise ValidationError(
            f"{count} size-{k} subsets exceed the exhaustive-search budget of {BRUTE_FORCE_BUDGET}"
        )
    items = pool.take(sorted(range(len(pool)), key=pool.ids().__getitem__))
    gram = build_kernel(items)  # checks unit norms; every subset's kernel is a block of it
    if k == 0:
        return items.take(()), 0.0

    best_subset: list[int] = []
    best_score = -np.inf
    subsets = itertools.combinations(range(len(items)), k)
    # subsets come in id-tuple order; a block of the pool Gram can round a
    # duplicate-swapped tie either way, so only a clear win replaces the best,
    # and within a chunk the wins are taken in order, not by argmax
    while (idx := np.fromiter(itertools.islice(subsets, BRUTE_FORCE_CHUNK), dtype=(np.intp, k))).size:
        factors = regularized_cholesky(gram[idx[:, :, None], idx[:, None, :]])
        scores = 2.0 * np.log(np.diagonal(factors, axis1=1, axis2=2)).sum(axis=1)
        start = 0
        while (wins := np.flatnonzero(scores[start:] > best_score + BRUTE_FORCE_TIE_TOL)).size:
            start += int(wins[0])
            best_subset, best_score = idx[start].tolist(), scores[start]
            start += 1
    return items.take(best_subset), float(best_score)

"""Autoregressive construction of diverse sets, plus selection oracles.

The policy rollout starts from an empty reference set and grows it one
candidate at a time, re-conditioning the policy on the partial set so that
each step is scored relative to what has already been selected. Greedy and
exhaustive selectors over a fixed pool embody the same objective and serve
as deterministic baselines and test oracles.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .embeddings import Embedding, EmbeddingSet
from .errors import NumericalError, ValidationError
from .grpo import ToyPolicy, policy_probs
from .kernel import build_kernel, logdet_regularized_gram, require_unit_rows
from .rewards import (
    DEFAULT_LAMBDA_DIV,
    DEFAULT_LAMBDA_REL,
    ReferenceSet,
    RewardBreakdown,
    composite_reward,
    diversity_score,
)

ROLLOUT_MODES = ("sample", "greedy-prob")

# Exhaustive search refuses instances with more candidate subsets than this.
BRUTE_FORCE_BUDGET = 1_000_000


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
    ref = ReferenceSet.empty(query)
    mask = np.zeros(len(policy.vocabulary), dtype=bool)
    selected: list[Embedding] = []
    per_step: list[RewardBreakdown] = []

    for _ in range(k):
        probs = np.where(mask, 0.0, policy_probs(policy, query, ref))
        total = probs.sum()
        if total <= 0.0:
            raise NumericalError("all unselected candidates have zero probability")
        probs = probs / total
        if mode == "sample":
            choice = int(rng.choice(len(probs), p=probs))
        else:
            best = np.flatnonzero(probs == probs.max())
            choice = int(min(best, key=lambda i: policy.vocabulary[int(i)].id))
        item = policy.vocabulary[choice]
        per_step.append(composite_reward(item, ref, lambda_div, lambda_rel))
        selected.append(item)
        mask[choice] = True
        ref = ref.with_member(item)

    chosen = EmbeddingSet(selected)
    return RolloutResult(chosen, per_step, diversity_score(chosen))


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
    if len(pool) and pool.dim != query.dim:
        raise ValidationError(f"pool has dimension {pool.dim}, query has {query.dim}")
    items = EmbeddingSet(sorted(pool, key=lambda item: item.id))
    require_unit_rows(items)
    ref = ReferenceSet.empty(query)
    order: list[int] = []
    per_step: list[RewardBreakdown] = []

    for _ in range(k):
        values = np.array(ref.rewards(items.matrix(), lambda_div, lambda_rel))  # gain, relevance, composite
        values[2, order] = -np.inf  # already taken
        best = int(np.argmax(values[2]))  # the first maximum: the lowest id
        order.append(best)
        per_step.append(RewardBreakdown(*values[:, best].tolist(), lambda_div, lambda_rel))
        ref = ref.with_member(items[best])

    chosen = EmbeddingSet([items[i] for i in order])
    return RolloutResult(chosen, per_step, diversity_score(chosen))


def brute_force_select(pool: EmbeddingSet, k: int) -> tuple[EmbeddingSet, float]:
    """Exhaustively maximize the diversity score over all size-k subsets.

    Ties break to the lexicographically smallest id tuple. Refuses
    instances whose subset count exceeds BRUTE_FORCE_BUDGET.
    """
    if k < 0 or k > len(pool):
        raise ValidationError(f"k must lie in [0, {len(pool)}], got {k}")
    count = math.comb(len(pool), k)
    if count > BRUTE_FORCE_BUDGET:
        raise ValidationError(
            f"{count} size-{k} subsets exceed the exhaustive-search budget of {BRUTE_FORCE_BUDGET}"
        )
    items = sorted(pool, key=lambda item: item.id)
    gram = build_kernel(EmbeddingSet(items))  # checks unit norms; every subset's kernel is a block of it

    best_subset: tuple[int, ...] = ()
    best_score = -np.inf
    for subset in itertools.combinations(range(len(items)), k):
        score = logdet_regularized_gram(gram[np.ix_(subset, subset)])
        if score > best_score:
            best_subset, best_score = subset, score
    return EmbeddingSet([items[i] for i in best_subset]), float(best_score)

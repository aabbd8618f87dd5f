"""Diverse sets grown one item at a time, plus an exhaustive oracle.

A set is grown by one step loop, the greedy MAP loop for determinantal
objectives (Chen, Zhang & Zhou, arXiv:1709.05135): each step scores every candidate against the partial set with
one call of the array reward evaluator, a choice rule names one candidate
not yet taken, that candidate's row of the evaluator is recorded as the
step's reward, and the candidate joins the set. The policy rollout chooses
by the policy, re-conditioned on the partial set; greedy selection chooses
the largest composite reward. Exhaustive search over a fixed pool embodies
the same objective and serves as a deterministic baseline and test oracle.
It runs the same recurrence one level down: a (k - 1)-prefix's Cholesky rows
give every later item's Schur complement, so each size-k subset costs one
log, and only the winner is factored.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .embeddings import Embedding, EmbeddingSet
from .errors import NumericalError, ValidationError
from .grpo import ToyPolicy, _log_softmax, context_features
from .kernel import build_kernel, logdet_regularized_gram, require_unit_rows
from .rewards import DEFAULT_LAMBDA_DIV, DEFAULT_LAMBDA_REL, ReferenceSet, RewardBreakdown, diversity_score
# unused here, kept for the trace target divset.rollout.composite_reward in bench/spans.py
from .rewards import composite_reward  # noqa: F401

ROLLOUT_MODES = ("sample", "greedy-prob")

# Argmax decoding gives deterministic selections for a trained policy;
# stochastic rollouts remain available via rollout_mode="sample".
DEFAULT_ROLLOUT_MODE = "greedy-prob"

# Exhaustive search refuses instances with more candidate subsets than this.
BRUTE_FORCE_BUDGET = 1_000_000

# Exhaustive-search scores this close are ties, which go to the smaller id tuple.
BRUTE_FORCE_TIE_TOL = 1e-9

# Floats (1 MiB) of prefix rows that one batch of exhaustive search holds: a batch
# takes max(1, budget // ((k - 1) n)) of the (k - 1)-prefixes of an n-item pool.
BRUTE_FORCE_BATCH_FLOATS = 2**17


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


def check_rollout(size: int, k: int, mode: str) -> None:
    """Reject a rollout mode not in ROLLOUT_MODES, or a k outside [1, size] for a vocabulary of that size."""
    if mode not in ROLLOUT_MODES:
        raise ValidationError(f"rollout_mode must be one of {ROLLOUT_MODES}, got {mode!r}")
    if not 1 <= k <= size:
        raise ValidationError(f"k must lie in [1, {size}], got {k}: the vocabulary is exhausted after {size} picks")


def _by_id(pool: EmbeddingSet, k: int) -> EmbeddingSet:
    """The pool in id order, once k is checked to lie in [0, len(pool)]."""
    if k < 0 or k > len(pool):
        raise ValidationError(f"k must lie in [0, {len(pool)}], got {k}")
    # id order by Python's str comparison: numpy's string sort ignores trailing NULs
    return pool.take(sorted(range(len(pool)), key=pool.ids().__getitem__))


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
    mode: str = DEFAULT_ROLLOUT_MODE,
    seed: int = 0,
    lambda_div: float = DEFAULT_LAMBDA_DIV,
    lambda_rel: float = DEFAULT_LAMBDA_REL,
) -> RolloutResult:
    """Select k vocabulary items autoregressively.

    Starts with an empty reference set; at each step the policy
    distribution over the unselected items (a selected item's logit is
    -inf) is computed in the current context, then one item is drawn
    ("sample") or taken by argmax ("greedy-prob", ties to the lowest id).
    The chosen item's reward against the partial set is recorded and the
    item joins the reference set.
    """
    check_rollout(len(policy.vocabulary), k, mode)
    rng = np.random.default_rng(seed)

    def choose(ref: ReferenceSet, composite: np.ndarray, taken: np.ndarray) -> int:
        features = context_features(policy, query, ref)
        probs = _log_softmax(features, policy.theta, np.where(taken, -np.inf, policy.bias))[0]
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
    items = _by_id(pool, k)
    require_unit_rows(items)

    def choose(ref: ReferenceSet, composite: np.ndarray, taken: np.ndarray) -> int:
        return int(np.argmax(np.where(taken, -np.inf, composite)))  # the first maximum: the lowest id

    return _grow(items, query, k, lambda_div, lambda_rel, choose)


def _completion_scores(gram: np.ndarray, prefixes: np.ndarray) -> np.ndarray:
    """log det(G_S + I) of every subset S that extends one of the (B, m)
    prefixes of the pool Gram G by an item j past the prefix's last item, as
    a (B, n) array that holds -inf where j is not past it.

    The rows W = L^-1 (G + I)[prefix, :] of each prefix's Cholesky factor L
    come from the recurrence of the greedy MAP loop: item t_i, whose Schur
    complement is s, adds the row w_i = (G[t_i] - sum_{l<i} W[l, t_i] w_l) /
    sqrt(s), log s to the prefix's log-det and -w_i**2 to every Schur
    complement; a completion j then adds log of its own. A Schur complement of
    G + I is at least 1, so one that is not finite and positive is raised as
    NumericalError.
    """
    batch, m = prefixes.shape
    n = len(gram)
    rows = np.arange(batch)
    schur = np.tile(1.0 + gram.diagonal(), (batch, 1))
    logdet = np.zeros(batch)
    w = np.empty((m, batch, n))

    def check(values: np.ndarray) -> None:
        if not (np.isfinite(values) & (values > 0)).all():
            raise NumericalError("a Schur complement of L + I is not positive; upstream PSD invariant violated")

    for i, t in enumerate(prefixes.T):
        s = schur[rows, t]
        check(s)
        gram.take(t, axis=0, out=w[i], mode="clip")  # "clip" writes to out unbuffered; every t is in range
        w[i] -= np.einsum("lb,lbn->bn", w[:i, rows, t], w[:i])
        w[i] /= np.sqrt(s)[:, None]
        logdet += np.log(s)
        schur -= w[i] * w[i]
    last = prefixes[:, -1] if m else np.full(batch, -1)
    after = np.arange(n) > last[:, None]
    completions = schur[after]
    check(completions)
    scores = np.full((batch, n), -np.inf)
    scores[after] = np.repeat(logdet, n - 1 - last) + np.log(completions)
    return scores


def brute_force_select(pool: EmbeddingSet, k: int) -> tuple[EmbeddingSet, float]:
    """Exhaustively maximize the diversity score over all size-k subsets.

    The subsets come in id-tuple order, as the (k - 1)-prefixes of the pool
    in batches of BRUTE_FORCE_BATCH_FLOATS, each prefix followed by every
    later item: _completion_scores scores all of a prefix's completions with
    one Schur complement each. Scores within BRUTE_FORCE_TIE_TOL of each
    other tie, and ties break to the lexicographically smallest id tuple.
    The winner's score is its Cholesky log-det on its block of the pool
    Gram. Refuses instances whose subset count exceeds BRUTE_FORCE_BUDGET.
    """
    items = _by_id(pool, k)
    count = math.comb(len(pool), k)
    if count > BRUTE_FORCE_BUDGET:
        raise ValidationError(
            f"{count} size-{k} subsets exceed the exhaustive-search budget of {BRUTE_FORCE_BUDGET}"
        )
    gram = build_kernel(items)  # checks unit norms; every subset's kernel is a block of it
    if k == 0:
        return items.take(()), 0.0

    n = len(items)
    best_subset: list[int] = []
    best_score = -np.inf
    prefixes = itertools.combinations(range(n - 1), k - 1)
    total = math.comb(n - 1, k - 1)
    size = max(1, BRUTE_FORCE_BATCH_FLOATS // (max(k - 1, 1) * n))
    # a score has rounding of its own, so a duplicate-swapped tie can come out
    # either way: only a clear win replaces the best, and within a batch the
    # wins are taken in id-tuple order, not by argmax
    for first in range(0, total, size):
        batch = min(size, total - first)
        flat = itertools.chain.from_iterable(itertools.islice(prefixes, batch))
        idx = np.fromiter(flat, dtype=np.intp, count=batch * (k - 1)).reshape(batch, k - 1)
        scores = _completion_scores(gram, idx).ravel()  # subset f is prefix f // n plus item f % n
        start = 0
        while (wins := np.flatnonzero(scores[start:] > best_score + BRUTE_FORCE_TIE_TOL)).size:
            start += int(wins[0])
            best_subset, best_score = [*idx[start // n].tolist(), start % n], scores[start]
            start += 1
    return items.take(best_subset), logdet_regularized_gram(gram[np.ix_(best_subset, best_subset)])

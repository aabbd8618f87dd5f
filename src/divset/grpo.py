"""Group-relative policy optimization over a finite embedding vocabulary.

The policy is a linear softmax over two context features per vocabulary
item (query cosine, best reference-member cosine) plus a per-candidate
bias. It is deliberately small: every quantity in the
clipped-surrogate objective, including the exact discrete KL penalty and
the full parameter gradient, is computable in closed form and checkable
against finite differences.

Training follows the group-relative scheme: sample a group of candidates
from the current policy, score each with the composite diversity-plus-relevance
reward against the current reference context, normalize rewards into
advantages within the group, and ascend the surrogate gradient. Everything
is deterministic given the config seed.

A context is a subset of the exemplar pool, so contexts recur: train builds
each distinct one's reference set and features once, in a table bounded by
CONTEXT_TABLE_FLOATS.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .embeddings import Embedding, EmbeddingSet
from .errors import NumericalError, ValidationError, check_number
from .kernel import require_unit_rows
from .rewards import DEFAULT_LAMBDA_DIV, DEFAULT_LAMBDA_REL, ReferenceSet, check_weights
# unused here, kept for the trace target divset.grpo.composite_reward in bench/spans.py
from .rewards import composite_reward  # noqa: F401

N_FEATURES = 2

# Rewards whose spread is at most this times their largest magnitude are treated
# as constant (zero advantages); the test is scale-free, like the advantages.
ZERO_STD_TOL = 1e-12

# Floats (16 MiB) that train's context table may hold; a new context that would
# pass it is built for its iteration and not stored.
CONTEXT_TABLE_FLOATS = 2**21


@dataclass(eq=False)
class ToyPolicy:
    """Softmax policy over a fixed vocabulary of candidate embeddings.

    Logit of candidate c in context (query, ref):

        theta[0] * cos(c, query) + theta[1] * max_g cos(c, g) + bias[c]

    with the max over an empty reference set defined as 0. There is no
    constant feature: it would shift all logits equally and so could never
    change the distribution.
    """

    vocabulary: EmbeddingSet
    theta: np.ndarray | None = None
    bias: np.ndarray | None = None

    def __post_init__(self) -> None:
        if len(self.vocabulary) == 0:
            raise ValidationError("policy vocabulary must be non-empty")
        require_unit_rows(self.vocabulary)
        if self.theta is None:
            self.theta = np.zeros(N_FEATURES)
        if self.bias is None:
            self.bias = np.zeros(len(self.vocabulary))
        self.theta = np.asarray(self.theta, dtype=float)
        self.bias = np.asarray(self.bias, dtype=float)
        if self.theta.shape != (N_FEATURES,):
            raise ValidationError(f"theta must have shape ({N_FEATURES},), got {self.theta.shape}")
        if self.bias.shape != (len(self.vocabulary),):
            raise ValidationError(
                f"bias must have one entry per vocabulary item, got shape {self.bias.shape}"
            )
        if not (np.all(np.isfinite(self.theta)) and np.all(np.isfinite(self.bias))):
            raise ValidationError("policy parameters must be finite")


def context_features(policy: ToyPolicy, query: Embedding, ref: ReferenceSet) -> np.ndarray:
    """Per-candidate feature rows [cos to query, max cos to ref member]."""
    if query.dim != policy.vocabulary.dim:
        raise ValidationError(
            f"query has dimension {query.dim}, policy vocabulary has {policy.vocabulary.dim}"
        )
    V = policy.vocabulary.matrix()
    f = np.zeros((len(policy.vocabulary), N_FEATURES))
    f[:, 0] = V @ query.vector
    if len(ref):
        f[:, 1] = np.max(V @ ref.members.matrix().T, axis=1)
    return f


def _softmax(features: np.ndarray, policy: ToyPolicy) -> np.ndarray:
    logits = features @ policy.theta + policy.bias
    shifted = logits - np.max(logits)
    weights = np.exp(shifted)
    return weights / weights.sum()


def policy_probs(policy: ToyPolicy, query: Embedding, ref: ReferenceSet) -> np.ndarray:
    """Softmax action distribution over the vocabulary in the given context."""
    return _softmax(context_features(policy, query, ref), policy)


def sample_group(
    policy: ToyPolicy,
    query: Embedding,
    ref: ReferenceSet,
    group_size: int,
    rng_seed: int,
) -> np.ndarray:
    """The (G,) int array of G vocabulary indices drawn i.i.d. (with
    replacement) from the policy; deterministic for a fixed seed."""
    return _draw_group(policy_probs(policy, query, ref), group_size, rng_seed)


def _draw_group(probs: np.ndarray, group_size: int, rng_seed: int) -> np.ndarray:
    if group_size < 2:
        raise ValidationError(f"group size must be at least 2, got {group_size}")
    rng = np.random.default_rng(rng_seed)
    return rng.choice(len(probs), size=group_size, replace=True, p=probs)


def compute_advantages(rewards) -> np.ndarray:
    """Group-normalized advantages (r - mean) / std, population std.

    A group with (numerically) constant rewards gets all-zero advantages
    instead of dividing by zero.
    """
    r = np.asarray(rewards, dtype=float)
    if r.ndim != 1 or r.size < 2:
        raise ValidationError("advantage normalization needs at least two rewards")
    std = float(r.std())
    if std <= ZERO_STD_TOL * float(np.abs(r).max()):
        return np.zeros_like(r)
    return (r - r.mean()) / std


def policy_entropy(p: np.ndarray) -> float:
    """Shannon entropy in nats of a probability vector."""
    support = p > 0
    return float(-(p[support] * np.log(p[support])).sum())


def _clipped_surrogate(features, p_new, p_old, p_ref, indices, advantages, clip_epsilon, kl_beta):
    """(objective, KL(p_new || p_ref), theta grad, bias grad) from one context's and one group's arrays."""
    sampled_old = p_old[indices]
    if np.any(sampled_old == 0.0):
        raise NumericalError("old policy assigns zero probability to a sampled action")
    ratios = p_new[indices] / sampled_old
    unclipped = ratios * advantages
    clipped = np.clip(ratios, 1.0 - clip_epsilon, 1.0 + clip_epsilon) * advantages
    # s is the per-item log-ratio log p_new - log p_ref; KL = sum p_new * s
    support = p_new > 0
    s = np.zeros_like(p_new)
    with np.errstate(divide="ignore"):
        s[support] = np.log(p_new[support]) - np.log(p_ref[support])
    kl = float((p_new[support] * s[support]).sum())
    objective = float(np.minimum(unclipped, clipped).mean()) - kl_beta * kl

    active = unclipped <= clipped
    coef = np.where(active, advantages * ratios, 0.0) / indices.size
    g_logits = np.zeros_like(p_new)
    np.add.at(g_logits, indices, coef)
    g_logits -= coef.sum() * p_new
    if kl_beta != 0.0:
        g_logits -= kl_beta * p_new * (s - kl)
    return objective, kl, features.T @ g_logits, g_logits


def _surrogate(policy, old, ref_policy, indices, advantages, query, ref, clip_epsilon, kl_beta):
    features = context_features(policy, query, ref)  # one for all three: they share the vocabulary
    p_new, p_old, p_ref = (_softmax(features, p) for p in (policy, old, ref_policy))
    indices = np.asarray(indices, dtype=int)
    return _clipped_surrogate(features, p_new, p_old, p_ref, indices, advantages, clip_epsilon, kl_beta)


def surrogate_objective(
    policy: ToyPolicy,
    old: ToyPolicy,
    ref_policy: ToyPolicy,
    indices: np.ndarray,
    advantages: np.ndarray,
    query: Embedding,
    ref: ReferenceSet,
    clip_epsilon: float,
    kl_beta: float,
) -> float:
    """Clipped importance-ratio surrogate minus the KL penalty.

    (1/G) sum_i min(rho_i A_i, clip(rho_i, 1-eps, 1+eps) A_i)
        - beta * KL(pi_theta || pi_ref)

    with rho_i the new/old probability ratio of the sampled action and the
    KL taken exactly over the vocabulary in the current context.
    """
    return _surrogate(policy, old, ref_policy, indices, advantages, query, ref, clip_epsilon, kl_beta)[0]


def surrogate_gradient(
    policy: ToyPolicy,
    old: ToyPolicy,
    ref_policy: ToyPolicy,
    indices: np.ndarray,
    advantages: np.ndarray,
    query: Embedding,
    ref: ReferenceSet,
    clip_epsilon: float,
    kl_beta: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradient of surrogate_objective w.r.t. (theta, bias).

    Each sampled term contributes gradient only while its unclipped value
    is the minimum; where the clipped branch is strictly active the term is
    locally constant in the parameters. Through the softmax,

        d rho_i / d logits = rho_i * (onehot(a_i) - p)
        d KL / d logits    = p * (log p - log p_ref - KL)

    and theta/bias gradients follow by the chain rule through the affine
    logit map.
    """
    return _surrogate(policy, old, ref_policy, indices, advantages, query, ref, clip_epsilon, kl_beta)[2:]


@dataclass
class GrpoConfig:
    """Hyperparameters of one training run; every field is validated.

    train() takes one update per group, so every ratio is exactly 1 and
    clip_epsilon cannot change its output; it matters only to the surrogate
    functions called with a distinct old policy.
    """

    group_size: int = 8
    clip_epsilon: float = 0.2
    kl_beta: float = 0.04
    learning_rate: float = 0.01
    iterations: int = 1200
    lambda_div: float = DEFAULT_LAMBDA_DIV
    lambda_rel: float = DEFAULT_LAMBDA_REL
    seed: int = 0

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            integer = name in ("group_size", "iterations", "seed")
            setattr(self, name, check_number(name, value, integer))
        if self.group_size < 2:
            raise ValidationError(f"group_size must be an integer >= 2, got {self.group_size}")
        if not 0.0 < self.clip_epsilon < 1.0:
            raise ValidationError(
                f"clip_epsilon must lie in the open interval (0, 1), got {self.clip_epsilon}"
            )
        if not 0 <= self.kl_beta < math.inf:
            raise ValidationError(f"kl_beta must be finite and >= 0, got {self.kl_beta}")
        if not 0 < self.learning_rate < math.inf:
            raise ValidationError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        check_weights(self.lambda_div, self.lambda_rel)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(eq=False)
class TrainingTask:
    """What the policy is trained on: a vocabulary, a query, and a pool of
    curated reference exemplars.

    When ``context_sizes`` is None every iteration conditions on the full
    exemplar pool. When it is an inclusive (low, high) range, each
    iteration draws a random exemplar subset of a size in that range, so
    the policy sees varied partial contexts and can learn how candidate
    rewards depend on what the reference set already covers.
    """

    vocabulary: EmbeddingSet
    query: Embedding
    exemplars: EmbeddingSet = field(default_factory=EmbeddingSet)
    context_sizes: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if len(self.vocabulary) == 0:
            raise ValidationError("training vocabulary must be non-empty")
        if self.vocabulary.dim != self.query.dim:
            raise ValidationError("vocabulary and query dimensions differ")
        if len(self.exemplars) and self.exemplars.dim != self.query.dim:
            raise ValidationError("exemplar and query dimensions differ")
        if self.context_sizes is not None:
            lo, hi = self.context_sizes
            if not 0 <= lo <= hi <= len(self.exemplars):
                raise ValidationError(
                    f"context_sizes {self.context_sizes} must satisfy "
                    f"0 <= low <= high <= {len(self.exemplars)}"
                )


def _iteration_context(task: TrainingTask, rng: np.random.Generator) -> tuple[int, ...]:
    """The sorted exemplar indices of one iteration's context."""
    if task.context_sizes is None:
        return tuple(range(len(task.exemplars)))
    lo, hi = task.context_sizes
    size = int(rng.integers(lo, hi + 1))
    return tuple(sorted(rng.choice(len(task.exemplars), size=size, replace=False).tolist()))


def train(config: GrpoConfig, task: TrainingTask) -> tuple[ToyPolicy, list[dict]]:
    """Run the full training loop and return the policy plus per-iteration log.

    The policy starts uniform (all parameters zero); the KL penalty is taken
    against that uniform policy. Each iteration samples a group, scores it
    with the composite reward against the iteration's reference context,
    normalizes advantages, and takes one gradient-ascent step on the
    surrogate. With one update per group the sampling policy is the current
    one, so every ratio is exactly 1 and clip_epsilon does not change the
    result.

    Each distinct context (its sorted exemplar indices) gets its ReferenceSet
    and feature matrix built once and kept in a table of at most
    CONTEXT_TABLE_FLOATS floats; past that a new context is built, used and
    dropped. Features do not depend on the parameters, so no result changes.

    Log records carry iteration, objective, mean_reward, kl and
    policy_entropy. The whole run is deterministic given config.seed.
    """
    policy = ToyPolicy(task.vocabulary)
    vocabulary = task.vocabulary.matrix()
    p_ref = np.full(len(task.vocabulary), 1.0 / len(task.vocabulary))  # the all-zero reference policy
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    records: list[dict] = []
    table: dict[tuple[int, ...], tuple[ReferenceSet, np.ndarray]] = {}
    table_floats = 0

    for iteration in range(config.iterations):
        key = _iteration_context(task, rng)
        group_seed = int(rng.integers(0, 2**63))
        if key in table:
            ref, features = table[key]
        else:
            ref = ReferenceSet(task.exemplars.take(key), task.query)
            features = context_features(policy, task.query, ref)
            features.flags.writeable = False
            # the features plus the reference set's member matrix and its k + 2 basis rows
            floats = features.size + (2 * len(key) + 2) * task.query.dim
            if table_floats + floats <= CONTEXT_TABLE_FLOATS:
                table[key] = ref, features
                table_floats += floats
        probs = _softmax(features, policy)
        indices = _draw_group(probs, config.group_size, group_seed)
        rewards = ref.rewards(vocabulary[indices], config.lambda_div, config.lambda_rel)[2]
        advantages = compute_advantages(rewards)
        # one update per group: the old policy is the current one, so p_old = p_new
        objective, kl, theta_grad, bias_grad = _clipped_surrogate(
            features, probs, probs, p_ref, indices, advantages, config.clip_epsilon, config.kl_beta
        )
        if not (np.all(np.isfinite(theta_grad)) and np.all(np.isfinite(bias_grad))):
            raise NumericalError(f"non-finite gradient at iteration {iteration}")
        policy.theta = policy.theta + config.learning_rate * theta_grad
        policy.bias = policy.bias + config.learning_rate * bias_grad

        records.append(
            {
                "iteration": iteration,
                "objective": objective,
                "mean_reward": float(rewards.mean()),
                "kl": kl,
                "policy_entropy": policy_entropy(probs),
            }
        )

    return policy, records

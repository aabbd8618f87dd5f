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

Each run draws what default_rng(seed) would, made ahead a block of
iterations at a time by divset.draws: contexts and group seeds by a
plain-Python replay of Generator over PCG64's raw words, and each group's
uniforms in one array pass. NEP 19 freezes SeedSequence and PCG64, which the
array pass computes; the replay of Generator's integers and choice is pinned
by tests against the installed numpy.

A context is a subset of the exemplar pool, so contexts recur: train builds
each distinct one's reference set and features once, in a table bounded by
CONTEXT_TABLE_FLOATS.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .embeddings import Embedding, EmbeddingSet
from .errors import NumericalError, ValidationError, check_floats, check_number
from .kernel import require_unit_rows
from .rewards import DEFAULT_LAMBDA_DIV, DEFAULT_LAMBDA_REL, ReferenceSet, basis_rewards, check_weights
# unused here, kept for the trace target divset.grpo.composite_reward in bench/spans.py
from .rewards import composite_reward  # noqa: F401

N_FEATURES = 2

# Rewards whose spread is at most this times their largest magnitude are treated
# as constant (zero advantages); the test is scale-free, like the advantages.
ZERO_STD_TOL = 1e-12

# Floats (16 MiB) that train's context table may hold; a new context that would
# pass it is built for its iteration and not stored.
CONTEXT_TABLE_FLOATS = 2**21

# Group uniforms (32 KiB) that train_batch draws at once: it draws every run's
# contexts and group seeds for as many iterations as fit, then trains through
# them. The array pass that makes them works in about five times as much.
DRAW_BLOCK_FLOATS = 2**12

# The per-iteration values of a training log, after its iteration number.
LOG_FIELDS = ("objective", "mean_reward", "kl", "policy_entropy")


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


def _log_softmax(features: np.ndarray, theta: np.ndarray, bias: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p, log p) of the policy of (N, F) features under (F,) theta and (N,) bias, or of a stack
    of R of each, along the last axis. log p comes from the logits: it is finite wherever the
    logit is, even where p underflows to 0, and -inf where the bias is -inf."""
    logits = (features @ theta[..., None])[..., 0] + bias
    shifted = logits - logits.max(axis=-1, keepdims=True)
    weights = np.exp(shifted)
    total = weights.sum(axis=-1, keepdims=True)
    return weights / total, shifted - np.log(total)


def policy_probs(policy: ToyPolicy, query: Embedding, ref: ReferenceSet) -> np.ndarray:
    """Softmax action distribution over the vocabulary in the given context."""
    return _log_softmax(context_features(policy, query, ref), policy.theta, policy.bias)[0]


def _draw(probs: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Indices drawn from each probability row by (..., G) uniforms with the
    inverse-cdf rule of Generator.choice, so that uniforms from
    default_rng(seed).random(G) give choice(N, G, p=probs) on that seed."""
    cdf = probs.cumsum(axis=-1)
    cdf /= cdf[..., -1:]
    # cdf.searchsorted(u, side="right") on each row: the number of cdf entries <= u
    return (cdf[..., None, :] <= uniforms[..., None]).sum(axis=-1)


def sample_group(
    policy: ToyPolicy,
    query: Embedding,
    ref: ReferenceSet,
    group_size: int,
    rng_seed: int,
) -> np.ndarray:
    """The (G,) int array of G vocabulary indices drawn i.i.d. (with
    replacement) from the policy; deterministic for a fixed seed."""
    if group_size < 2:
        raise ValidationError(f"group size must be at least 2, got {group_size}")
    return _draw(policy_probs(policy, query, ref), np.random.default_rng(rng_seed).random(group_size))


def compute_advantages(rewards) -> np.ndarray:
    """Group-normalized advantages (r - mean) / std along the last axis,
    population std, so a stack of groups gives each row its own.

    A group with (numerically) constant rewards gets all-zero advantages
    instead of dividing by zero.
    """
    r = np.asarray(rewards, dtype=float)
    if r.ndim == 0 or r.shape[-1] < 2:
        raise ValidationError("advantage normalization needs at least two rewards")
    # the steps of np.mean and np.std, without their per-call overhead
    deviation = r - r.sum(axis=-1, keepdims=True) / r.shape[-1]
    std = np.sqrt((deviation * deviation).sum(axis=-1, keepdims=True) / r.shape[-1])
    constant = std <= ZERO_STD_TOL * np.abs(r).max(axis=-1, keepdims=True)
    return np.divide(deviation, std, out=np.zeros_like(r), where=~constant)


def _clipped_surrogate(features, p_new, log_p_new, p_old, log_p_ref, indices, advantages, clip_epsilon, kl_beta):
    """(objective, KL(p_new || p_ref), entropy of p_new, theta grad, bias grad),
    each with a leading run axis, of R runs: (R, N, F) features, (R, N)
    policies and their logs, log p_ref as (R, N) or one (N,) row, (R, G)
    groups and (R,) clip_epsilon and kl_beta."""
    runs, group_size = indices.shape
    n = p_new.shape[-1]
    flat = indices + np.arange(0, runs * n, n)[:, None]  # the group's items in the flattened (R, N) arrays
    sampled_old = p_old.reshape(-1)[flat]
    if not sampled_old.all():
        raise NumericalError("old policy assigns zero probability to a sampled action")
    ratios = p_new.reshape(-1)[flat] / sampled_old
    unclipped = ratios * advantages
    eps = clip_epsilon[:, None]
    clipped = np.minimum(np.maximum(ratios, 1.0 - eps), 1.0 + eps) * advantages
    s = log_p_new - log_p_ref  # KL = sum p_new * s
    kl = (p_new * s).sum(axis=-1)
    entropy = -(p_new * log_p_new).sum(axis=-1)
    objective = np.minimum(unclipped, clipped).sum(axis=-1) / group_size - kl_beta * kl

    active = unclipped <= clipped
    coef = np.where(active, advantages * ratios, 0.0) / group_size
    # adds each row's coefficients at its indices in group order, as np.add.at would
    g_logits = np.bincount(flat.ravel(), coef.ravel(), runs * n).reshape(runs, n)
    g_logits -= coef.sum(axis=-1, keepdims=True) * p_new
    g_logits -= kl_beta[:, None] * p_new * (s - kl[:, None])
    return objective, kl, entropy, (features.transpose(0, 2, 1) @ g_logits[..., None])[..., 0], g_logits


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
    """Analytic gradient w.r.t. (theta, bias) of the clipped importance-ratio
    surrogate minus the KL penalty, _clipped_surrogate on a batch of one run:

        (1/G) sum_i min(rho_i A_i, clip(rho_i, 1-eps, 1+eps) A_i) - beta * KL(pi_theta || pi_ref)

    with rho_i the new/old probability ratio of the sampled action and the
    KL taken exactly over the vocabulary in the current context.

    Each sampled term contributes gradient only while its unclipped value
    is the minimum; where the clipped branch is strictly active the term is
    locally constant in the parameters. Through the softmax,

        d rho_i / d logits = rho_i * (onehot(a_i) - p)
        d KL / d logits    = p * (log p - log p_ref - KL)

    and theta/bias gradients follow by the chain rule through the affine
    logit map.
    """
    features = context_features(policy, query, ref)  # one for all three: they share the vocabulary
    (p_new, log_p_new), (p_old, _), (_, log_p_ref) = (
        _log_softmax(features[None], p.theta[None], p.bias[None]) for p in (policy, old, ref_policy)
    )
    group = np.asarray(indices, dtype=int)[None], np.asarray(advantages, dtype=float)[None]
    *_, theta_grad, bias_grad = _clipped_surrogate(
        features[None], p_new, log_p_new, p_old, log_p_ref, *group, np.array([clip_epsilon]), np.array([kl_beta])
    )
    return theta_grad[0], bias_grad[0]


@dataclass
class GrpoConfig:
    """Hyperparameters of one training run; every field is validated.

    train() takes one update per group, so every ratio is exactly 1 and
    clip_epsilon cannot change its output; it matters only to
    surrogate_gradient called with a distinct old policy.
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
        if self.kl_beta < 0:
            raise ValidationError(f"kl_beta must be >= 0, got {self.kl_beta}")
        if self.learning_rate <= 0:
            raise ValidationError(f"learning_rate must be > 0, got {self.learning_rate}")
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


def train(config: GrpoConfig, task: TrainingTask) -> tuple[ToyPolicy, list[dict]]:
    """Run the full training loop and return the policy plus per-iteration log.

    The policy starts uniform (all parameters zero); the KL penalty is taken
    against that uniform policy. Each iteration samples a group, scores it
    with the composite reward against the iteration's reference context,
    normalizes advantages, and takes one gradient-ascent step on the
    surrogate. With one update per group the sampling policy is the current
    one, so every ratio is exactly 1 and clip_epsilon does not change the
    result. This is train_batch on a batch of one run.

    Log records carry iteration, objective, mean_reward, kl and
    policy_entropy. The whole run is deterministic given config.seed.
    """
    (policy,), log = train_batch([config], task)
    return policy, log_records(log, 0)


def log_records(log: np.ndarray, run: int) -> list[dict]:
    """One run's training log records from train_batch's log array."""
    return [{"iteration": i, **dict(zip(LOG_FIELDS, row[:, run].tolist()))} for i, row in enumerate(log)]


@np.errstate(over="ignore", invalid="ignore")  # an overflow shows as a non-finite value, rejected below
def train_batch(configs: list[GrpoConfig], task: TrainingTask) -> tuple[list[ToyPolicy], np.ndarray]:
    """Train one policy per config on the task, all runs in lockstep with the
    run as the leading axis of every array; each run is bitwise the run that
    train(config, task) makes alone. The configs must share group_size and
    iterations.

    Each run keeps its own random stream for its contexts and group seeds.
    For a block of iterations whose group uniforms fit in DRAW_BLOCK_FLOATS,
    every run's contexts and group seeds come first from draws.context_draws
    (a replay of default_rng(seed) over PCG64.random_raw), and every group's
    uniforms from one draws.group_uniforms pass; the block's lockstep loop
    then makes no generator call. Each distinct context (its sorted exemplar
    indices) gets its feature matrix and its reference set's basis,
    zero-padded to 2 + |exemplars| rows, built once and kept in a table
    shared by all runs of at most CONTEXT_TABLE_FLOATS floats; past that a new
    context is built, used and dropped. Features do not depend on the
    parameters and zero rows change no reward, so no result changes.

    Returns the policies in config order and the (iterations, len(LOG_FIELDS),
    runs) array of per-iteration log values. A diverged run raises
    NumericalError; a group_size or iterations whose arrays would pass
    errors.MAX_ARRAY_FLOATS raises ValidationError naming it.
    """
    group_size, iterations = configs[0].group_size, configs[0].iterations
    if any((c.group_size, c.iterations) != (group_size, iterations) for c in configs):
        raise ValidationError("runs trained in one batch must share group_size and iterations")
    runs = len(configs)
    policy = ToyPolicy(task.vocabulary)  # the all-zero policy: it checks the vocabulary and builds features
    vocabulary = task.vocabulary.matrix()
    n, dim = vocabulary.shape
    check_floats("group_size", runs * group_size * max(n, dim))  # the draw's (R, G, N), the rows' (R, G, d)
    check_floats("iterations", runs * iterations * len(LOG_FIELDS))  # the log
    log_p_ref = _log_softmax(np.zeros((n, N_FEATURES)), policy.theta, policy.bias)[1]  # of the all-zero policy
    clip_epsilon, kl_beta, learning_rate, lambda_div, lambda_rel = (
        np.array([getattr(c, name) for c in configs], dtype=float)  # a JSON integer past int64 makes no object array
        for name in ("clip_epsilon", "kl_beta", "learning_rate", "lambda_div", "lambda_rel")
    )
    learning_rate, lambda_div, lambda_rel = learning_rate[:, None], lambda_div[:, None], lambda_rel[:, None]
    theta = np.zeros((runs, N_FEATURES))
    bias = np.zeros((runs, n))
    log = np.empty((iterations, len(LOG_FIELDS), runs))

    # Context slots: run r builds a context the table does not hold in slot r,
    # and the table's contexts fill the slots after those, as many as the
    # bound allows and the task can draw. Sizing by the bound alone would
    # reserve 16 MiB, and numpy asks for huge pages on arrays that large, so
    # writing one slot could commit 2 MiB.
    basis_rows = 2 + len(task.exemplars)
    lo, hi = task.context_sizes or (len(task.exemplars),) * 2
    drawable = sum(math.comb(len(task.exemplars), size) for size in range(lo, hi + 1))
    stored = min(CONTEXT_TABLE_FLOATS // (n * N_FEATURES + basis_rows * dim), drawable, runs * iterations)
    slot_features = np.empty((runs + stored, n, N_FEATURES))
    slot_basis = np.empty((runs + stored, basis_rows, dim))
    slot_members = np.empty((runs + stored, 1), dtype=bool)
    table: dict[tuple[int, ...], int] = {}

    def build(slot: int, key: tuple[int, ...]) -> None:
        ref = ReferenceSet(task.exemplars.take(key), task.query)
        slot_features[slot] = context_features(policy, task.query, ref)
        slot_basis[slot] = ref.basis(basis_rows)
        slot_members[slot] = len(key) > 0

    # imported here: score, select and eval never train, and importing draws
    # (compiling it, without a bytecode cache) would lengthen their start-up
    from .draws import context_draws, group_uniforms

    streams = [context_draws(len(task.exemplars), task.context_sizes, c.seed) for c in configs]
    block = max(1, DRAW_BLOCK_FLOATS // (runs * group_size))
    for start in range(0, iterations, block):
        # every draw of the block's iterations before any of them trains; the
        # table fills in (iteration, run) order, and a context past its bound
        # is built in its run's slot at its iteration
        count = min(block, iterations - start)
        seeds = []
        block_slots = np.empty((count, runs), dtype=int)
        unstored: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in range(count)]
        for i in range(count):
            for r, stream in enumerate(streams):
                key, seed = next(stream)
                seeds.append(seed)
                slot = table.get(key)
                if slot is None:
                    if len(table) < stored:
                        slot = table[key] = runs + len(table)
                        build(slot, key)
                    else:
                        slot = r
                        unstored[i].append((r, key))
                block_slots[i, r] = slot
        block_uniforms = group_uniforms(np.array(seeds, np.uint64).reshape(count, runs), group_size)

        block_iterations = range(start, start + count)
        for iteration, slots, uniforms, late in zip(block_iterations, block_slots, block_uniforms, unstored):
            for r, key in late:
                build(r, key)
            features = slot_features[slots]
            probs, log_probs = _log_softmax(features, theta, bias)
            indices = _draw(probs, uniforms)
            rows, basis, members = vocabulary[indices], slot_basis[slots], slot_members[slots]
            rewards = basis_rewards(rows, basis, members, lambda_div, lambda_rel)[2]
            advantages = compute_advantages(rewards)
            # one update per group: the old policy is the current one, so p_old = p_new
            objective, kl, entropy, theta_grad, bias_grad = _clipped_surrogate(
                features, probs, log_probs, probs, log_p_ref, indices, advantages, clip_epsilon, kl_beta
            )
            theta += learning_rate * theta_grad
            bias += learning_rate * bias_grad
            log[iteration] = objective, rewards.sum(axis=-1) / group_size, kl, entropy

    # a non-finite parameter stays non-finite, so one check at the end finds a diverged run; as
    # |features| <= 1, a finite 4 (|theta|_1 + max |bias|) keeps every logit and logit difference finite
    bound = 4.0 * (np.abs(theta).sum(axis=-1) + np.abs(bias).max(axis=-1))
    if not (np.isfinite(bound).all() and np.isfinite(log).all()):
        raise NumericalError("training diverged: a policy parameter or a logged value is not finite")
    return [ToyPolicy(task.vocabulary, t.copy(), b.copy()) for t, b in zip(theta, bias)], log

"""One-row GRPO arithmetic: the log-softmax, the surrogate, its gradient, the
KL and the entropy of a single context and group, as plain per-row numpy, and
one run's draws made with numpy's own Generator. The batched program code must
equal these bit for bit, row by row."""

import numpy as np

from divset import grpo
from divset.errors import NumericalError


def policy_logits(policy, query, ref):
    """The policy's logit row in one context."""
    return grpo.context_features(policy, query, ref) @ policy.theta + policy.bias


def log_softmax(logits):
    """(p, log p) of one logit row: exp of the logits less their max over the
    sum of those, and the logits less their max less the log of that sum."""
    shifted = logits - logits.max()
    weights = np.exp(shifted)
    total = weights.sum()
    return weights / total, shifted - np.log(total)


def policy_entropy(p, log_p):
    """Shannon entropy in nats of a probability vector, from its logs."""
    return float(-(p * log_p).sum())


def clipped_surrogate(features, p_new, log_p_new, p_old, log_p_ref, indices, advantages, clip_epsilon, kl_beta):
    """(objective, KL(p_new || p_ref), theta grad, bias grad) from one context's and one group's arrays."""
    sampled_old = p_old[indices]
    if np.any(sampled_old == 0.0):
        raise NumericalError("old policy assigns zero probability to a sampled action")
    ratios = p_new[indices] / sampled_old
    unclipped = ratios * advantages
    clipped = np.clip(ratios, 1.0 - clip_epsilon, 1.0 + clip_epsilon) * advantages
    s = log_p_new - log_p_ref  # the per-item log-ratio; KL = sum p_new * s
    kl = float((p_new * s).sum())
    objective = float(np.minimum(unclipped, clipped).mean()) - kl_beta * kl

    active = unclipped <= clipped
    coef = np.where(active, advantages * ratios, 0.0) / indices.size
    g_logits = np.zeros_like(p_new)
    np.add.at(g_logits, indices, coef)
    g_logits -= coef.sum() * p_new
    g_logits -= kl_beta * p_new * (s - kl)
    return objective, kl, features.T @ g_logits, g_logits


def surrogate_objective(policy, old, ref_policy, indices, advantages, query, ref, clip_epsilon, kl_beta):
    """The clipped surrogate objective of one group, the policies' rows made by log_softmax."""
    (p_new, log_p_new), (p_old, _), (_, log_p_ref) = (
        log_softmax(policy_logits(p, query, ref)) for p in (policy, old, ref_policy)
    )
    features = grpo.context_features(policy, query, ref)
    indices, advantages = np.asarray(indices, dtype=int), np.asarray(advantages, dtype=float)
    return clipped_surrogate(
        features, p_new, log_p_new, p_old, log_p_ref, indices, advantages, clip_epsilon, kl_beta
    )[0]


def iteration_context(task, rng):
    """The sorted exemplar indices of one iteration's context, drawn from a numpy Generator."""
    if task.context_sizes is None:
        return tuple(range(len(task.exemplars)))
    lo, hi = task.context_sizes
    size = int(rng.integers(lo, hi + 1))
    return tuple(sorted(rng.choice(len(task.exemplars), size=size, replace=False).tolist()))


def run_draws(task, seed, iterations):
    """One run's (context key, group seed) per iteration, drawn from default_rng(seed)."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return [(iteration_context(task, rng), int(rng.integers(0, 2**63))) for _ in range(iterations)]

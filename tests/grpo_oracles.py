"""One-row GRPO arithmetic: the surrogate, its gradient, the KL and the
entropy of a single context and group, as plain per-row numpy, and one run's
draws made with numpy's own Generator. The batched program code must equal
these bit for bit, row by row. Also the surrogate objective of one group,
read from the program's batched surrogate."""

import numpy as np

from divset import grpo
from divset.errors import NumericalError


def policy_entropy(p):
    """Shannon entropy in nats of a probability vector."""
    support = p > 0
    return float(-(p[support] * np.log(p[support])).sum())


def clipped_surrogate(features, p_new, p_old, p_ref, indices, advantages, clip_epsilon, kl_beta):
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


def surrogate_objective(policy, old, ref_policy, indices, advantages, query, ref, clip_epsilon, kl_beta):
    """The objective of grpo._clipped_surrogate on a batch of one run: the
    arrays assembled as surrogate_gradient assembles them, no arithmetic added."""
    features = grpo.context_features(policy, query, ref)
    p_new, p_old, p_ref = (grpo.policy_probs(p, query, ref)[None] for p in (policy, old, ref_policy))
    with np.errstate(divide="ignore"):  # a zero of p_ref makes its log -inf, as in surrogate_gradient
        log_p_ref = np.log(p_ref)
    group = np.asarray(indices, dtype=int)[None], np.asarray(advantages, dtype=float)[None]
    objective = grpo._clipped_surrogate(
        features[None], p_new, p_old, log_p_ref, *group, np.array([clip_epsilon]), np.array([kl_beta])
    )[0]
    return float(objective[0])


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

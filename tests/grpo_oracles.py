"""One-row GRPO arithmetic: the surrogate, its gradient, the KL and the
entropy of a single context and group, as plain per-row numpy. The batched
program code must equal these bit for bit, row by row."""

import numpy as np

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

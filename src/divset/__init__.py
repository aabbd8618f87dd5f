"""Diversity-aware set selection and group-relative policy optimization
over embedding vectors: log-determinant diversity rewards with diminishing
returns, GRPO training of a small softmax policy, autoregressive diverse-set
rollouts, and the spectral metrics to evaluate them."""

from .embeddings import Embedding, EmbeddingSet, load_embeddings, normalize, save_embeddings
from .errors import NumericalError, ValidationError
from .grpo import (
    GrpoConfig,
    ToyPolicy,
    TrainingTask,
    compute_advantages,
    policy_probs,
    sample_group,
    surrogate_gradient,
    train,
)
from .kernel import build_kernel
from .metrics import MetricReport, mean_alignment, metric_report, truncated_spectral_entropy, vendi_score
from .rewards import (
    LAMBDA_ABLATION_GRID,
    ReferenceSet,
    RewardBreakdown,
    composite_reward,
    diversity_score,
    marginal_gain,
)
from .rollout import RolloutResult, brute_force_select, greedy_select, rollout_policy
from .simulation import ExperimentResult, SimWorld, make_world, run_experiment

__all__ = [
    "Embedding",
    "EmbeddingSet",
    "ExperimentResult",
    "GrpoConfig",
    "LAMBDA_ABLATION_GRID",
    "MetricReport",
    "NumericalError",
    "ReferenceSet",
    "RewardBreakdown",
    "RolloutResult",
    "SimWorld",
    "ToyPolicy",
    "TrainingTask",
    "ValidationError",
    "brute_force_select",
    "build_kernel",
    "composite_reward",
    "compute_advantages",
    "diversity_score",
    "greedy_select",
    "load_embeddings",
    "make_world",
    "marginal_gain",
    "mean_alignment",
    "metric_report",
    "normalize",
    "policy_probs",
    "rollout_policy",
    "run_experiment",
    "sample_group",
    "save_embeddings",
    "surrogate_gradient",
    "train",
    "truncated_spectral_entropy",
    "vendi_score",
]

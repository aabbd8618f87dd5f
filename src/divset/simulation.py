"""Synthetic clustered-embedding worlds and the comparison harness.

A world holds a handful of orthonormal cluster centers ("modes"), a
vocabulary of candidates scattered around them, and a query correlated
with every center. Because the modes are known, diversity of a selection
can be measured exactly as mode coverage, alongside the spectral metrics.
The harness trains one policy per reward configuration ("arm") and seed,
rolls out a selection, and aggregates coverage, Vendi score and alignment
across seeds.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .embeddings import Embedding, EmbeddingSet, normalize
from .errors import ValidationError, check_number
from .grpo import GrpoConfig, TrainingTask, train_batch
# unused here, kept for the trace target divset.simulation.train in bench/spans.py
from .grpo import train  # noqa: F401
from .metrics import mean_alignment, vendi_score
from .rollout import ROLLOUT_MODES, rollout_policy

# Geometric taper of the query's weight on successive cluster centers. A
# mild taper keeps the query correlated with every mode while making some
# modes genuinely better aligned than others, so relevance-heavy and
# diversity-heavy reward settings trade off rather than coincide.
QUERY_CENTER_TAPER = 0.9

DEFAULT_WORLD = {"n_modes": 6, "n_candidates": 60, "dim": 16, "sigma": 0.1, "seed": 7}
DEFAULT_K = 8
DEFAULT_SEEDS = list(range(10))

# Argmax decoding gives deterministic selections for a trained policy;
# stochastic rollouts remain available via rollout_mode="sample".
DEFAULT_ROLLOUT_MODE = "greedy-prob"


@dataclass(eq=False)
class SimWorld:
    centers: np.ndarray
    vocabulary: EmbeddingSet
    query: Embedding
    labels: dict[str, int]

    @property
    def n_modes(self) -> int:
        return self.centers.shape[0]

    def training_task(self) -> TrainingTask:
        """Curated exemplars are the mode centers; training conditions on
        random subsets of them (including the empty context) so the policy
        learns how rewards depend on what the reference set covers."""
        exemplars = EmbeddingSet(
            [Embedding(f"mode-{j}", self.centers[j]) for j in range(self.n_modes)]
        )
        return TrainingTask(
            vocabulary=self.vocabulary,
            query=self.query,
            exemplars=exemplars,
            context_sizes=(0, self.n_modes),
        )

    def mode_coverage(self, selected_ids: list[str]) -> float:
        """Fraction of modes represented among the selected candidates."""
        if not selected_ids:
            raise ValidationError("mode coverage requires a non-empty selection")
        return len({self.labels[i] for i in selected_ids}) / self.n_modes


def make_world(
    n_modes: int, n_candidates: int, dim: int, sigma: float, seed: int
) -> SimWorld:
    """Build a deterministic clustered world.

    Centers are M rows of a Haar-random orthogonal matrix (exactly
    orthonormal). Candidate i starts at center i mod M, gets isotropic
    Gaussian noise of scale sigma, and is renormalized; its label is its
    nearest center by cosine, which coincides with the seeding center for
    any reasonable sigma. The query is the normalized tapered sum of the
    centers, positively correlated with all of them.
    """
    n_modes = check_number("n_modes", n_modes, integer=True)
    n_candidates = check_number("n_candidates", n_candidates, integer=True)
    dim = check_number("dim", dim, integer=True)
    sigma = check_number("sigma", sigma)
    seed = check_number("seed", seed, integer=True)
    if n_modes < 1:
        raise ValidationError(f"n_modes must be at least 1, got {n_modes}")
    if n_modes > dim:
        raise ValidationError(f"n_modes must not exceed dim ({n_modes} > {dim})")
    if n_candidates < n_modes:
        raise ValidationError(f"n_candidates must be at least n_modes, got {n_candidates}")
    if not 0.0 <= sigma < math.inf:  # False for NaN
        raise ValidationError(f"sigma must be finite and non-negative, got {sigma}")

    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    q = q * np.sign(np.diagonal(r))
    centers = q.T[:n_modes]

    seed_modes = np.arange(n_candidates) % n_modes
    vectors = centers[seed_modes] + sigma * rng.standard_normal((n_candidates, dim))
    norms = np.linalg.norm(vectors, axis=1, keepdims=True)
    if np.any(norms < 1e-12):
        raise ValidationError("degenerate candidate vector; sigma too extreme for this seed")
    vectors = vectors / norms
    nearest = np.argmax(vectors @ centers.T, axis=1)

    items = []
    labels: dict[str, int] = {}
    for i in range(n_candidates):
        label = int(nearest[i])
        item = Embedding(f"cand-{i:03d}", vectors[i], meta={"mode": str(label)})
        items.append(item)
        labels[item.id] = label

    taper = QUERY_CENTER_TAPER ** np.arange(n_modes)
    query = normalize(Embedding("query", taper @ centers))
    return SimWorld(centers=centers, vocabulary=EmbeddingSet(items), query=query, labels=labels)


@dataclass
class RunRecord:
    seed: int
    selected_ids: list[str]
    mode_coverage: float
    vendi: float
    mean_alignment: float

    def to_dict(self) -> dict:
        return asdict(self)


METRIC_NAMES = ("mode_coverage", "vendi", "mean_alignment")


@dataclass
class ArmResult:
    name: str
    config: GrpoConfig
    runs: list[RunRecord]

    def metric_mean(self, metric: str) -> float:
        return float(np.mean([getattr(run, metric) for run in self.runs]))

    def metric_std(self, metric: str) -> float:
        return float(np.std([getattr(run, metric) for run in self.runs]))

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "config": self.config.to_dict(),
            "runs": [run.to_dict() for run in self.runs],
            "mean": {m: self.metric_mean(m) for m in METRIC_NAMES},
            "std": {m: self.metric_std(m) for m in METRIC_NAMES},
        }


@dataclass
class ExperimentResult:
    arms: list[ArmResult]
    seeds: list[int]
    k: int
    rollout_mode: str

    def arm(self, name: str) -> ArmResult:
        for arm in self.arms:
            if arm.name == name:
                return arm
        raise ValidationError(f"unknown arm {name!r}")

    def to_report(self) -> dict:
        return {
            "seeds": self.seeds,
            "k": self.k,
            "rollout_mode": self.rollout_mode,
            "arms": [arm.to_dict() for arm in self.arms],
        }

    def csv_rows(self) -> list[dict]:
        rows = []
        for arm in self.arms:
            row: dict = {"arm": arm.name}
            for metric in METRIC_NAMES:
                row[f"{metric}_mean"] = arm.metric_mean(metric)
                row[f"{metric}_std"] = arm.metric_std(metric)
            rows.append(row)
        return rows


def arm_name(config: GrpoConfig) -> str:
    return f"div{config.lambda_div:g}-rel{config.lambda_rel:g}"


def check_rollout(world: SimWorld, k: int, rollout_mode: str) -> None:
    """Reject a rollout mode or a selection size k the world cannot serve."""
    if rollout_mode not in ROLLOUT_MODES:
        raise ValidationError(f"rollout_mode must be one of {ROLLOUT_MODES}, got {rollout_mode!r}")
    if not 1 <= k <= len(world.vocabulary):
        raise ValidationError(f"k must lie in [1, {len(world.vocabulary)}], got {k}")


def run_experiment(
    world: SimWorld,
    arms: list[GrpoConfig],
    k: int = DEFAULT_K,
    seeds: list[int] | None = None,
    rollout_mode: str = DEFAULT_ROLLOUT_MODE,
    arm_names: list[str] | None = None,
) -> ExperimentResult:
    """Train and evaluate every (arm, seed) pair.

    Each run trains a fresh policy with the arm's config (seed overridden
    by the run seed), rolls out a k-item selection, and records mode
    coverage, Vendi score and mean query alignment. Runs are independent
    and the whole experiment is deterministic given seeds and configs. The
    runs that share group_size and iterations (all of them, unless arms
    differ in those) train in lockstep as one train_batch; each equals
    train(config, task) on its own.
    """
    if len(arms) < 2:
        raise ValidationError("an experiment needs at least two arms to compare")
    seeds = [check_number("seed", s, integer=True) for s in (DEFAULT_SEEDS if seeds is None else seeds)]
    if not seeds:
        raise ValidationError("at least one seed is required")
    check_rollout(world, k, rollout_mode)
    names = arm_names if arm_names is not None else [arm_name(cfg) for cfg in arms]
    if len(names) != len(arms) or len(set(names)) != len(arms):
        raise ValidationError("arm names must be unique and match the number of arms")

    task = world.training_task()
    configs = [replace(arm, seed=seed) for arm in arms for seed in seeds]
    batches: dict[tuple[int, int], list[int]] = {}
    for i, config in enumerate(configs):
        batches.setdefault((config.group_size, config.iterations), []).append(i)
    trained = [None] * len(configs)
    for batch in batches.values():
        for i, policy in zip(batch, train_batch([configs[i] for i in batch], task)[0]):
            trained[i] = policy
    policies = iter(trained)  # in arm, then seed, order

    results = []
    for name, arm in zip(names, arms):
        runs = []
        for seed in seeds:
            # decorrelate the rollout stream from the training stream
            rollout_seed = int(np.random.SeedSequence([seed, 1]).generate_state(1)[0])
            rollout = rollout_policy(
                next(policies),
                world.query,
                k,
                mode=rollout_mode,
                seed=rollout_seed,
                lambda_div=arm.lambda_div,
                lambda_rel=arm.lambda_rel,
            )
            runs.append(
                RunRecord(
                    seed=seed,
                    selected_ids=rollout.selected.ids(),
                    mode_coverage=world.mode_coverage(rollout.selected.ids()),
                    vendi=vendi_score(rollout.selected),
                    mean_alignment=mean_alignment(rollout.selected, world.query),
                )
            )
        results.append(ArmResult(name=name, config=arm, runs=runs))
    return ExperimentResult(arms=results, seeds=seeds, k=k, rollout_mode=rollout_mode)

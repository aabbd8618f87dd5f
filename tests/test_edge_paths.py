"""Hard-error paths and contract edges across modules."""

import json
import math
import pathlib
import warnings

import numpy as np
import pytest

from divset import (
    Embedding,
    EmbeddingSet,
    GrpoConfig,
    NumericalError,
    ReferenceSet,
    ToyPolicy,
    TrainingTask,
    ValidationError,
    brute_force_select,
    build_kernel,
    greedy_select,
    rollout_policy,
    surrogate_gradient,
)
from divset.cli import SIMULATE_DEFAULTS, TRAIN_DEFAULTS, _load_config, _resolve_arms, _resolve_shared, main
from divset.cli import _write_jsonl
from divset.kernel import logdet_regularized_gram
from divset.simulation import DEFAULT_WORLD


class TestNumericalErrorPaths:
    def test_logdet_raises_on_non_psd_gram(self):
        with pytest.raises(NumericalError, match="Cholesky"):
            logdet_regularized_gram(np.array([[-5.0]]))

    def test_surrogate_rejects_zero_old_probability(self):
        e = np.eye(3)
        vocab = EmbeddingSet([Embedding(f"v{i}", e[i]) for i in range(3)])
        q = Embedding("q", e[0])
        ref = ReferenceSet.empty(q)
        # the old policy assigns (numerically) zero mass to item 2
        old = ToyPolicy(vocab, [0.0, 0.0], [800.0, 800.0, 0.0])
        new = ToyPolicy(vocab)
        indices, advantages = np.array([2, 0]), np.array([1.0, -1.0])
        with pytest.raises(NumericalError, match="zero probability"):
            surrogate_gradient(new, old, new, indices, advantages, q, ref, 0.2, 0.0)

    def test_surrogate_gradient_finite_against_saturated_reference(self):
        e = np.eye(3)
        vocab = EmbeddingSet([Embedding(f"v{i}", e[i]) for i in range(3)])
        q = Embedding("q", e[0])
        ref = ReferenceSet.empty(q)
        # the reference policy's p underflows to 0 on items 1 and 2; its log p there is -800
        ref_policy = ToyPolicy(vocab, [0.0, 0.0], [800.0, 0.0, 0.0])
        new = ToyPolicy(vocab)
        indices, advantages = np.array([2, 0]), np.array([1.0, -1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, g_bias = surrogate_gradient(new, new, ref_policy, indices, advantages, q, ref, 0.2, 0.04)
        # uniform p_new: the group's term is (onehot(2) - onehot(0)) / 2, the KL's p (s - KL)
        s = -math.log(3) - np.array([0.0, -800.0, -800.0])
        expected = np.array([-0.5, 0.0, 0.5]) - 0.04 * (s - s.mean()) / 3
        np.testing.assert_allclose(g_bias, expected, rtol=1e-12)

    def test_rollout_ranks_items_past_an_underflowed_mask(self):
        e = np.eye(4)
        vocab = EmbeddingSet([Embedding(f"v{i}", e[i]) for i in range(4)])
        q = Embedding("q", e[0])
        # two items hold all representable mass; the other two underflow to 0 until both are taken
        policy = ToyPolicy(vocab, bias=np.array([800.0, 800.0, 0.0, 0.0]))
        assert rollout_policy(policy, q, k=3, mode="greedy-prob").selected.ids() == ["v0", "v1", "v2"]


class TestValidationEdges:
    def test_principal_submatrix_order_preserved(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal((4, 5))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        items = [Embedding(f"e{i}", row) for i, row in enumerate(v)]
        block = build_kernel(EmbeddingSet(items))[np.ix_([2, 0], [2, 0])]
        np.testing.assert_allclose(block, build_kernel(EmbeddingSet([items[2], items[0]])), atol=1e-15)

    def test_greedy_negative_k(self):
        pool = EmbeddingSet([Embedding("a", [1.0, 0.0])])
        with pytest.raises(ValidationError):
            greedy_select(pool, Embedding("q", [1.0, 0.0]), k=-1)

    def test_brute_force_k_exceeds_pool(self):
        pool = EmbeddingSet([Embedding("a", [1.0, 0.0])])
        with pytest.raises(ValidationError):
            brute_force_select(pool, k=2)

    def test_grpo_config_non_integer_fields(self):
        with pytest.raises(ValidationError, match="group_size"):
            GrpoConfig(group_size=2.5)
        with pytest.raises(ValidationError, match="iterations"):
            GrpoConfig(iterations=-1)
        with pytest.raises(ValidationError, match="seed"):
            GrpoConfig(seed=1.5)
        with pytest.raises(ValidationError, match="both"):
            GrpoConfig(lambda_div=0.0, lambda_rel=0.0)

    def test_training_task_context_sizes_bounds(self):
        e = np.eye(3)
        vocab = EmbeddingSet([Embedding("a", e[0])])
        q = Embedding("q", e[1])
        exemplars = EmbeddingSet([Embedding("x", e[2])])
        with pytest.raises(ValidationError, match="context_sizes"):
            TrainingTask(vocab, q, exemplars, context_sizes=(0, 2))
        with pytest.raises(ValidationError, match="context_sizes"):
            TrainingTask(vocab, q, exemplars, context_sizes=(2, 1))

    def test_training_task_dimension_mismatch(self):
        vocab = EmbeddingSet([Embedding("a", [1.0, 0.0])])
        with pytest.raises(ValidationError, match="dimension"):
            TrainingTask(vocab, Embedding("q", [1.0, 0.0, 0.0]))

    def test_policy_rejects_empty_vocabulary(self):
        with pytest.raises(ValidationError, match="non-empty"):
            ToyPolicy(EmbeddingSet([]))

    def test_policy_rejects_wrong_bias_shape(self):
        vocab = EmbeddingSet([Embedding("a", [1.0, 0.0])])
        with pytest.raises(ValidationError, match="bias"):
            ToyPolicy(vocab, bias=np.zeros(3))

    def test_policy_rejects_unnormalized_vocabulary(self):
        vocab = EmbeddingSet([Embedding("a", [1.0, 0.0]), Embedding("big", [3.0, 0.0])])
        with pytest.raises(ValidationError, match="'big'"):
            ToyPolicy(vocab)


class TestTrainingLogFile:
    def test_round_trips_as_jsonl(self, tmp_path):
        records = [
            {"iteration": 0, "objective": -0.1, "mean_reward": 0.4, "kl": 0.0, "policy_entropy": 2.0},
            {"iteration": 1, "objective": -0.05, "mean_reward": 0.5, "kl": 0.01, "policy_entropy": 1.9},
        ]
        path = tmp_path / "log.jsonl"
        _write_jsonl(records, path)
        parsed = [json.loads(line) for line in path.read_text().splitlines()]
        assert parsed == records


CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"


class TestShippedConfigs:
    def test_simulate_default_parses_and_matches_builtin_defaults(self):
        config = _load_config(str(CONFIG_DIR / "simulate-default.json"), SIMULATE_DEFAULTS)
        world, _, grpo, _ = _resolve_shared(config)
        assert world == DEFAULT_WORLD
        names, arms = _resolve_arms(config["arms"], grpo)
        assert names == ["composite", "relevance-only"]
        assert [(a.lambda_div, a.lambda_rel) for a in arms] == [(0.5, 0.5), (0.0, 1.0)]
        defaults = GrpoConfig()
        assert (grpo.group_size, grpo.clip_epsilon, grpo.kl_beta, grpo.learning_rate) == (
            defaults.group_size,
            defaults.clip_epsilon,
            defaults.kl_beta,
            defaults.learning_rate,
        )

    def test_lambda_ablation_config_expands_grid(self):
        config = _load_config(str(CONFIG_DIR / "simulate-lambda-ablation.json"), SIMULATE_DEFAULTS)
        names, arms = _resolve_arms(config["arms"], _resolve_shared(config)[2])
        assert [(a.lambda_div, a.lambda_rel) for a in arms] == [(0.9, 0.1), (0.5, 0.5), (0.1, 0.9)]

    def test_train_default_parses(self):
        config = _load_config(str(CONFIG_DIR / "train-default.json"), TRAIN_DEFAULTS)
        grpo = _resolve_shared(config)[2]
        assert grpo.lambda_div == 0.5


class TestCliErrorSurface:
    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2
        assert "not found" in capsys.readouterr().err

    def test_config_not_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["simulate", "--config", str(bad), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "argv, path",
        [
            (["score", "--query-id", "q", "--embeddings", "nope.jsonl"], "nope.jsonl"),
            (["score", "--query-id", "q", "--embeddings", "subdir"], "subdir"),
            (["score", "--query-id", "q", "--embeddings", "latin1.jsonl"], "latin1.jsonl"),
            (["score", "--query-id", "q", "--embeddings", "emb.jsonl", "--out", "gone/s.json"], "gone/s.json"),
            (["simulate", "--config", "latin1.json", "--out", "run"], "latin1.json"),
            (["select", "--query-id", "q", "--k", "1", "--embeddings", "nope.jsonl", "--out", "gone/s.json"], "gone/s.json"),
            (["eval", "--query-id", "q", "--embeddings", "nope.jsonl", "--out", "gone/e.json"], "gone/e.json"),
        ],
        ids=[
            "missing",
            "directory",
            "embeddings-not-utf8",
            "out-in-missing-dir",
            "config-not-utf8",
            "select-out-before-load",
            "eval-out-before-load",
        ],
    )
    def test_unreadable_file_exits_2_naming_path(self, tmp_path, monkeypatch, capsys, argv, path):
        monkeypatch.chdir(tmp_path)
        from divset import save_embeddings

        save_embeddings(EmbeddingSet([Embedding("q", [1.0, 0.0]), Embedding("a", [0.0, 1.0])]), "emb.jsonl")
        (tmp_path / "subdir").mkdir()
        (tmp_path / "latin1.jsonl").write_bytes(b'{"id": "caf\xe9", "vector": [1.0, 0.0]}\n')
        (tmp_path / "latin1.json").write_bytes(b'{"version": 1, "rollout_mode": "caf\xe9"}\n')
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert path in err
        assert out == ""  # rejected before any work: an --out in a missing directory is checked first
        assert not (tmp_path / "gone").exists() and not (tmp_path / "run").exists()

    def test_select_excludes_query_from_pool(self, tmp_path):
        e = np.eye(3)
        items = [Embedding("query", e[0]), Embedding("a", e[1]), Embedding("b", e[2])]
        path = tmp_path / "emb.jsonl"
        from divset import save_embeddings

        save_embeddings(EmbeddingSet(items), path)
        out = tmp_path / "sel.json"
        assert (
            main(
                [
                    "select",
                    "--embeddings",
                    str(path),
                    "--query-id",
                    "query",
                    "--k",
                    "2",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        assert "query" not in json.loads(out.read_text())["result"]["selected_ids"]

    def test_unnormalized_query_rejected(self, tmp_path, capsys):
        items = [Embedding("query", [2.0, 0.0]), Embedding("a", [0.0, 1.0])]
        path = tmp_path / "emb.jsonl"
        from divset import save_embeddings

        save_embeddings(EmbeddingSet(items), path)
        assert main(["eval", "--embeddings", str(path), "--query-id", "query"]) == 2
        assert "unit-normalized" in capsys.readouterr().err

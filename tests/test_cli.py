"""Command-line surface: reports, exit codes, config validation."""

import json
import math
import warnings

import numpy as np
import pytest

from divset import Embedding, EmbeddingSet, cli, save_embeddings, simulation
from divset.cli import main

LN2 = math.log(2)
LN3 = math.log(3)


@pytest.fixture
def oracle_file(tmp_path):
    """Query plus three orthogonal items and a duplicate of the first."""
    e = np.eye(3)
    q = (e[0] + e[1] + e[2]) / math.sqrt(3)
    items = [
        Embedding("query", q),
        Embedding("a", e[0]),
        Embedding("b", e[1]),
        Embedding("c", e[2]),
        Embedding("d", e[0]),
    ]
    path = tmp_path / "emb.jsonl"
    save_embeddings(EmbeddingSet(items), path)
    return path


class TestScore:
    def test_query_as_candidate_with_empty_refs(self, oracle_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            [
                "score",
                "--embeddings",
                str(oracle_file),
                "--query-id",
                "query",
                "--lambda-div",
                "0",
                "--lambda-rel",
                "1",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        by_id = {row["id"]: row for row in report["candidates"]}
        assert by_id["query"]["composite"] == pytest.approx(1.0, abs=1e-12)
        assert "query" in capsys.readouterr().out

    def test_duplicate_of_ref_scores_diminished_gain(self, oracle_file, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            [
                "score",
                "--embeddings",
                str(oracle_file),
                "--query-id",
                "query",
                "--ref-id",
                "a",
                "--lambda-div",
                "1",
                "--lambda-rel",
                "0",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        by_id = {row["id"]: row for row in json.loads(out.read_text())["candidates"]}
        assert by_id["d"]["composite"] == pytest.approx(LN3 - LN2, abs=1e-9)
        assert "a" not in by_id  # reference members are not scored

    def test_repeated_ref_id_exits_2_naming_the_flag(self, oracle_file, capsys, monkeypatch):
        monkeypatch.setattr(cli, "load_embeddings", lambda path: pytest.fail("loaded the embeddings"))
        argv = ["score", "--embeddings", str(oracle_file), "--query-id", "query", "--ref-id", "a", "--ref-id", "a"]
        assert main(argv) == 2
        assert "--ref-id 'a' is given more than once" in capsys.readouterr().err

    def test_unknown_id_exits_2(self, oracle_file, capsys):
        code = main(["score", "--embeddings", str(oracle_file), "--query-id", "missing"])
        assert code == 2
        assert "missing" in capsys.readouterr().err

    def test_malformed_vector_exits_2(self, tmp_path, capsys):
        path = tmp_path / "emb.jsonl"
        path.write_text('{"id": "query", "vector": [1.0, 0.0]}\n{"id": "b", "vector": "ab"}\n')
        assert main(["score", "--embeddings", str(path), "--query-id", "query"]) == 2
        assert "'b'" in capsys.readouterr().err


WEIGHTED_COMMANDS = {
    "score": ["score"],
    "select-greedy": ["select", "--k", "2", "--mode", "greedy"],
    "select-bruteforce": ["select", "--k", "2", "--mode", "bruteforce"],
}


@pytest.mark.parametrize("command", WEIGHTED_COMMANDS)
@pytest.mark.parametrize("flag", ["--lambda-div", "--lambda-rel"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_weight_exits_2(oracle_file, tmp_path, capsys, command, flag, value):
    out = tmp_path / "report.json"
    argv = [*WEIGHTED_COMMANDS[command], "--embeddings", str(oracle_file), "--query-id", "query"]
    assert main([*argv, flag, value, "--out", str(out)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", WEIGHTED_COMMANDS)
@pytest.mark.parametrize("value", ["1e200", "1.5e308"])
def test_weights_over_the_sum_bound_exit_2(oracle_file, tmp_path, capsys, command, value):
    out = tmp_path / "report.json"
    argv = [*WEIGHTED_COMMANDS[command], "--embeddings", str(oracle_file), "--query-id", "query"]
    assert main([*argv, "--lambda-div", value, "--lambda-rel", value, "--out", str(out)]) == 2
    assert "lambda_div and lambda_rel must sum to at most 1e+100" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["score"], ["select", "--k", "1"], ["eval"]], ids=lambda argv: argv[0])
@pytest.mark.parametrize("bad", ["a", "query"])
def test_overflowing_norm_prints_only_the_error(tmp_path, capsys, argv, bad):
    vectors = {"query": [1.0, 0.0], "a": [0.0, 1.0], bad: [1e200, 0.0]}
    path = tmp_path / "emb.jsonl"
    path.write_text("".join(json.dumps({"id": id_, "vector": v}) + "\n" for id_, v in vectors.items()))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([*argv, "--embeddings", str(path), "--query-id", "query"]) == 2
    assert caught == []
    assert capsys.readouterr().err == f"error: embedding {bad!r} is not unit-normalized (norm inf)\n"


class TestSelect:
    def test_greedy_matches_bruteforce_on_oracle_pool(self, oracle_file, tmp_path):
        greedy_out = tmp_path / "greedy.json"
        brute_out = tmp_path / "brute.json"
        assert (
            main(
                [
                    "select",
                    "--embeddings",
                    str(oracle_file),
                    "--query-id",
                    "query",
                    "--k",
                    "3",
                    "--mode",
                    "greedy",
                    "--lambda-div",
                    "1",
                    "--lambda-rel",
                    "0",
                    "--out",
                    str(greedy_out),
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "select",
                    "--embeddings",
                    str(oracle_file),
                    "--query-id",
                    "query",
                    "--k",
                    "3",
                    "--mode",
                    "bruteforce",
                    "--out",
                    str(brute_out),
                ]
            )
            == 0
        )
        greedy = json.loads(greedy_out.read_text())["result"]
        brute = json.loads(brute_out.read_text())["result"]
        assert sorted(greedy["selected_ids"]) == ["a", "b", "c"]
        assert sorted(brute["selected_ids"]) == ["a", "b", "c"]
        assert greedy["final_diversity"] == pytest.approx(3 * LN2, abs=1e-9)

    def test_k_zero_rejected(self, oracle_file, capsys, monkeypatch):
        # --k is checked with the weights, before the file is read
        monkeypatch.setattr(cli, "load_embeddings", lambda path: pytest.fail("loaded before checking --k"))
        code = main(
            ["select", "--embeddings", str(oracle_file), "--query-id", "query", "--k", "0"]
        )
        assert code == 2
        assert "--k" in capsys.readouterr().err

    def test_bruteforce_budget_guard(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        items = [Embedding("query", np.eye(4)[0])]
        for i in range(45):
            v = rng.standard_normal(4)
            items.append(Embedding(f"p{i:02d}", v / np.linalg.norm(v)))
        path = tmp_path / "big.jsonl"
        save_embeddings(EmbeddingSet(items), path)
        code = main(
            [
                "select",
                "--embeddings",
                str(path),
                "--query-id",
                "query",
                "--k",
                "12",
                "--mode",
                "bruteforce",
            ]
        )
        assert code == 2
        assert str(math.comb(45, 12)) in capsys.readouterr().err


class TestEval:
    def test_metrics_of_orthogonal_set(self, oracle_file, tmp_path):
        out = tmp_path / "metrics.json"
        code = main(
            ["eval", "--embeddings", str(oracle_file), "--query-id", "query", "--out", str(out)]
        )
        assert code == 0
        metrics = json.loads(out.read_text())["metrics"]
        assert metrics["n"] == 4
        # 3 orthogonal items plus one duplicate: spectrum {2, 1, 1, 0} / 4
        expected = float(np.exp(-(np.array([0.5, 0.25, 0.25]) * np.log([0.5, 0.25, 0.25])).sum()))
        assert metrics["vendi"] == pytest.approx(expected, abs=1e-9)

    def test_boolean_vector_entries_exit_2_naming_line(self, tmp_path, capsys):
        # JSON true/false are not numbers, though numpy would read them as 1/0
        path = tmp_path / "emb.jsonl"
        path.write_text('{"id": "a", "vector": [0.0, 1.0]}\n{"id": "q", "vector": [true, false]}\n')
        assert main(["eval", "--embeddings", str(path), "--query-id", "q"]) == 2
        assert "line 2: 'vector' must hold numbers, not booleans" in capsys.readouterr().err

    def test_top_m_out_of_range_exits_2(self, oracle_file):
        assert (
            main(
                [
                    "eval",
                    "--embeddings",
                    str(oracle_file),
                    "--query-id",
                    "query",
                    "--top-m",
                    "9",
                ]
            )
            == 2
        )


SMALL_CONFIG = {
    "version": 1,
    "world": {"n_modes": 3, "n_candidates": 12, "dim": 8, "sigma": 0.1, "seed": 5},
    "grpo": {"iterations": 40},
    "arms": [
        {"name": "composite", "lambda_div": 0.5, "lambda_rel": 0.5},
        {"name": "relevance-only", "lambda_div": 0.0, "lambda_rel": 1.0},
    ],
    "k": 3,
    "seeds": [0, 1],
}


class TestSimulate:
    def test_runs_and_writes_artifacts(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(SMALL_CONFIG))
        out = tmp_path / "run"
        csv_path = tmp_path / "table.csv"
        code = main(
            ["simulate", "--config", str(config), "--out", str(out), "--csv", str(csv_path)]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert {arm["name"] for arm in report["arms"]} == {"composite", "relevance-only"}
        assert report["config"]["seeds"] == [0, 1]
        assert (out / "config.json").exists()
        assert len((out / "runs.jsonl").read_text().splitlines()) == 4
        header = csv_path.read_text().splitlines()[0]
        assert header.startswith("arm,")

    def test_trains_every_run_in_one_batch(self, tmp_path, monkeypatch):
        batches = []
        real = simulation.train_batch

        def recording(configs, task):
            batches.append(len(configs))
            return real(configs, task)

        monkeypatch.setattr(simulation, "train_batch", recording)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(SMALL_CONFIG))
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "run")]) == 0
        assert batches == [len(SMALL_CONFIG["arms"]) * len(SMALL_CONFIG["seeds"])]

    def test_identical_runs_byte_identical(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(SMALL_CONFIG))
        outs = []
        for name in ("run1", "run2"):
            out = tmp_path / name
            assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
            outs.append(out)
        for artifact in ("report.json", "config.json", "runs.jsonl"):
            assert (outs[0] / artifact).read_bytes() == (outs[1] / artifact).read_bytes()

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**SMALL_CONFIG, "lamda_div": 0.4}))
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "x")]) == 2
        assert "lamda_div" in capsys.readouterr().err

    def test_bad_epsilon_rejected_with_constraint(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**SMALL_CONFIG, "grpo": {"clip_epsilon": 1.5}}))
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "x")]) == 2
        assert "(0, 1)" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["learning_rate", "kl_beta", "lambda_div"])
    def test_nan_grpo_value_rejected(self, tmp_path, capsys, key):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**SMALL_CONFIG, "grpo": {key: math.nan}}))
        out = tmp_path / "x"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "override, field",
        [
            ({"k": 2.5}, "k"),
            ({"k": "3"}, "k"),
            ({"k": True}, "k"),
            ({"grpo": {"learning_rate": "x"}}, "learning_rate"),
            ({"grpo": {"lambda_div": True}}, "lambda_div"),
            ({"world": {"sigma": "x"}}, "sigma"),
            ({"world": {"n_modes": 2.5}}, "n_modes"),
            ({"world": {"seed": "x"}}, "seed"),
            ({"seeds": [0, "a"]}, "seed"),
            ({"seeds": "01"}, "seeds"),
            ({"arms": [{"name": "a", "lambda_div": "a", "lambda_rel": 0.5}, SMALL_CONFIG["arms"][1]]}, "lambda_div"),
            ({"world": 5}, "world"),
            ({"world": []}, "world"),
            ({"grpo": []}, "grpo"),
            ({"grpo": "seed"}, "grpo"),
            ({"world": {"seed": -1}}, "seed"),
            ({"seeds": [-1]}, "seed"),
            ({"grpo": {"seed": -1}}, "seed"),
            ({"arms": [{"name": ["x"], "lambda_div": 0.5, "lambda_rel": 0.5}, SMALL_CONFIG["arms"][1]]}, "name"),
            ({"arms": [{"name": 5, "lambda_div": 0.5, "lambda_rel": 0.5}, SMALL_CONFIG["arms"][1]]}, "name"),
            ({"version": True}, "version"),
            ({"version": 1.0}, "version"),
        ],
        ids=str,
    )
    def test_wrong_type_exits_2_naming_field(self, tmp_path, capsys, override, field):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**SMALL_CONFIG, **override}))
        out = tmp_path / "x"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 2
        assert f"{field} must be" in capsys.readouterr().err.replace('"', "")
        assert not out.exists()

    def test_runs_log_refuses_nan(self, tmp_path, monkeypatch):
        real = cli.run_experiment

        def with_nan(*args, **kwargs):
            result = real(*args, **kwargs)
            result.arms[0].runs[0].vendi = math.nan
            return result

        monkeypatch.setattr(cli, "run_experiment", with_nan)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(SMALL_CONFIG))
        out = tmp_path / "run"
        with pytest.raises(ValueError, match="JSON compliant"):
            main(["simulate", "--config", str(config), "--out", str(out)])
        assert "NaN" not in (out / "runs.jsonl").read_text()
        assert not (out / "report.json").exists()

    def test_report_refuses_nan(self, tmp_path):
        with pytest.raises(ValueError, match="JSON compliant"):
            cli._write_json({"vendi": math.nan}, tmp_path / "report.json")

    def test_missing_version_rejected(self, tmp_path):
        config = tmp_path / "config.json"
        body = {k: v for k, v in SMALL_CONFIG.items() if k != "version"}
        config.write_text(json.dumps(body))
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "x")]) == 2

    def test_lambda_ablation_preset(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**SMALL_CONFIG, "arms": "lambda-ablation"}))
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert [arm["name"] for arm in report["arms"]] == [
            "div0.9-rel0.1",
            "div0.5-rel0.5",
            "div0.1-rel0.9",
        ]

    def test_inputs_never_mutated(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(SMALL_CONFIG))
        before = config.read_bytes()
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "run")]) == 0
        assert config.read_bytes() == before


@pytest.mark.parametrize("command", ["train", "simulate"])
@pytest.mark.parametrize("literal", ["NaN", "Infinity"])
def test_non_finite_sigma_exits_2_naming_sigma(tmp_path, capsys, command, literal):
    body = {"version": 1, "world": {**SMALL_CONFIG["world"], "sigma": "SIGMA"}, "grpo": {"iterations": 2}}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(body).replace('"SIGMA"', literal))
    out = tmp_path / "run"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, "--config", str(config), "--out", str(out)]) == 2
    assert caught == []
    assert "sigma must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, trainer", [("train", "train"), ("simulate", "run_experiment")])
@pytest.mark.parametrize("value", [1e200, 1.5e308])
def test_weights_over_the_sum_bound_rejected_before_training(tmp_path, capsys, monkeypatch, command, trainer, value):
    monkeypatch.setattr(cli, trainer, lambda *a, **kw: pytest.fail("trained"))
    weights = {"lambda_div": value, "lambda_rel": value}
    section = {"grpo": weights} if command == "train" else {"arms": [weights]}
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"version": 1, "world": SMALL_CONFIG["world"], "k": 3, **section}))
    out = tmp_path / "run"
    assert main([command, "--config", str(config), "--out", str(out)]) == 2
    assert "lambda_div and lambda_rel must sum to at most 1e+100" in capsys.readouterr().err
    assert not out.exists()


class TestOutputPaths:
    """Output paths are checked before any work: none may name an input
    file, and train and simulate check theirs before they train."""

    @pytest.mark.parametrize(
        "argv",
        [["score"], ["select", "--k", "1"], ["eval"]],
        ids=lambda argv: argv[0],
    )
    def test_out_may_not_name_the_embeddings_file(self, oracle_file, capsys, monkeypatch, argv):
        monkeypatch.chdir(oracle_file.parent)
        before = oracle_file.read_bytes()
        # the same file under a relative and an absolute spelling
        code = main([*argv, "--embeddings", str(oracle_file), "--query-id", "query", "--out", oracle_file.name])
        assert code == 2
        out, err = capsys.readouterr()
        assert oracle_file.name in err and "input file" in err
        assert out == ""
        assert oracle_file.read_bytes() == before

    def test_csv_may_not_name_the_config_file(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_experiment", lambda *a, **kw: pytest.fail("ran the experiment"))
        config = tmp_path / "config.json"
        config.write_text(json.dumps(SMALL_CONFIG))
        before = config.read_bytes()
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "run"), "--csv", str(config)]) == 2
        assert f"cannot write {config}" in capsys.readouterr().err
        assert config.read_bytes() == before
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "command, trainer, artifact",
        [
            ("train", "train", "config.json"),
            ("train", "train", "training_log.jsonl"),
            ("train", "train", "report.json"),
            ("simulate", "run_experiment", "config.json"),
            ("simulate", "run_experiment", "runs.jsonl"),
            ("simulate", "run_experiment", "report.json"),
        ],
    )
    def test_artifact_may_not_overwrite_the_config_file(
        self, tmp_path, capsys, monkeypatch, command, trainer, artifact
    ):
        monkeypatch.setattr(cli, trainer, lambda *a, **kw: pytest.fail("trained"))
        monkeypatch.chdir(tmp_path)
        config = tmp_path / artifact
        config.write_text(json.dumps({"version": 1, "world": SMALL_CONFIG["world"], "k": 3}))
        before = config.read_bytes()
        # the same file under a relative and an absolute spelling
        assert main([command, "--config", str(config), "--out", "."]) == 2
        assert f"cannot write {artifact}: it is the input file {config}" in capsys.readouterr().err
        assert config.read_bytes() == before

    def test_csv_may_not_overwrite_an_artifact(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_experiment", lambda *a, **kw: pytest.fail("ran the experiment"))
        config = tmp_path / "config.json"
        config.write_text(json.dumps(SMALL_CONFIG))
        out = tmp_path / "run"
        csv_path = out / "report.json"
        assert main(["simulate", "--config", str(config), "--out", str(out), "--csv", str(csv_path)]) == 2
        assert f"cannot write {csv_path}: it is the artifact {csv_path}" in capsys.readouterr().err
        assert not out.exists()

    def test_csv_inside_an_artifact_rejected_before_training(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_experiment", lambda *a, **kw: pytest.fail("ran the experiment"))
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(SMALL_CONFIG))
        argv = ["simulate", "--config", str(config), "--out", "R", "--csv", "R/report.json/t.csv"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "cannot write R/report.json/t.csv: it is the artifact R/report.json or lies inside it" in err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("command, trainer", [("train", "train"), ("simulate", "run_experiment")])
    def test_artifact_naming_a_directory_rejected_before_training(
        self, tmp_path, capsys, monkeypatch, command, trainer
    ):
        monkeypatch.setattr(cli, trainer, lambda *a, **kw: pytest.fail("trained"))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"version": 1, "world": SMALL_CONFIG["world"], "k": 3}))
        (tmp_path / "run" / "report.json").mkdir(parents=True)
        assert main([command, "--config", str(config), "--out", str(tmp_path / "run")]) == 2
        assert f"cannot write {tmp_path / 'run' / 'report.json'}: it is a directory" in capsys.readouterr().err

    def test_csv_under_a_file_rejected_before_training(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_experiment", lambda *a, **kw: pytest.fail("ran the experiment"))
        config = tmp_path / "config.json"
        config.write_text(json.dumps(SMALL_CONFIG))
        blocker = tmp_path / "taken"
        blocker.write_text("not a directory")
        csv_path = blocker / "sub" / "table.csv"
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "run"), "--csv", str(csv_path)]) == 2
        assert f"cannot write {csv_path}: {blocker} is not a directory" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("out, csv_path", [("R", "R"), ("T/sub", "T")])
    def test_csv_naming_out_or_a_parent_rejected_before_training(self, tmp_path, capsys, monkeypatch, out, csv_path):
        monkeypatch.setattr(cli, "run_experiment", lambda *a, **kw: pytest.fail("ran the experiment"))
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(SMALL_CONFIG))
        assert main(["simulate", "--config", str(config), "--out", out, "--csv", csv_path]) == 2
        err = capsys.readouterr().err
        assert f"cannot write {csv_path}: it is the --out directory {out} or one of its parents" in err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_csv_directory_made_like_out(self, tmp_path, monkeypatch):
        # the README's --out runs/sim --csv runs/sim.csv on a checkout with no runs/
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(SMALL_CONFIG))
        argv = ["simulate", "--config", str(config), "--out", "runs/sim", "--csv", "runs/sim.csv"]
        assert main(argv) == 0
        assert (tmp_path / "runs" / "sim" / "report.json").is_file()
        assert (tmp_path / "runs" / "sim.csv").read_text().startswith("arm,")

    def test_csv_naming_a_directory_rejected_before_training(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_experiment", lambda *a, **kw: pytest.fail("ran the experiment"))
        config = tmp_path / "config.json"
        config.write_text(json.dumps(SMALL_CONFIG))
        argv = ["simulate", "--config", str(config), "--out", str(tmp_path / "run"), "--csv", str(tmp_path)]
        assert main(argv) == 2
        assert f"cannot write {tmp_path}: it is a directory" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["score"], ["select", "--k", "1"], ["eval"]],
        ids=lambda argv: argv[0],
    )
    def test_out_naming_a_directory_rejected_before_the_load(self, oracle_file, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.setattr(cli, "load_embeddings", lambda path: pytest.fail("loaded the embeddings"))
        code = main([*argv, "--embeddings", str(oracle_file), "--query-id", "query", "--out", str(tmp_path)])
        assert code == 2
        assert f"cannot write {tmp_path}: it is a directory" in capsys.readouterr().err

    @pytest.mark.parametrize("command, trainer", [("train", "train"), ("simulate", "run_experiment")])
    @pytest.mark.parametrize("under", ["", "sub"], ids=["file", "under-file"])
    def test_out_naming_a_file_rejected_before_training(self, tmp_path, capsys, monkeypatch, command, trainer, under):
        monkeypatch.setattr(cli, trainer, lambda *a, **kw: pytest.fail("trained"))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"version": 1, "world": SMALL_CONFIG["world"], "k": 3}))
        blocker = tmp_path / "taken"
        blocker.write_text("not a directory")
        assert main([command, "--config", str(config), "--out", str(blocker / under)]) == 2
        assert f"{blocker} is not a directory" in capsys.readouterr().err
        assert blocker.read_text() == "not a directory"


class TestTrainCommand:
    @pytest.mark.parametrize(
        "override, field",
        [
            ({"grpo": {"iterations": 2, "seed": -1}}, "seed"),
            ({"rollout_mode": "beam"}, "rollout_mode"),
            ({"k": 13}, "k"),
            ({"version": True}, "version"),
            ({"version": 1.0}, "version"),
        ],
        ids=str,
    )
    def test_rejected_before_training(self, tmp_path, capsys, monkeypatch, override, field):
        monkeypatch.setattr(cli, "train", lambda *args: pytest.fail("trained on a rejected config"))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"version": 1, "world": SMALL_CONFIG["world"], "k": 3, **override}))
        out = tmp_path / "run"
        assert main(["train", "--config", str(config), "--out", str(out)]) == 2
        assert f"{field} must" in capsys.readouterr().err
        assert not out.exists()

    def test_non_integer_k_exits_2(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"version": 1, "grpo": {"iterations": 2}, "k": 2.5}))
        assert main(["train", "--config", str(config), "--out", str(tmp_path / "run")]) == 2
        assert "k must be an integer" in capsys.readouterr().err

    def test_writes_artifacts(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "version": 1,
                    "world": {"n_modes": 3, "n_candidates": 12, "dim": 8, "sigma": 0.1, "seed": 5},
                    "grpo": {"iterations": 30, "seed": 4},
                    "k": 3,
                }
            )
        )
        out = tmp_path / "run"
        assert main(["train", "--config", str(config), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["policy"]["bias"]) == 12
        assert len(report["rollout"]["selected_ids"]) == 3
        log_lines = (out / "training_log.jsonl").read_text().splitlines()
        assert len(log_lines) == 30
        first = json.loads(log_lines[0])
        assert set(first) == {"iteration", "objective", "mean_reward", "kl", "policy_entropy"}

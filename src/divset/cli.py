"""Command-line interface: score, select, train, simulate, eval.

Reports embed the fully resolved configuration and seeds, so every number
in a report can be reproduced from the report alone. Re-running a command
with identical inputs produces byte-identical artifacts; input files are
never modified. Exit codes: 0 success, 2 validation failure, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

from .embeddings import Embedding, EmbeddingSet, load_embeddings
from .errors import NumericalError, ValidationError, check_number
from .grpo import GrpoConfig, save_training_log, train
from .kernel import require_unit
from .metrics import metric_report
from .rewards import (
    DEFAULT_LAMBDA_DIV,
    DEFAULT_LAMBDA_REL,
    LAMBDA_ABLATION_GRID,
    ReferenceSet,
    check_weights,
    composite_reward,
)
from .rollout import brute_force_select, greedy_select, rollout_policy
from .simulation import (
    DEFAULT_K,
    DEFAULT_ROLLOUT_MODE,
    DEFAULT_SEEDS,
    DEFAULT_WORLD,
    SimWorld,
    arm_name,
    check_rollout,
    make_world,
    run_experiment,
)

CONFIG_VERSION = 1

# Each command's top-level config keys besides the mandatory "version", with their defaults.
TRAIN_DEFAULTS = {"world": {}, "grpo": {}, "k": DEFAULT_K, "rollout_mode": DEFAULT_ROLLOUT_MODE}
DEFAULT_SIMULATE_ARMS = [
    {"name": "composite", "lambda_div": DEFAULT_LAMBDA_DIV, "lambda_rel": DEFAULT_LAMBDA_REL},
    {"name": "relevance-only", "lambda_div": 0.0, "lambda_rel": 1.0},
]
SIMULATE_DEFAULTS = {**TRAIN_DEFAULTS, "arms": DEFAULT_SIMULATE_ARMS, "seeds": DEFAULT_SEEDS}


def _section(value, keys, name: str) -> dict:
    """``value`` if it is an object using only ``keys``, else raise naming the section."""
    if not isinstance(value, dict):
        raise ValidationError(f"{name} must be an object, got {value!r}")
    unknown = sorted(set(value) - set(keys))
    if unknown:
        raise ValidationError(f"unknown {name} key(s): {', '.join(unknown)}")
    return value


def _load_config(path: str | None, defaults: dict) -> dict:
    """The config file at ``path`` (none: an empty config) over the command's ``defaults``."""
    config = {"version": CONFIG_VERSION}
    if path:
        try:
            with open(path, encoding="utf-8") as fh:
                config = json.load(fh)
        except FileNotFoundError as exc:
            raise ValidationError(f"config file not found: {path}") from exc
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValidationError(f"config file {path} is not valid JSON: {exc}") from exc
    _section(config, [*defaults, "version"], "config")
    if config.get("version") != CONFIG_VERSION:
        raise ValidationError(
            f"config must declare \"version\": {CONFIG_VERSION}, got {config.get('version')!r}"
        )
    return {**defaults, **config, "version": CONFIG_VERSION}


def _resolve_shared(config: dict) -> tuple[dict, SimWorld, GrpoConfig, int]:
    """World parameters, world, GRPO config and k: the keys train and simulate share."""
    world_params = {**DEFAULT_WORLD, **_section(config["world"], DEFAULT_WORLD, "world")}
    grpo = GrpoConfig(**_section(config["grpo"], [f.name for f in fields(GrpoConfig)], "grpo"))
    k = check_number("k", config["k"], integer=True)
    return world_params, make_world(**world_params), grpo, k


def _resolve_arms(arms, grpo: GrpoConfig) -> tuple[list[str], list[GrpoConfig]]:
    if arms == "lambda-ablation":
        arms = [{"lambda_div": ld, "lambda_rel": lr} for ld, lr in LAMBDA_ABLATION_GRID]
    if not isinstance(arms, list):
        raise ValidationError('config "arms" must be a list or the preset "lambda-ablation"')
    names, configs = [], []
    for i, arm in enumerate(arms):
        _section(arm, ("name", "lambda_div", "lambda_rel"), f"arm {i}")
        if "lambda_div" not in arm or "lambda_rel" not in arm:
            raise ValidationError(f"arm {i} must set lambda_div and lambda_rel")
        config = replace(grpo, lambda_div=arm["lambda_div"], lambda_rel=arm["lambda_rel"])
        name = arm.get("name", arm_name(config))
        if not isinstance(name, str):
            raise ValidationError(f"arm {i} name must be a string, got {name!r}")
        names.append(name)
        configs.append(config)
    return names, configs


def _write_json(obj, path: Path) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n", encoding="utf-8")


def _load_query(embeddings: EmbeddingSet, query_id: str) -> Embedding:
    query = embeddings.get(query_id)
    require_unit(query)
    return query


def cmd_score(args) -> int:
    check_weights(args.lambda_div, args.lambda_rel)
    embeddings = load_embeddings(args.embeddings)
    query = _load_query(embeddings, args.query_id)
    ref_ids = args.ref_id or []
    members = EmbeddingSet([embeddings.get(rid) for rid in ref_ids])
    ref = ReferenceSet(members, query)
    excluded = set(ref_ids)
    rows = []
    for item in embeddings:
        if item.id in excluded:
            continue
        breakdown = composite_reward(item, ref, args.lambda_div, args.lambda_rel)
        rows.append({"id": item.id, **breakdown.to_dict()})
        print(
            f"{item.id}\tcomposite={breakdown.composite:.8f}\t"
            f"diversity_gain={breakdown.diversity_gain:.8f}\trelevance={breakdown.relevance:.8f}"
        )
    report = {
        "command": "score",
        "config": {
            "embeddings": str(args.embeddings),
            "query_id": args.query_id,
            "ref_ids": ref_ids,
            "lambda_div": args.lambda_div,
            "lambda_rel": args.lambda_rel,
        },
        "candidates": rows,
    }
    if args.out:
        _write_json(report, Path(args.out))
    return 0


def cmd_select(args) -> int:
    check_weights(args.lambda_div, args.lambda_rel)
    embeddings = load_embeddings(args.embeddings)
    query = _load_query(embeddings, args.query_id)
    if args.k < 1:
        raise ValidationError(f"--k must be at least 1, got {args.k}")
    pool = EmbeddingSet([item for item in embeddings if item.id != args.query_id])
    if args.mode == "greedy":
        result = greedy_select(pool, query, args.k, args.lambda_div, args.lambda_rel).to_report()
    else:
        subset, score = brute_force_select(pool, args.k)
        result = {"selected_ids": subset.ids(), "final_diversity": score}
    report = {
        "command": "select",
        "config": {
            "embeddings": str(args.embeddings),
            "query_id": args.query_id,
            "k": args.k,
            "mode": args.mode,
            "lambda_div": args.lambda_div,
            "lambda_rel": args.lambda_rel,
        },
        "result": result,
    }
    print(f"selected: {' '.join(result['selected_ids'])}")
    print(f"final_diversity: {result['final_diversity']:.8f}")
    if args.out:
        _write_json(report, Path(args.out))
    return 0


def cmd_train(args) -> int:
    config = _load_config(args.config, TRAIN_DEFAULTS)
    world_params, world, grpo, k = _resolve_shared(config)
    rollout_mode = config["rollout_mode"]
    check_rollout(world, k, rollout_mode)
    policy, records = train(grpo, world)
    rollout = rollout_policy(
        policy,
        world.query,
        k,
        mode=rollout_mode,
        seed=grpo.seed,
        lambda_div=grpo.lambda_div,
        lambda_rel=grpo.lambda_rel,
    )
    evaluation = metric_report(rollout.selected, world.query)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    resolved = {**config, "world": world_params, "grpo": grpo.to_dict(), "k": k}
    _write_json(resolved, out / "config.json")
    save_training_log(records, out / "training_log.jsonl")
    _write_json(
        {
            "command": "train",
            "config": resolved,
            "policy": {"theta": policy.theta.tolist(), "bias": policy.bias.tolist()},
            "rollout": rollout.to_report(),
            "metrics": evaluation.to_dict(),
            "final_mean_reward": records[-1]["mean_reward"] if records else None,
        },
        out / "report.json",
    )
    print(f"trained {grpo.iterations} iterations; selected: {' '.join(rollout.selected.ids())}")
    print(f"artifacts written to {out}")
    return 0


def cmd_simulate(args) -> int:
    config = _load_config(args.config, SIMULATE_DEFAULTS)
    world_params, world, grpo, k = _resolve_shared(config)
    names, arms = _resolve_arms(config["arms"], grpo)
    seeds = config["seeds"]
    if not isinstance(seeds, list):
        raise ValidationError(f'config "seeds" must be a list of integers, got {seeds!r}')
    rollout_mode = config["rollout_mode"]

    result = run_experiment(world, arms, k=k, seeds=seeds, rollout_mode=rollout_mode, arm_names=names)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    resolved = {
        **config,
        "world": world_params,
        "arms": [
            {"name": name, "lambda_div": arm.lambda_div, "lambda_rel": arm.lambda_rel}
            for name, arm in zip(names, arms)
        ],
        "k": k,
    }
    _write_json(resolved, out / "config.json")
    with open(out / "runs.jsonl", "w", encoding="utf-8") as fh:
        for arm_result in result.arms:
            for run in arm_result.runs:
                record = {"arm": arm_result.name, **run.to_dict()}
                fh.write(json.dumps(record, sort_keys=True, allow_nan=False) + "\n")
    _write_json({"command": "simulate", "config": resolved, **result.to_report()}, out / "report.json")
    if args.csv:
        rows = result.csv_rows()
        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
    for arm_result in result.arms:
        means = {m: round(arm_result.metric_mean(m), 4) for m in ("mode_coverage", "vendi", "mean_alignment")}
        print(f"{arm_result.name}: {means}")
    print(f"artifacts written to {out}")
    return 0


def cmd_eval(args) -> int:
    embeddings = load_embeddings(args.embeddings)
    query = _load_query(embeddings, args.query_id)
    items = EmbeddingSet([item for item in embeddings if item.id != args.query_id])
    report = metric_report(items, query, args.top_m)
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    if args.out:
        _write_json(
            {
                "command": "eval",
                "config": {
                    "embeddings": str(args.embeddings),
                    "query_id": args.query_id,
                    "top_m": args.top_m,
                },
                "metrics": report.to_dict(),
            },
            Path(args.out),
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="divset",
        description="Diversity-aware set selection and policy optimization over embeddings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    score = sub.add_parser("score", help="composite reward for every non-reference candidate")
    score.add_argument("--embeddings", required=True)
    score.add_argument("--query-id", required=True)
    score.add_argument("--ref-id", action="append", help="reference member id (repeatable)")
    score.add_argument("--lambda-div", type=float, default=DEFAULT_LAMBDA_DIV)
    score.add_argument("--lambda-rel", type=float, default=DEFAULT_LAMBDA_REL)
    score.add_argument("--out")
    score.set_defaults(func=cmd_score)

    select = sub.add_parser("select", help="greedy or exhaustive diverse subset selection")
    select.add_argument("--embeddings", required=True)
    select.add_argument("--query-id", required=True)
    select.add_argument("--k", type=int, required=True)
    select.add_argument("--mode", choices=("greedy", "bruteforce"), default="greedy")
    select.add_argument("--lambda-div", type=float, default=DEFAULT_LAMBDA_DIV)
    select.add_argument("--lambda-rel", type=float, default=DEFAULT_LAMBDA_REL)
    select.add_argument("--out")
    select.set_defaults(func=cmd_select)

    train_cmd = sub.add_parser("train", help="train a policy on a simulated world")
    train_cmd.add_argument("--config", required=True)
    train_cmd.add_argument("--out", required=True)
    train_cmd.set_defaults(func=cmd_train)

    simulate = sub.add_parser("simulate", help="multi-arm training and evaluation experiment")
    simulate.add_argument("--config", help="JSON config; defaults apply when omitted")
    simulate.add_argument("--out", required=True)
    simulate.add_argument("--csv", help="also write an arm-by-metric CSV table")
    simulate.set_defaults(func=cmd_simulate)

    eval_cmd = sub.add_parser("eval", help="diversity and alignment metrics for an embedding file")
    eval_cmd.add_argument("--embeddings", required=True)
    eval_cmd.add_argument("--query-id", required=True)
    eval_cmd.add_argument("--top-m", type=int)
    eval_cmd.add_argument("--out")
    eval_cmd.set_defaults(func=cmd_eval)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:
        # the config reader handles its own; this is the --embeddings file
        print(f"error: {args.embeddings} is not UTF-8 text: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

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
from itertools import compress
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .embeddings import Embedding, EmbeddingSet, load_embeddings
from .errors import NumericalError, ValidationError, check_number
from .grpo import GrpoConfig, train
from .kernel import require_unit, require_unit_rows
from .metrics import metric_report
from .rewards import (
    DEFAULT_LAMBDA_DIV,
    DEFAULT_LAMBDA_REL,
    LAMBDA_ABLATION_GRID,
    ReferenceSet,
    check_weights,
)
# unused here, kept for the trace target divset.cli.composite_reward in bench/spans.py
from .rewards import composite_reward  # noqa: F401
from .rollout import DEFAULT_ROLLOUT_MODE, brute_force_select, check_rollout, greedy_select, rollout_policy
from .simulation import (
    DEFAULT_K,
    DEFAULT_SEEDS,
    DEFAULT_WORLD,
    METRIC_NAMES,
    SimWorld,
    arm_name,
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
# The grpo fields simulate sets per run, each from the config key named.
SIMULATE_PER_RUN = {"seed": "seeds", "lambda_div": "arms", "lambda_rel": "arms"}


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
    version = config.get("version")
    if type(version) is not int or version != CONFIG_VERSION:  # true and 1.0 are not the integer 1
        raise ValidationError(f"config version must be the integer {CONFIG_VERSION}, got {version!r}")
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


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _write_json(obj, path: Path) -> None:
    path.write_text(_json_text(obj), encoding="utf-8")


def _write_jsonl(records, path: Path) -> None:
    """Write records as JSON Lines as they come, so a record that fails leaves only the ones before it."""
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True, allow_nan=False) + "\n")


def _report(args, **parts) -> dict:
    """A command's report: ``parts`` and a config echoing every parsed flag but --out,
    unless ``parts`` holds the config (train and simulate give their resolved file)."""
    flags = {key: value for key, value in vars(args).items() if key not in ("command", "func", "out")}
    return {"command": args.command, "config": flags, **parts}


def _out_path(out: str | None, source: str | None, make_parent: bool = False) -> Path | None:
    """An output file, rejected before any work when it names a directory or the
    command's input file ``source``, or when its directory is missing (with
    ``make_parent``, when it cannot be made)."""
    path = Path(out) if out else None
    if path and path.is_dir():
        raise ValidationError(f"cannot write {out}: it is a directory")
    if path and source and path.resolve() == Path(source).resolve():
        raise ValidationError(f"cannot write {out}: it is the input file {source}")
    if path and make_parent:
        _out_dir(path.parent, out)
    elif path and not path.parent.is_dir():
        raise ValidationError(f"cannot write {out}: directory {path.parent} does not exist")
    return path


def _out_dir(path: Path, out: str) -> Path:
    """The directory ``path`` of the output ``out``, made after the work, rejected
    before any work when it, or the nearest of its parents that exists, is not a directory."""
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        raise ValidationError(f"cannot write {out}: {existing} is not a directory")
    return path


def _artifacts(out: str, names: tuple[str, ...], config: str | None, csv_path: Path | None = None) -> list[Path]:
    """The files ``names`` in the output directory ``out``, each checked before any
    work like an output naming the input ``config``; the --csv output may be none of
    them or inside one, nor ``out`` or one of its parents."""
    directory = _out_dir(Path(out), out)
    paths = [_out_path(str(directory / name), config, make_parent=True) for name in names]
    for path in paths:
        if csv_path and path.resolve() in (csv_path.resolve(), *csv_path.resolve().parents):
            raise ValidationError(f"cannot write {csv_path}: it is the artifact {path} or lies inside it")
    if csv_path and csv_path.resolve() in (directory.resolve(), *directory.resolve().parents):
        raise ValidationError(f"cannot write {csv_path}: it is the --out directory {out} or one of its parents")
    return paths


def _load(args) -> tuple[EmbeddingSet, Embedding]:
    """The --embeddings file and its --query-id item, checked to be unit-norm."""
    embeddings = load_embeddings(args.embeddings)
    query = embeddings.get(args.query_id)
    require_unit(query)
    return embeddings, query


def _pool(embeddings: EmbeddingSet, query_id: str) -> EmbeddingSet:
    """Every item but the query, in file order: the eval spectrum depends on row order."""
    return embeddings.take(i for i, id_ in enumerate(embeddings.ids()) if id_ != query_id)


def cmd_score(args) -> int:
    out = _out_path(args.out, args.embeddings)
    check_weights(args.lambda_div, args.lambda_rel)
    for i, ref_id in enumerate(args.ref_ids):
        if ref_id in args.ref_ids[:i]:
            raise ValidationError(f"--ref-id {ref_id!r} is given more than once")
    embeddings, query = _load(args)
    ref_rows = [embeddings.index(rid) for rid in args.ref_ids]
    members = embeddings.take(ref_rows)
    require_unit_rows(embeddings)
    ref = ReferenceSet(members, query)
    # every row is scored, the reference rows too, so the stored matrix is not copied
    values = np.stack(ref.rewards(embeddings.matrix(), args.lambda_div, args.lambda_rel))
    candidates = np.ones(len(embeddings), dtype=bool)
    candidates[ref_rows] = False
    ids = list(compress(embeddings.ids(), candidates.tolist()))
    values = values[:, candidates]
    finite = np.isfinite(values).all(axis=0)
    if not finite.all():
        raise NumericalError(f"candidate {ids[int(np.argmin(finite))]!r} has a non-finite reward")
    gains, rels, composites = values.tolist()
    print(
        "".join(
            f"{id_}\tcomposite={composite:.8f}\tdiversity_gain={gain:.8f}\trelevance={rel:.8f}\n"
            for id_, gain, rel, composite in zip(ids, gains, rels, composites)
        ),
        end="",
    )
    if out:
        out.write_text(_score_report(args, ids, gains, rels, composites), encoding="utf-8")
    return 0


def _score_report(args, ids: list[str], gains: list[float], rels: list[float], composites: list[float]) -> str:
    """The score report, byte for byte as _write_json renders it, its candidate rows
    written from one template: json.dumps writes a finite float with float.__repr__
    and a string with encode_basestring_ascii, its keys sorted, indented by 2."""
    text = _json_text(_report(args, candidates=[]))
    if not ids:
        return text
    row = (
        '    {\n      "composite": %r,\n      "diversity_gain": %r,\n      "id": %s,\n'
        f'      "lambda_div": {args.lambda_div!r},\n      "lambda_rel": {args.lambda_rel!r},\n'
        '      "relevance": %r\n    }'
    )
    rows = ",\n".join([row % values for values in zip(composites, gains, map(encode_basestring_ascii, ids), rels)])
    # "candidates" sorts first, so the report's only bare '"candidates": []' is its key
    return text.replace('"candidates": []', '"candidates": [\n' + rows + "\n  ]", 1)


def cmd_select(args) -> int:
    out = _out_path(args.out, args.embeddings)
    check_weights(args.lambda_div, args.lambda_rel)
    if args.k < 1:
        raise ValidationError(f"--k must be at least 1, got {args.k}")
    embeddings, query = _load(args)
    pool = _pool(embeddings, args.query_id)
    if args.mode == "greedy":
        result = greedy_select(pool, query, args.k, args.lambda_div, args.lambda_rel).to_report()
    else:
        subset, score = brute_force_select(pool, args.k)
        result = {"selected_ids": subset.ids(), "final_diversity": score}
    print(f"selected: {' '.join(result['selected_ids'])}")
    print(f"final_diversity: {result['final_diversity']:.8f}")
    if out:
        _write_json(_report(args, result=result), out)
    return 0


def cmd_train(args) -> int:
    config = _load_config(args.config, TRAIN_DEFAULTS)
    world_params, world, grpo, k = _resolve_shared(config)
    rollout_mode = config["rollout_mode"]
    check_rollout(len(world.vocabulary), k, rollout_mode)
    config_path, log_path, report_path = _artifacts(
        args.out, ("config.json", "training_log.jsonl", "report.json"), args.config
    )
    policy, records = train(grpo, world.training_task())
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

    config_path.parent.mkdir(parents=True, exist_ok=True)
    resolved = {**config, "world": world_params, "grpo": grpo.to_dict(), "k": k}
    _write_json(resolved, config_path)
    _write_jsonl(records, log_path)
    report = _report(
        args,
        config=resolved,
        policy={"theta": policy.theta.tolist(), "bias": policy.bias.tolist()},
        rollout=rollout.to_report(),
        metrics=evaluation.to_dict(),
        final_mean_reward=records[-1]["mean_reward"] if records else None,
    )
    _write_json(report, report_path)
    print(f"trained {grpo.iterations} iterations; selected: {' '.join(rollout.selected.ids())}")
    print(f"artifacts written to {config_path.parent}")
    return 0


def cmd_simulate(args) -> int:
    config = _load_config(args.config, SIMULATE_DEFAULTS)
    world_params, world, grpo, k = _resolve_shared(config)
    for key, source in SIMULATE_PER_RUN.items():
        if key in config["grpo"]:
            raise ValidationError(f'grpo.{key} must be left out of simulate: each run takes it from "{source}"')
    names, arms = _resolve_arms(config["arms"], grpo)
    seeds = config["seeds"]
    if not isinstance(seeds, list):
        raise ValidationError(f'config "seeds" must be a list of integers, got {seeds!r}')
    rollout_mode = config["rollout_mode"]
    csv_path = _out_path(args.csv, args.config, make_parent=True)
    config_path, runs_path, report_path = _artifacts(
        args.out, ("config.json", "runs.jsonl", "report.json"), args.config, csv_path
    )

    result = run_experiment(world, arms, k=k, seeds=seeds, rollout_mode=rollout_mode, arm_names=names)

    config_path.parent.mkdir(parents=True, exist_ok=True)
    resolved = {
        **config,
        "world": world_params,
        "grpo": {key: value for key, value in grpo.to_dict().items() if key not in SIMULATE_PER_RUN},
        "arms": [
            {"name": name, "lambda_div": arm.lambda_div, "lambda_rel": arm.lambda_rel}
            for name, arm in zip(names, arms)
        ],
        "k": k,
    }
    _write_json(resolved, config_path)
    _write_jsonl(({"arm": arm.name, **run.to_dict()} for arm in result.arms for run in arm.runs), runs_path)
    _write_json(_report(args, config=resolved, **result.to_report()), report_path)
    if csv_path:
        csv_path.parent.mkdir(parents=True, exist_ok=True)
        rows = result.csv_rows()
        with open(csv_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
    for arm_result in result.arms:
        means = {m: round(arm_result.metric_mean(m), 4) for m in METRIC_NAMES}
        print(f"{arm_result.name}: {means}")
    print(f"artifacts written to {config_path.parent}")
    return 0


def cmd_eval(args) -> int:
    out = _out_path(args.out, args.embeddings)
    embeddings, query = _load(args)
    report = metric_report(_pool(embeddings, args.query_id), query, args.top_m)
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    if out:
        _write_json(_report(args, metrics=report.to_dict()), out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="divset",
        description="Diversity-aware set selection and policy optimization over embeddings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    embedding_flags = argparse.ArgumentParser(add_help=False)
    embedding_flags.add_argument("--embeddings", required=True)
    embedding_flags.add_argument("--query-id", required=True)
    embedding_flags.add_argument("--out")
    weight_flags = argparse.ArgumentParser(add_help=False)
    weight_flags.add_argument("--lambda-div", type=float, default=DEFAULT_LAMBDA_DIV)
    weight_flags.add_argument("--lambda-rel", type=float, default=DEFAULT_LAMBDA_REL)

    score = sub.add_parser(
        "score", parents=[embedding_flags, weight_flags], help="composite reward for every non-reference candidate"
    )
    score.add_argument(
        "--ref-id", dest="ref_ids", action="append", default=[], help="reference member id (repeatable)"
    )
    score.set_defaults(func=cmd_score)

    select = sub.add_parser(
        "select", parents=[embedding_flags, weight_flags], help="greedy or exhaustive diverse subset selection"
    )
    select.add_argument("--k", type=int, required=True)
    select.add_argument("--mode", choices=("greedy", "bruteforce"), default="greedy")
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

    eval_cmd = sub.add_parser(
        "eval", parents=[embedding_flags], help="diversity and alignment metrics for an embedding file"
    )
    eval_cmd.add_argument("--top-m", type=int)
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

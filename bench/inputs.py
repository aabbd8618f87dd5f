"""Seeded inputs for every benchmark workload.

Everything a workload feeds to ``divset`` (embedding files, simulate
configs, the ids each request names) is derived from the one ``--seed``
argument, so the same seed always gives byte-identical inputs. Inputs are
written as plain files; the program under test only ever sees files and
command-line arguments.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Per-purpose streams of one seed, so that adding a stream never shifts another.
STREAM_POOL, STREAM_REQUESTS, STREAM_WARM, STREAM_SIM = range(4)

# Embedding pools for select/eval/score: clustered unit vectors, as in the
# simulated worlds but at the sizes of a real candidate pool.
POOL_DIM = 64
POOL_MODES = 32
POOL_SIGMA = 0.05
SELECT_POOL_N = 1000
BRUTE_FILE_N = 29  # the query plus a 28-item pool: C(28, 5) = 98,280 subsets
SCORE_POOL_N = 20_000
WARM_POOL_N = 40

GREEDY_K = 16
BRUTE_K = 5
SCORE_REFS = 4

# The simulate world and GRPO settings of configs/simulate-default.json,
# restricted to one training seed per request.
SIM_WORLD = {"n_modes": 6, "n_candidates": 60, "dim": 16, "sigma": 0.1}
SIM_GRPO = {"group_size": 8, "clip_epsilon": 0.2, "kl_beta": 0.04, "learning_rate": 0.01, "iterations": 1200}
SIM_ARMS = [
    {"name": "composite", "lambda_div": 0.5, "lambda_rel": 0.5},
    {"name": "relevance-only", "lambda_div": 0.0, "lambda_rel": 1.0},
]
SIM_K = 8
SIM_WARM_ITERATIONS = 30

# Closed-loop clients cycle through this many distinct requests; more than
# any run sends.
N_REQUESTS = 400
N_SIM_REQUESTS = 64


@dataclass
class Workload:
    """Generated inputs of one workload run."""

    requests: list[list[str]]  # argv of each request, without the output flag
    warmup: list[str]
    out_kind: str  # "file" (--out FILE) or "dir" (--out DIR)
    work_per_request: float
    work_unit: str
    sizes: dict


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream,)))


def clustered_pool(n: int, dim: int, modes: int, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Unit rows scattered around ``modes`` orthonormal centers."""
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    centers = (q * np.sign(np.diagonal(r))).T[:modes]
    rows = centers[np.arange(n) % modes] + sigma * rng.standard_normal((n, dim))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return rows[rng.permutation(n)]


def pool_ids(n: int) -> list[str]:
    return [f"item-{i:05d}" for i in range(n)]


def write_jsonl(path: Path, ids: list[str], rows: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for id_, row in zip(ids, rows):
            fh.write(json.dumps({"id": id_, "vector": row.tolist()}) + "\n")


def _warm_file(seed: int, work: Path) -> Path:
    path = work / "warm.jsonl"
    rows = clustered_pool(WARM_POOL_N, POOL_DIM, POOL_MODES, POOL_SIGMA, _rng(seed, STREAM_WARM))
    write_jsonl(path, pool_ids(WARM_POOL_N), rows)
    return path


def _pool_file(seed: int, work: Path, n: int) -> tuple[Path, list[str]]:
    path = work / f"pool-{n}.jsonl"
    ids = pool_ids(n)
    rows = clustered_pool(n, POOL_DIM, POOL_MODES, POOL_SIGMA, _rng(seed, STREAM_POOL))
    write_jsonl(path, ids, rows)
    return path, ids


def _train_sim(seed: int, work: Path) -> Workload:
    rng = _rng(seed, STREAM_SIM)
    world_seeds = rng.integers(0, 2**31, size=N_SIM_REQUESTS)
    train_seeds = rng.integers(0, 2**31, size=N_SIM_REQUESTS)

    def config(world_seed: int, train_seed: int, iterations: int) -> dict:
        return {
            "version": 1,
            "world": {**SIM_WORLD, "seed": world_seed},
            "grpo": {**SIM_GRPO, "iterations": iterations},
            "arms": SIM_ARMS,
            "k": SIM_K,
            "seeds": [train_seed],
            "rollout_mode": "greedy-prob",
        }

    requests = []
    for i, (ws, ts) in enumerate(zip(world_seeds.tolist(), train_seeds.tolist())):
        path = work / f"sim-{i:03d}.json"
        path.write_text(json.dumps(config(ws, ts, SIM_GRPO["iterations"])), encoding="utf-8")
        requests.append(["simulate", "--config", str(path)])
    warm = work / "sim-warm.json"
    warm.write_text(json.dumps(config(int(world_seeds[0]), 0, SIM_WARM_ITERATIONS)), encoding="utf-8")
    return Workload(
        requests=requests,
        warmup=["simulate", "--config", str(warm), "--out", str(work / "warm-out")],
        out_kind="dir",
        work_per_request=SIM_GRPO["iterations"] * len(SIM_ARMS),
        work_unit="GRPO iterations",
        sizes={
            "n": SIM_WORLD["n_candidates"],
            "d": SIM_WORLD["dim"],
            "modes": SIM_WORLD["n_modes"],
            "k": SIM_K,
            "context_sizes": [0, SIM_WORLD["n_modes"]],
            "group_size": SIM_GRPO["group_size"],
            "iterations": SIM_GRPO["iterations"],
            "arms": len(SIM_ARMS),
            "seeds_per_request": 1,
        },
    )


def _select(seed: int, work: Path, name: str) -> Workload:
    warm = _warm_file(seed, work)
    rng = _rng(seed, STREAM_REQUESTS)
    if name == "select-bruteforce":
        # A sub-file of the seeded pool; each request takes another of its
        # items as the query, so the 28-item pool changes with it.
        ids = pool_ids(SELECT_POOL_N)
        rows = clustered_pool(SELECT_POOL_N, POOL_DIM, POOL_MODES, POOL_SIGMA, _rng(seed, STREAM_POOL))
        keep = np.sort(rng.choice(SELECT_POOL_N, size=BRUTE_FILE_N, replace=False))
        sub = work / "pool-brute.jsonl"
        write_jsonl(sub, [ids[i] for i in keep], rows[keep])
        queries = [ids[i] for i in rng.choice(keep, size=N_REQUESTS)]
        requests = [
            ["select", "--embeddings", str(sub), "--query-id", q, "--k", str(BRUTE_K), "--mode", "bruteforce"]
            for q in queries
        ]
        pool_n = BRUTE_FILE_N - 1
        return Workload(
            requests=requests,
            warmup=["select", "--embeddings", str(warm), "--query-id", "item-00000", "--k", "2",
                    "--mode", "bruteforce", "--out", str(work / "warm-out.json")],
            out_kind="file",
            work_per_request=math.comb(pool_n, BRUTE_K),
            work_unit="subsets scored",
            sizes={"n": pool_n, "d": POOL_DIM, "modes": POOL_MODES, "k": BRUTE_K,
                   "subsets": math.comb(pool_n, BRUTE_K)},
        )

    path, ids = _pool_file(seed, work, SELECT_POOL_N)
    queries = [ids[i] for i in rng.integers(0, SELECT_POOL_N, size=N_REQUESTS)]
    if name == "select-greedy":
        requests = [
            ["select", "--embeddings", str(path), "--query-id", q, "--k", str(GREEDY_K), "--mode", "greedy"]
            for q in queries
        ]
        warmup = ["select", "--embeddings", str(warm), "--query-id", "item-00000", "--k", "4",
                  "--mode", "greedy"]
        work_per_request = (SELECT_POOL_N - 1) * GREEDY_K
        work_unit = "candidate rewards"
        sizes = {"n": SELECT_POOL_N - 1, "d": POOL_DIM, "modes": POOL_MODES, "k": GREEDY_K,
                 "context_sizes": [0, GREEDY_K - 1]}
    else:
        requests = [["eval", "--embeddings", str(path), "--query-id", q] for q in queries]
        warmup = ["eval", "--embeddings", str(warm), "--query-id", "item-00000"]
        work_per_request = SELECT_POOL_N - 1
        work_unit = "items evaluated"
        sizes = {"n": SELECT_POOL_N - 1, "d": POOL_DIM, "modes": POOL_MODES, "top_m": 8}
    return Workload(
        requests=requests,
        warmup=[*warmup, "--out", str(work / "warm-out.json")],
        out_kind="file",
        work_per_request=work_per_request,
        work_unit=work_unit,
        sizes=sizes,
    )


def _score_ingest(seed: int, work: Path) -> Workload:
    warm = _warm_file(seed, work)
    path, ids = _pool_file(seed, work, SCORE_POOL_N)
    rng = _rng(seed, STREAM_REQUESTS)
    requests = []
    for _ in range(N_REQUESTS):
        picks = rng.choice(SCORE_POOL_N, size=1 + SCORE_REFS, replace=False)
        argv = ["score", "--embeddings", str(path), "--query-id", ids[picks[0]]]
        for i in picks[1:]:
            argv += ["--ref-id", ids[i]]
        requests.append(argv)
    return Workload(
        requests=requests,
        warmup=["score", "--embeddings", str(warm), "--query-id", "item-00000", "--ref-id", "item-00001",
                "--out", str(work / "warm-out.json")],
        out_kind="file",
        work_per_request=SCORE_POOL_N - SCORE_REFS,
        work_unit="candidates scored",
        sizes={"n": SCORE_POOL_N, "d": POOL_DIM, "modes": POOL_MODES, "context_sizes": [SCORE_REFS, SCORE_REFS]},
    )


WORKLOADS = ("train-sim", "select-greedy", "select-bruteforce", "select-eval", "score-ingest")


def generate(name: str, seed: int, work: Path) -> Workload:
    """Write the inputs of workload ``name`` for ``seed`` under ``work``."""
    work.mkdir(parents=True, exist_ok=True)
    if name == "train-sim":
        return _train_sim(seed, work)
    if name == "score-ingest":
        return _score_ingest(seed, work)
    return _select(seed, work, name)

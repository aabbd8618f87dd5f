"""Independent numpy oracles for every command the benchmark sends.

Nothing here imports divset: each check recomputes the command's result
from the input file with plain (mostly vectorised) numpy and compares it to
the report the command wrote. ``check`` returns None when the output is
right and a one-line reason when it is not.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from pathlib import Path

import numpy as np

TOL = 1e-9
EIGENVALUE_TOL = 1e-12  # weights at or below this are dropped, as documented for vendi
DEFAULT_TOP_M = 8
LAMBDA_DIV = LAMBDA_REL = 0.5  # the CLI defaults; the benchmark never overrides them


@functools.lru_cache(maxsize=4)
def read_pool(path: str) -> tuple[tuple[str, ...], np.ndarray]:
    ids, rows = [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            ids.append(record["id"])
            rows.append(record["vector"])
    return tuple(ids), np.array(rows)


def _flag(argv: list[str], name: str, many: bool = False):
    values = [argv[i + 1] for i, a in enumerate(argv) if a == name]
    return values if many else (values[0] if values else None)


def _close(a: float, b: float, what: str, rel: bool = False) -> str | None:
    scale = max(1.0, abs(b)) if rel else 1.0
    if not (math.isfinite(a) and abs(a - b) <= TOL * scale):
        return f"{what}: got {a!r}, oracle {b!r}"
    return None


def _logdet(gram: np.ndarray) -> np.ndarray:
    """log det(G + I), batched over leading axes."""
    sign, value = np.linalg.slogdet(gram + np.eye(gram.shape[-1]))
    return np.where(sign > 0, value, -np.inf)


def _gains(selected: np.ndarray, cands: np.ndarray) -> np.ndarray:
    """Marginal log det(G + I) gain of each candidate row against ``selected``,
    by the Schur complement: log(2 - |L^-1 V_S v|^2), L = chol(G_S + I)."""
    if selected.shape[0] == 0:
        return np.full(cands.shape[0], math.log(2.0))
    chol = np.linalg.cholesky(selected @ selected.T + np.eye(selected.shape[0]))
    z = np.linalg.solve(chol, selected @ cands.T)
    return np.log(2.0 - np.sum(z * z, axis=0))


def _relevance(selected: np.ndarray, cands: np.ndarray, query: np.ndarray) -> np.ndarray:
    query_cos = cands @ query
    if selected.shape[0] == 0:
        return query_cos
    return query_cos * (cands @ selected.T).mean(axis=1)


def check_greedy(argv: list[str], report: dict) -> str | None:
    ids, V = read_pool(_flag(argv, "--embeddings"))
    query_id, k = _flag(argv, "--query-id"), int(_flag(argv, "--k"))
    order = sorted((id_, i) for i, id_ in enumerate(ids) if id_ != query_id)
    pool_ids = [id_ for id_, _ in order]
    P = V[[i for _, i in order]]
    q = V[ids.index(query_id)]
    result = report["result"]
    got = result["selected_ids"]
    if len(got) != k:
        return f"greedy selected {len(got)} ids, expected {k}"
    chosen: list[int] = []
    for step in range(k):
        S = P[chosen]
        gain = _gains(S, P)
        composite = LAMBDA_DIV * gain + LAMBDA_REL * _relevance(S, P, q)
        composite[chosen] = -np.inf
        # ties within TOL go to the lowest id; pool rows are in id order
        pick = int(np.flatnonzero(composite >= composite.max() - TOL)[0])
        if got[step] != pool_ids[pick]:
            return f"greedy step {step}: selected {got[step]}, oracle {pool_ids[pick]}"
        reason = _close(result["per_step"][step]["composite"], float(composite[pick]), f"greedy step {step} composite")
        if reason:
            return reason
        chosen.append(pick)
    S = P[chosen]
    return _close(result["final_diversity"], float(_logdet(S @ S.T)), "greedy final_diversity")


def check_bruteforce(argv: list[str], report: dict) -> str | None:
    """The reported subset must be the optimum of a batched slogdet over all
    size-k subsets, ties within TOL going to the smallest id tuple."""
    ids, V = read_pool(_flag(argv, "--embeddings"))
    query_id, k = _flag(argv, "--query-id"), int(_flag(argv, "--k"))
    order = sorted((id_, i) for i, id_ in enumerate(ids) if id_ != query_id)
    pool_ids = [id_ for id_, _ in order]
    P = V[[i for _, i in order]]
    gram = P @ P.T
    subsets = np.array(list(itertools.combinations(range(len(pool_ids)), k)))
    scores = _logdet(gram[subsets[:, :, None], subsets[:, None, :]])
    best = int(np.flatnonzero(scores >= scores.max() - TOL)[0])  # combinations come in id-tuple order
    expected = [pool_ids[i] for i in subsets[best]]
    result = report["result"]
    if result["selected_ids"] != expected:
        return f"bruteforce selected {result['selected_ids']}, oracle {expected}"
    return _close(result["final_diversity"], float(scores[best]), "bruteforce final_diversity")


def check_eval(argv: list[str], report: dict) -> str | None:
    """Vendi and truncated entropy from the d x d spectrum of V^T V, whose
    nonzero eigenvalues are those of the n x n Gram matrix."""
    ids, V = read_pool(_flag(argv, "--embeddings"))
    query_id = _flag(argv, "--query-id")
    q = V[ids.index(query_id)]
    items = V[[i for i, id_ in enumerate(ids) if id_ != query_id]]
    n = items.shape[0]
    spectrum = np.linalg.eigvalsh(items.T @ items)
    weights = spectrum / n
    weights = weights[weights > EIGENVALUE_TOL]
    vendi = float(np.exp(-(weights * np.log(weights)).sum()))
    top_m = min(n, DEFAULT_TOP_M)
    top = spectrum[-top_m:]
    top = top[top > EIGENVALUE_TOL] / top[top > EIGENVALUE_TOL].sum()
    entropy = float(-(top * np.log(top)).sum())
    metrics = report["metrics"]
    if metrics["n"] != n:
        return f"eval n={metrics['n']}, oracle {n}"
    return (
        _close(metrics["vendi"], vendi, "vendi", rel=True)
        or _close(metrics["truncated_entropy"], entropy, "truncated_entropy")
        or _close(metrics["mean_alignment"], float(np.mean(items @ q)), "mean_alignment")
    )


def check_score(argv: list[str], report: dict) -> str | None:
    """Every row against a vectorised composite over the whole file."""
    ids, V = read_pool(_flag(argv, "--embeddings"))
    refs = _flag(argv, "--ref-id", many=True)
    index = {id_: i for i, id_ in enumerate(ids)}
    q = V[index[_flag(argv, "--query-id")]]
    S = V[[index[r] for r in refs]]
    excluded = set(refs)
    keep = [i for i, id_ in enumerate(ids) if id_ not in excluded]
    C = V[keep]
    gain = _gains(S, C)
    rel = _relevance(S, C, q)
    composite = LAMBDA_DIV * gain + LAMBDA_REL * rel
    rows = report["candidates"]
    if [row["id"] for row in rows] != [ids[i] for i in keep]:
        return "score rows do not list every non-reference candidate in file order"
    got = np.array([[r["diversity_gain"], r["relevance"], r["composite"]] for r in rows])
    want = np.stack([gain, rel, composite], axis=1)
    err = np.abs(got - want)
    if not (np.all(np.isfinite(got)) and err.max() <= TOL):
        row, col = np.unravel_index(int(np.argmax(err)), err.shape)
        field = ("diversity_gain", "relevance", "composite")[col]
        return f"score row {rows[row]['id']} {field}: got {float(got[row, col])!r}, oracle {float(want[row, col])!r}"
    return None


def check_simulate(config: dict, out_dir: Path) -> str | None:
    """Every (arm, seed) row present once; values finite and in range;
    composite coverage at least relevance-only coverage."""
    runs = [json.loads(line) for line in (out_dir / "runs.jsonl").read_text(encoding="utf-8").splitlines()]
    arms = [arm["name"] for arm in config["arms"]]
    expected = sorted((arm, seed) for arm in arms for seed in config["seeds"])
    if sorted((run["arm"], run["seed"]) for run in runs) != expected:
        return f"simulate rows {[(r['arm'], r['seed']) for r in runs]} != {expected}"
    world, k = config["world"], config["k"]
    vocab = {f"cand-{i:03d}" for i in range(world["n_candidates"])}
    for run in runs:
        ids = run["selected_ids"]
        if len(ids) != k or len(set(ids)) != k or not set(ids) <= vocab:
            return f"simulate {run['arm']}/{run['seed']}: bad selection {ids}"
        for name, lo, hi in (
            ("mode_coverage", 1.0 / world["n_modes"], 1.0),
            ("vendi", 1.0, float(k)),
            ("mean_alignment", -1.0, 1.0),
        ):
            v = run[name]
            if not (isinstance(v, float) and math.isfinite(v) and lo - TOL <= v <= hi + TOL):
                return f"simulate {run['arm']}/{run['seed']}: {name}={v!r} outside [{lo}, {hi}]"
    coverage = {arm: np.mean([r["mode_coverage"] for r in runs if r["arm"] == arm]) for arm in arms}
    if coverage["composite"] < coverage["relevance-only"]:
        return f"simulate: composite coverage {coverage['composite']} < relevance-only {coverage['relevance-only']}"
    return None


def check(argv: list[str], out: str) -> str | None:
    """Check the output of one request (argv without --out)."""
    path = Path(out)
    if argv[0] == "simulate":
        config = json.loads(Path(_flag(argv, "--config")).read_text(encoding="utf-8"))
        return check_simulate(config, path)
    report = json.loads(path.read_text(encoding="utf-8"))
    if argv[0] == "score":
        return check_score(argv, report)
    if argv[0] == "eval":
        return check_eval(argv, report)
    if _flag(argv, "--mode") == "bruteforce":
        return check_bruteforce(argv, report)
    return check_greedy(argv, report)

"""The command-line boundary under perturbed input.

Every run of ``divset.cli.main`` on a perturbed ``train`` or ``simulate``
config, or on a perturbed embedding file for ``score``, ``select`` and
``eval``, exits 0, 2 or 3: no exception escapes, no warning is issued and no
artifact holds a NaN or an Infinity. Valid sizes stay small (dim <= 64, at
most 200 candidates, 5 iterations and groups of 16) so that each run takes
milliseconds; an odd count may lie past errors.MAX_ARRAY_FLOATS, which exits 2.
"""

import contextlib
import csv
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from divset.cli import SIMULATE_PER_RUN, main
from divset.errors import MAX_ARRAY_FLOATS

# values of a wrong type or at an edge of their type; a count past MAX_ARRAY_FLOATS is rejected
EDGES = [0, -1, 0.5, -0.5, 1e-320, math.inf, -math.inf, math.nan, MAX_ARRAY_FLOATS + 1, 1e12, 1e200, 1e308, 2**64, 10**400]
ODD = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3), st.lists(st.integers(0, 3), max_size=2), st.sampled_from(EDGES)
)


def sometimes_odd(valid):
    """``valid`` three times in four, an odd value otherwise."""
    return st.integers(0, 3).flatmap(lambda i: ODD if i == 0 else valid)


def section(**keys):
    """An object holding any of ``keys``, each valid or odd."""
    return st.fixed_dictionaries({}, optional={key: sometimes_odd(valid) for key, valid in keys.items()})


SEED = st.integers(0, 2**64 + 5)
WEIGHT = st.one_of(st.floats(0.0, 2.0), st.sampled_from([0.0, 1e-300, 1e100]))
WORLD = section(n_modes=st.integers(1, 6), n_candidates=st.integers(1, 200), dim=st.integers(1, 64), seed=SEED)
SIGMA = sometimes_odd(st.one_of(st.floats(0.0, 1.0), st.sampled_from([1e-320, 1e154, 1e200, 1e308])))
GRPO = section(
    group_size=st.integers(2, 16),
    clip_epsilon=st.floats(0.0, 1.0),
    kl_beta=st.one_of(st.floats(0.0, 10.0), st.sampled_from([1e100, 1e300, 1e308])),
    learning_rate=st.one_of(st.floats(1e-6, 10.0), st.sampled_from([1e-320, 1e100, 1e300])),
    iterations=st.integers(0, 5),
    lambda_div=WEIGHT,
    lambda_rel=WEIGHT,
    seed=SEED,
)
ARM = section(name=st.text(max_size=3), lambda_div=WEIGHT, lambda_rel=WEIGHT)
TOP = section(
    k=st.integers(0, 12),
    rollout_mode=st.sampled_from(["sample", "greedy-prob"]),
    arms=st.one_of(st.lists(ARM, min_size=1, max_size=3), st.just("lambda-ablation")),
    seeds=st.lists(SEED, max_size=2),
)


def reject(constant: str):
    raise AssertionError(f"artifact holds {constant}")


def run(argv: list[str], outputs: list[Path]) -> None:
    """main(argv) exits 0, 2 or 3 without an exception or a warning, and the
    files at or under ``outputs`` hold only finite numbers."""
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(argv)
    assert code in (0, 2, 3), (code, err.getvalue())
    assert [str(w.message) for w in caught] == []
    for path in (p for output in outputs for p in (output, *output.rglob("*")) if p.is_file()):
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".csv":
            cells = [v for row in csv.DictReader(io.StringIO(text)) for key, v in row.items() if key != "arm"]
            assert all(math.isfinite(float(v)) for v in cells), path.name
        else:
            for document in text.splitlines() if path.suffix == ".jsonl" else [text]:
                json.loads(document, parse_constant=reject)


@settings(max_examples=150, deadline=None)
@given(command=st.sampled_from(["train", "simulate"]), sigma=SIGMA, world=WORLD, grpo=GRPO, top=TOP)
@example(command="train", sigma=1e200, world={}, grpo={"iterations": 2}, top={})
@example(command="simulate", sigma=1e200, world={}, grpo={"iterations": 2}, top={"seeds": [0]})
@example(command="train", sigma=0.1, world={"n_candidates": 1e200}, grpo={}, top={})
@example(command="train", sigma=0.1, world={"dim": 1e12}, grpo={}, top={})
@example(command="train", sigma=0.1, world={}, grpo={"group_size": 1e12}, top={})
def test_perturbed_config_exits_cleanly(command, sigma, world, grpo, top):
    if command == "train":
        top = {key: value for key, value in top.items() if key not in ("arms", "seeds")}
    else:
        top.setdefault("seeds", [0])  # not the ten default seeds
        # simulate rejects these keys by name; leaving them out lets most of its examples train
        grpo = {key: value for key, value in grpo.items() if key not in SIMULATE_PER_RUN}
    grpo.setdefault("iterations", 5)
    config = {"version": 1, "world": {**world, "sigma": sigma}, "grpo": grpo, **top}
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        (directory / "config.json").write_text(json.dumps(config), encoding="utf-8")
        outputs = [directory / "run", directory / "arms.csv"]
        argv = [command, "--config", str(directory / "config.json"), "--out", str(outputs[0])]
        run(argv + (["--csv", str(outputs[1])] if command == "simulate" else []), outputs)


# what a line of the embedding file may become
MUTATIONS = (
    "scale", "short", "empty", "zero", "nan", "inf", "huge", "bool", "string", "copy",
    "duplicate_id", "no_id", "no_vector", "surrogate_id", "garbage", "blank",
)  # fmt: skip


def embedding_lines(seed: int, n: int, dim: int, mutations: list[tuple[int, str]]) -> str:
    """``n`` unit rows of dimension ``dim`` drawn from ``seed``, row ``i`` changed by each (i, mutation)."""
    vectors = np.random.default_rng(seed).standard_normal((n, dim))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    rows = [{"id": f"e{i}", "vector": v.tolist()} for i, v in enumerate(vectors)]
    texts = [None] * n
    for i, mutation in mutations:
        i %= n
        row, vector = rows[i], vectors[i].tolist()
        if mutation == "scale":
            row["vector"] = [2.0 * x for x in vector]
        elif mutation == "short":
            row["vector"] = vector[:-1]
        elif mutation == "empty":
            row["vector"] = []
        elif mutation == "zero":
            row["vector"] = [0.0] * len(vector)
        elif mutation in ("nan", "inf", "huge"):
            row["vector"] = [{"nan": math.nan, "inf": math.inf, "huge": 1e308}[mutation], *vector[1:]]
        elif mutation in ("bool", "string"):
            row["vector"] = [{"bool": True, "string": "x"}[mutation], *vector[1:]]
        elif mutation == "copy":
            row["vector"] = vectors[0].tolist()
        elif mutation == "duplicate_id":
            row["id"] = rows[0].get("id", "e0")
        elif mutation in ("no_id", "no_vector"):
            row.pop(mutation[3:], None)
        elif mutation == "surrogate_id":
            row["id"] = "\ud800"
        else:
            texts[i] = {"garbage": "{", "blank": ""}[mutation]
    return "".join(f"{json.dumps(row) if text is None else text}\n" for row, text in zip(rows, texts))


FLOAT_FLAG = st.sampled_from(["0", "0.5", "1", "1e100", "1e300", "nan", "inf", "-1"])


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    n=st.integers(1, 40),
    dim=st.integers(1, 64),
    mutations=st.lists(st.tuples(st.integers(0, 39), st.sampled_from(MUTATIONS)), max_size=3),
    command=st.sampled_from(["score", "select-greedy", "select-bruteforce", "eval"]),
    query=st.integers(0, 40),
    refs=st.lists(st.integers(0, 40), max_size=3),
    k=st.integers(-1, 8),
    weights=st.tuples(FLOAT_FLAG, FLOAT_FLAG),
)
def test_perturbed_embedding_file_exits_cleanly(seed, n, dim, mutations, command, query, refs, k, weights):
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        path = directory / "emb.jsonl"
        path.write_text(embedding_lines(seed, n, dim, mutations), encoding="utf-8")
        argv = [command.split("-")[0], "--embeddings", str(path), "--query-id", f"e{query}"]
        argv += ["--out", str(directory / "report.json")]
        weight_flags = ["--lambda-div", weights[0], "--lambda-rel", weights[1]]
        if command == "score":
            argv += weight_flags + [arg for ref in refs for arg in ("--ref-id", f"e{ref}")]
        elif command == "eval":
            argv += ["--top-m", str(k)] if k >= 0 else []
        else:
            argv += weight_flags + ["--k", str(k), "--mode", command.split("-")[1]]
        run(argv, [directory / "report.json"])

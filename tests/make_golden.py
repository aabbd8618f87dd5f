"""Golden artifact digests: the SHA-256 of every file and stdout the commands
write on fixed inputs, checked by ``test_golden.py`` against ``golden.json``.

Each case runs one ``divset`` command in a directory of its own holding the
shipped configs and one seeded 200-row pool, and writes into ``out/`` there,
so no path in an artifact depends on where it ran. The 4-arm acceptance
experiment (criteria 7 and 8) is digested from its ``to_report()``.

Regenerating the digests is a deliberate act: list every digest that moved,
and why, in CHANGES.md. Run from the repository root:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/make_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np

from divset.cli import main
from divset.grpo import GrpoConfig
from divset.simulation import DEFAULT_WORLD, make_world, run_experiment

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
GOLDEN = Path(__file__).with_name("golden.json")

POOL = ["--embeddings", "pool.jsonl", "--query-id", "p000"]
CASES = {
    "train": ["train", "--config", "train-default.json", "--out", "out"],
    "train-sample": ["train", "--config", "train-sample.json", "--out", "out"],
    "simulate-default": [
        "simulate", "--config", "simulate-default.json", "--out", "out", "--csv", "out/table.csv"
    ],
    "simulate-lambda-ablation": [
        "simulate", "--config", "simulate-lambda-ablation.json", "--out", "out", "--csv", "out/table.csv"
    ],
    "score": ["score", *POOL, "--out", "out/report.json"],
    "score-ref": ["score", *POOL, "--ref-id", "p001", "--ref-id", "p002", "--out", "out/report.json"],
    "select-greedy": ["select", *POOL, "--k", "8", "--mode", "greedy", "--out", "out/report.json"],
    "select-bruteforce": ["select", *POOL, "--k", "2", "--mode", "bruteforce", "--out", "out/report.json"],
    "eval": ["eval", *POOL, "--top-m", "8", "--out", "out/report.json"],
}
# each runs a 10-seed experiment of 20 or 30 training runs
SLOW_CASES = ("simulate-default", "simulate-lambda-ablation")

FOUR_ARMS = {"div0.1": (0.1, 0.9), "div0.5": (0.5, 0.5), "div0.9": (0.9, 0.1), "relevance-only": (0.0, 1.0)}


def build() -> str:
    """The numpy and BLAS build the digests hold for."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"numpy {np.__version__}, {blas['name']} {blas['version']}"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def write_inputs(directory: Path) -> None:
    """The shipped configs, train-default with rollout_mode "sample", and the pool."""
    for config in CONFIGS.glob("*.json"):
        shutil.copyfile(config, directory / config.name)
    train = json.loads((CONFIGS / "train-default.json").read_text(encoding="utf-8"))
    (directory / "train-sample.json").write_text(json.dumps({**train, "rollout_mode": "sample"}), encoding="utf-8")
    rng = np.random.default_rng(20261018)
    vectors = rng.standard_normal((200, 16))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    with open(directory / "pool.jsonl", "w", encoding="utf-8") as fh:
        for i, vector in enumerate(vectors):
            fh.write(json.dumps({"id": f"p{i:03d}", "vector": vector.tolist()}) + "\n")


def run_case(name: str, directory: Path) -> dict[str, str]:
    """Digests of the stdout and of every file under out/ of case ``name``, run in ``directory``."""
    write_inputs(directory)
    (directory / "out").mkdir()
    stdout = io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(stdout):
            code = main(CASES[name])
    finally:
        os.chdir(cwd)
    if code != 0:
        raise RuntimeError(f"{name} exited {code}")
    digests = {f"{name}/stdout": sha256(stdout.getvalue().encode())}
    for path in sorted((directory / "out").rglob("*")):
        digests[f"{name}/{path.relative_to(directory).as_posix()}"] = sha256(path.read_bytes())
    return digests


def four_arm_experiment():
    """The 4-arm x 10-seed experiment of acceptance criteria 7 and 8."""
    arms = [GrpoConfig(lambda_div=div, lambda_rel=rel) for div, rel in FOUR_ARMS.values()]
    return run_experiment(make_world(**DEFAULT_WORLD), arms, k=8, seeds=list(range(10)), arm_names=list(FOUR_ARMS))


def experiment_digest(result) -> dict[str, str]:
    report = json.dumps(result.to_report(), sort_keys=True, allow_nan=False)
    return {"four-arm-experiment/report": sha256(report.encode())}


def golden_digests(prefix: str) -> dict[str, str]:
    """The committed digests of one case; fails when this is not the build they were made on."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert golden["build"] == build(), (
        f"golden.json holds digests made on {golden['build']}; this is {build()}. "
        "Regenerate them with tests/make_golden.py and list the change in CHANGES.md."
    )
    return {key: value for key, value in golden["digests"].items() if key.split("/")[0] == prefix}


def regenerate() -> None:
    digests = experiment_digest(four_arm_experiment())
    for name in CASES:
        with tempfile.TemporaryDirectory() as directory:
            digests.update(run_case(name, Path(directory)))
    golden = {"build": build(), "digests": digests}
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(digests)} digests written to {GOLDEN}")


if __name__ == "__main__":
    regenerate()

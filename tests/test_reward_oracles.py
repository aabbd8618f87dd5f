"""The array reward evaluator against the per-candidate computations it replaced.

``ReferenceSet.rewards`` takes every gain as a Schur complement on the
members' Cholesky factor. The oracles here are the slow direct forms: the
gain as the difference of two regularized log-volumes of stacked sets,
relevance as the query cosine times the mean of the member cosines, and
greedy selection, the policy rollout and the score command as loops that
score one candidate at a time.
"""

import json

import numpy as np
import pytest

from divset import (
    Embedding,
    EmbeddingSet,
    ReferenceSet,
    ToyPolicy,
    composite_reward,
    diversity_score,
    greedy_select,
    marginal_gain,
    policy_probs,
    relevance,
    load_embeddings,
    rollout_policy,
    save_embeddings,
)
from divset.cli import main

TOL = 1e-12
SEEDS = range(24)


def unit_rows(rng, n, d):
    v = rng.standard_normal((n, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def as_set(rows, prefix):
    return EmbeddingSet([Embedding(f"{prefix}{i:03d}", row) for i, row in enumerate(rows)])


def union_gain(v: np.ndarray, members: EmbeddingSet) -> float:
    """diversity_score(S + v) - diversity_score(S), with v stacked onto the members."""
    return diversity_score(EmbeddingSet([*members, Embedding("candidate", v)])) - diversity_score(members)


def direct_relevance(v: np.ndarray, members: EmbeddingSet, query: Embedding) -> float:
    query_cos = float(v @ query.vector)
    if len(members) == 0:
        return query_cos
    return query_cos * float(np.mean([float(m.vector @ v) for m in members]))


def per_candidate_greedy(pool: EmbeddingSet, query: Embedding, k: int, lambda_div: float, lambda_rel: float):
    """The greedy loop one candidate at a time: the strictly larger composite
    wins, so of equal composites the first in id order, the lowest id, stays."""
    remaining = sorted(pool, key=lambda item: item.id)
    members: list[Embedding] = []
    composites = []
    for _ in range(k):
        best_pos, best = -1, -np.inf
        chosen = EmbeddingSet(members)
        for pos, item in enumerate(remaining):
            gain, rel = union_gain(item.vector, chosen), direct_relevance(item.vector, chosen, query)
            value = lambda_div * gain + lambda_rel * rel
            if value > best:
                best_pos, best = pos, value
        members.append(remaining.pop(best_pos))
        composites.append(best)
    return [m.id for m in members], composites


def per_pick_rollout(policy, query, k, mode, seed, lambda_div, lambda_rel):
    """The policy rollout one pick at a time: the masked policy distribution
    picks, composite_reward scores the pick against the partial set, and the
    pick joins it."""
    rng = np.random.default_rng(seed)
    ref = ReferenceSet.empty(query)
    mask = np.zeros(len(policy.vocabulary), dtype=bool)
    selected, per_step = [], []
    for _ in range(k):
        probs = np.where(mask, 0.0, policy_probs(policy, query, ref))
        probs = probs / probs.sum()
        if mode == "sample":
            choice = int(rng.choice(len(probs), p=probs))
        else:
            best = np.flatnonzero(probs == probs.max())
            choice = int(min(best, key=lambda i: policy.vocabulary[int(i)].id))
        item = policy.vocabulary[choice]
        per_step.append(composite_reward(item, ref, lambda_div, lambda_rel).to_dict())
        selected.append(item)
        mask[choice] = True
        ref = ReferenceSet(EmbeddingSet(selected), query)
    chosen = EmbeddingSet(selected)
    return chosen.ids(), per_step, diversity_score(chosen)


def per_row_score(path, query_id, ref_ids, lambda_div, lambda_rel):
    """The score command one candidate at a time: composite_reward of every
    non-reference row in file order. Returns its stdout and --out text."""
    embeddings = load_embeddings(path)
    ref = ReferenceSet(EmbeddingSet([embeddings.get(rid) for rid in ref_ids]), embeddings.get(query_id))
    lines, rows = [], []
    for item in embeddings:
        if item.id in ref_ids:
            continue
        breakdown = composite_reward(item, ref, lambda_div, lambda_rel)
        rows.append({"id": item.id, **breakdown.to_dict()})
        lines.append(
            f"{item.id}\tcomposite={breakdown.composite:.8f}\t"
            f"diversity_gain={breakdown.diversity_gain:.8f}\trelevance={breakdown.relevance:.8f}\n"
        )
    config = {
        "embeddings": str(path),
        "query_id": query_id,
        "ref_ids": ref_ids,
        "lambda_div": lambda_div,
        "lambda_rel": lambda_rel,
    }
    report = {"command": "score", "config": config, "candidates": rows}
    return "".join(lines), json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"


def random_case(seed):
    """Members (0-16), a query, and candidates with fresh rows, copies of
    members and repeated rows, in d from 2 to 64."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 65))
    members = as_set(unit_rows(rng, int(rng.integers(0, 17)), d), "m")
    query = Embedding("q", unit_rows(rng, 1, d)[0])
    fresh = unit_rows(rng, 12, d)
    copies = [m.vector for m in members][:3]
    rows = np.vstack([fresh, *copies, fresh[:2]]) if copies else np.vstack([fresh, fresh[:2]])
    lambda_div, lambda_rel = rng.uniform(0.0, 1.0, 2)
    return ReferenceSet(members, query), rows, float(lambda_div), float(lambda_rel)


@pytest.mark.parametrize("seed", SEEDS)
def test_batch_rewards_match_direct_forms(seed):
    ref, rows, lambda_div, lambda_rel = random_case(seed)
    gain, rel, composite = ref.rewards(rows, lambda_div, lambda_rel)
    for i, v in enumerate(rows):
        expected_gain = union_gain(v, ref.members)
        expected_rel = direct_relevance(v, ref.members, ref.query)
        assert abs(gain[i] - expected_gain) <= TOL
        assert abs(rel[i] - expected_rel) <= TOL
        assert abs(composite[i] - (lambda_div * expected_gain + lambda_rel * expected_rel)) <= TOL


@pytest.mark.parametrize("seed", SEEDS)
def test_one_row_views_equal_batch_rows(seed):
    ref, rows, lambda_div, lambda_rel = random_case(seed)
    gain, rel, composite = ref.rewards(rows, lambda_div, lambda_rel)
    for i, v in enumerate(rows):
        candidate = Embedding(f"c{i}", v)
        breakdown = composite_reward(candidate, ref, lambda_div, lambda_rel)
        assert abs(breakdown.diversity_gain - gain[i]) <= TOL
        assert abs(breakdown.relevance - rel[i]) <= TOL
        assert abs(breakdown.composite - composite[i]) <= TOL
        assert abs(marginal_gain(candidate, ref) - gain[i]) <= TOL
        if len(ref):
            assert abs(relevance(candidate, ref) - rel[i]) <= TOL


@pytest.mark.parametrize("seed", SEEDS)
def test_repeated_rows_get_equal_rewards(seed):
    ref, rows, lambda_div, lambda_rel = random_case(seed)
    values = np.array(ref.rewards(rows, lambda_div, lambda_rel))
    # the last two rows repeat the first two, at other positions in the batch
    assert np.array_equal(values[:, -2:], values[:, :2])


@pytest.mark.parametrize("seed", SEEDS)
def test_greedy_matches_per_candidate_loop(seed):
    rng = np.random.default_rng(1000 + seed)
    d = int(rng.integers(2, 65))
    rows = unit_rows(rng, 20, d)
    rows = np.vstack([rows, rows[rng.integers(0, 20, 6)]])  # six duplicate vectors
    # shuffled ids, so file order is not id order
    pool = EmbeddingSet([Embedding(f"p{j:03d}", row) for j, row in zip(rng.permutation(len(rows)), rows)])
    query = Embedding("q", unit_rows(rng, 1, d)[0])
    k = int(rng.integers(1, 17))
    lambda_div, lambda_rel = (float(x) for x in rng.uniform(0.0, 1.0, 2))
    result = greedy_select(pool, query, k, lambda_div, lambda_rel)
    expected_ids, expected_composites = per_candidate_greedy(pool, query, k, lambda_div, lambda_rel)
    assert result.selected.ids() == expected_ids
    assert np.all(np.abs([step.composite for step in result.per_step] - np.array(expected_composites)) <= TOL)


@pytest.mark.parametrize("lambda_div, lambda_rel", [(1.0, 0.0), (0.5, 0.5), (0.0, 1.0)])
def test_greedy_ties_go_to_lowest_id(lambda_div, lambda_rel):
    rng = np.random.default_rng(7)
    rows = unit_rows(rng, 9, 5)
    # every vector twice, the copy under the lower id and later in the file
    pool = EmbeddingSet(
        [Embedding(f"x{2 * i + 1:02d}", row) for i, row in enumerate(rows)]
        + [Embedding(f"x{2 * i:02d}", row) for i, row in enumerate(rows)]
    )
    query = Embedding("q", unit_rows(rng, 1, 5)[0])
    result = greedy_select(pool, query, 6, lambda_div, lambda_rel)
    assert result.selected.ids() == per_candidate_greedy(pool, query, 6, lambda_div, lambda_rel)[0]
    assert int(result.selected.ids()[0][1:]) % 2 == 0


@pytest.mark.parametrize("mode", ["sample", "greedy-prob"])
@pytest.mark.parametrize("seed", SEEDS)
def test_rollout_matches_per_pick_loop(seed, mode):
    rng = np.random.default_rng(2000 + seed)
    d = int(rng.integers(2, 65))
    rows = unit_rows(rng, 20, d)
    copies = rng.integers(0, 20, 6)
    rows = np.vstack([rows, rows[copies]])  # six duplicate vectors
    # shuffled ids, so vocabulary order is not id order
    vocab = EmbeddingSet([Embedding(f"v{j:03d}", row) for j, row in zip(rng.permutation(len(rows)), rows)])
    bias = rng.normal(0.0, 1.0, 20)
    # a duplicate shares its original's bias, so greedy-prob meets exact ties
    policy = ToyPolicy(vocab, rng.normal(0.0, 2.0, 2), np.concatenate([bias, bias[copies]]))
    query = Embedding("q", unit_rows(rng, 1, d)[0])
    k = int(rng.integers(1, 17))
    lambda_div, lambda_rel = (float(x) for x in rng.uniform(0.0, 1.0, 2))
    result = rollout_policy(policy, query, k, mode, seed, lambda_div, lambda_rel)
    ids, per_step, final_diversity = per_pick_rollout(policy, query, k, mode, seed, lambda_div, lambda_rel)
    assert result.selected.ids() == ids
    assert [step.to_dict() for step in result.per_step] == per_step
    assert result.final_diversity == final_diversity


@pytest.mark.parametrize("n_refs", [0, 4])
@pytest.mark.parametrize("seed", range(8))
def test_score_matches_per_row_loop(tmp_path, capsys, seed, n_refs):
    rng = np.random.default_rng(3000 + seed)
    d = int(rng.integers(2, 65))
    rows = unit_rows(rng, 30, d)
    rows = np.vstack([rows, rows[rng.integers(0, 30, 8)]])  # eight duplicate vectors
    order = rng.permutation(len(rows))
    # shuffled ids, so file order is not id order
    pool = EmbeddingSet([Embedding(f"s{j:03d}", rows[j]) for j in order])
    path = tmp_path / "emb.jsonl"
    save_embeddings(pool, path)
    ids = pool.ids()
    # the references sit mid-file and the query stays among the candidates
    query_id, *ref_ids = (ids[int(i)] for i in rng.choice(np.arange(5, 33), 1 + n_refs, replace=False))
    lambda_div, lambda_rel = (float(x) for x in rng.uniform(0.0, 1.0, 2))
    argv = ["score", "--embeddings", str(path), "--query-id", query_id]
    for rid in ref_ids:
        argv += ["--ref-id", rid]
    out = tmp_path / "scores.json"
    assert main([*argv, "--lambda-div", repr(lambda_div), "--lambda-rel", repr(lambda_rel), "--out", str(out)]) == 0
    expected_stdout, expected_report = per_row_score(path, query_id, ref_ids, lambda_div, lambda_rel)
    assert capsys.readouterr().out == expected_stdout
    assert out.read_bytes() == expected_report.encode()

"""Exhaustive selection with one Cholesky factorization per subset.

Every size-k subset's block of the pool Gram is factored, in batches of
``chunk`` subsets taken in id-tuple order, and scored as twice the sum of the
log of its factor's diagonal; a later subset replaces the best only when it
beats it by more than BRUTE_FORCE_TIE_TOL. rollout.brute_force_select must
pick the same ids and report the same bits.
"""

import itertools

import numpy as np

from divset.kernel import build_kernel, regularized_cholesky
from divset.rollout import BRUTE_FORCE_TIE_TOL


def batched_cholesky_search(pool, k, chunk=4096):
    """(ids, score) of the best size-k subset of the pool, ties to the smallest id tuple."""
    items = sorted(range(len(pool)), key=pool.ids().__getitem__)
    pool = pool.take(items)
    gram = build_kernel(pool)
    if k == 0:
        return [], 0.0
    best_subset, best_score = [], -np.inf
    subsets = itertools.combinations(range(len(pool)), k)
    while (idx := np.fromiter(itertools.islice(subsets, chunk), dtype=(np.intp, k))).size:
        factors = regularized_cholesky(gram[idx[:, :, None], idx[:, None, :]])
        scores = 2.0 * np.log(np.diagonal(factors, axis1=1, axis2=2)).sum(axis=1)
        start = 0
        while (wins := np.flatnonzero(scores[start:] > best_score + BRUTE_FORCE_TIE_TOL)).size:
            start += int(wins[0])
            best_subset, best_score = idx[start].tolist(), scores[start]
            start += 1
    return [pool[i].id for i in best_subset], float(best_score)

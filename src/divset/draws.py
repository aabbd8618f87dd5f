"""The random draws of a GRPO run, made ahead of training and bit for bit
those of numpy's default_rng.

A run draws its contexts and group seeds from default_rng(seed), and each
group's uniforms from default_rng(group_seed).random(G). context_draws
replays the first in plain Python over PCG64's raw words; group_uniforms
computes the second for many group seeds in one array pass. NEP 19, numpy's
RNG stability policy, freezes SeedSequence and PCG64, so the array pass holds
on any numpy; how Generator turns raw words into integers and choice is not
frozen, and tests pin the replay against the installed numpy's Generator.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np


def context_draws(pool_size: int, context_sizes: tuple[int, int] | None, seed: int) -> Iterator[tuple]:
    """Yield one run's (context key, group seed) per iteration, the draws that
    default_rng(seed) makes for a pool of m = pool_size exemplars: a size
    integers(lo, hi + 1) on context_sizes (lo, hi), the sorted key of
    choice(m, size, replace=False), and integers(0, 2**63). With
    context_sizes None the key is the whole pool and draws nothing.

    A 32-bit draw takes the low half of a fresh raw word, and the next one its
    high half, which stays buffered across 64-bit draws. A draw on [0, rng] is
    Lemire's rejection on 32-bit draws, and none for rng 0; every rng here is
    below 2**32. choice is Floyd's algorithm and then size - 1 shuffle draws
    (discarded: the key is sorted), or for a pool over 10,000 drawing more
    than m // 50, a tail shuffle of arange(m). integers(0, 2**63) is the next
    raw word >> 1.
    """
    bitgen = np.random.PCG64(np.random.SeedSequence(seed))

    def raw_words():
        while True:
            yield from bitgen.random_raw(256).tolist()

    words = raw_words()
    high = None  # the buffered high half of the last raw word a 32-bit draw took

    def bounded(rng: int) -> int:
        nonlocal high
        if not rng:
            return 0
        excl = rng + 1
        while True:
            if high is None:
                word = next(words)
                high, m = word >> 32, (word & 0xFFFFFFFF) * excl
            else:
                high, m = None, high * excl
            if (m & 0xFFFFFFFF) >= excl or (m & 0xFFFFFFFF) >= 2**32 % excl:
                return m >> 32

    m = pool_size
    whole = tuple(range(m))
    floyd_sizes = m if m <= 10000 else m // 50
    lo, hi = context_sizes or (m, m)
    while True:
        if context_sizes is None:
            key = whole
        else:
            size = lo + bounded(hi - lo)
            if size <= floyd_sizes:
                chosen = set()
                for j in range(m - size, m):
                    v = bounded(j)
                    chosen.add(j if v in chosen else v)
                for i in range(size - 1, 0, -1):
                    bounded(i)
            else:
                moved = {}  # the entries of arange(m) the shuffle has swapped
                for i in range(m - 1, max(m - size, 1) - 1, -1):
                    j = bounded(i)
                    moved[i], moved[j] = moved.get(j, j), moved.get(i, i)
                chosen = [moved.get(i, i) for i in range(m - size, m)]
            key = tuple(sorted(chosen))
        yield key, next(words) >> 1


# SeedSequence's hash constants, init * mult**k mod 2**32: for mixing its
# 4-word pool (4 + 12 hashes) and for PCG64's 8 state words, and PCG64's
# 128-bit LCG multiplier.
_POOL_CONSTS = [0x43B0D7E5 * pow(0x931E8875, k, 2**32) % 2**32 for k in range(17)]
_STATE_CONSTS = [0x8B51F9DD * pow(0x58F38DED, k, 2**32) % 2**32 for k in range(9)]
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hashmix(value: np.ndarray, consts: list[int], k: int) -> np.ndarray:
    """SeedSequence's k-th hash of uint32 words."""
    value = (value ^ np.uint32(consts[k])) * np.uint32(consts[k + 1])
    return value ^ value >> 16


def group_uniforms(seeds: np.ndarray, group_size: int) -> np.ndarray:
    """default_rng(s).random(group_size) for every uint64 seed s < 2**63, in one
    array pass; the result has the seeds' shape plus (group_size,). The stages
    are SeedSequence's hash-mix on uint32 words, PCG64's seeding and its
    128-bit LCG on 64-bit halves, the XSL-RR output and (x >> 11) * 2**-53,
    all of which NEP 19 freezes. A seed below 2**32 has one entropy word, but a
    missing word hashes as 0, so every seed takes the two-word path."""
    pool = [(seeds & 0xFFFFFFFF).astype(np.uint32), (seeds >> 32).astype(np.uint32)]
    pool += [np.zeros_like(pool[0])] * 2
    pool = [_hashmix(word, _POOL_CONSTS, k) for k, word in enumerate(pool)]
    k = len(pool)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                hashed = _hashmix(pool[src], _POOL_CONSTS, k)
                mixed = pool[dst] * np.uint32(0xCA01F9DD) - hashed * np.uint32(0x4973F715)
                pool[dst] = mixed ^ mixed >> 16
                k += 1
    words = [_hashmix(pool[i % 4], _STATE_CONSTS, i).astype(np.uint64) for i in range(8)]
    # PCG64 takes (initstate, initseq) as two 128-bit numbers, high 64 bits first
    state_hi, state_lo, seq_hi, seq_lo = (words[i] | words[i + 1] << 32 for i in range(0, 8, 2))
    inc_hi, inc_lo = seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1

    mult_hi, mult_lo = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & 0xFFFFFFFFFFFFFFFF)
    m1, m0 = _PCG_MULT >> 32 & 0xFFFFFFFF, _PCG_MULT & 0xFFFFFFFF  # mult_lo's 32-bit halves

    def step(hi, lo):
        """state * multiplier + inc, mod 2**128"""
        l1, l0 = lo >> 32, lo & 0xFFFFFFFF
        p01, p10 = l0 * m1, l1 * m0
        carry = (l0 * m0 >> 32) + (p01 & 0xFFFFFFFF) + (p10 & 0xFFFFFFFF)
        # hi * mult_lo + lo * mult_hi, plus the high half of lo * mult_lo from its 32-bit pieces
        hi = hi * mult_lo + lo * mult_hi + l1 * m1 + (p01 >> 32) + (p10 >> 32) + (carry >> 32)
        lo = lo * mult_lo + inc_lo
        return hi + inc_hi + (lo < inc_lo), lo

    # seeding: state = inc; state += initstate; one step
    lo = inc_lo + state_lo
    hi, lo = step(inc_hi + state_hi + (lo < state_lo), lo)
    out = np.empty(seeds.shape + (group_size,))
    for g in range(group_size):
        hi, lo = step(hi, lo)
        x, rot = hi ^ lo, hi >> 58
        out[..., g] = (x >> rot | x << (-rot & 63)) >> 11
    out *= 2.0**-53
    return out

"""Bit-parallel DP kernels: word edit distance and LCS length.

One exact implementation for each, with Python ints as bit vectors of any
width, so the results equal the full-matrix DP for every input length. Bit j
of a vector stands for position j of the second sequence `b`; each token of
`a` advances a whole DP column in a constant number of int operations.

- Levenshtein: Myers 1999 (J. ACM 46(3)), in the global-distance form of
  Hyyrö 2001, which shifts a +1 into the top row so that D[0][j] = j.
- LCS: Allison & Dix 1986 (IPL 23), as restated by Hyyrö 2004.

Tokens need only be hashable. `benchmarks/run.py --trace 1` reports the
`metrics.kernels.levenshtein_us` and `metrics.kernels.lcs_us` timings.
"""

from __future__ import annotations

from typing import Hashable, Mapping, Sequence

BACKEND = "bitparallel"


def match_masks(b: Sequence[Hashable]) -> dict[Hashable, int]:
    """Map each token to the bitmask of its positions in `b`."""
    peq: dict[Hashable, int] = {}
    for j, tok in enumerate(b):
        peq[tok] = peq.get(tok, 0) | (1 << j)
    return peq


def levenshtein_masks(a: Sequence[Hashable], peq: Mapping[Hashable, int], m: int) -> int:
    """Edit distance from `a` to the length-`m` sequence whose `match_masks` is `peq`."""
    if m == 0:
        return len(a)
    mask = (1 << m) - 1
    last = 1 << (m - 1)
    vp, vn, score = mask, 0, m
    for tok in a:
        eq = peq.get(tok, 0)
        xv = eq | vn
        xh = (((eq & vp) + vp) ^ vp) | eq
        hp = vn | ~(xh | vp)
        hn = vp & xh
        if hp & last:
            score += 1
        elif hn & last:
            score -= 1
        hp = (hp << 1) | 1
        hn <<= 1
        vp = (hn | ~(xv | hp)) & mask
        vn = hp & xv
    return score


def levenshtein(a: Sequence[Hashable], b: Sequence[Hashable]) -> int:
    """Word-level edit distance (unit-cost insert/delete/substitute)."""
    return levenshtein_masks(a, match_masks(b), len(b))


def lcs_length(a: Sequence[Hashable], b: Sequence[Hashable]) -> int:
    """Length of the longest common subsequence."""
    peq = match_masks(b)
    mask = (1 << len(b)) - 1
    v = mask
    for tok in a:
        u = v & peq.get(tok, 0)
        v = ((v + u) | (v - u)) & mask
    return len(b) - v.bit_count()

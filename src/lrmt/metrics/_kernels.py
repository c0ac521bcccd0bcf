"""Bit-parallel DP kernels: word edit distance and LCS length.

One exact implementation for each, with Python ints as bit vectors of any
width, so the results equal the full-matrix DP for every input length. Bit j
of a vector stands for position j of the second sequence `b`; each token of
`a` advances a whole DP column in a constant number of int operations.

- Levenshtein: Myers 1999 (J. ACM 46(3)), in the global-distance form of
  Hyyrö 2001, which shifts a +1 into the top row so that D[0][j] = j.
- LCS: Allison & Dix 1986 (IPL 23), as restated by Hyyrö 2004.

`levenshtein_prefix_states` and `levenshtein_resume` let a caller that scores
many sequences sharing a prefix with one sequence (TER's shift search) run the
DP over that prefix once, and drop a sequence as soon as its distance cannot
fall below a bound.

Tokens need only be hashable. `benchmarks/run.py --trace 1` reports the
`metrics.kernels.levenshtein_us` and `metrics.kernels.lcs_us` timings.
"""

from __future__ import annotations

from typing import Hashable, Mapping, Optional, Sequence

BACKEND = "bitparallel"

# (vp, vn, score) of one DP column; see levenshtein_prefix_states
LevState = tuple[int, int, int]


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
    # the distance is at most m + len(a), so this bound is never reached
    return levenshtein_resume(a, peq, m, _start_state(m), m + len(a) + 1)[2]


def _start_state(m: int) -> LevState:
    # D[0][j] = j: every vertical delta +1
    return (1 << m) - 1, 0, m


def levenshtein_prefix_states(
    a: Sequence[Hashable], peq: Mapping[Hashable, int], m: int
) -> list[LevState]:
    """The DP state after each prefix `a[:0]`, ..., `a[:len(a)]`, for `m >= 1`.

    A state is (vp, vn, score): the +1 and -1 vertical deltas of the DP
    column and its last cell, the edit distance from that prefix to `b`.
    """
    states = [_start_state(m)]
    unreachable = m + len(a) + 1
    for tok in a:
        states.append(levenshtein_resume((tok,), peq, m, states[-1], unreachable))
    return states


def levenshtein_resume(
    a: Sequence[Hashable],
    peq: Mapping[Hashable, int],
    m: int,
    state: LevState,
    bound: int,
) -> Optional[LevState]:
    """Continue the DP from `state` (after some prefix) over the tokens of `a`.

    Returns the state after `a`, whose score is the edit distance from
    prefix + `a` to `b`; `m >= 1`. Returns None instead as soon as that
    distance is sure to be `>= bound`: the last cell drops by at most one per
    token (D[i+1][m] >= D[i][m] - 1), so the distance is at least the score
    minus the tokens still to read. A bound above the largest possible
    distance (prefix length + len(a) + m) never gives up.
    """
    vp, vn, score = state
    # score minus tokens still to read: a lower bound that never decreases
    low = score - len(a)
    if low >= bound:
        return None
    mask = (1 << m) - 1
    last = 1 << (m - 1)
    for tok in a:
        eq = peq.get(tok, 0)
        xv = eq | vn
        xh = (((eq & vp) + vp) ^ vp) | eq
        hp = vn | ~(xh | vp)
        hn = vp & xh
        if hp & last:
            low += 2
            if low >= bound:
                return None
        elif not (hn & last):
            low += 1
            if low >= bound:
                return None
        hp = (hp << 1) | 1
        hn <<= 1
        vp = (hn | ~(xv | hp)) & mask
        vn = hp & xv
    return vp, vn, low


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

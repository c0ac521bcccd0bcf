"""Bit-parallel DP kernels: word edit distance and LCS length.

One exact implementation for each, with Python ints as bit vectors of any
width, so the results equal the full-matrix DP for every input length. Bit j
of a vector stands for position j of the second sequence `b`; each token of
`a` advances a whole DP column in a constant number of int operations.

- Levenshtein: Myers 1999 (J. ACM 46(3)), in the global-distance form of
  Hyyrö 2001, which shifts a +1 into the top row so that D[0][j] = j.
- LCS: Allison & Dix 1986 (IPL 23), as restated by Hyyrö 2004.

`levenshtein_prefix_states` and `levenshtein_resume` let a caller that scores
many sequences sharing prefixes run the DP over each prefix once, and drop a
sequence as soon as its distance cannot fall below a bound. TER's shift search
lands each block at every position of the hypothesis with the block cut out,
and resumes a landing from the state after the tokens before it: a prefix
state of the hypothesis up to the block, and beyond it one that a one-token
`levenshtein_resume` extends by one token per landing position. The bound is
the value, in the current row, of the diagonal that ends in the final cell:
DP values never decrease along a diagonal (Ukkonen 1985, Inf. Control
64(1-3)), so it never exceeds the distance, and it reaches the distance at
the last token.
`resume_lower_bound` reads it off a state by two popcounts; the resumed DP
then follows it with one bit of Hyyrö's diagonal-zero vector per token.

`lcs_resume` does the same for LCS: it continues a bit vector from the one
after some prefix, and `lcs_length` is that step from the all-ones vector.
`lcs_prefix_vectors` returns the vector after every prefix in one pass. TER's
shift search bounds every landing of a block from below by the LCS of the
block plus that of the hypothesis with the block cut out. It keeps the
vectors after each prefix of the hypothesis, and after each prefix of the
reversed hypothesis against the reversed reference, which give the LCS of
every prefix and every suffix; their sum around a block bounds the LCS of
the rest, and only when that does not rule the block out is the exact LCS
of the rest one resume over the tokens after the block.

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
    # the distance is at most m + len(a), so this bound is never reached; the
    # start state's resume_lower_bound is |m - len(a)|
    return levenshtein_resume(a, peq, m, _start_state(m), abs(m - len(a)), m + len(a) + 1)[2]


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
        low = resume_lower_bound(states[-1], m, 1)
        states.append(levenshtein_resume((tok,), peq, m, states[-1], low, unreachable))
    return states


def resume_lower_bound(state: LevState, m: int, rem: int) -> int:
    """A lower bound on the distance after `rem` more tokens from `state`.

    The state is row i of the DP; the distance will be the final cell
    D[i+rem][m]. Its diagonal meets row i at column c = m - rem. For c >= 0
    the bound is that cell, D[i][c]: the last cell minus the column's deltas
    from c on. For c < 0 the diagonal enters the table at D[i-c][0] = i - c,
    and D[i][0] = i. DP values never decrease along a diagonal (Ukkonen 1985,
    Inf. Control 64), so either is a lower bound. It is never below `score -
    rem`, the last cell dropping by one per token: for c >= 0, D[i][m] -
    D[i][c] <= rem.
    """
    vp, vn, score = state
    c = m - rem
    s = c if c > 0 else 0
    return score - (vp >> s).bit_count() + (vn >> s).bit_count() + s - c


def levenshtein_resume(
    a: Sequence[Hashable],
    peq: Mapping[Hashable, int],
    m: int,
    state: LevState,
    low: int,
    bound: int,
) -> Optional[LevState]:
    """Continue the DP from `state` (after some prefix) over the tokens of `a`.

    Returns the state after `a`, whose score is the edit distance from
    prefix + `a` to `b`; `m >= 1`. Returns None instead as soon as that
    distance is sure to be `>= bound`. The kernel follows the diagonal that
    ends in the final cell from `low`, its value in the current row, which
    the caller passes as `resume_lower_bound(state, m, len(a))`, and gives up
    once that value reaches `bound`. Each token moves it one cell down the
    diagonal: the step costs nothing when bit c of the diagonal-zero vector
    D0 = xh | vn is set (D[i+1][c+1] == D[i][c]; Hyyrö 2001), and one
    otherwise. After the last token the diagonal is at the final cell, so its
    value is the score. A bound above the largest possible distance (prefix
    length + len(a) + m) never gives up.
    """
    vp, vn, _ = state
    c = m - len(a)
    if low >= bound:
        return None
    mask = (1 << m) - 1
    for tok in a:
        eq = peq.get(tok, 0)
        xv = eq | vn
        xh = (((eq & vp) + vp) ^ vp) | eq
        if c >= 0 and not ((xh | vn) >> c) & 1:
            low += 1
            if low >= bound:
                return None
        c += 1
        hp = vn | ~(xh | vp)
        hn = vp & xh
        hp = (hp << 1) | 1
        hn <<= 1
        vp = (hn | ~(xv | hp)) & mask
        vn = hp & xv
    return vp, vn, low


def levenshtein(a: Sequence[Hashable], b: Sequence[Hashable]) -> int:
    """Word-level edit distance (unit-cost insert/delete/substitute)."""
    return levenshtein_masks(a, match_masks(b), len(b))


def lcs_resume(a: Sequence[Hashable], peq: Mapping[Hashable, int], m: int, v: int) -> int:
    """Continue the LCS bit vector `v` (after some prefix) over the tokens of `a`.

    Returns the vector after `a`. Its zero bits count the LCS of prefix + `a`
    with the length-`m` sequence whose `match_masks` is `peq`: the LCS is
    `m - v.bit_count()`. The vector before any token is all ones,
    `(1 << m) - 1`.
    """
    mask = (1 << m) - 1
    for tok in a:
        u = v & peq.get(tok, 0)
        v = ((v + u) | (v - u)) & mask
    return v


def lcs_prefix_vectors(a: Sequence[Hashable], peq: Mapping[Hashable, int], m: int) -> list[int]:
    """The LCS bit vector after each prefix `a[:0]`, ..., `a[:len(a)]`.

    Entry k is `lcs_resume(a[:k], peq, m, (1 << m) - 1)`, so the LCS of
    `a[:k]` with `b` is `m - entry.bit_count()`.
    """
    mask = (1 << m) - 1
    v = mask
    vectors = [v]
    for tok in a:
        u = v & peq.get(tok, 0)
        v = ((v + u) | (v - u)) & mask
        vectors.append(v)
    return vectors


def lcs_length(a: Sequence[Hashable], b: Sequence[Hashable]) -> int:
    """Length of the longest common subsequence."""
    m = len(b)
    return m - lcs_resume(a, match_masks(b), m, (1 << m) - 1).bit_count()

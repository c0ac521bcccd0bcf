"""Translation edit rate: word edit distance plus greedily-searched block shifts."""

from __future__ import annotations

from collections import Counter
from typing import Mapping, Sequence

from ..errors import ValidationError
from ._kernels import (
    LevState,
    lcs_prefix_vectors,
    lcs_resume,
    levenshtein_masks,
    levenshtein_prefix_states,
    levenshtein_resume,
    match_masks,
    resume_lower_bound,
)
from .tokenizer import TokenizedSentence

MAX_SHIFT_SIZE = 10
MAX_SHIFT_DIST = 50


def _shift_floor(hyp: Sequence[str], ref: Sequence[str]) -> int:
    """The least edit distance any reordering of `hyp` has to `ref`.

    Shifts keep the multiset of hypothesis tokens, so an alignment matches at
    most M = |bag(hyp) & bag(ref)| tokens and costs at least max(n, m) - M;
    putting the shared tokens in reference order reaches that.
    """
    return max(len(hyp), len(ref)) - sum((Counter(hyp) & Counter(ref)).values())


def _scan(
    current: list[str],
    ref_masks: Mapping[str, int],
    ref_len: int,
    states: list[LevState],
    starts: list[int],
    lcs_vectors: list[int],
    pre: list[int],
    suf: list[int],
    best_dist: int,
    floor: int,
):
    """One pass of `_best_shift`'s scan: the first candidate in scan order at
    the least distance strictly below `best_dist`, returned as soon as one
    reaches `floor`; None when no candidate is below `best_dist`."""
    best = None
    n = len(current)
    longest = max(n, ref_len)
    unreachable = n + ref_len + 1  # above any distance: the prefix steps never give up
    blocks = lcs_vectors[:1] * n  # the LCS vector of current[i:i+size], per start i
    for size in range(1, min(MAX_SHIFT_SIZE, n) + 1):
        for i in range(n - size + 1):
            blocks[i] = lcs_resume((current[i + size - 1],), ref_masks, ref_len, blocks[i])
            # shortcut 6: no landing of the block is below longest - (LCS(block)
            # + LCS(rest)); LCS(rest) <= pre[i] + suf[i+size], which is tried first
            in_block = ref_len - blocks[i].bit_count()
            if longest - (in_block + pre[i] + suf[i + size]) >= best_dist:
                continue
            after = current[i + size :]
            in_rest = ref_len - lcs_resume(after, ref_masks, ref_len, lcs_vectors[i]).bit_count()
            if longest - (in_block + in_rest) >= best_dist:
                continue
            block = current[i : i + size]
            rest = current[:i] + after
            # shortcuts 1-3: the landing at p is rest[:p] + block + rest[p:],
            # resumed from `state`, after rest[:p], whose diagonal cell is `low`
            for p in range(max(0, i - MAX_SHIFT_DIST), min(n - size, i + MAX_SHIFT_DIST) + 1):
                if p <= i:
                    state, low = states[p], starts[p]
                else:
                    step = resume_lower_bound(state, ref_len, 1)
                    state = levenshtein_resume((rest[p - 1],), ref_masks, ref_len, state, step, unreachable)
                    low = resume_lower_bound(state, ref_len, n - p)
                if low >= best_dist:
                    break
                if i - size <= p < i + size:
                    continue
                tail = block + rest[p:]
                found = levenshtein_resume(tail, ref_masks, ref_len, state, low, best_dist)
                if found is not None:
                    best_dist = found[2]
                    best = rest[:p] + tail
                    if best_dist == floor:
                        return best, best_dist
    if best is None:
        return None
    return best, best_dist


def _best_shift(
    current: list[str],
    ref_masks: Mapping[str, int],
    rev_masks: Mapping[str, int],
    ref_len: int,
    floor: int,
):
    """The single block move that reduces edit distance the most.

    Every contiguous block up to the size cap is tried at every landing
    position within the distance cap; ties keep the first candidate in scan
    order (block size, then source, then destination), so the search is
    deterministic. Returns (new_hyp, new_dist) or None when nothing strictly
    improves. `ref_masks` and `rev_masks` are the `match_masks` of the
    reference and of the reversed reference.

    Each move swaps two adjacent blocks. Six shortcuts make the search
    cheaper and leave the result exact (Snover et al. 2006; Post 2018):

    1. With `B = current[i:i+size]` and `rest = current[:i] +
       current[i+size:]`, the landing of `B` at `p` is `rest[:p] + B +
       rest[p:]`, and `p = i` is `current` itself. A landing at `i - size
       <= p < i` is also the block `current[p:i]` landing `size` places
       right: a smaller block, or one of the same size from an earlier
       source, so the scan has already scored it; likewise a landing at
       `i < p < i + size` is the shorter block `current[i+size:p+size]`
       landing at `i`. These repeats are skipped: only a strictly lower
       distance replaces the best, so a repeat could never win. (The twin
       moves a block of at most MAX_SHIFT_SIZE by at most MAX_SHIFT_SIZE
       <= MAX_SHIFT_DIST, so both caps admit it.)
    2. The landing at `p` starts with `rest[:p]`, so the DP resumes from
       the state after it and reads only `B + rest[p:]`. For `p <= i` that
       prefix is `current[:p]`, whose state is computed once per call;
       beyond `i` the loop extends its state by one token, `rest[p-1]`,
       per landing.
    3. DP values never decrease along a diagonal (Ukkonen 1985), so the
       cell where the final cell's diagonal crosses the current row bounds a
       candidate's distance from below; `levenshtein_resume` abandons the
       candidate once that cell reaches `best_dist`, when it can no longer
       be strictly lower. After `rest[:p]` the candidate has `n - p` tokens
       left, so its starting cell, `resume_lower_bound`, is known before
       its tail is built (`starts[p]` for `p <= i`). For all landings of
       one block these cells lie on one diagonal of `rest`'s DP table, row
       `p` and column `m - n + p`, so they never fall as `p` grows, while
       `best_dist` only falls: the loop breaks at the first that reaches
       `best_dist`, and no later landing of the block is built.
    4. No candidate is below `floor` (`_shift_floor`), so the scan returns
       as soon as one reaches it: no later candidate could replace it. The
       second stage of shortcut 5 returns as soon as one reaches
       `floor + 2`, for the same reason.
    5. The scan runs in two stages. The first starts from the bound
       `min(base, floor + 2)`, so it finds only shifts that end
       `ter_sentence`'s loop, and shortcut 3 abandons the other candidates
       sooner. Only when it finds none, and `floor + 2 < base`, does the
       second scan start from `base`; by then no candidate is below
       `floor + 2`. Both stages are the same scan under the same rule,
       keeping a candidate only when it is strictly below the bound so far,
       so each returns the first candidate in scan order at the least
       distance below its start bound. A tighter start bound drops only
       candidates at or above it, so the two stages return the same
       (sequence, distance) as one scan from `base`.
    6. With n = len(current) and m = len(ref), a block is skipped, before
       any of its landings is built, when `LCS(rest, ref) + LCS(B, ref) <=
       max(n, m) - best_dist`: no landing of `B` is then strictly below
       `best_dist`. A candidate with c matches and s substitutions has
       distance d = n + m - 2c - s, and s <= min(n, m) - c, so d >= max(n,
       m) - LCS(cand, ref). `B` stays contiguous in the candidate, so
       LCS(cand, ref) <= LCS(rest, ref) + LCS(B, ref). The test has two
       tiers, which skip the same blocks. LCS(rest, ref) <= pre[i] +
       suf[i+size], with pre[k] = LCS(current[:k], ref) and suf[k] =
       LCS(current[k:], ref): an alignment of `rest` splits into one of
       each part. Both tables are built once per call, `suf` by a pass over
       the reversed hypothesis against the reversed reference, since
       LCS(x, y) = LCS(rev x, rev y). The block is skipped at once when
       that sum rules it out; only otherwise is the exact LCS(rest, ref)
       resumed over `current[i+size:]` from the LCS vector after
       `current[:i]`. The first tier's bound is never above the exact one,
       so it skips only blocks that the exact test skips. The scan keeps
       one LCS vector per block start, and since it runs size by size,
       LCS(B, ref) is one token's step from the vector of the block one
       shorter.
    """
    n = len(current)
    states = levenshtein_prefix_states(current, ref_masks, ref_len)
    starts = [resume_lower_bound(state, ref_len, n - k) for k, state in enumerate(states)]
    base = states[-1][2]  # the distance of `current` itself
    lcs_vectors = lcs_prefix_vectors(current, ref_masks, ref_len)
    pre = [ref_len - v.bit_count() for v in lcs_vectors]
    backward = lcs_prefix_vectors(current[::-1], rev_masks, ref_len)
    suf = [ref_len - v.bit_count() for v in reversed(backward)]
    tables = (states, starts, lcs_vectors, pre, suf)  # what both stages read
    found = _scan(current, ref_masks, ref_len, *tables, min(base, floor + 2), floor)
    if found is None and floor + 2 < base:
        found = _scan(current, ref_masks, ref_len, *tables, base, floor + 2)
    return found


def ter_sentence(hyp: TokenizedSentence, ref: TokenizedSentence) -> tuple[int, float]:
    """(edit count, rate). Rate = edits / reference length, unscaled.

    Shifts are searched greedily until none lowers the edit distance, or the
    distance is within one of `_shift_floor`, below which no shift can take
    it. Stopping at floor + 1 is exact: a shift costs one edit and cannot
    take the distance below the floor, so from there no shift lowers shifts +
    distance. An exact copy returns (0, 0.0) at once, and the floor is only
    computed when the distance is above 1: the loop needs dist > floor + 1.
    """
    if len(ref) == 0:
        raise ValidationError("TER needs a non-empty reference")
    if hyp.tokens == ref.tokens:
        return 0, 0.0
    ref_masks = match_masks(ref.tokens)
    current = list(hyp.tokens)
    shifts = 0
    dist = levenshtein_masks(current, ref_masks, len(ref))
    floor = _shift_floor(current, ref.tokens) if dist > 1 else 0
    if dist > floor + 1:
        rev_masks = match_masks(ref.tokens[::-1])
    while dist > floor + 1:
        found = _best_shift(current, ref_masks, rev_masks, len(ref), floor)
        if found is None:
            break
        current, dist = found
        shifts += 1
    edits = shifts + dist
    return edits, edits / len(ref)

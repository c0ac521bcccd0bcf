"""Translation edit rate: word edit distance plus greedily-searched block shifts."""

from __future__ import annotations

from collections import Counter
from typing import Mapping, Sequence

from ..errors import ValidationError
from ._kernels import (
    LevState,
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
    best_dist: int,
    floor: int,
):
    """One pass of `_best_shift`'s scan: the first candidate in scan order at
    the least distance strictly below `best_dist`, returned as soon as one
    reaches `floor`; None when no candidate is below `best_dist`."""
    best = None
    n = len(current)
    for size in range(1, min(MAX_SHIFT_SIZE, n) + 1):
        for i in range(n - size + 1):
            block = current[i : i + size]
            after = current[i + size :]
            for k in range(max(0, i - MAX_SHIFT_DIST), i - size):
                if starts[k] >= best_dist:
                    continue
                tail = block + current[k:i] + after
                state = levenshtein_resume(tail, ref_masks, ref_len, states[k], best_dist)
                if state is not None:
                    best_dist = state[2]
                    best = current[:k] + tail
                    if best_dist == floor:
                        return best, best_dist
            for k in range(i + size, min(n - size, i + MAX_SHIFT_DIST) + 1):
                if starts[i] >= best_dist:
                    break
                tail = after[: k - i] + block + after[k - i :]
                state = levenshtein_resume(tail, ref_masks, ref_len, states[i], best_dist)
                if state is not None:
                    best_dist = state[2]
                    best = current[:i] + tail
                    if best_dist == floor:
                        return best, best_dist
    if best is None:
        return None
    return best, best_dist


def _best_shift(
    current: list[str], ref_masks: Mapping[str, int], ref_len: int, base: int, floor: int
):
    """The single block move that reduces edit distance the most.

    Every contiguous block up to the size cap is tried at every landing
    position within the distance cap; ties keep the first candidate in scan
    order (block size, then source, then destination), so the search is
    deterministic. Returns (new_hyp, new_dist) or None when nothing strictly
    improves.

    Each move swaps two adjacent blocks. Five shortcuts make the search
    cheaper and leave the result exact (Snover et al. 2006; Post 2018):

    1. Moving `current[i:i+size]` left to `k` gives the same sequence as
       moving `current[k:i]` right by `size`. When `i - k <= size`, that
       twin is a smaller block, or one of the same size from an earlier
       source, so the scan has already scored it; likewise a right move by
       fewer than `size` tokens is the left move of the shorter block it
       passes. These repeats are skipped: only a strictly lower distance
       replaces the best, so a repeat could never win. (The twin moves a
       block of at most MAX_SHIFT_SIZE by at most MAX_SHIFT_SIZE <=
       MAX_SHIFT_DIST, so both caps admit it.)
    2. A candidate shares its first `min(i, k)` tokens with `current`, so
       the DP resumes from the state after that prefix, computed once per
       call.
    3. DP values never decrease along a diagonal (Ukkonen 1985), so the
       cell where the final cell's diagonal crosses the current row bounds a
       candidate's distance from below; `levenshtein_resume` abandons the
       candidate once that cell reaches `best_dist`, when it can no longer
       be strictly lower. Every candidate resumed from `states[k]` reads the
       last `n - k` tokens, so its starting cell, `resume_lower_bound`, is
       known before its tail is built: it is computed once per `k`, and a
       left move landing at `k`, or a right move from `i`, is skipped
       without building a tail while that cell is already `>= best_dist`.
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
    """
    n = len(current)
    states = levenshtein_prefix_states(current, ref_masks, ref_len)
    starts = [resume_lower_bound(state, ref_len, n - k) for k, state in enumerate(states)]
    found = _scan(current, ref_masks, ref_len, states, starts, min(base, floor + 2), floor)
    if found is None and floor + 2 < base:
        found = _scan(current, ref_masks, ref_len, states, starts, base, floor + 2)
    return found


def ter_sentence(hyp: TokenizedSentence, ref: TokenizedSentence) -> tuple[int, float]:
    """(edit count, rate). Rate = edits / reference length, unscaled.

    Shifts are searched greedily until none lowers the edit distance, or the
    distance is within one of `_shift_floor`, below which no shift can take
    it. Stopping at floor + 1 is exact: a shift costs one edit and cannot
    take the distance below the floor, so from there no shift lowers shifts +
    distance.
    """
    if len(ref) == 0:
        raise ValidationError("TER needs a non-empty reference")
    ref_masks = match_masks(ref.tokens)
    current = list(hyp.tokens)
    shifts = 0
    dist = levenshtein_masks(current, ref_masks, len(ref))
    floor = _shift_floor(current, ref.tokens)
    while dist > floor + 1:
        found = _best_shift(current, ref_masks, len(ref), dist, floor)
        if found is None:
            break
        current, dist = found
        shifts += 1
    edits = shifts + dist
    return edits, edits / len(ref)

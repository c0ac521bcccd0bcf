"""Translation edit rate: word edit distance plus greedily-searched block shifts."""

from __future__ import annotations

from typing import Mapping

from ..errors import ValidationError
from ._kernels import (
    levenshtein_masks,
    levenshtein_prefix_states,
    levenshtein_resume,
    match_masks,
)
from .tokenizer import TokenizedSentence

MAX_SHIFT_SIZE = 10
MAX_SHIFT_DIST = 50


def _best_shift(current: list[str], ref_masks: Mapping[str, int], ref_len: int, base: int):
    """The single block move that reduces edit distance the most.

    Every contiguous block up to the size cap is tried at every landing
    position within the distance cap; ties keep the first candidate in scan
    order (block size, then source, then destination), so the search is
    deterministic. Returns (new_hyp, new_dist) or None when nothing strictly
    improves.

    Each move swaps two adjacent blocks. Three shortcuts make each candidate
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
    3. The distance drops by at most one per token read (D[i+1][m] >=
       D[i][m] - 1), so a candidate is abandoned once its score minus the
       tokens left reaches `best_dist`: it can no longer be strictly lower.
    """
    best = None
    best_dist = base
    n = len(current)
    states = levenshtein_prefix_states(current, ref_masks, ref_len)
    for size in range(1, min(MAX_SHIFT_SIZE, n) + 1):
        for i in range(n - size + 1):
            block = current[i : i + size]
            after = current[i + size :]
            for k in range(max(0, i - MAX_SHIFT_DIST), i - size):
                tail = block + current[k:i] + after
                state = levenshtein_resume(tail, ref_masks, ref_len, states[k], best_dist)
                if state is not None:
                    best_dist = state[2]
                    best = current[:k] + tail
            for k in range(i + size, min(n - size, i + MAX_SHIFT_DIST) + 1):
                tail = after[: k - i] + block + after[k - i :]
                state = levenshtein_resume(tail, ref_masks, ref_len, states[i], best_dist)
                if state is not None:
                    best_dist = state[2]
                    best = current[:i] + tail
    if best is None:
        return None
    return best, best_dist


def ter_sentence(hyp: TokenizedSentence, ref: TokenizedSentence) -> tuple[int, float]:
    """(edit count, rate). Rate = edits / reference length, unscaled."""
    if len(ref) == 0:
        raise ValidationError("TER needs a non-empty reference")
    ref_masks = match_masks(ref.tokens)
    current = list(hyp.tokens)
    shifts = 0
    dist = levenshtein_masks(current, ref_masks, len(ref))
    while dist > 0:
        found = _best_shift(current, ref_masks, len(ref), dist)
        if found is None:
            break
        current, dist = found
        shifts += 1
    edits = shifts + dist
    return edits, edits / len(ref)


def ter_corpus(
    hyps: list[TokenizedSentence], refs: list[TokenizedSentence]
) -> tuple[int, int, float]:
    """(total edits, total reference length, rate) summed over the corpus."""
    if len(hyps) != len(refs):
        raise ValidationError(f"hyp/ref length mismatch: {len(hyps)} vs {len(refs)}")
    if not hyps:
        raise ValidationError("empty corpus")
    total_edits = 0
    total_ref = 0
    for hyp, ref in zip(hyps, refs):
        edits, _ = ter_sentence(hyp, ref)
        total_edits += edits
        total_ref += len(ref)
    return total_edits, total_ref, total_edits / total_ref

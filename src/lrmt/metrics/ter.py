"""Translation edit rate: word edit distance plus greedily-searched block shifts."""

from __future__ import annotations

from typing import Mapping

from ..errors import ValidationError
from ._kernels import levenshtein_masks, match_masks
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
    """
    best = None
    best_dist = base
    n = len(current)
    for size in range(1, min(MAX_SHIFT_SIZE, n) + 1):
        for i in range(n - size + 1):
            block = current[i : i + size]
            remaining = current[:i] + current[i + size :]
            for k in range(len(remaining) + 1):
                if k == i or abs(i - k) > MAX_SHIFT_DIST:
                    continue
                cand = remaining[:k] + block + remaining[k:]
                d = levenshtein_masks(cand, ref_masks, ref_len)
                if d < best_dist:
                    best_dist = d
                    best = cand
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

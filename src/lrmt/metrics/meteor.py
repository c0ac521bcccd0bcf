"""Exact-match alignment metric with a fragmentation penalty (METEOR's exact
stage; Banerjee & Lavie 2005): Fmean, f_measure with beta 3, times the penalty."""

from __future__ import annotations

from .tokenizer import TokenizedSentence, check_parallel, f_measure, total


def _align(hyp: tuple[str, ...], ref: tuple[str, ...]) -> list[tuple[int, int]]:
    """Greedy left-to-right unique alignment: each hypothesis token, in order,
    takes the first unmatched equal reference token. Sorted by hyp index."""
    unmatched: dict[str, list[int]] = {}
    for j in reversed(range(len(ref))):
        unmatched.setdefault(ref[j], []).append(j)
    matches: list[tuple[int, int]] = []
    for i, h in enumerate(hyp):
        free = unmatched.get(h)
        if free:
            matches.append((i, free.pop()))
    return matches


def _chunks(matches: list[tuple[int, int]]) -> int:
    # matches sorted by hyp index; a chunk extends while both indices step by 1
    count = 0
    prev = None
    for i, j in matches:
        if prev is None or i != prev[0] + 1 or j != prev[1] + 1:
            count += 1
        prev = (i, j)
    return count


def meteor_sentence(hyp: TokenizedSentence, ref: TokenizedSentence) -> float:
    matches = _align(hyp.tokens, ref.tokens)
    m = len(matches)
    if m == 0:
        return 0.0  # the penalty divides by m
    penalty = 0.5 * (_chunks(matches) / m) ** 3
    # Fmean = 10PR / (R + 9P) is F_3
    return f_measure(m, len(hyp), len(ref), 3.0) * (1.0 - penalty)


def meteor_corpus(hyps: list[TokenizedSentence], refs: list[TokenizedSentence]) -> float:
    """Unweighted mean of sentence scores."""
    check_parallel(hyps, refs, TokenizedSentence)
    return total(map(meteor_sentence, hyps, refs)) / len(hyps)

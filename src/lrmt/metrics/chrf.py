"""Character n-gram F-score over whitespace-removed text, corpus-level."""

from __future__ import annotations

from ..corpus import check_type
from .tokenizer import check_parallel, f_measure, ngram_stats, total

# chrF2 as defined by Popović (2015): character n-grams of orders 1..6, recall
# weighted twice as much as precision
CHAR_ORDER = 6
BETA = 2.0


def chrf_stats(hyp: str, ref: str) -> tuple[tuple[int, int, int], ...]:
    """Per-order (matched, hyp total, ref total) char n-gram counts of one
    segment, for orders 1..CHAR_ORDER, with whitespace removed first. Each
    side is a str (:func:`~lrmt.corpus.check_type`)."""
    check_type(hyp, "hyp", str)
    check_type(ref, "ref", str)
    return ngram_stats("".join(hyp.split()), "".join(ref.split()), CHAR_ORDER)


def chrf(hyps: list[str], refs: list[str]) -> float:
    """Mean f_measure at beta BETA (2) over char orders 1..CHAR_ORDER, scaled to 0..100.

    Statistics are summed across the corpus before the F computation. Orders
    where neither side produced any n-grams are left out of the mean; an order
    with grams on one side only contributes an F of 0.
    """
    check_parallel(hyps, refs, str)
    segments = [chrf_stats(h, r) for h, r in zip(hyps, refs)]
    sums = (map(sum, zip(*order)) for order in zip(*segments))
    f = [f_measure(m, h, r, BETA) for m, h, r in sums if h or r]
    return 100.0 * total(f) / len(f) if f else 0.0

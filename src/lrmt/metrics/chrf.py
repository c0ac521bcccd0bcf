"""Character n-gram F-score over whitespace-removed text, corpus-level."""

from __future__ import annotations

from .tokenizer import check_parallel, check_text, ngram_stats

# chrF2 as defined by Popović (2015): character n-grams of orders 1..6, recall
# weighted twice as much as precision
CHAR_ORDER = 6
BETA = 2.0


def chrf_stats(hyp: str, ref: str) -> tuple[tuple[int, int, int], ...]:
    """Per-order (matched, hyp total, ref total) char n-gram counts of one
    segment, for orders 1..CHAR_ORDER, with whitespace removed first. Each
    side follows :func:`~lrmt.metrics.tokenizer.check_text`."""
    check_text(hyp)
    check_text(ref)
    return ngram_stats("".join(hyp.split()), "".join(ref.split()), CHAR_ORDER)


def chrf(hyps: list[str], refs: list[str]) -> float:
    """Mean F_BETA over char n-gram orders 1..CHAR_ORDER, scaled to 0..100.

    Statistics are summed across the corpus before the F computation. Orders
    where neither side produced any n-grams are left out of the mean; an order
    with grams on one side only contributes an F of 0.
    """
    check_parallel(hyps, refs)
    segments = [chrf_stats(h, r) for h, r in zip(hyps, refs)]
    f_sum = 0.0
    active_orders = 0
    b2 = BETA * BETA
    for order in zip(*segments):
        matched, hyp_total, ref_total = map(sum, zip(*order))
        if hyp_total == 0 and ref_total == 0:
            continue
        active_orders += 1
        p = matched / hyp_total if hyp_total else 0.0
        r = matched / ref_total if ref_total else 0.0
        if b2 * p + r > 0:
            f_sum += (1 + b2) * p * r / (b2 * p + r)
    if active_orders == 0:
        return 0.0
    return 100.0 * f_sum / active_orders

"""Character n-gram F-score over whitespace-removed text, corpus-level."""

from __future__ import annotations

import math

from ..errors import ValidationError
from .tokenizer import check_parallel, ngram_stats

DEFAULT_CHAR_ORDER = 6
DEFAULT_BETA = 2.0


def chrf_stats(hyp: str, ref: str, char_order: int) -> tuple[tuple[int, int, int], ...]:
    """Per-order (matched, hyp total, ref total) char n-gram counts of one
    segment, for orders 1..char_order, with whitespace removed first."""
    return ngram_stats("".join(hyp.split()), "".join(ref.split()), char_order)


def chrf(
    hyps: list[str],
    refs: list[str],
    char_order: int = DEFAULT_CHAR_ORDER,
    beta: float = DEFAULT_BETA,
) -> float:
    """Mean F_beta over char n-gram orders 1..char_order, scaled to 0..100.

    Statistics are summed across the corpus before the F computation. Orders
    where neither side produced any n-grams are left out of the mean; an order
    with grams on one side only contributes an F of 0. A char_order below 1
    or a beta that is negative or not finite raises ValidationError.
    """
    if not isinstance(char_order, int) or char_order < 1:
        raise ValidationError(f"chrF needs an integer char_order >= 1, got {char_order!r}")
    if not (math.isfinite(beta) and beta >= 0):
        raise ValidationError(f"chrF needs a finite beta >= 0, got {beta!r}")
    check_parallel(hyps, refs)
    segments = [chrf_stats(h, r, char_order) for h, r in zip(hyps, refs)]
    f_sum = 0.0
    active_orders = 0
    b2 = beta * beta
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

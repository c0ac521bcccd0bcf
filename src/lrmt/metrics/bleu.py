"""Corpus BLEU from additive sufficient statistics, single reference, no smoothing."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .. import __version__
from ..errors import ValidationError
from .tokenizer import TokenizedSentence, ngram_stats

MAX_ORDER = 4

SIGNATURE = f"BLEU|nrefs:1|case:mixed|tok:13a-lite|ngram:{MAX_ORDER}|version:{__version__}"


@dataclass(frozen=True)
class BleuStats:
    """Sufficient statistics for corpus BLEU.

    clipped[n-1] / totals[n-1] hold clipped matches and hypothesis n-gram
    counts for order n. Corpus stats are the componentwise sum of sentence
    stats; summation order never changes the result (all fields are ints).
    """

    clipped: tuple[int, int, int, int]
    totals: tuple[int, int, int, int]
    hyp_len: int
    ref_len: int

    def __post_init__(self) -> None:
        for c, t in zip(self.clipped, self.totals):
            if not 0 <= c <= t:
                raise ValidationError(f"clipped matches {self.clipped} exceed totals {self.totals}")

    def __add__(self, other: "BleuStats") -> "BleuStats":
        return BleuStats(
            clipped=tuple(a + b for a, b in zip(self.clipped, other.clipped)),
            totals=tuple(a + b for a, b in zip(self.totals, other.totals)),
            hyp_len=self.hyp_len + other.hyp_len,
            ref_len=self.ref_len + other.ref_len,
        )

    @classmethod
    def zero(cls) -> "BleuStats":
        return cls(clipped=(0, 0, 0, 0), totals=(0, 0, 0, 0), hyp_len=0, ref_len=0)


def sentence_stats(hyp: TokenizedSentence, ref: TokenizedSentence) -> BleuStats:
    clipped, totals, _ = zip(*ngram_stats(hyp.tokens, ref.tokens, MAX_ORDER))
    return BleuStats(clipped=clipped, totals=totals, hyp_len=len(hyp), ref_len=len(ref))


def brevity_penalty(hyp_len: int, ref_len: int) -> float:
    if hyp_len == 0:
        return 0.0
    if hyp_len > ref_len:
        return 1.0
    return math.exp(1.0 - ref_len / hyp_len)


def precisions_from_stats(stats: BleuStats) -> tuple[float, float, float, float]:
    """Per-order precisions in percent.

    An order with zero hypothesis n-grams (corpus shorter than n) counts as
    vacuously perfect, so an identical hyp/ref corpus scores 100 regardless of
    sentence lengths.
    """
    out = []
    for c, t in zip(stats.clipped, stats.totals):
        out.append(100.0 * c / t if t > 0 else 100.0)
    return tuple(out)


def compose_bleu(precisions_pct: tuple[float, ...], bp: float) -> float:
    """Score from per-order percent precisions and a brevity penalty."""
    if any(p <= 0.0 for p in precisions_pct):
        return 0.0
    log_sum = sum(math.log(p) for p in precisions_pct) / len(precisions_pct)
    # exp(mean of logs) can overshoot 100 by a few ulps on identical inputs
    return min(bp * math.exp(log_sum), 100.0)


def bleu_from_stats(stats: BleuStats) -> tuple[float, tuple[float, ...], float]:
    """(score, percent precisions, brevity penalty) from summed statistics."""
    bp = brevity_penalty(stats.hyp_len, stats.ref_len)
    precisions = precisions_from_stats(stats)
    return compose_bleu(precisions, bp), precisions, bp

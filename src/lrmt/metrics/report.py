"""Aggregate evaluation report: every metric over one hyp/ref corpus."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

from ..corpus import check_items, check_number, check_score
from ..errors import ValidationError
from .bleu import MAX_ORDER, SIGNATURE, BleuStats, bleu_from_stats
from .chrf import chrf
from .meteor import meteor_corpus
from .rouge import rouge_l_corpus
from .ter import ter_sentence
from .tokenizer import check_parallel, ngram_stats, tokenize_13a, total


@dataclass(frozen=True)
class MetricReport:
    """Corpus-level scores. BLEU/chrF/TER are on a 0-100 scale (TER may
    exceed 100), ROUGE-L/METEOR on 0-1. cos_sim/comet stay None unless
    per-sentence scores were supplied."""

    bleu: float
    precisions: tuple[float, float, float, float]
    bp: float
    chrf: float
    ter: float
    rouge_l: float
    meteor: float
    signature: str
    cos_sim: Optional[float] = None
    comet: Optional[float] = None

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, allow_nan=False)


def evaluate_corpus(
    hyps: list[str],
    refs: list[str],
    embedding_scores: Optional[Sequence[float]] = None,
    comet_scores: Optional[Sequence[float]] = None,
) -> MetricReport:
    """Every metric over one corpus. A score column is a list or tuple with
    one score per segment. Embedding scores follow `check_score`, COMET
    scores `check_number` with no range limit."""
    check_parallel(hyps, refs, str)
    for name, scores in (("embedding", embedding_scores), ("comet", comet_scores)):
        if scores is None:
            continue
        check_items(scores, f"{name} scores", object)
        if len(scores) != len(hyps):
            raise ValidationError(f"{name} scores length {len(scores)} != corpus size {len(hyps)}")
    if embedding_scores is not None:
        for s in embedding_scores:
            check_score(s, "embedding score")
    if comet_scores is not None:
        for s in comet_scores:  # COMET's range depends on its model
            check_number(s, "comet score", -math.inf, math.inf)

    hyp_tok = [tokenize_13a(h) for h in hyps]
    ref_tok = [tokenize_13a(r) for r in refs]
    empty = next((i for i, r in enumerate(ref_tok) if not r), None)
    if empty is not None:
        raise ValidationError(f"TER needs a non-empty reference; reference {empty} is empty")
    # BLEU's statistics are ints: sum each order's (clipped, hyp, ref) row
    # over the segments, then build and check one BleuStats; order 1's
    # totals are the token counts
    rows = [ngram_stats(h.tokens, r.tokens, MAX_ORDER) for h, r in zip(hyp_tok, ref_tok)]
    clipped, totals, ref_totals = zip(*(map(sum, zip(*order)) for order in zip(*rows)))
    stats = BleuStats(clipped=clipped, totals=totals, hyp_len=totals[0], ref_len=ref_totals[0])
    bleu, precisions, bp = bleu_from_stats(stats)
    edits = sum(ter_sentence(h, r)[0] for h, r in zip(hyp_tok, ref_tok))
    ref_len = stats.ref_len  # the reference tokens, as TER divides by them

    return MetricReport(
        bleu=bleu,
        precisions=precisions,
        bp=bp,
        chrf=chrf(hyps, refs),
        ter=edits / ref_len * 100.0,
        rouge_l=rouge_l_corpus(hyp_tok, ref_tok),
        meteor=meteor_corpus(hyp_tok, ref_tok),
        signature=SIGNATURE,
        cos_sim=None if embedding_scores is None else total(embedding_scores) / len(hyps),
        comet=None if comet_scores is None else total(comet_scores) / len(hyps),
    )

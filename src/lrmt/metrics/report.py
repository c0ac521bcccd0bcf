"""Aggregate evaluation report: every metric over one hyp/ref corpus."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

from ..errors import ValidationError
from .bleu import SIGNATURE, BleuStats, bleu_from_stats, sentence_stats
from .chrf import chrf
from .meteor import meteor_corpus
from .rouge import rouge_l_corpus
from .ter import ter_sentence
from .tokenizer import check_parallel, tokenize_13a


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


def _mean(xs: Sequence[float]) -> float:
    return sum(xs) / len(xs)


def evaluate_corpus(
    hyps: list[str],
    refs: list[str],
    embedding_scores: Optional[Sequence[float]] = None,
    comet_scores: Optional[Sequence[float]] = None,
) -> MetricReport:
    """Every metric over one corpus."""
    check_parallel(hyps, refs)
    for name, scores in (("embedding", embedding_scores), ("comet", comet_scores)):
        if scores is None:
            continue
        if len(scores) != len(hyps):
            raise ValidationError(f"{name} scores length {len(scores)} != corpus size {len(hyps)}")
        if not all(map(math.isfinite, scores)):
            raise ValidationError(f"{name} scores contain NaN or inf")

    hyp_tok = [tokenize_13a(h) for h in hyps]
    ref_tok = [tokenize_13a(r) for r in refs]
    stats = sum(map(sentence_stats, hyp_tok, ref_tok), BleuStats.zero())
    bleu, precisions, bp = bleu_from_stats(stats)
    edits = sum(ter_sentence(h, r)[0] for h, r in zip(hyp_tok, ref_tok))
    ref_len = sum(map(len, ref_tok))

    return MetricReport(
        bleu=bleu,
        precisions=precisions,
        bp=bp,
        chrf=chrf(hyps, refs),
        ter=edits / ref_len * 100.0,
        rouge_l=rouge_l_corpus(hyp_tok, ref_tok),
        meteor=meteor_corpus(hyp_tok, ref_tok),
        signature=SIGNATURE,
        cos_sim=None if embedding_scores is None else _mean(embedding_scores),
        comet=None if comet_scores is None else _mean(comet_scores),
    )

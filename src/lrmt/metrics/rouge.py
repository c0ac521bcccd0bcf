"""ROUGE-L: longest-common-subsequence F1."""

from __future__ import annotations

from ._kernels import lcs_length
from .tokenizer import TokenizedSentence, check_parallel


def rouge_l_sentence(hyp: TokenizedSentence, ref: TokenizedSentence) -> float:
    lcs = lcs_length(hyp.tokens, ref.tokens)
    if lcs == 0:
        return 0.0
    p = lcs / len(hyp)
    r = lcs / len(ref)
    return 2 * p * r / (p + r)


def rouge_l_corpus(hyps: list[TokenizedSentence], refs: list[TokenizedSentence]) -> float:
    """Unweighted mean of sentence F1 scores."""
    check_parallel(hyps, refs)
    return sum(map(rouge_l_sentence, hyps, refs)) / len(hyps)

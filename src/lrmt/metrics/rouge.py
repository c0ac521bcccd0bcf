"""ROUGE-L: longest-common-subsequence F1 (f_measure with beta 1)."""

from __future__ import annotations

from ._kernels import lcs_length
from .tokenizer import TokenizedSentence, check_parallel, f_measure, total


def rouge_l_sentence(hyp: TokenizedSentence, ref: TokenizedSentence) -> float:
    # a copy's LCS is its length, so it scores 1.0; an empty pair scores 0.0
    if hyp.tokens == ref.tokens and hyp.tokens:
        return 1.0
    return f_measure(lcs_length(hyp.tokens, ref.tokens), len(hyp), len(ref), 1.0)


def rouge_l_corpus(hyps: list[TokenizedSentence], refs: list[TokenizedSentence]) -> float:
    """Unweighted mean of sentence F1 scores."""
    check_parallel(hyps, refs, TokenizedSentence)
    return total(map(rouge_l_sentence, hyps, refs)) / len(hyps)

"""From-scratch MT evaluation metrics over a shared reference tokenizer."""

from ._kernels import BACKEND, lcs_length, levenshtein  # noqa: F401
from .bleu import (  # noqa: F401
    SIGNATURE,
    BleuStats,
    bleu_from_stats,
    brevity_penalty,
    compose_bleu,
    sentence_stats,
)
from .chrf import chrf  # noqa: F401
from .meteor import meteor_corpus, meteor_sentence  # noqa: F401
from .report import MetricReport, evaluate_corpus  # noqa: F401
from .rouge import rouge_l_corpus, rouge_l_sentence  # noqa: F401
from .ter import ter_sentence  # noqa: F401
from .tokenizer import TokenizedSentence, tokenize_13a  # noqa: F401

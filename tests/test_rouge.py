import random

import pytest

from lrmt.errors import ValidationError
from lrmt.metrics.rouge import rouge_l_corpus, rouge_l_sentence
from lrmt.metrics.tokenizer import TokenizedSentence, tokenize_13a


def toks(*tokens):
    return TokenizedSentence(tokens=tuple(tokens))


def oracle_rouge_l(hyp, ref):
    """LCS from the full DP matrix, then F1 of LCS precision and recall,
    written as rouge_l_sentence wrote it before f_measure: results must be
    equal, not only close."""
    n, m = len(hyp), len(ref)
    dp = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            if hyp[i - 1] == ref[j - 1]:
                dp[i][j] = dp[i - 1][j - 1] + 1
            else:
                dp[i][j] = max(dp[i - 1][j], dp[i][j - 1])
    lcs = dp[n][m]
    if lcs == 0:
        return 0.0
    p, r = lcs / n, lcs / m
    return 2 * p * r / (p + r)


def random_sentence(rng, vocab, max_len):
    return toks(*(rng.choice(vocab) for _ in range(rng.randrange(0, max_len + 1))))


class TestRougeLSentence:
    def test_matches_oracle_random(self):
        rng = random.Random(90)
        for _ in range(300):
            vocab = "abcdefgh"[: rng.randrange(1, 9)]
            hyp = random_sentence(rng, vocab, 25)
            ref = random_sentence(rng, vocab, 25)
            assert rouge_l_sentence(hyp, ref) == oracle_rouge_l(hyp.tokens, ref.tokens)

    def test_matches_oracle_on_text(self):
        # tokenized text, sometimes empty or whitespace-only on either side
        rng = random.Random(92)
        words = ["a ", "b ", "c.", " ", "\t", "\u3000", "a,b "]

        def text():
            return tokenize_13a("".join(rng.choice(words) for _ in range(rng.randrange(10))))

        for _ in range(1000):
            hyp, ref = text(), text()
            assert rouge_l_sentence(hyp, ref) == oracle_rouge_l(hyp.tokens, ref.tokens)

    def test_symmetric(self):
        rng = random.Random(91)
        for _ in range(200):
            hyp = random_sentence(rng, "abcd", 15)
            ref = random_sentence(rng, "abcd", 15)
            assert rouge_l_sentence(hyp, ref) == rouge_l_sentence(ref, hyp)

    def test_empty_side_scores_zero(self):
        assert rouge_l_sentence(toks(), toks("a", "b")) == 0.0
        assert rouge_l_sentence(toks("a", "b"), toks()) == 0.0
        assert rouge_l_sentence(toks(), toks()) == 0.0

    def test_identity_scores_one(self):
        assert rouge_l_sentence(toks("a", "b", "a"), toks("a", "b", "a")) == 1.0

    def test_known_case(self):
        # LCS "a c" of 2: P = 2/3, R = 2/4, F1 = 4/7
        assert rouge_l_sentence(toks("a", "x", "c"), toks("a", "b", "c", "d")) == pytest.approx(4 / 7)


class TestRougeLCorpus:
    def test_unweighted_mean(self):
        hyps = [toks("a", "b"), toks("x")]
        refs = [toks("a", "b"), toks("y")]
        assert rouge_l_corpus(hyps, refs) == 0.5

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            rouge_l_corpus([toks("a")], [])

    def test_empty_corpus(self):
        with pytest.raises(ValidationError):
            rouge_l_corpus([], [])

import random
from collections import Counter

import pytest

from lrmt.errors import ValidationError
from lrmt.metrics.meteor import _align, _chunks, meteor_corpus, meteor_sentence
from lrmt.metrics.tokenizer import TokenizedSentence, tokenize_13a


def toks(text):
    return TokenizedSentence(tokens=tuple(text.split()))


def hand_written_f_meteor(hyp, ref):
    """meteor_sentence as written before f_measure, kept as the reference it
    must equal exactly: Fmean = 10PR / (R + 9P) by hand."""
    matches = _align(hyp.tokens, ref.tokens)
    m = len(matches)
    if m == 0:
        return 0.0
    p = m / len(hyp)
    r = m / len(ref)
    f_mean = 10 * p * r / (r + 9 * p)
    penalty = 0.5 * (_chunks(matches) / m) ** 3
    return f_mean * (1.0 - penalty)


def random_text(rng):
    """0 to 11 words, punctuation and whitespace runs: sometimes empty or
    whitespace-only, often with repeated words."""
    return "".join(rng.choice(["a ", "b ", "c.", " ", "\t", "d,e ", "ab "]) for _ in range(rng.randrange(12)))


class TestMeteorSentence:
    def test_equals_hand_written_f_exactly(self):
        # f_measure does the float operations of Fmean's formula in the same
        # order, so scores are equal, not only close
        rng = random.Random(54)
        for _ in range(2000):
            hyp, ref = tokenize_13a(random_text(rng)), tokenize_13a(random_text(rng))
            assert meteor_sentence(hyp, ref) == hand_written_f_meteor(hyp, ref)
        for hyp, ref in (("", ""), ("a", " \t"), (" ", "a b"), ("a x", "a")):
            assert meteor_sentence(toks(hyp), toks(ref)) == hand_written_f_meteor(toks(hyp), toks(ref))

    @pytest.mark.parametrize("m", [1, 2, 5, 12])
    def test_identity_has_one_chunk(self, m):
        sentence = toks(" ".join(f"w{i}" for i in range(m)))
        assert meteor_sentence(sentence, sentence) == pytest.approx(1 - 0.5 * (1 / m) ** 3)

    def test_block_swap_adds_a_chunk(self):
        # same 4 matches in 2 chunks: penalty 0.5 * (2/4)^3
        assert meteor_sentence(toks("c d a b"), toks("a b c d")) == pytest.approx(1 - 0.5 * (2 / 4) ** 3)

    def test_no_match_scores_zero(self):
        assert meteor_sentence(toks("x y"), toks("a b")) == 0.0

    def test_recall_weighted_mean(self):
        # 1 match: P = 1/2, R = 1, F = 10PR / (R + 9P) = 10/11, one chunk
        assert meteor_sentence(toks("a x"), toks("a")) == pytest.approx(10 / 11 * 0.5)

    def test_stem_stage_needs_its_table(self):
        # only the exact stage is left and no stem table can be passed, so
        # forms of one stem never match
        hyp, ref = toks("walked"), toks("walks")
        assert meteor_sentence(hyp, ref) == 0.0
        with pytest.raises(TypeError):
            meteor_sentence(hyp, ref, stem_table={"walked": "walk", "walks": "walk"})

    def test_synonym_stage_needs_its_table(self):
        # likewise for synonyms, in either direction
        hyp, ref = toks("big"), toks("large")
        assert meteor_sentence(hyp, ref) == 0.0
        assert meteor_sentence(ref, hyp) == 0.0
        with pytest.raises(TypeError):
            meteor_sentence(hyp, ref, synonym_table={"big": frozenset({"large"})})


class TestMeteorCorpus:
    def test_unweighted_mean(self):
        hyps = [toks("a"), toks("x")]
        refs = [toks("a"), toks("y")]
        assert meteor_corpus(hyps, refs) == pytest.approx(0.25)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            meteor_corpus([toks("a")], [])

    def test_empty_corpus(self):
        with pytest.raises(ValidationError):
            meteor_corpus([], [])


class TestAlign:
    def test_greedy_exact_alignment(self):
        # seeded segments over small vocabularies, so most tokens repeat
        rng = random.Random(53)
        for _ in range(500):
            vocab = "abcdefg"[: rng.randrange(1, 8)]
            hyp = tuple(rng.choice(vocab) for _ in range(rng.randrange(13)))
            ref = tuple(rng.choice(vocab) for _ in range(rng.randrange(13)))
            matches = _align(hyp, ref)
            assert len(matches) == sum((Counter(hyp) & Counter(ref)).values())
            assert all(a[0] < b[0] for a, b in zip(matches, matches[1:]))
            for token in set(hyp):
                pairs = [(i, j) for i, j in matches if hyp[i] == token]
                assert all(ref[j] == token for _, j in pairs)
                # the first k occurrences on each side, in order: strictly increasing j
                k = len(pairs)
                assert [i for i, _ in pairs] == [i for i, h in enumerate(hyp) if h == token][:k]
                assert [j for _, j in pairs] == [j for j, r in enumerate(ref) if r == token][:k]

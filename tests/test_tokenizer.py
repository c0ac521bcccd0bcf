import json
import random
from collections import Counter
from pathlib import Path

import pytest

from lrmt.errors import ValidationError
from lrmt.metrics.tokenizer import TokenizedSentence, ngram_stats, tokenize_13a

GOLDEN = Path(__file__).parent / "data" / "tokenizer_golden.json"


class TestRules:
    def test_punctuation_split(self):
        assert tokenize_13a("Hello, world!").tokens == ("Hello", ",", "world", "!")

    def test_intra_digit_period_kept(self):
        assert tokenize_13a("3.14 is pi").tokens == ("3.14", "is", "pi")

    def test_intra_digit_comma_kept(self):
        assert tokenize_13a("1,000 cats").tokens == ("1,000", "cats")

    def test_plain_question_mark(self):
        assert tokenize_13a("nwng tamo?").tokens == ("nwng", "tamo", "?")

    def test_abbreviation_period_kept_mid_token(self):
        assert tokenize_13a("U.S.A. rocks").tokens == ("U.S.A", ".", "rocks")

    def test_sentence_final_period_split(self):
        assert tokenize_13a("the end.").tokens == ("the", "end", ".")

    def test_unicode_punctuation_padded(self):
        assert tokenize_13a("«hi»").tokens == ("«", "hi", "»")
        assert tokenize_13a("什么？").tokens == ("什么", "？")

    def test_non_punct_unicode_untouched(self):
        # currency symbols are category S, not P
        assert tokenize_13a("€5 here").tokens == ("€5", "here")

    def test_empty_and_whitespace(self):
        assert tokenize_13a("").tokens == ()
        assert tokenize_13a("   ").tokens == ()

    def test_deterministic(self):
        s = "a, b. c 3.14 «d»"
        assert tokenize_13a(s).tokens == tokenize_13a(s).tokens


class TestTokenizedSentence:
    def test_invariants_enforced(self):
        with pytest.raises(ValidationError, match="bad token"):
            TokenizedSentence(tokens=("ok", ""))
        with pytest.raises(ValidationError, match="bad token"):
            TokenizedSentence(tokens=("has space",))

    def test_list_stored_as_tuple(self):
        ts = TokenizedSentence(tokens=["a", "b"])
        assert ts.tokens == ("a", "b")
        assert hash(ts) == hash(TokenizedSentence(tokens=("a", "b")))

    def test_len_and_iter(self):
        ts = tokenize_13a("one two three")
        assert len(ts) == 3
        assert list(ts) == ["one", "two", "three"]


class TestGoldenFile:
    def test_thirty_sentences_frozen(self):
        cases = json.loads(GOLDEN.read_text("utf-8"))
        assert len(cases) == 30
        for case in cases:
            got = list(tokenize_13a(case["text"]).tokens)
            assert got == case["tokens"], f"tokenization drifted for {case['text']!r}"


def intersection_ngram_stats(hyp, ref, max_order):
    """Clipped matches as the Counter intersection of both sides' n-grams."""
    out = []
    for n in range(1, max_order + 1):
        h = Counter(hyp[i : i + n] for i in range(len(hyp) - n + 1))
        r = Counter(ref[i : i + n] for i in range(len(ref) - n + 1))
        out.append((sum((h & r).values()), max(len(hyp) - n + 1, 0), max(len(ref) - n + 1, 0)))
    return tuple(out)


class TestNgramStats:
    def test_known_case(self):
        # "a", "b" and "ab" twice in the hyp, once in the ref: each clipped to one
        assert ngram_stats("abab", "abx", 2) == ((2, 4, 3), (1, 3, 2))

    def test_matches_counter_intersection(self):
        # small alphabets repeat n-grams, so clipping is exercised on both sides
        rng = random.Random(90)
        for _ in range(300):
            alphabet = "abcde"[: rng.randrange(1, 6)]
            max_order = rng.randrange(1, 7)
            hyp = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 25)))
            ref = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 25)))
            for h, r in ((hyp, ref), (tuple(hyp), tuple(ref))):
                assert ngram_stats(h, r, max_order) == intersection_ngram_stats(h, r, max_order)

    def test_words_and_characters_counted_apart(self):
        # a word unigram "ab" is not the character bigram "ab"
        assert ngram_stats(("ab",), ("a", "b"), 2) == ((0, 1, 2), (0, 0, 1))

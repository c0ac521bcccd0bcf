import json
import random
import re
import string
import sys
import unicodedata
from collections import Counter
from pathlib import Path

import pytest

from lrmt.errors import ValidationError
from lrmt.metrics import tokenizer
from lrmt.metrics.tokenizer import TokenizedSentence, f_measure, ngram_stats, tokenize_13a

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

    @pytest.mark.parametrize("text", [None, 3, b"a b", ["a", "b"]])
    def test_non_string_rejected(self, text):
        with pytest.raises(ValidationError, match=re.escape(f"text must be str, not {type(text).__name__}: {text!r}")):
            tokenize_13a(text)


class TestTokenizedSentence:
    def test_invariants_enforced(self):
        with pytest.raises(ValidationError, match="bad token"):
            TokenizedSentence(tokens=("ok", ""))
        with pytest.raises(ValidationError, match="bad token"):
            TokenizedSentence(tokens=("has space",))
        # tuple("abc") would store one token per character
        with pytest.raises(ValidationError, match="tokens must be a list or tuple, not str"):
            TokenizedSentence(tokens="abc")
        for tokens, what in (
            ((1, 2), "tokens item 0 must be str, not int: 1"),
            (None, "tokens must be a list or tuple, not NoneType"),
            ((b"a",), "tokens item 0 must be str, not bytes: b'a'"),
        ):
            with pytest.raises(ValidationError, match=re.escape(what)):
                TokenizedSentence(tokens=tokens)

    def test_set_of_tokens_refused(self):
        # a set used to be stored in hash order
        with pytest.raises(ValidationError, match="tokens must be a list or tuple, not set"):
            TokenizedSentence(tokens={"a", "b"})
        assert TokenizedSentence(tokens=["b", "a"]).tokens == ("b", "a")

    def test_whitespace_is_what_isspace_accepts(self):
        # the one-pass check relies on str.split() splitting on exactly the
        # characters str.isspace() accepts, in all of Unicode
        spaces = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]
        assert "\x1c" in spaces and "\x85" in spaces and "\u3000" in spaces
        for ch in spaces:
            with pytest.raises(ValidationError, match="bad token"):
                TokenizedSentence(tokens=("a", f"b{ch}c"))
        for c in range(0x3100):
            if not chr(c).isspace():
                assert TokenizedSentence(tokens=(f"b{chr(c)}c",)).tokens == (f"b{chr(c)}c",)

    def test_bad_token_named(self):
        with pytest.raises(ValidationError, match=r"bad token 'b\\x85c'"):
            TokenizedSentence(tokens=("a", "b\x85c", "d e"))
        with pytest.raises(ValidationError, match="bad token ''"):
            TokenizedSentence(tokens=("a", "", "d e"))

    def test_list_stored_as_tuple(self):
        ts = TokenizedSentence(tokens=["a", "b"])
        assert ts.tokens == ("a", "b")
        assert hash(ts) == hash(TokenizedSentence(tokens=("a", "b")))

    def test_len(self):
        ts = tokenize_13a("one two three")
        assert len(ts) == 3


class TestGoldenFile:
    def test_thirty_sentences_frozen(self):
        cases = json.loads(GOLDEN.read_text("utf-8"))
        assert len(cases) == 30
        for case in cases:
            got = list(tokenize_13a(case["text"]).tokens)
            assert got == case["tokens"], f"tokenization drifted for {case['text']!r}"


def loop_tokenize_13a(text):
    """tokenize_13a's rules one character at a time, each judged against its
    original neighbors: the implementation the regex passes replaced."""
    out = []
    for k, ch in enumerate(text):
        prev = text[k - 1] if k > 0 else " "
        nxt = text[k + 1] if k + 1 < len(text) else " "
        if ord(ch) < 128:
            if ch in string.punctuation:
                if ch in ".," and "0" <= prev <= "9" and "0" <= nxt <= "9":
                    out.append(ch)
                elif ch == "." and prev in string.ascii_letters and not nxt.isspace():
                    out.append(ch)
                else:
                    out.append(f" {ch} ")
            else:
                out.append(ch)
        elif unicodedata.category(ch).startswith("P"):
            out.append(f" {ch} ")
        else:
            out.append(ch)
    return tuple("".join(out).split())


# whitespace str.isspace() accepts beyond ASCII's, a no-break space, and
# non-ASCII punctuation (category P*) and symbols
ODD_CHARS = "\x1c\x1d\x1e\x1f\x85\xa0\u2028\u3000«»。、！？।॥¿¡—…€©½é字"


class TestAgainstLoop:
    def test_random_text(self):
        # digits, letters, '.' and ',' weighted up so the exceptions' contexts recur
        rng = random.Random(91)
        pool = string.printable + ODD_CHARS + "0123456789" + ".,.,.," + "aZ"
        for _ in range(20000):
            text = "".join(rng.choice(pool) for _ in range(rng.randrange(0, 16)))
            assert tokenize_13a(text).tokens == loop_tokenize_13a(text), repr(text)

    def test_output_passes_the_public_check(self):
        # tokenize_13a builds its result without TokenizedSentence's check;
        # its tokens, from str.split(), must pass that check all the same
        rng = random.Random(33)
        pool = string.printable + ODD_CHARS + "\u00e9\u0915\u093e\u0301"
        for _ in range(20000):
            text = "".join(rng.choice(pool) for _ in range(rng.randrange(0, 24)))
            out = tokenize_13a(text)
            assert TokenizedSentence(tokens=out.tokens) == out, repr(text)

    def test_every_neighbor_of_the_exceptions(self):
        # Latin, Greek, Cyrillic, Indic, general punctuation and CJK symbols
        # on either side of '.' and ',' and inside a word
        for c in range(0x3100):
            ch = chr(c)
            if "\ud800" <= ch <= "\udfff":
                continue
            for text in (f"a.{ch}", f"1.{ch}", f"1,{ch}", f"{ch}.1", f"{ch},1", f"{ch}.x", f"x{ch}x"):
                assert tokenize_13a(text).tokens == loop_tokenize_13a(text), repr(text)


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


def counter_ngram_stats(hyp, ref, max_order):
    """ngram_stats without the affix trim: every n-gram of both sides counted."""
    orders = range(1, max_order + 1)
    left = Counter(hyp[i : i + n] for n in orders for i in range(len(hyp) - n + 1))
    stats = []
    for n in orders:
        matched = 0
        for i in range(len(ref) - n + 1):
            gram = ref[i : i + n]
            if left[gram]:
                left[gram] -= 1
                matched += 1
        stats.append((matched, max(len(hyp) - n + 1, 0), max(len(ref) - n + 1, 0)))
    return tuple(stats)


def near_copy(rng, alphabet, text):
    """`text` after 0 to 3 random insertions, deletions or substitutions."""
    chars = list(text)
    for _ in range(rng.randrange(0, 4)):
        k = rng.randrange(len(chars) + 1)
        edit = rng.choice(["ins", "del", "sub"]) if k < len(chars) else "ins"
        if edit == "ins":
            chars.insert(k, rng.choice(alphabet))
        elif edit == "del":
            del chars[k]
        else:
            chars[k] = rng.choice(alphabet)
    return "".join(chars)


class TestAffixTrim:
    def test_matches_untrimmed_on_near_copies(self):
        # near copies share long prefixes and suffixes, shorter or longer than
        # the order; small alphabets repeat n-grams across the affix boundary
        rng = random.Random(92)
        for _ in range(800):
            alphabet = "abcde"[: rng.randrange(1, 6)]
            ref = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 20)))
            hyp = near_copy(rng, alphabet, ref)
            for max_order in range(1, 7):
                for h, r in ((hyp, ref), (ref, hyp), (tuple(hyp), tuple(ref))):
                    assert ngram_stats(h, r, max_order) == counter_ngram_stats(h, r, max_order)

    @pytest.mark.parametrize(
        "hyp,ref",
        [
            ("aaaa", "aa"),  # the prefix and the suffix overlap
            ("aa", "aaaa"),
            ("abab", "ab"),
            ("xabcy", "zabcw"),  # shared middle, no shared affix
            ("abxcd", "abycd"),  # affixes shorter than the order
            ("abcdefgxhijklmn", "abcdefgyhijklmn"),  # affixes longer than the order
            ("", ""),
            ("", "abc"),
            ("abc", ""),
            ("abcabc", "abcabc"),  # exact copies
            ("a", "a"),
        ],
    )
    def test_edge_cases(self, hyp, ref):
        for max_order in range(1, 7):
            for h, r in ((hyp, ref), (tuple(hyp), tuple(ref))):
                assert ngram_stats(h, r, max_order) == counter_ngram_stats(h, r, max_order)


class TestExactCopy:
    @pytest.mark.parametrize(
        "text",
        ["", "a", "ab", "abc", "abcabc", "aaaaaaa", ("the", "cat"), ("a",) * 9, ()],
    )
    def test_closed_form_equals_counter(self, text, monkeypatch):
        # a copy is counted with no Counter: empty, shorter than the order,
        # longer than it, repeated n-grams, and token tuples
        expected = {n: counter_ngram_stats(text, text, n) for n in range(1, 7)}
        monkeypatch.setattr(tokenizer, "Counter", None)
        for max_order in range(1, 7):
            assert ngram_stats(text, text, max_order) == expected[max_order]


class TestFMeasure:
    def test_no_match_scores_zero(self):
        # no total divides when nothing matches, zero totals included
        assert f_measure(0, 0, 0, 1.0) == 0.0
        assert f_measure(0, 0, 5, 2.0) == 0.0
        assert f_measure(0, 5, 0, 3.0) == 0.0

    def test_f1_symmetric_in_totals(self):
        rng = random.Random(94)
        for _ in range(300):
            hyp_total, ref_total = rng.randrange(1, 40), rng.randrange(1, 40)
            m = rng.randrange(0, min(hyp_total, ref_total) + 1)
            assert f_measure(m, hyp_total, ref_total, 1.0) == f_measure(m, ref_total, hyp_total, 1.0)

    def test_hand_computed(self):
        # P = 2/4, R = 2/3: F_1 = 2PR / (P + R) = 4/7
        assert f_measure(2, 4, 3, 1.0) == pytest.approx(4 / 7)
        # F_2 = 5PR / (4P + R) = (5/3) / (8/3) = 5/8
        assert f_measure(2, 4, 3, 2.0) == pytest.approx(5 / 8)
        # F_3 = 10PR / (9P + R) = (10/3) / (31/6) = 20/31
        assert f_measure(2, 4, 3, 3.0) == pytest.approx(20 / 31)

    def test_recall_weighted_by_beta(self):
        # P 1/4 and R 1/2 against P 1/2 and R 1/4: beta > 1 favors the recall
        for beta in (2.0, 3.0):
            assert f_measure(1, 4, 2, beta) > f_measure(1, 2, 4, beta)
        assert f_measure(3, 3, 3, 3.0) == 1.0

import random
import re

import pytest

from lrmt.errors import ValidationError
from lrmt.metrics.chrf import BETA, CHAR_ORDER, chrf, chrf_stats


def oracle_counts(hyps, refs, char_order=CHAR_ORDER):
    """Per-order (matched, hyp total, ref total) over the corpus, by literal
    transcription of the definition: enumerate char n-grams by slicing lists
    and count matches with list.count."""
    per_order = []
    for n in range(1, char_order + 1):
        matched = hyp_total = ref_total = 0
        for hyp, ref in zip(hyps, refs):
            h = "".join(hyp.split())
            r = "".join(ref.split())
            h_grams = [h[i : i + n] for i in range(len(h) - n + 1)]
            r_grams = [r[i : i + n] for i in range(len(r) - n + 1)]
            for gram in set(h_grams):
                matched += min(h_grams.count(gram), r_grams.count(gram))
            hyp_total += len(h_grams)
            ref_total += len(r_grams)
        per_order.append((matched, hyp_total, ref_total))
    return per_order


def oracle_chrf(hyps, refs, char_order=CHAR_ORDER, beta=BETA):
    """Average F over the orders where either side has n-grams."""
    f_values = []
    for matched, hyp_total, ref_total in oracle_counts(hyps, refs, char_order):
        if hyp_total == 0 and ref_total == 0:
            continue
        p = matched / hyp_total if hyp_total else 0.0
        r = matched / ref_total if ref_total else 0.0
        f = (1 + beta**2) * p * r / (beta**2 * p + r) if (beta**2 * p + r) > 0 else 0.0
        f_values.append(f)
    if not f_values:
        return 0.0
    return 100.0 * sum(f_values) / len(f_values)


def hand_written_f_chrf(hyps, refs):
    """chrf as written before f_measure, kept as the reference it must equal
    exactly: its own F_BETA formula and zero guards."""
    segments = [chrf_stats(h, r) for h, r in zip(hyps, refs)]
    f_sum = 0.0
    active_orders = 0
    b2 = BETA * BETA
    for order in zip(*segments):
        matched, hyp_total, ref_total = map(sum, zip(*order))
        if hyp_total == 0 and ref_total == 0:
            continue
        active_orders += 1
        p = matched / hyp_total if hyp_total else 0.0
        r = matched / ref_total if ref_total else 0.0
        if b2 * p + r > 0:
            f_sum += (1 + b2) * p * r / (b2 * p + r)
    if active_orders == 0:
        return 0.0
    return 100.0 * f_sum / active_orders


def random_text(rng, alphabet="abcdef ", lo=3, hi=15):
    return "".join(rng.choice(alphabet) for _ in range(rng.randrange(lo, hi))).strip() or "a"


# ASCII and non-ASCII letters, with tab, newline, no-break space, thin space
# and ideographic space between them
MIXED = "abé ßক\t\n\u00a0\u2009\u3000"


def mixed_text(rng, hi=10):
    """0 to hi-1 characters of MIXED: often shorter than the char order, and
    sometimes nothing but whitespace."""
    return "".join(rng.choice(MIXED) for _ in range(rng.randrange(hi)))


def summed(segments):
    """Per-order counts of a corpus from its per-segment counts."""
    return [tuple(map(sum, zip(*order))) for order in zip(*segments)]


class TestChrfStats:
    def test_whitespace_removed(self):
        assert chrf_stats("a b", "ab") == ((2, 2, 2), (1, 1, 1)) + ((0, 0, 0),) * 4

    def test_counts(self):
        # matches are clipped to the smaller count of each n-gram
        assert chrf_stats("aaa", "aa") == ((2, 3, 2), (1, 2, 1), (0, 1, 0)) + ((0, 0, 0),) * 3

    def test_segments_shorter_than_order(self):
        assert chrf_stats("ab", "abc") == (
            (2, 2, 3), (1, 1, 2), (0, 0, 1), (0, 0, 0), (0, 0, 0), (0, 0, 0)
        )
        assert chrf_stats("", " \t\u3000") == ((0, 0, 0),) * 6

    def test_non_ascii_whitespace_removed(self):
        assert chrf_stats("a\u00a0b\u3000c", "a b\tc\n") == ((3, 3, 3), (2, 2, 2), (1, 1, 1)) + ((0, 0, 0),) * 3

    def test_non_ascii_letters(self):
        # one code point each: é (precomposed) is not e, ক is one gram
        assert chrf_stats("éক", "eক") == ((1, 2, 2), (0, 1, 1)) + ((0, 0, 0),) * 4

    @pytest.mark.parametrize("batch", range(1, 9))
    def test_corpus_sums_equal_oracle_counts(self, batch):
        rng = random.Random(100 + batch)
        for _ in range(25):
            k = rng.randrange(1, 5)
            hyps = [mixed_text(rng) for _ in range(k)]
            refs = [mixed_text(rng) for _ in range(k)]
            segments = [chrf_stats(h, r) for h, r in zip(hyps, refs)]
            assert all(len(seg) == CHAR_ORDER for seg in segments)
            assert summed(segments) == oracle_counts(hyps, refs)


class TestChrf:
    def test_identity_100(self):
        assert chrf(["hello world"], ["hello world"]) == pytest.approx(100.0)

    def test_disjoint_0(self):
        assert chrf(["aaaa"], ["bbbb"]) == 0.0

    def test_hand_enumerated_case(self):
        # hyp "abcd" vs ref "abce": orders 1..4 active, orders 5..6 empty.
        # F2 per order with P=R: order1 3/4, order2 2/3, order3 1/2, order4 0.
        expected = 100.0 * (3 / 4 + 2 / 3 + 1 / 2 + 0.0) / 4
        assert chrf(["abcd"], ["abce"]) == pytest.approx(expected)
        assert chrf(["abcd"], ["abce"]) == pytest.approx(47.9166667)

    def test_matches_oracle_random(self):
        rng = random.Random(46)
        for text in [random_text] * 60 + [mixed_text] * 60:
            k = rng.randrange(1, 4)
            hyps = [text(rng) for _ in range(k)]
            refs = [text(rng) for _ in range(k)]
            assert chrf(hyps, refs) == pytest.approx(oracle_chrf(hyps, refs))

    @pytest.mark.parametrize("char_order", range(1, CHAR_ORDER + 1))
    @pytest.mark.parametrize("beta", [BETA])
    def test_matches_oracle_settings(self, char_order, beta):
        # segments of at most char_order characters have no n-grams above that
        # order on either side, so those orders drop out of the mean and chrF2
        # equals the oracle cut at char_order
        rng = random.Random(char_order * 10 + int(beta * 2))
        for _ in range(10):
            k = rng.randrange(1, 5)
            hyps = [mixed_text(rng, char_order + 1) for _ in range(k)]
            refs = [mixed_text(rng, char_order + 1) for _ in range(k)]
            assert chrf(hyps, refs) == pytest.approx(oracle_chrf(hyps, refs, char_order, beta))

    def test_beta_weighting_favors_recall(self):
        # beta 2: a hyp that covers the ref and adds noise (recall 1, precision
        # 4/7 at order 1) outscores the same strings the other way round
        noisy = chrf(["abcdxyz"], ["abcd"])
        short = chrf(["abcd"], ["abcdxyz"])
        assert noisy > short
        assert noisy == pytest.approx(oracle_chrf(["abcdxyz"], ["abcd"]))

    def test_corpus_sums_before_f(self):
        # two sentences pooled is not the mean of their individual scores
        hyps = ["abcdef", "ab"]
        refs = ["abcdef", "abzzzz"]
        pooled = chrf(hyps, refs)
        means = (chrf([hyps[0]], [refs[0]]) + chrf([hyps[1]], [refs[1]])) / 2
        assert pooled != pytest.approx(means)
        assert pooled == pytest.approx(oracle_chrf(hyps, refs))

    def test_shorter_char_order(self):
        # a segment shorter than CHAR_ORDER: orders 3..6 have no n-grams on
        # either side and are left out of the mean
        assert chrf(["ab"], ["ab"]) == 100.0

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            chrf(["a"], ["a", "b"])
        # a str of three characters is not three segments
        with pytest.raises(ValidationError, match="hyps must be a list or tuple, not str"):
            chrf("abc", "abd")
        with pytest.raises(ValidationError, match="hyps must be a list or tuple, not str"):
            chrf("abc", ["a", "b", "c"])
        with pytest.raises(ValidationError, match="refs must be a list or tuple, not str"):
            chrf(["a", "b", "c"], "abc")
        # a segment is a str, on either side
        for hyps, refs, what in (
            (["a", None], ["a", "b"], "hyps item 1 must be str, not NoneType: None"),
            (["a", "b"], ["a", 5], "refs item 1 must be str, not int: 5"),
            ([b"a"], ["a"], "hyps item 0 must be str, not bytes: b'a'"),
            (["a"], [b"a"], "refs item 0 must be str, not bytes: b'a'"),
        ):
            with pytest.raises(ValidationError, match=re.escape(what)):
                chrf(hyps, refs)

    def test_empty_corpus(self):
        with pytest.raises(ValidationError):
            chrf([], [])
        with pytest.raises(ValidationError, match="hyps must be a list or tuple, not str"):
            chrf("", "")

    def test_equals_hand_written_f_exactly(self):
        # f_measure does the float operations of the formula it replaced, in
        # the same order, so scores are equal, not only close; mixed_text gives
        # empty and whitespace-only segments
        rng = random.Random(49)
        for text in [random_text] * 300 + [mixed_text] * 1200:
            k = rng.randrange(1, 5)
            hyps = [text(rng) for _ in range(k)]
            refs = [text(rng) for _ in range(k)]
            assert chrf(hyps, refs) == hand_written_f_chrf(hyps, refs)
        for hyps, refs in (([""], [""]), ([" \t"], ["ab"]), (["ab", ""], ["", "\u3000"]), (["abc"], ["abd"])):
            assert chrf(hyps, refs) == hand_written_f_chrf(hyps, refs)

    def test_range(self):
        rng = random.Random(47)
        for _ in range(40):
            score = chrf([random_text(rng)], [random_text(rng)])
            assert 0.0 <= score <= 100.0

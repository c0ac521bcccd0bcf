import json
import math
import re
import random
from pathlib import Path

import pytest

from lrmt.errors import ValidationError
from lrmt.metrics.bleu import (
    SIGNATURE,
    BleuStats,
    bleu_from_stats,
    brevity_penalty,
    compose_bleu,
    sentence_stats,
)
from lrmt.metrics.report import evaluate_corpus
from lrmt.metrics.tokenizer import TokenizedSentence, tokenize_13a

STAT_LINES = Path(__file__).parent / "data" / "bleu_stat_lines.json"

WORDS = ["cat", "dog", "house", "river", "sun", "walks", "sleeps", "red", "tall", "over"]


def oracle_ngram_stats(hyp_tokens, ref_tokens, order):
    """Count clipped matches by explicit enumeration, no Counter tricks."""
    hyp_grams = [tuple(hyp_tokens[i : i + order]) for i in range(len(hyp_tokens) - order + 1)]
    ref_grams = [tuple(ref_tokens[i : i + order]) for i in range(len(ref_tokens) - order + 1)]
    clipped = 0
    for gram in set(hyp_grams):
        clipped += min(hyp_grams.count(gram), ref_grams.count(gram))
    return clipped, len(hyp_grams)


def random_sentence(rng, lo=4, hi=12, vocab=WORDS):
    return " ".join(rng.choice(vocab) for _ in range(rng.randrange(lo, hi)))


def summed_stats(hyps, refs):
    total = BleuStats.zero()
    for h, r in zip(hyps, refs):
        total = total + sentence_stats(tokenize_13a(h), tokenize_13a(r))
    return total


class TestSentenceStats:
    def test_clipping_hand_count(self):
        hyp = tokenize_13a("the the the the the")
        ref = tokenize_13a("the cat sat on the mat")
        stats = sentence_stats(hyp, ref)
        assert stats.clipped[0] == 2  # "the" appears twice in ref, clipped from 5
        assert stats.totals[0] == 5

    def test_matches_enumeration_oracle(self):
        rng = random.Random(42)
        pairs = [(random_sentence(rng), random_sentence(rng)) for _ in range(100)]
        # lengths below MAX_ORDER, and empty, over tiny vocabularies (many repeats)
        for _ in range(300):
            vocab = WORDS[: rng.randint(1, 3)]
            pairs.append(tuple(random_sentence(rng, 0, 12, vocab) for _ in range(2)))
        for h, r in pairs:
            hyp = tokenize_13a(h)
            ref = tokenize_13a(r)
            stats = sentence_stats(hyp, ref)
            for n in range(1, 5):
                clipped, total = oracle_ngram_stats(hyp.tokens, ref.tokens, n)
                assert stats.clipped[n - 1] == clipped
                assert stats.totals[n - 1] == total

    def test_list_built_sentence_counts_like_tuple_built(self):
        rng = random.Random(46)
        for _ in range(50):
            hyp = tokenize_13a(random_sentence(rng, 0, 12, WORDS[:3])).tokens
            ref = tokenize_13a(random_sentence(rng, 0, 12, WORDS[:3])).tokens
            from_lists = sentence_stats(TokenizedSentence(list(hyp)), TokenizedSentence(list(ref)))
            assert from_lists == sentence_stats(TokenizedSentence(hyp), TokenizedSentence(ref))

    def test_invariant_enforced(self):
        with pytest.raises(ValidationError):
            BleuStats(clipped=(2, 0, 0, 0), totals=(1, 0, 0, 0), hyp_len=1, ref_len=1)

    @pytest.mark.parametrize(
        "fields, what",
        [
            # one precision used to score 100.0
            (((1,), (1,), 1, 1), "BLEU clipped (1,) and totals (1,) are not 4 counts each"),
            (((0,) * 4, (0,) * 5, 1, 1), "are not 4 counts each"),
            (((True, 0, 0, 0), (1,) * 4, 1, 1), "are not 4 counts each"),
            (((1.5, 1, 1, 1), (2,) * 4, 1, 1), "clipped item 0 must be int, not float: 1.5"),
            (((0,) * 4, "1234", 1, 1), "totals must be a list or tuple, not str"),
            (((-1, 0, 0, 0), (0,) * 4, 1, 1), "exceed totals"),
            # a negative hypothesis length used to report a brevity penalty of 148.41
            (((0,) * 4, (0,) * 4, -1, 1), "hyp_len -1 is not an integer >= 0"),
            (((0,) * 4, (0,) * 4, 1, 2.0), "ref_len 2.0 is not an integer >= 0"),
        ],
    )
    def test_fields_checked(self, fields, what):
        with pytest.raises(ValidationError, match=re.escape(what)):
            BleuStats(*fields)

    def test_list_fields_kept_as_tuples(self):
        clipped, totals = [1, 0, 0, 0], [2, 1, 0, 0]
        stats = BleuStats(clipped, totals, 2, 2)
        clipped[0] = 5
        assert stats.clipped == (1, 0, 0, 0) and stats.totals == (2, 1, 0, 0)
        assert stats == BleuStats((1, 0, 0, 0), (2, 1, 0, 0), 2, 2)


class TestAdditivity:
    def test_sum_equals_whole(self):
        rng = random.Random(43)
        sents = [(random_sentence(rng), random_sentence(rng)) for _ in range(30)]
        hyps, refs = [h for h, _ in sents], [r for _, r in sents]
        report = evaluate_corpus(hyps, refs)
        assert (report.bleu, report.precisions, report.bp) == bleu_from_stats(summed_stats(hyps, refs))

    def test_reduction_order_free(self):
        rng = random.Random(44)
        parts = [
            sentence_stats(tokenize_13a(random_sentence(rng)), tokenize_13a(random_sentence(rng)))
            for _ in range(12)
        ]
        fwd = BleuStats.zero()
        for p in parts:
            fwd = fwd + p
        rev = BleuStats.zero()
        for p in reversed(parts):
            rev = rev + p
        assert fwd == rev
        assert bleu_from_stats(fwd)[0] == bleu_from_stats(rev)[0]


class TestBrevityPenalty:
    def test_longer_hyp_no_penalty(self):
        assert brevity_penalty(100, 90) == 1.0

    def test_equal_lengths(self):
        assert brevity_penalty(50, 50) == 1.0

    def test_reported_value(self):
        assert brevity_penalty(12733, 12884) == pytest.approx(0.988, abs=1e-3)

    def test_formula(self):
        assert brevity_penalty(80, 100) == pytest.approx(math.exp(1 - 100 / 80))

    def test_empty_hyp(self):
        assert brevity_penalty(0, 10) == 0.0

    def test_empty_hyp_scores_zero(self):
        stats = BleuStats((0,) * 4, (0,) * 4, 0, 7)
        assert bleu_from_stats(stats) == (0.0, (100.0,) * 4, 0.0)


class TestBleuCorpus:
    """Corpus BLEU as evaluate_corpus reports it."""

    def test_identity_is_100(self):
        sents = ["the cat sat on the mat today", "a river runs through the tall red house"]
        assert evaluate_corpus(sents, list(sents)).bleu == pytest.approx(100.0)
        stats = summed_stats(sents, sents)
        assert stats.clipped == stats.totals

    def test_identity_short_sentences_still_100(self):
        # no 4-grams anywhere; vacuous orders must not zero the score
        assert evaluate_corpus(["hi", "go now"], ["hi", "go now"]).bleu == pytest.approx(100.0)

    def test_disjoint_is_0(self):
        assert evaluate_corpus(["aa bb cc dd"], ["ee ff gg hh"]).bleu == 0.0

    def test_zero_higher_order_zeroes_score(self):
        # shared unigrams only; p2 = 0 kills the geometric mean
        assert evaluate_corpus(["cat dog sun red"], ["dog cat red sun"]).bleu == 0.0

    def test_signature_format(self):
        sig = evaluate_corpus(["a b c d e"], ["a b c d e"]).signature
        assert sig == SIGNATURE
        parts = sig.split("|")
        assert parts[0] == "BLEU"
        assert parts[1] == "nrefs:1"
        assert parts[2] == "case:mixed"
        assert parts[3] == "tok:13a-lite"
        assert parts[4] == "ngram:4"
        assert parts[5].startswith("version:")

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            evaluate_corpus(["a"], ["a", "b"])

    def test_empty_corpus(self):
        with pytest.raises(ValidationError):
            evaluate_corpus([], [])

    def test_range(self):
        rng = random.Random(45)
        for _ in range(30):
            hyps = [random_sentence(rng) for _ in range(5)]
            refs = [random_sentence(rng) for _ in range(5)]
            report = evaluate_corpus(hyps, refs)
            assert 0.0 <= report.bleu <= 100.0
            stats = summed_stats(hyps, refs)
            assert report.bp == brevity_penalty(stats.hyp_len, stats.ref_len)
            assert 0.0 < report.bp <= 1.0


class TestReportedStatLines:
    """Reconstruct scores from published precision/BP statistics."""

    def cases(self):
        return json.loads(STAT_LINES.read_text("utf-8"))

    def test_scores_within_tolerance(self):
        for case in self.cases():
            bp = brevity_penalty(case["hyp_len"], case["ref_len"])
            score = compose_bleu(tuple(case["precisions"]), bp)
            assert score == pytest.approx(case["reported_bleu"], abs=0.15), case["label"]

    def test_bp_within_tolerance(self):
        for case in self.cases():
            bp = brevity_penalty(case["hyp_len"], case["ref_len"])
            assert bp == pytest.approx(case["reported_bp"], abs=1e-3), case["label"]


class TestComposeBleu:
    def test_all_hundreds(self):
        assert compose_bleu((100.0, 100.0, 100.0, 100.0), 1.0) == 100.0

    def test_zero_precision_anywhere(self):
        assert compose_bleu((50.0, 0.0, 10.0, 5.0), 1.0) == 0.0

    def test_geometric_mean(self):
        expected = math.exp(sum(math.log(p) for p in (40.0, 20.0, 10.0, 5.0)) / 4)
        assert compose_bleu((40.0, 20.0, 10.0, 5.0), 1.0) == pytest.approx(expected)

    def test_bp_scales(self):
        a = compose_bleu((40.0, 20.0, 10.0, 5.0), 1.0)
        b = compose_bleu((40.0, 20.0, 10.0, 5.0), 0.5)
        assert b == pytest.approx(a / 2)

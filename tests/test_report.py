import json
import math
import random
import re

import pytest

from lrmt.errors import ValidationError
from lrmt.metrics import (
    SIGNATURE,
    BleuStats,
    bleu_from_stats,
    chrf,
    evaluate_corpus,
    meteor_corpus,
    rouge_l_corpus,
    sentence_stats,
    ter_sentence,
    tokenize_13a,
)
from lrmt.metrics import report as report_module
from lrmt.metrics.bleu import MAX_ORDER
from lrmt.metrics.report import MetricReport
from lrmt.metrics.tokenizer import ngram_stats

HYPS = ["the cat sat on a mat .", "he walked home late", "big dogs bark loudly !"]
REFS = ["the cat sat on the mat .", "late he walks home", "large dogs bark !"]


class TestEvaluateCorpus:
    def test_set_or_dict_corpus_refused(self):
        # a set or dict used to pair segments in hash or key order: BLEU read
        # 0.0 where the lists give 100.0
        hyps = ["the cat sat on the mat", "a dog ran in the park", "birds sing at dawn"]
        assert evaluate_corpus(hyps, hyps).bleu == 100.0
        for side in (set(hyps), dict.fromkeys(hyps)):
            with pytest.raises(ValidationError, match=f"hyps must be a list or tuple, not {type(side).__name__}"):
                evaluate_corpus(side, side)
            with pytest.raises(ValidationError, match=f"refs must be a list or tuple, not {type(side).__name__}"):
                evaluate_corpus(hyps, side)

    def test_equals_metrics_composed_by_hand(self):
        report = evaluate_corpus(
            HYPS,
            REFS,
            embedding_scores=[0.5, 0.25, 1.0],
            comet_scores=[0.75, 0.5, 0.25],
        )
        hyp_tok = [tokenize_13a(h) for h in HYPS]
        ref_tok = [tokenize_13a(r) for r in REFS]
        stats = BleuStats.zero()
        for h, r in zip(hyp_tok, ref_tok):
            stats = stats + sentence_stats(h, r)
        bleu, precisions, bp = bleu_from_stats(stats)
        edits = sum(ter_sentence(h, r)[0] for h, r in zip(hyp_tok, ref_tok))
        ref_len = sum(len(r) for r in ref_tok)
        assert report == MetricReport(
            bleu=bleu,
            precisions=precisions,
            bp=bp,
            chrf=chrf(HYPS, REFS),
            ter=edits / ref_len * 100.0,
            rouge_l=rouge_l_corpus(hyp_tok, ref_tok),
            meteor=meteor_corpus(hyp_tok, ref_tok),
            signature=SIGNATURE,
            cos_sim=1.75 / 3,
            comet=0.5,
        )

    def test_bleu_sums_fields_without_adding_stats(self, monkeypatch):
        # the per-field sums equal the BleuStats.__add__ fold, which
        # evaluate_corpus no longer runs
        rng = random.Random(12)
        words = "the a cat dog sat ran on under mat house".split()
        hyps = [" ".join(rng.choices(words, k=rng.randrange(0, 12))) for _ in range(200)]
        refs = [" ".join(rng.choices(words, k=rng.randrange(1, 12))) for _ in range(200)]
        stats = BleuStats.zero()
        for h, r in zip(hyps, refs):
            stats = stats + sentence_stats(tokenize_13a(h), tokenize_13a(r))
        expected = bleu_from_stats(stats)

        def refuse(self, other):
            raise AssertionError("BleuStats.__add__ called")

        monkeypatch.setattr(BleuStats, "__add__", refuse)
        report = evaluate_corpus(hyps, refs)
        assert (report.bleu, report.precisions, report.bp) == expected
        one = sentence_stats(tokenize_13a(hyps[0]), tokenize_13a(refs[0]))
        assert evaluate_corpus(hyps[:1], refs[:1]).bleu == bleu_from_stats(one)[0]

    def test_summed_rows_equal_the_sentence_stats_fold(self):
        # evaluate_corpus sums ngram_stats rows; order 1's totals are the
        # token counts, so the sums carry every BleuStats field
        for seed in range(5):
            rng = random.Random(seed)
            words = "the a cat dog sat ran on under mat house".split()
            hyps = [tokenize_13a(" ".join(rng.choices(words, k=rng.randrange(0, 12)))) for _ in range(100)]
            refs = [h if rng.random() < 0.3 else tokenize_13a(" ".join(rng.choices(words, k=rng.randrange(1, 12))))
                    for h in hyps]
            rows = [ngram_stats(h.tokens, r.tokens, MAX_ORDER) for h, r in zip(hyps, refs)]
            clipped, totals, ref_totals = zip(*(map(sum, zip(*order)) for order in zip(*rows)))
            fold = BleuStats.zero()
            for h, r in zip(hyps, refs):
                fold = fold + sentence_stats(h, r)
            assert BleuStats(clipped, totals, totals[0], ref_totals[0]) == fold

    def test_one_bleu_stats_check_per_corpus(self, monkeypatch):
        # the per-segment rows are summed unchecked, and the one BleuStats
        # built from the sums still refuses a bad count
        built = []
        check = BleuStats.__post_init__
        monkeypatch.setattr(BleuStats, "__post_init__", lambda stats: built.append(check(stats)))
        evaluate_corpus(HYPS, REFS)
        assert len(built) == 1

        def bad_row(hyp, ref, max_order):
            return ((len(hyp) + 1, len(hyp), len(ref)),) + ((0, 0, 0),) * (max_order - 1)

        monkeypatch.setattr(report_module, "ngram_stats", bad_row)
        with pytest.raises(ValidationError, match="exceed totals"):
            evaluate_corpus(HYPS, REFS)

    def test_defaults_leave_optional_scores_out(self):
        report = evaluate_corpus(HYPS, REFS)
        hyp_tok = [tokenize_13a(h) for h in HYPS]
        ref_tok = [tokenize_13a(r) for r in REFS]
        assert report.chrf == chrf(HYPS, REFS)
        assert report.meteor == meteor_corpus(hyp_tok, ref_tok)
        assert report.cos_sim is None and report.comet is None

    @pytest.mark.parametrize("name", ["embedding_scores", "comet_scores"])
    @pytest.mark.parametrize("length", [2, 4])
    def test_score_length_mismatch(self, name, length):
        with pytest.raises(ValidationError, match="corpus size 3"):
            evaluate_corpus(HYPS, REFS, **{name: [0.5] * length})

    @pytest.mark.parametrize("name", ["embedding_scores", "comet_scores"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_scores_rejected(self, name, bad):
        # a cosine lies in [-1, 1]; COMET's range depends on its model, so both
        # rules ask for a finite number first
        message = rf"{name.split('_')[0]} score \S+ is NaN, inf or beyond float range"
        with pytest.raises(ValidationError, match=message):
            evaluate_corpus(HYPS[:1], REFS[:1], **{name: [bad]})

    @pytest.mark.parametrize("bad", [5.0, -1.01, math.nextafter(1.0, 2.0), 2])
    def test_embedding_score_outside_cosine_range_rejected(self, bad):
        with pytest.raises(ValidationError, match=rf"embedding score {bad!r} outside \[-1, 1\]"):
            evaluate_corpus(HYPS[:2], REFS[:2], embedding_scores=[0.5, bad])

    def test_embedding_score_range_is_closed(self):
        report = evaluate_corpus(HYPS[:2], REFS[:2], embedding_scores=[1.0, -1.0])
        assert report.cos_sim == 0.0

    def test_comet_score_keeps_only_the_finite_rule(self):
        assert evaluate_corpus(HYPS[:2], REFS[:2], comet_scores=[5.0, -3.0]).comet == 1.0

    @pytest.mark.parametrize(
        "bad, name",
        [
            (True, "embedding_scores"),
            (False, "embedding_scores"),
            (True, "comet_scores"),
            (False, "comet_scores"),
            ("0.5", "comet_scores"),
        ],
    )
    def test_bool_scores_rejected(self, name, bad):
        message = f"{name.split('_')[0]} score {bad!r} is not a number"
        with pytest.raises(ValidationError, match=re.escape(message)):
            evaluate_corpus(HYPS[:2], REFS[:2], **{name: [0.5, bad]})

    def test_empty_reference_named(self):
        with pytest.raises(ValidationError, match="non-empty reference; reference 1 is empty"):
            evaluate_corpus(["a b", "c"], ["a b", ""])
        with pytest.raises(ValidationError, match="reference 2 is empty"):
            evaluate_corpus(["a", "b", "c", "d"], ["a", "b", " \u3000", ""])

    def test_corpus_mismatch_and_empty(self):
        with pytest.raises(ValidationError):
            evaluate_corpus(HYPS, REFS[:2])
        with pytest.raises(ValidationError):
            evaluate_corpus([], [])
        # a str is a sequence of characters, not of segments; a segment is a str
        bad = [
            ("ab", "ab", "hyps must be a list or tuple, not str"),
            ("the cat", "the dog", "hyps must be a list or tuple, not str"),
            ("ab", ["a", "b"], "hyps must be a list or tuple, not str"),
            (["a", "b"], "ab", "refs must be a list or tuple, not str"),
            (["a b", None], ["a b", "c"], "hyps item 1 must be str, not NoneType: None"),
            (["a b", "c"], ["a b", 3], "refs item 1 must be str, not int: 3"),
        ]
        for hyps, refs, what in bad:
            with pytest.raises(ValidationError, match=re.escape(what)):
                evaluate_corpus(hyps, refs)


class TestMetricReport:
    def report(self, **optional):
        return MetricReport(
            bleu=12.345,
            precisions=(50.0, 25.0, 12.5, 6.25),
            bp=1.0,
            chrf=40.0,
            ter=66.666,
            rouge_l=0.5,
            meteor=0.25,
            signature=SIGNATURE,
            **optional,
        )

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_json_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            self.report(comet=bad).to_json()

    def test_json_round_trip(self):
        report = self.report(cos_sim=0.5)
        data = json.loads(report.to_json())
        assert data["comet"] is None
        assert MetricReport(**{**data, "precisions": tuple(data["precisions"])}) == report

import json
import math

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
from lrmt.metrics.report import MetricReport

HYPS = ["the cat sat on a mat .", "he walked home late", "big dogs bark loudly !"]
REFS = ["the cat sat on the mat .", "late he walks home", "large dogs bark !"]


class TestEvaluateCorpus:
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
        with pytest.raises(ValidationError, match="NaN or inf"):
            evaluate_corpus(HYPS[:1], REFS[:1], **{name: [bad]})

    def test_corpus_mismatch_and_empty(self):
        with pytest.raises(ValidationError):
            evaluate_corpus(HYPS, REFS[:2])
        with pytest.raises(ValidationError):
            evaluate_corpus([], [])


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

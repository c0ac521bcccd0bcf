import json

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
    ter_corpus,
    tokenize_13a,
)
from lrmt.metrics.report import MetricReport

HYPS = ["the cat sat on a mat .", "he walked home late", "big dogs bark loudly !"]
REFS = ["the cat sat on the mat .", "late he walks home", "large dogs bark !"]
STEMS = {"walked": "walk", "walks": "walk"}
SYNONYMS = {"big": frozenset({"large"})}


class TestEvaluateCorpus:
    def test_equals_metrics_composed_by_hand(self):
        report = evaluate_corpus(
            HYPS,
            REFS,
            embedding_scores=[0.5, 0.25, 1.0],
            comet_scores=[0.75, 0.5, 0.25],
            stem_table=STEMS,
            synonym_table=SYNONYMS,
            char_order=4,
            beta=1.0,
        )
        hyp_tok = [tokenize_13a(h) for h in HYPS]
        ref_tok = [tokenize_13a(r) for r in REFS]
        stats = BleuStats.zero()
        for h, r in zip(hyp_tok, ref_tok):
            stats = stats + sentence_stats(h, r)
        bleu, precisions, bp = bleu_from_stats(stats)
        assert report == MetricReport(
            bleu=bleu,
            precisions=precisions,
            bp=bp,
            chrf=chrf(HYPS, REFS, char_order=4, beta=1.0),
            ter=ter_corpus(hyp_tok, ref_tok)[2] * 100.0,
            rouge_l=rouge_l_corpus(hyp_tok, ref_tok),
            meteor=meteor_corpus(hyp_tok, ref_tok, STEMS, SYNONYMS),
            signature=SIGNATURE,
            cos_sim=1.75 / 3,
            comet=0.5,
        )
        # the tables and chrF settings change the scores of this corpus
        assert report.meteor != meteor_corpus(hyp_tok, ref_tok)
        assert report.chrf != chrf(HYPS, REFS)

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

    def test_markdown_dashes_absent_columns(self):
        lines = self.report().render_markdown().splitlines()
        assert lines[0] == "| BLEU | chrF | ROUGE-L | METEOR | TER | Cos Sim | COMET |"
        assert lines[2] == "| 12.35 | 40.00 | 0.500 | 0.250 | 66.67 | — | — |"

    def test_markdown_present_columns(self):
        row = self.report(cos_sim=0.8125, comet=0.0).render_markdown().splitlines()[2]
        assert row.endswith("| 0.812 | 0.000 |")

    def test_json_round_trip(self):
        report = self.report(cos_sim=0.5)
        data = json.loads(report.to_json())
        assert data == report.to_dict()
        assert data["comet"] is None
        assert MetricReport(**{**data, "precisions": tuple(data["precisions"])}) == report

import pytest

from lrmt.errors import IngestError, ValidationError
from lrmt.metrics.meteor import (
    load_stem_table,
    load_synonym_table,
    meteor_corpus,
    meteor_sentence,
)
from lrmt.metrics.tokenizer import TokenizedSentence


def toks(text):
    return TokenizedSentence(tokens=tuple(text.split()))


class TestMeteorSentence:
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
        hyp, ref = toks("walked"), toks("walks")
        stems = {"walked": "walk", "walks": "walk"}
        assert meteor_sentence(hyp, ref) == 0.0
        assert meteor_sentence(hyp, ref, synonym_table={"walked": frozenset({"strolled"})}) == 0.0
        assert meteor_sentence(hyp, ref, stem_table=stems) == pytest.approx(0.5)

    def test_synonym_stage_needs_its_table(self):
        hyp, ref = toks("big"), toks("large")
        synonyms = {"big": frozenset({"large"})}
        assert meteor_sentence(hyp, ref) == 0.0
        assert meteor_sentence(hyp, ref, stem_table={"big": "bigg"}) == 0.0
        assert meteor_sentence(hyp, ref, synonym_table=synonyms) == pytest.approx(0.5)
        # listed under either side's entry
        assert meteor_sentence(ref, hyp, synonym_table=synonyms) == pytest.approx(0.5)


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


class TestTables:
    def test_stem_table(self, tmp_path):
        path = tmp_path / "stems.txt"
        path.write_text("# word stem\n\nwalked walk\n  walks walk  \n", encoding="utf-8")
        assert load_stem_table(path) == {"walked": "walk", "walks": "walk"}

    @pytest.mark.parametrize("line", ["walked", "walked walk extra"])
    def test_stem_table_bad_line(self, tmp_path, line):
        path = tmp_path / "stems.txt"
        path.write_text(f"walks walk\n{line}\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="bad stem line"):
            load_stem_table(path)

    def test_synonym_table(self, tmp_path):
        path = tmp_path / "syn.txt"
        path.write_text("# word synonyms\nbig large huge\n\nsmall little\n", encoding="utf-8")
        assert load_synonym_table(path) == {
            "big": frozenset({"large", "huge"}),
            "small": frozenset({"little"}),
        }

    def test_synonym_table_bad_line(self, tmp_path):
        path = tmp_path / "syn.txt"
        path.write_text("big large\nlonely\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="bad synonym line"):
            load_synonym_table(path)

    @pytest.mark.parametrize("load", [load_stem_table, load_synonym_table])
    def test_missing_file(self, tmp_path, load):
        with pytest.raises(IngestError, match="cannot read table"):
            load(tmp_path / "absent.txt")

    @pytest.mark.parametrize("load", [load_stem_table, load_synonym_table])
    def test_not_utf8(self, tmp_path, load):
        path = tmp_path / "latin1.txt"
        path.write_bytes("café cafe\n".encode("latin-1"))
        with pytest.raises(IngestError, match="cannot read table"):
            load(path)

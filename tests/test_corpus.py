import json
import os
import re

import pytest

from lrmt.corpus import (
    ENG_LATN,
    TRP_LATN,
    Corpus,
    LanguageTag,
    Origin,
    SentencePair,
    check_count,
    check_number,
    ingest,
    normalize_text,
    write,
)
from lrmt.errors import IngestError, ValidationError

SMOLDOC = Origin("smoldoc")
SYNTHETIC = Origin("synthetic")


def make_pair(i=0, src="hello there friend", tgt="bok nai kaisa", **kw):
    defaults = dict(
        id=f"smoldoc:{i}",
        source_text=src,
        target_text=tgt,
        source_lang=ENG_LATN,
        target_lang=TRP_LATN,
        origin=SMOLDOC,
    )
    defaults.update(kw)
    return SentencePair(**defaults)


class TestNormalizeText:
    def test_collapses_whitespace_runs(self):
        assert normalize_text("a  b\t c\n d") == "a b c d"

    def test_trims_edges(self):
        assert normalize_text("  hello  ") == "hello"

    def test_nfc(self):
        # e + combining acute composes to a single code point
        assert normalize_text("café") == "café"

    def test_preserves_case(self):
        assert normalize_text("Hello WORLD") == "Hello WORLD"

    def test_idempotent(self):
        s = normalize_text("  á   b  ")
        assert normalize_text(s) == s

    def test_empty(self):
        assert normalize_text("   ") == ""


class TestLanguageTag:
    def test_valid(self):
        assert str(LanguageTag("trp_Latn")) == "trp_Latn"

    @pytest.mark.parametrize(
        "bad", ["en", "eng-Latn", "ENG_Latn", "eng_latn", "eng_LATN", "", "eng_Lat", "eng_Latn\n", 5]
    )
    def test_invalid(self, bad):
        with pytest.raises(ValidationError):
            LanguageTag(bad)

    def test_equality(self):
        assert LanguageTag("eng_Latn") == ENG_LATN


class TestOrigin:
    def test_known(self):
        assert Origin("SmolDoc") == SMOLDOC  # label is case-folded

    def test_custom(self):
        assert str(Origin("tatoeba")) == "tatoeba"

    @pytest.mark.parametrize("bad", ["", "has space", "tab\there", 5])
    def test_invalid(self, bad):
        with pytest.raises(ValidationError):
            Origin(bad)


class TestSentencePair:
    def test_valid(self):
        p = make_pair()
        assert p.score is None

    def test_empty_source_rejected(self):
        with pytest.raises(ValidationError):
            make_pair(src="   ")

    @pytest.mark.parametrize("txt", ["a\tb", "a\nb", "a\rb"])
    def test_raw_control_chars_rejected(self, txt):
        with pytest.raises(ValidationError):
            make_pair(tgt=txt)

    def test_same_language_rejected(self):
        with pytest.raises(ValidationError):
            make_pair(target_lang=ENG_LATN)

    def test_score_range(self):
        assert make_pair(score=0.5).score == 0.5
        with pytest.raises(ValidationError):
            make_pair(score=1.5)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("id", 7),
            ("score", "0.5"),
            ("score", True),
            ("score", False),
            ("source_text", 5),
            ("target_text", None),
            ("source_lang", "eng_Latn"),
            ("origin", "smoldoc"),
        ],
    )
    def test_mistyped_field_rejected(self, field, value):
        with pytest.raises(ValidationError):
            make_pair(**{field: value})

    def test_frozen(self):
        with pytest.raises(AttributeError):
            make_pair().id = "x"


# repr of an int of more than 4,300 digits raises ValueError, so the number
# rules name such an int by its size
@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: check_number(10**5000, "score", -1.0, 1.0),
            "score <int of 16610 bits> is NaN, inf or beyond float range",
        ),
        (lambda: check_count(-(10**5000), "size", 0), "size <negative int of 16610 bits> is not an integer >= 0"),
        (lambda: check_number(2**70, "score", -1.0, 1.0), f"score {2**70} outside"),
    ],
    ids=["number", "count", "short-int-in-digits"],
)
def test_huge_int_named_by_size(call, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        call()


class TestCorpus:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValidationError):
            Corpus([make_pair(0), make_pair(0)])

    @pytest.mark.parametrize("bad", ["a", None, ("p0", "a", "b")])
    def test_non_pair_rejected(self, bad):
        with pytest.raises(ValidationError, match=re.escape(f"pairs item 1 must be SentencePair, not {type(bad).__name__}: {bad!r}")):
            Corpus([make_pair(0), bad])

    @pytest.mark.parametrize("bad", [None, "ab", iter([])])
    def test_pairs_that_are_not_a_list_or_tuple_rejected(self, bad):
        with pytest.raises(ValidationError, match=f"pairs must be a list or tuple, not {type(bad).__name__}"):
            Corpus(bad)

    @pytest.mark.parametrize("bad", [5, None, b"corpus"])
    def test_name_that_is_not_a_string_rejected(self, bad):
        with pytest.raises(ValidationError, match=re.escape(f"corpus name must be str, not {type(bad).__name__}: {bad!r}")):
            Corpus([], name=bad)

    def test_iteration_preserves_order(self):
        pairs = [make_pair(i) for i in range(5)]
        c = Corpus(pairs)
        assert list(c) == pairs


class TestIngestTsv:
    def write_tsv(self, tmp_path, lines, name="data.tsv"):
        p = tmp_path / name
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return p

    def test_basic(self, tmp_path):
        p = self.write_tsv(tmp_path, ["hello there\tbok nai", "good morning\tnwng bai"])
        c = ingest(p, "tsv", ENG_LATN, TRP_LATN, SMOLDOC)
        assert len(c) == 2
        assert c.pairs[0].id == "smoldoc:0"
        assert c.pairs[1].id == "smoldoc:1"
        assert c.pairs[0].source_text == "hello there"
        assert c.pairs[0].origin == SMOLDOC

    def test_ids_use_raw_row_index(self, tmp_path):
        # a skipped malformed row still consumes its index
        lines = ["hello\tbok", "no tab here", "morning\tnwng"]
        lines += ["fill %d\tbok %d" % (i, i) for i in range(17)]
        p = self.write_tsv(tmp_path, lines)
        c = ingest(p, "tsv", ENG_LATN, TRP_LATN, SMOLDOC)
        assert [pair.id for pair in c.pairs[:2]] == ["smoldoc:0", "smoldoc:2"]

    def test_header_skipped(self, tmp_path):
        p = self.write_tsv(tmp_path, ["source\ttarget", "hello\tbok"])
        c = ingest(p, "tsv", ENG_LATN, TRP_LATN, SMOLDOC, header=True)
        assert len(c) == 1
        assert c.pairs[0].id == "smoldoc:0"

    def test_normalization_applied(self, tmp_path):
        p = self.write_tsv(tmp_path, ["  hello   there \tbok  nai "])
        c = ingest(p, "tsv", ENG_LATN, TRP_LATN, SMOLDOC)
        assert c.pairs[0].source_text == "hello there"
        assert c.pairs[0].target_text == "bok nai"

    def test_escaped_fields_unescaped(self, tmp_path):
        # a cell is the text verbatim: a backslash escapes nothing
        p = self.write_tsv(tmp_path, ["a \\\\ b\tC:\\new\\table"])
        c = ingest(p, "tsv", ENG_LATN, TRP_LATN, SMOLDOC)
        assert (c.pairs[0].source_text, c.pairs[0].target_text) == ("a \\\\ b", "C:\\new\\table")

    @pytest.mark.parametrize("row", ["a b\tc d\textra col", "a\tb\tc\td"])
    def test_extra_columns_malformed(self, tmp_path, caplog, row):
        lines = ["ok %d\tbok %d" % (i, i) for i in range(9)] + [row]
        p = self.write_tsv(tmp_path, lines)
        with caplog.at_level("WARNING", logger="lrmt.corpus"):
            c = ingest(p, "tsv", ENG_LATN, TRP_LATN, SMOLDOC)
        assert len(c) == 9
        assert "smoldoc:9" not in c.ids()
        assert any("expected 2 tab-separated columns" in r.message for r in caplog.records)

    def test_escaped_tab_stays_in_its_column(self, tmp_path):
        p = self.write_tsv(tmp_path, ["a\\tb\tc d"])
        c = ingest(p, "tsv", ENG_LATN, TRP_LATN, SMOLDOC)
        # backslash + t is two characters of text, not a tab
        assert (c.pairs[0].source_text, c.pairs[0].target_text) == ("a\\tb", "c d")

    def test_malformed_rows_logged_and_skipped(self, tmp_path, caplog):
        lines = ["ok %d\tbok %d" % (i, i) for i in range(20)] + ["no tab"]
        p = self.write_tsv(tmp_path, lines)
        with caplog.at_level("WARNING", logger="lrmt.corpus"):
            c = ingest(p, "tsv", ENG_LATN, TRP_LATN, SMOLDOC)
        assert len(c) == 20
        assert any("malformed" in r.message for r in caplog.records)

    def test_too_many_malformed_raises(self, tmp_path):
        lines = ["good\tbok"] + ["bad row"] * 5
        p = self.write_tsv(tmp_path, lines)
        with pytest.raises(IngestError, match="malformed"):
            ingest(p, "tsv", ENG_LATN, TRP_LATN, SMOLDOC)

    def test_exactly_ten_percent_ok(self, tmp_path):
        lines = ["ok %d\tbok %d" % (i, i) for i in range(9)] + ["bad"]
        p = self.write_tsv(tmp_path, lines)
        c = ingest(p, "tsv", ENG_LATN, TRP_LATN, SMOLDOC)
        assert len(c) == 9

    def test_blank_lines_not_counted(self, tmp_path):
        p = self.write_tsv(tmp_path, ["hello\tbok", "", "   ", "morning\tnwng"])
        c = ingest(p, "tsv", ENG_LATN, TRP_LATN, SMOLDOC)
        assert len(c) == 2

    def test_crlf_tolerated(self, tmp_path):
        p = tmp_path / "crlf.tsv"
        p.write_bytes(b"hello\tbok\r\nmorning\tnwng\r\n")
        c = ingest(p, "tsv", ENG_LATN, TRP_LATN, SMOLDOC)
        assert len(c) == 2
        assert c.pairs[1].target_text == "nwng"

    @pytest.mark.parametrize(
        "name, data, header",
        [
            pytest.param(
                "crlf.jsonl",
                b'{"source": "hello", "target": "bok"}\r\n{"source": "morning", "target": "nwng"}\r\n',
                False,
                id="crlf-jsonl",
            ),
            pytest.param("crlf.tsv", b"src\ttgt\r\nhello\tbok\r\nmorning\tnwng\r\n", True, id="crlf-tsv-header"),
            pytest.param("cr.tsv", b"hello\tbok\nmorning\tnwng\n\r", False, id="final-lone-cr"),
        ],
    )
    def test_crlf_variants_tolerated(self, tmp_path, name, data, header):
        p = tmp_path / name
        p.write_bytes(data)
        c = ingest(p, header=header)
        assert [(q.source_text, q.target_text) for q in c] == [("hello", "bok"), ("morning", "nwng")]
        # a header row is dropped before rows are counted
        assert c.ids() == {"other:0", "other:1"}

    def test_leading_bom_stripped(self, tmp_path):
        p = tmp_path / "bom.tsv"
        p.write_bytes("\ufeffhello\tbok\n\ufeffmid\tnwng\n".encode("utf-8"))
        corpus = ingest(p, "tsv", ENG_LATN, TRP_LATN, SMOLDOC)
        # only the mark that starts the file is stripped
        assert [q.source_text for q in corpus] == ["hello", "\ufeffmid"]

    def test_bad_utf8_reports_offset(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_bytes(b"hello\tbok\nmor\xffning\tnwng\n")
        with pytest.raises(IngestError, match="byte offset 13"):
            ingest(p, "tsv", ENG_LATN, TRP_LATN, SMOLDOC)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestError, match="no such file"):
            ingest(tmp_path / "nope.tsv", "tsv", ENG_LATN, TRP_LATN, SMOLDOC)

    def test_bad_format_name(self, tmp_path):
        p = self.write_tsv(tmp_path, ["a\tb"])
        with pytest.raises(IngestError, match="unknown format"):
            ingest(p, "csv", ENG_LATN, TRP_LATN, SMOLDOC)


class TestIngestJsonl:
    def write_jsonl(self, tmp_path, rows, name="data.jsonl"):
        p = tmp_path / name
        with p.open("w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(row, ensure_ascii=False) + "\n")
        return p

    def test_basic(self, tmp_path):
        p = self.write_jsonl(tmp_path, [{"source": "hello", "target": "bok"}])
        c = ingest(p, "jsonl", ENG_LATN, TRP_LATN, SYNTHETIC)
        assert c.pairs[0].id == "synthetic:0"
        assert c.pairs[0].source_text == "hello"

    def test_row_fields_override_defaults(self, tmp_path):
        p = self.write_jsonl(
            tmp_path,
            [
                {
                    "id": "custom:7",
                    "source": "hello",
                    "target": "bok",
                    "source_lang": "fra_Latn",
                    "target_lang": "eng_Latn",
                    "origin": "gatitos",
                    "score": 0.42,
                }
            ],
        )
        c = ingest(p, "jsonl", ENG_LATN, TRP_LATN, SYNTHETIC)
        pair = c.pairs[0]
        assert pair.id == "custom:7"
        assert pair.source_lang == LanguageTag("fra_Latn")
        assert pair.target_lang == ENG_LATN
        assert pair.origin == Origin("gatitos")
        assert pair.score == 0.42

    def test_origin_without_id_feeds_generated_id(self, tmp_path):
        p = self.write_jsonl(tmp_path, [{"source": "hello", "target": "bok", "origin": "gatitos"}])
        c = ingest(p, "jsonl", ENG_LATN, TRP_LATN, SYNTHETIC)
        assert c.pairs[0].id == "gatitos:0"

    def test_leading_bom_stripped(self, tmp_path):
        # with the mark left on, the first row was malformed: 1 of 5 is over 10%
        p = tmp_path / "bom.jsonl"
        rows = [json.dumps({"source": f"s {i}", "target": f"t {i}"}) for i in range(5)]
        p.write_bytes(("\ufeff" + "\n".join(rows) + "\n").encode("utf-8"))
        c = ingest(p, "jsonl", ENG_LATN, TRP_LATN, SYNTHETIC)
        assert [q.source_text for q in c] == [f"s {i}" for i in range(5)]

    def test_invalid_json_counts_malformed(self, tmp_path):
        p = tmp_path / "mix.jsonl"
        rows = [json.dumps({"source": f"s {i}", "target": f"t {i}"}) for i in range(30)]
        rows.append("{not json")
        # json.loads refuses an int of over 4,300 digits with a plain ValueError
        rows.append('{"source": "s x", "target": "t x", "score": 1%s}' % ("0" * 5000))
        # a 400-digit int decodes, and its score is out of range
        rows.append('{"source": "s y", "target": "t y", "score": 1%s}' % ("0" * 400))
        p.write_text("\n".join(rows) + "\n", encoding="utf-8")
        c = ingest(p, "jsonl", ENG_LATN, TRP_LATN, SYNTHETIC)
        assert len(c) == 30

    def test_missing_fields_malformed(self, tmp_path):
        p = self.write_jsonl(tmp_path, [{"source": f"s {i}", "target": f"t {i}"} for i in range(20)] + [{"source": "only"}])
        c = ingest(p, "jsonl", ENG_LATN, TRP_LATN, SYNTHETIC)
        assert len(c) == 20

    @pytest.mark.parametrize("score", [True, False, "0.5", [0.5], {"value": 0.5}])
    def test_score_not_a_number_malformed(self, tmp_path, score):
        rows = [{"source": f"s {i}", "target": f"t {i}"} for i in range(20)]
        rows.append({"source": "s x", "target": "t x", "score": score})
        c = ingest(self.write_jsonl(tmp_path, rows), "jsonl", ENG_LATN, TRP_LATN, SYNTHETIC)
        assert [p.id for p in c] == [f"synthetic:{i}" for i in range(20)]

    @pytest.mark.parametrize("score", [-1, 0, 1, 0.5])
    def test_numeric_score_kept(self, tmp_path, score):
        row = {"source": "hello", "target": "bok", "score": score}
        c = ingest(self.write_jsonl(tmp_path, [row]), "jsonl", ENG_LATN, TRP_LATN, SYNTHETIC)
        assert c.pairs[0].score == score

    @pytest.mark.parametrize(
        "field, value",
        [
            ("origin", 5),
            ("origin", ["x"]),
            ("origin", 0),
            ("origin", ""),
            ("id", 7),
            ("id", ""),
            ("source_lang", 5),
            ("target_lang", False),
            ("source_lang", "eng_Latn\n"),
            ("target_lang", "eng_Latn\n"),
        ],
    )
    def test_mistyped_field_malformed(self, tmp_path, field, value):
        rows = [{"source": f"s {i}", "target": f"t {i}"} for i in range(20)]
        rows.append({"source": "s x", "target": "t x", field: value})
        c = ingest(self.write_jsonl(tmp_path, rows), "jsonl", ENG_LATN, TRP_LATN, SYNTHETIC)
        assert [p.id for p in c] == [f"synthetic:{i}" for i in range(20)]

    def test_null_fields_take_defaults(self, tmp_path):
        fields = ("origin", "id", "source_lang", "target_lang")
        row = {"source": "hello", "target": "bok", **dict.fromkeys(fields)}
        pair = ingest(self.write_jsonl(tmp_path, [row]), "jsonl", ENG_LATN, TRP_LATN, SYNTHETIC).pairs[0]
        assert (pair.origin, pair.id) == (SYNTHETIC, "synthetic:0")
        assert (pair.source_lang, pair.target_lang) == (ENG_LATN, TRP_LATN)

    def test_all_bad_raises(self, tmp_path):
        p = self.write_jsonl(tmp_path, [{"source": "only"}] * 3)
        with pytest.raises(IngestError):
            ingest(p, "jsonl", ENG_LATN, TRP_LATN, SYNTHETIC)


class TestWrite:
    def test_tsv_round_trip(self, tmp_path):
        c = Corpus([make_pair(i, src=f"hello number {i}", tgt=f"bok {i}") for i in range(3)])
        out = tmp_path / "out.tsv"
        write(c, out, "tsv")
        back = ingest(out, "tsv", ENG_LATN, TRP_LATN, SMOLDOC)
        assert [(p.source_text, p.target_text) for p in back] == [
            (p.source_text, p.target_text) for p in c
        ]

    def test_jsonl_round_trip_lossless(self, tmp_path):
        c = Corpus(
            [
                make_pair(0, score=0.25),
                make_pair(1, id="gatitos:4", origin=Origin("gatitos")),
            ]
        )
        out = tmp_path / "out.jsonl"
        write(c, out, "jsonl")
        back = ingest(out, "jsonl", ENG_LATN, TRP_LATN, SMOLDOC)
        assert back.pairs == c.pairs

    def test_tsv_escapes_backslash(self, tmp_path):
        # nothing is escaped: each cell holds the text as it is
        texts = ["a\\b", "a\\tb", "a\\nb", "path \\\\ here", "ends with \\"]
        c = Corpus([make_pair(i, src=t) for i, t in enumerate(texts)])
        out = tmp_path / "out.tsv"
        write(c, out, "tsv")
        assert out.read_text(encoding="utf-8").splitlines() == [f"{t}\tbok nai kaisa" for t in texts]
        back = ingest(out, "tsv", ENG_LATN, TRP_LATN, SMOLDOC)
        assert [p.source_text for p in back] == texts

    def test_jsonl_deterministic_bytes(self, tmp_path):
        c = Corpus([make_pair(i) for i in range(10)])
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write(c, a, "jsonl")
        write(c, b, "jsonl")
        assert a.read_bytes() == b.read_bytes()

    def test_missing_directory(self, tmp_path):
        with pytest.raises(IngestError, match="cannot write"):
            write(Corpus([make_pair()]), tmp_path / "missing" / "x.tsv", "tsv")

    def test_directory(self, tmp_path):
        with pytest.raises(IngestError, match="cannot write"):
            write(Corpus([make_pair()]), tmp_path, "jsonl")


class TestIngestBoundary:
    @pytest.mark.parametrize(
        "name, row",
        [
            ("data.tsv", " \tfoo"),
            ("data.jsonl", json.dumps({"source": "  ", "target": "foo"})),
            ("data.jsonl", json.dumps({"source": "\u00a0", "target": "foo"})),  # no-break space
        ],
    )
    def test_empty_after_normalization_malformed(self, tmp_path, caplog, name, row):
        if name.endswith(".tsv"):
            good = ["ok %d\tbok %d" % (i, i) for i in range(20)]
        else:
            good = [json.dumps({"source": f"ok {i}", "target": f"bok {i}"}) for i in range(20)]
        p = tmp_path / name
        p.write_text("\n".join([*good, row]) + "\n", encoding="utf-8")
        with caplog.at_level("WARNING", logger="lrmt.corpus"):
            c = ingest(p)
        assert [pair.id for pair in c] == [f"other:{i}" for i in range(20)]
        messages = [r.getMessage() for r in caplog.records]
        assert any("row 20 malformed" in m and "empty" in m for m in messages)
        assert any("skipped 1 malformed rows" in m for m in messages)

    def test_format_from_suffix(self, tmp_path):
        for name in ("a.tsv", "b.TSV"):
            p = tmp_path / name
            p.write_text("hello\tbok\n", encoding="utf-8")
            assert ingest(p).pairs[0].target_text == "bok"
        p = tmp_path / "c.txt"
        p.write_text("hello\tbok\n", encoding="utf-8")
        with pytest.raises(IngestError, match="cannot infer format"):
            ingest(p)

    def test_inferred_jsonl_takes_defaults(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text(json.dumps({"source": "hello", "target": "bok"}) + "\n", encoding="utf-8")
        c = ingest(p)
        assert len(c) == 1
        assert c.name == "c"
        pair = c.pairs[0]
        assert (pair.id, pair.source_lang, pair.target_lang) == ("other:0", ENG_LATN, TRP_LATN)

    def test_missing_path(self, tmp_path):
        with pytest.raises(IngestError, match="no such file"):
            ingest(tmp_path / "nope.jsonl")

    def test_directory(self, tmp_path):
        d = tmp_path / "dir.tsv"
        d.mkdir()
        with pytest.raises(IngestError, match="cannot read"):
            ingest(d)

    @pytest.mark.skipif(os.geteuid() == 0, reason="root reads a mode-0 file")
    def test_permission_denied(self, tmp_path):
        p = tmp_path / "c.tsv"
        p.write_text("hello\tbok\n", encoding="utf-8")
        p.chmod(0)
        with pytest.raises(IngestError, match="cannot read"):
            ingest(p)

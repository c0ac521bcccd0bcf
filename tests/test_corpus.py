import json
import os
import random

import pytest

from lrmt.corpus import (
    ENG_LATN,
    TRP_LATN,
    Corpus,
    LanguageTag,
    Origin,
    SentencePair,
    escape_field,
    ingest,
    normalize_text,
    unescape_field,
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
        "bad", ["en", "eng-Latn", "ENG_Latn", "eng_latn", "eng_LATN", "", "eng_Lat", "eng_Latn\n"]
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

    @pytest.mark.parametrize("bad", ["", "has space", "tab\there"])
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

    def test_frozen(self):
        with pytest.raises(AttributeError):
            make_pair().id = "x"


class TestCorpus:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValidationError):
            Corpus([make_pair(0), make_pair(0)])

    def test_iteration_preserves_order(self):
        pairs = [make_pair(i) for i in range(5)]
        c = Corpus(pairs)
        assert list(c) == pairs


def reference_unescape(text):
    """Character-by-character unescape: a backslash before t, n or another
    backslash makes a tab, a newline or one backslash; any other backslash
    stays as it is."""
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\\" and i + 1 < len(text):
            nxt = text[i + 1]
            if nxt == "t":
                out.append("\t")
                i += 2
                continue
            if nxt == "n":
                out.append("\n")
                i += 2
                continue
            if nxt == "\\":
                out.append("\\")
                i += 2
                continue
        out.append(ch)
        i += 1
    return "".join(out)


class TestEscaping:
    @pytest.mark.parametrize(
        "raw",
        ["plain", "with\\backslash", "a\\tb", "ends with \\", "\\\\double", "\\n"],
    )
    def test_round_trip(self, raw):
        assert unescape_field(escape_field(raw)) == raw

    def test_escape_order(self):
        # backslash first: literal "\t" (2 chars) must not collide with an
        # escaped tab character
        assert escape_field("a\\tb") == "a\\\\tb"
        assert escape_field("a\tb") == "a\\tb"

    def test_unescape_control(self):
        assert unescape_field("a\\tb") == "a\tb"
        assert unescape_field("a\\nb") == "a\nb"

    def test_unescape_lone_trailing_backslash(self):
        assert unescape_field("abc\\") == "abc\\"

    def test_unescape_matches_reference(self):
        rng = random.Random(7)
        texts = [
            "".join(rng.choice("ab\\tn x") for _ in range(rng.randrange(13)))
            for _ in range(20_000)
        ]
        assert sum(t.endswith("\\") for t in texts) > 1000
        assert sum("\\" not in t for t in texts) > 1000
        for text in texts:
            assert unescape_field(text) == reference_unescape(text), repr(text)


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
        p = self.write_tsv(tmp_path, ["a \\\\ b\tc d"])
        c = ingest(p, "tsv", ENG_LATN, TRP_LATN, SMOLDOC)
        assert c.pairs[0].source_text == "a \\ b"

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
        # the unescaped tab is whitespace, which normalization collapses
        assert (c.pairs[0].source_text, c.pairs[0].target_text) == ("a b", "c d")

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
        rows = [json.dumps({"source": f"s {i}", "target": f"t {i}"}) for i in range(20)]
        rows.append("{not json")
        p.write_text("\n".join(rows) + "\n", encoding="utf-8")
        c = ingest(p, "jsonl", ENG_LATN, TRP_LATN, SYNTHETIC)
        assert len(c) == 20

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
        c = Corpus([make_pair(0, src="path \\\\ here")])
        out = tmp_path / "out.tsv"
        write(c, out, "tsv")
        assert "\\\\" in out.read_text(encoding="utf-8")
        back = ingest(out, "tsv", ENG_LATN, TRP_LATN, SMOLDOC)
        assert back.pairs[0].source_text == "path \\\\ here"

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

import json
import random

import pytest

from lrmt.corpus import ENG_LATN, TRP_LATN, Corpus, Origin, SentencePair
from lrmt.errors import IngestError, ValidationError
from lrmt.pipeline import (
    OverlapReport,
    SplitEntry,
    SplitSpec,
    concat,
    dedup,
    detect_swapped_rows,
    filter_length,
    flip_concat,
    load_stopwords,
    sample_key,
    split,
    stopword_ratio,
    swap_rows,
    verify_overlap,
    word_count,
)

SMOLDOC = Origin("smoldoc")
GATITOS = Origin("gatitos")
SMOLSENT = Origin("smolsent")


def pair(i, src=None, tgt=None, origin=SMOLDOC):
    return SentencePair(
        id=f"{origin.label}:{i}",
        source_text=src if src is not None else f"source sentence number {i}",
        target_text=tgt if tgt is not None else f"kaisa bo {i}",
        source_lang=ENG_LATN,
        target_lang=TRP_LATN,
        origin=origin,
    )


def corpus_of(n, origin=SMOLDOC, start=0):
    return Corpus([pair(i, origin=origin) for i in range(start, start + n)])


class TestSampleKey:
    def test_deterministic(self):
        assert sample_key("s1", "hello") == sample_key("s1", "hello")

    def test_seed_and_text_both_matter(self):
        assert sample_key("s1", "hello") != sample_key("s2", "hello")
        assert sample_key("s1", "hello") != sample_key("s1", "hello!")

    def test_separator_prevents_concat_aliasing(self):
        assert sample_key("ab", "c") != sample_key("a", "bc")

    def test_known_digest(self):
        import hashlib

        expected = hashlib.sha256(b"seed\x00text").digest()
        assert sample_key("seed", "text") == expected


class TestDedup:
    def test_source_key(self):
        pairs = [
            pair(0, src="alpha one"),
            pair(1, src="beta two"),
            pair(2, src="alpha one", tgt="different bo"),
            pair(3, src="gamma three"),
            pair(4, src="beta two", tgt="other bo"),
            pair(5, src="delta four"),
        ]
        out, removed = dedup(Corpus(pairs), key="source")
        assert len(out) == 4
        assert removed == 2
        assert [p.id for p in out] == ["smoldoc:0", "smoldoc:1", "smoldoc:3", "smoldoc:5"]

    def test_both_key_keeps_target_variants(self):
        pairs = [pair(0, src="same text"), pair(1, src="same text", tgt="another bo")]
        out, removed = dedup(Corpus(pairs), key="both")
        assert len(out) == 2
        assert removed == 0

    def test_target_key(self):
        pairs = [pair(0, tgt="same bo"), pair(1, tgt="same bo"), pair(2, tgt="other bo")]
        out, removed = dedup(Corpus(pairs), key="target")
        assert [p.id for p in out] == ["smoldoc:0", "smoldoc:2"]
        assert removed == 1

    def test_idempotent(self):
        rng = random.Random(11)
        pairs = [
            pair(i, src=f"text {rng.randrange(8)}", tgt=f"bo {rng.randrange(8)}")
            for i in range(60)
        ]
        once, _ = dedup(Corpus(pairs), key="both")
        twice, removed = dedup(once, key="both")
        assert removed == 0
        assert twice.pairs == once.pairs

    def test_no_key_duplicates_remain(self):
        rng = random.Random(12)
        for key in ("source", "target", "both"):
            pairs = [
                pair(i, src=f"s {rng.randrange(10)}", tgt=f"t {rng.randrange(10)}")
                for i in range(80)
            ]
            out, removed = dedup(Corpus(pairs), key=key)
            keys = [
                p.source_text
                if key == "source"
                else p.target_text
                if key == "target"
                else (p.source_text, p.target_text)
                for p in out
            ]
            assert len(set(keys)) == len(keys)
            assert len(out) + removed == 80

    def test_bad_key(self):
        with pytest.raises(ValidationError):
            dedup(corpus_of(2), key="src")

    @pytest.mark.skipif(True, reason="public Tatoeba dump not present in this environment")
    def test_tatoeba_funnel(self):
        pass


class TestFilterLength:
    def test_boundaries_inclusive(self):
        pairs = [
            pair(0, src="one two three four five"),
            pair(1, src="one two three four"),
            pair(2, src=" ".join(["w"] * 20)),
            pair(3, src=" ".join(["w"] * 21)),
        ]
        out = filter_length(Corpus(pairs), 5, 20)
        assert [p.id for p in out] == ["smoldoc:0", "smoldoc:2"]

    def test_target_side(self):
        # only the source side is measured: a 1-word or 25-word target is kept
        short = "one two three four five"
        pairs = [pair(0, src=short, tgt="bo"), pair(1, src=short, tgt=" ".join(["bo"] * 25))]
        out = filter_length(Corpus(pairs), 5, 20)
        assert [p.id for p in out] == ["smoldoc:0", "smoldoc:1"]

    def test_word_count_is_whitespace_runs(self):
        assert word_count("a  b\tc") == 3
        assert word_count("don't stop-me now") == 3

    def test_bad_bounds(self):
        with pytest.raises(ValidationError):
            filter_length(corpus_of(1), 0, 5)
        with pytest.raises(ValidationError):
            filter_length(corpus_of(1), 6, 5)


class TestSwapDetection:
    def test_hand_computed_ratios(self):
        sw = load_stopwords()
        # "nwng tamo?" -> 2 tokens, 0 stopword hits
        assert stopword_ratio("nwng tamo?", sw) == 0.0
        # "how are you doing today" -> hits: how, are, you
        assert stopword_ratio("how are you doing today", sw) == pytest.approx(3 / 5)

    def test_reversed_pair_flagged(self):
        c = Corpus([pair(0, src="nwng tamo?", tgt="how are you doing today")])
        assert detect_swapped_rows(c) == ["smoldoc:0"]

    def test_correct_orientation_not_flagged(self):
        c = Corpus([pair(0, src="how are you", tgt="nwng tamo")])
        assert detect_swapped_rows(c) == []

    def test_both_english_not_flagged(self):
        # source ratio >= 0.05 blocks the flag even if target scores higher
        c = Corpus(
            [pair(0, src="the cat sat on a mat", tgt="the dog is in the house by the door")]
        )
        assert detect_swapped_rows(c) == []

    def test_ratio_ignores_case_and_edge_punct(self):
        sw = load_stopwords()
        assert stopword_ratio("The, cat!", sw) == pytest.approx(1 / 2)

    def test_shipped_list_shape(self):
        sw = load_stopwords()
        assert len(sw) == 50
        assert "the" in sw and "of" in sw
        assert all(w == w.lower() and " " not in w for w in sw)


class TestSwapRows:
    def test_swap_exchanges_texts_not_langs(self):
        c = Corpus([pair(0, src="hello there", tgt="bok nai")])
        out = swap_rows(c, ["smoldoc:0"])
        p = out.pairs[0]
        assert p.source_text == "bok nai"
        assert p.target_text == "hello there"
        assert p.source_lang == ENG_LATN
        assert p.target_lang == TRP_LATN

    def test_involution(self):
        c = corpus_of(10)
        ids = ["smoldoc:2", "smoldoc : 7".replace(" ", "")]
        assert swap_rows(swap_rows(c, ids), ids).pairs == c.pairs

    def test_empty_list_identity(self):
        c = corpus_of(5)
        assert swap_rows(c, []).pairs == c.pairs

    def test_unknown_id_error(self):
        with pytest.raises(ValidationError, match="smoldoc:99"):
            swap_rows(corpus_of(3), ["smoldoc:99"])

    def test_count_of_changed_rows(self):
        # fixture shaped like a sentence collection with 57 reversed rows
        reversed_ids = {f"smolsent:{i}" for i in range(0, 400, 7)}
        assert len(reversed_ids) == 58  # trim one below
        reversed_ids = set(sorted(reversed_ids)[:57])
        pairs = []
        for i in range(400):
            pid = f"smolsent:{i}"
            if pid in reversed_ids:
                pairs.append(pair(i, src=f"kaisa bo {i}", tgt=f"this is the english side {i}", origin=SMOLSENT))
            else:
                pairs.append(pair(i, src=f"this is the english side {i}", tgt=f"kaisa bo {i}", origin=SMOLSENT))
        c = Corpus(pairs)
        flagged = detect_swapped_rows(c)
        assert set(flagged) == reversed_ids
        fixed = swap_rows(c, flagged)
        changed = [a.id for a, b in zip(c, fixed) if a.source_text != b.source_text]
        assert len(changed) == 57
        assert detect_swapped_rows(fixed) == []


def spec_of(seed, *entries):
    return SplitSpec(seed=seed, entries=tuple(SplitEntry(*e) for e in entries))


class TestSplit:
    def test_partition(self):
        pool = corpus_of(10)
        parts = split(pool, spec_of("s", ("test", 3)))
        assert len(parts["test"]) == 3
        assert len(parts["train"]) == 7
        assert parts["test"].ids() | parts["train"].ids() == pool.ids()
        assert parts["test"].ids() & parts["train"].ids() == set()

    def test_deterministic_across_runs(self):
        pool = corpus_of(50)
        a = split(pool, spec_of("seed-1", ("test", 10), ("dev", 5)))
        b = split(pool, spec_of("seed-1", ("test", 10), ("dev", 5)))
        for name in ("test", "dev", "train"):
            assert [p.id for p in a[name]] == [p.id for p in b[name]]

    def test_membership_ignores_pool_order(self):
        base = [pair(i) for i in range(40)]
        shuffled = list(base)
        random.Random(3).shuffle(shuffled)
        a = split(Corpus(base), spec_of("s", ("test", 8)))
        b = split(Corpus(shuffled), spec_of("s", ("test", 8)))
        assert a["test"].ids() == b["test"].ids()
        assert [p.id for p in a["test"]] == [p.id for p in b["test"]]  # hash order

    def test_origin_restriction(self):
        pool = concat([corpus_of(20, SMOLDOC), corpus_of(20, GATITOS)], name="pool")
        parts = split(pool, spec_of("s", ("test", 6, SMOLDOC)))
        assert all(p.origin == SMOLDOC for p in parts["test"])
        assert len(parts["train"]) == 34

    def test_later_entries_exclude_earlier_picks(self):
        pool = corpus_of(30)
        parts = split(pool, spec_of("s", ("a", 10), ("b", 10)))
        assert parts["a"].ids() & parts["b"].ids() == set()

    def test_matches_documented_rule(self):
        # brute force: each entry takes the first `size` unassigned candidates
        # of one global (sample_key, id) order; the rest is train, in pool order
        rng = random.Random(21)
        checked = tied = 0
        for trial in range(80):
            n = rng.randrange(1, 40)
            texts = [f"repeated text {rng.randrange(max(n // 3, 1))}" for _ in range(n)]
            pool = Corpus(
                [pair(i, src=t, origin=rng.choice((SMOLDOC, GATITOS))) for i, t in enumerate(texts)]
            )
            entries = (("any", rng.randrange(n // 2 + 1)), ("gat", rng.randrange(n // 3 + 2), GATITOS))
            spec = spec_of(f"seed-{trial}", *entries)
            order = sorted(pool, key=lambda p: (sample_key(spec.seed, p.source_text), p.id))
            taken: set[str] = set()
            expected = {}
            for e in spec.entries:
                picked = [p.id for p in order if p.id not in taken and e.origin in (None, p.origin)]
                expected[e.name] = picked[: e.size]
                taken.update(expected[e.name])
            if any(len(expected[e.name]) < e.size for e in spec.entries):
                with pytest.raises(ValidationError, match="only"):
                    split(pool, spec)
                continue
            expected["train"] = [p.id for p in pool if p.id not in taken]
            parts = split(pool, spec)
            assert list(parts) == ["any", "gat", "train"]
            assert {name: [p.id for p in c] for name, c in parts.items()} == expected
            checked += 1
            tied += len(set(texts)) < n
        assert checked > 40 and tied > 20

    def test_insufficient_pool(self):
        with pytest.raises(ValidationError, match="only"):
            split(corpus_of(5), spec_of("s", ("test", 6)))

    def test_insufficient_after_restriction(self):
        pool = concat([corpus_of(3, SMOLDOC), corpus_of(20, GATITOS)], name="pool")
        with pytest.raises(ValidationError, match="smoldoc"):
            split(pool, spec_of("s", ("test", 4, SMOLDOC)))

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValidationError):
            spec_of("s", ("test", 1), ("test", 2))

    def test_train_name_reserved(self):
        with pytest.raises(ValidationError):
            spec_of("s", ("train", 1))

    def test_from_json_file(self, tmp_path):
        p = tmp_path / "spec.json"
        p.write_text(
            '{"seed": "k", "splits": [{"name": "test", "size": 2, "origin": "smoldoc"}, {"name": "dev", "size": 1}]}',
            encoding="utf-8",
        )
        spec = SplitSpec.from_json_file(p)
        assert spec.seed == "k"
        assert spec.entries[0] == SplitEntry("test", 2, SMOLDOC)
        assert spec.entries[1] == SplitEntry("dev", 1, None)

    @pytest.mark.parametrize(
        "content",
        [b"{not json", b'{"seed": "k", "splits": []', b"\xff\xfe{}"],
        ids=["not-json", "truncated", "not-utf8"],
    )
    def test_from_json_file_unreadable(self, tmp_path, content):
        p = tmp_path / "spec.json"
        p.write_bytes(content)
        with pytest.raises(IngestError, match="cannot read split spec"):
            SplitSpec.from_json_file(p)

    def test_from_json_file_missing_or_directory(self, tmp_path):
        for p in (tmp_path / "absent.json", tmp_path):
            with pytest.raises(IngestError, match="cannot read split spec"):
                SplitSpec.from_json_file(p)

    @pytest.mark.parametrize(
        "spec",
        [
            {"seed": "k", "splits": [{"size": 1}]},
            {"seed": "k", "splits": [{"name": 5, "size": 1}]},
            {"seed": "k", "splits": [{"name": "dev", "size": "x"}]},
            {"seed": "k", "splits": [{"name": "dev", "size": 2.7}]},
            {"seed": "k", "splits": [{"name": "dev", "size": True}]},
            {"seed": "k", "splits": [{"name": "dev"}]},
            {"seed": "k", "splits": 5},
            {"seed": "k", "splits": [5]},
            {"seed": 1, "splits": []},
            {"seed": "k", "splits": [{"name": "dev", "size": 1, "origin": 5}]},
            {"seed": "k", "splits": [{"name": "dev", "size": 1, "origin": ""}]},
            {"seed": "k"},
            [],
        ],
        ids=[
            "no-name", "name-int", "size-str", "size-float", "size-bool", "no-size",
            "splits-int", "entry-int", "seed-int", "origin-int", "origin-empty",
            "no-splits", "not-object",
        ],
    )
    def test_from_json_file_bad_spec(self, tmp_path, spec):
        p = tmp_path / "spec.json"
        p.write_text(json.dumps(spec), encoding="utf-8")
        with pytest.raises(ValidationError):
            SplitSpec.from_json_file(p)


class TestVerifyOverlap:
    def test_disjoint_passes(self):
        train = corpus_of(10)
        ev = corpus_of(5, GATITOS, start=100)
        report = verify_overlap(train, [ev])
        assert report.passed
        assert report.collisions == ()
        assert report.checked_pairs == 5

    def test_planted_collision_found(self):
        train = Corpus([pair(0, src="shared english text"), pair(1)])
        ev = Corpus([pair(7, src="shared english text", origin=GATITOS)])
        report = verify_overlap(train, [ev])
        assert not report.passed
        assert report.collisions == (("smoldoc:0", "gatitos:7", "shared english text"),)

    def test_eval_to_eval_sharing_ignored(self):
        train = corpus_of(3)
        shared = "only in eval sets"
        ev1 = Corpus([pair(50, src=shared, origin=GATITOS)])
        ev2 = Corpus([pair(60, src=shared, origin=SMOLSENT)])
        assert verify_overlap(train, [ev1, ev2]).passed

    def test_dedup_split_verify_property(self):
        rng = random.Random(5)
        pairs = [pair(i, src=f"sentence {rng.randrange(120)} here") for i in range(200)]
        clean, _ = dedup(Corpus(pairs), key="source")
        parts = split(clean, spec_of("s", ("test", 20), ("dev", 20)))
        report = verify_overlap(parts["train"], [parts["test"], parts["dev"]])
        assert report.passed

    def test_json_and_text_rendering(self):
        report = OverlapReport(checked_pairs=2, collisions=(("a:1", "b:2", "text here"),))
        assert '"passed": false' in report.to_json()


class TestFlipConcat:
    def test_single_pair(self):
        c = Corpus([pair(0, src="hello there", tgt="bok nai")])
        out = flip_concat(c)
        assert len(out) == 2
        orig, flip = out.pairs
        assert flip.id == "smoldoc:0:rev"
        assert flip.source_text == "bok nai"
        assert flip.target_text == "hello there"
        assert flip.source_lang == TRP_LATN
        assert flip.target_lang == ENG_LATN
        assert orig == c.pairs[0]

    def test_doubles_size(self):
        assert len(flip_concat(corpus_of(36))) == 72

    def test_twice_no_id_collisions(self):
        out = flip_concat(flip_concat(corpus_of(9)))
        assert len(out) == 36
        assert len(out.ids()) == 36

    def test_preserves_unordered_text_multiset(self):
        c = corpus_of(12)
        out = flip_concat(c)
        unordered = sorted(tuple(sorted((p.source_text, p.target_text))) for p in out)
        expected = sorted(tuple(sorted((p.source_text, p.target_text))) for p in c) * 2
        assert unordered == sorted(expected)


class TestConcat:
    def test_order_and_size(self):
        a, b = corpus_of(3), corpus_of(4, GATITOS)
        out = concat([a, b], name="merged")
        assert len(out) == 7
        assert out.name == "merged"
        assert [p.id for p in out][:3] == [p.id for p in a]

    def test_id_collision_rejected(self):
        with pytest.raises(ValidationError):
            concat([corpus_of(3), corpus_of(3)])

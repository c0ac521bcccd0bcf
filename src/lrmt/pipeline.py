"""Deterministic corpus transforms.

Dedup, word-count length filter, swapped-column detection and repair, seeded
hash-sort splitting, train/eval overlap verification, and bidirectional
flip-and-concatenate export. Every transform is a pure function of its inputs;
splitting derives membership from SHA-256 over (seed, source text), so results
are identical across platforms and runs.
"""

from __future__ import annotations

import hashlib
import json
import string
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path
from typing import Iterable, Optional, Sequence

from .corpus import ENG_LATN, Corpus, Origin, SentencePair, _shown, check_count, check_items, check_type
from .errors import IngestError, ValidationError

DEDUP_KEYS = ("source", "target", "both")

_EDGE_PUNCT = string.punctuation


def sample_key(seed: str, source_text: str) -> bytes:
    """Stable 32-byte sampling key: SHA-256 of seed and text joined by a NUL byte."""
    h = hashlib.sha256()
    h.update(seed.encode("utf-8"))
    h.update(b"\x00")
    h.update(source_text.encode("utf-8"))
    return h.digest()


def hash_sorted(pairs: Iterable[SentencePair], seed: str) -> list[SentencePair]:
    """The seeded selection order: ascending sample_key(seed, source_text),
    ties broken by id. Independent of the input order."""
    return sorted(pairs, key=lambda p: (sample_key(seed, p.source_text), p.id))


def dedup(corpus: Corpus, key: str = "both") -> tuple[Corpus, int]:
    """Drop exact duplicates, keeping the first occurrence.

    ``key`` selects which side(s) define identity: "source", "target", or
    "both" (the (source, target) tuple). Returns the deduplicated corpus and
    the number of pairs removed.
    """
    if key not in DEDUP_KEYS:
        raise ValidationError(f"dedup key must be one of {DEDUP_KEYS}, got {_shown(key)}")
    seen: set = set()
    kept: list[SentencePair] = []
    for pair in corpus:
        if key == "source":
            k = pair.source_text
        elif key == "target":
            k = pair.target_text
        else:
            k = (pair.source_text, pair.target_text)
        if k in seen:
            continue
        seen.add(k)
        kept.append(pair)
    return replace(corpus, pairs=kept), len(corpus) - len(kept)


def word_count(text: str) -> int:
    # word = maximal non-whitespace run
    return len(text.split())


def filter_length(corpus: Corpus, min_words: int, max_words: int) -> Corpus:
    """Keep pairs whose source side has a word count in [min_words, max_words].

    Both bounds follow the count rule (:func:`~lrmt.corpus.check_count`):
    `min_words` at least 1, `max_words` at least `min_words`.
    """
    check_count(min_words, "min_words", 1)
    check_count(max_words, "max_words", min_words)
    kept = []
    for pair in corpus:
        if min_words <= word_count(pair.source_text) <= max_words:
            kept.append(pair)
    return replace(corpus, pairs=kept)


def load_stopwords() -> frozenset[str]:
    """The bundled high-frequency English function-word list."""
    text = resources.files("lrmt.data").joinpath("stopwords_en.txt").read_text("utf-8")
    words = [ln.strip() for ln in text.splitlines()]
    return frozenset(w for w in words if w and not w.startswith("#"))


def stopword_ratio(text: str, stopwords: frozenset[str]) -> float:
    """Fraction of whitespace tokens that are stopwords, after lowercasing and
    stripping edge punctuation."""
    tokens = [t.strip(_EDGE_PUNCT) for t in text.lower().split()]
    tokens = [t for t in tokens if t]
    if not tokens:
        return 0.0
    return sum(1 for t in tokens if t in stopwords) / len(tokens)


def detect_swapped_rows(corpus: Corpus) -> list[str]:
    """Ids of pairs whose columns look reversed.

    The side tagged ``eng_Latn`` is judged against the other side, so an
    en→trp and a trp→en pair are judged alike. A pair is flagged when the
    other side beats the English side on stopword-hit ratio, measured against
    the bundled English list (:func:`load_stopwords`), while the English side
    itself looks non-English (ratio below 0.05). A pair with no ``eng_Latn``
    side is never flagged. Detection only; repair is :func:`swap_rows`.
    """
    stopwords = load_stopwords()
    flagged = []
    for pair in corpus:
        if pair.source_lang == ENG_LATN:
            eng, other = pair.source_text, pair.target_text
        elif pair.target_lang == ENG_LATN:
            eng, other = pair.target_text, pair.source_text
        else:
            continue
        eng_ratio = stopword_ratio(eng, stopwords)
        if stopword_ratio(other, stopwords) > eng_ratio and eng_ratio < 0.05:
            flagged.append(pair.id)
    return flagged


def swap_rows(corpus: Corpus, ids: Sequence[str]) -> Corpus:
    """Exchange source/target texts for the ids, a list or tuple of str.

    Language tags stay put: the columns held the right languages' slots but the
    wrong texts. Applying the same id list twice is the identity.
    """
    check_items(ids, "swap ids", str)
    wanted = set(ids)
    unknown = wanted - corpus.ids()
    if unknown:
        raise ValidationError(f"unknown ids in swap list: {sorted(unknown)}")
    out = []
    for pair in corpus:
        if pair.id in wanted:
            pair = replace(pair, source_text=pair.target_text, target_text=pair.source_text)
        out.append(pair)
    return replace(corpus, pairs=out)


@dataclass(frozen=True)
class SplitEntry:
    name: str
    size: int
    origin: Optional[Origin] = None

    def __post_init__(self) -> None:
        check_type(self.name, "split name", str)
        if not self.name:
            raise ValidationError("split name '' is not a non-empty string")
        check_count(self.size, f"split {self.name!r}: size", 0)
        if self.origin is not None:
            check_type(self.origin, f"split {self.name!r}: origin", Origin)


@dataclass(frozen=True)
class SplitSpec:
    """Ordered split declarations plus the sampling seed.

    Membership is decided per entry, in declaration order, by putting the
    still-unassigned candidates in hash_sorted order (sample_key(seed,
    source_text) ascending, ties broken by id) and taking the first `size`.
    Whatever remains becomes the "train" split.
    """

    seed: str
    entries: tuple[SplitEntry, ...]

    def __post_init__(self) -> None:
        check_type(self.seed, "split seed", str)
        check_items(self.entries, "split entries", SplitEntry)
        # a tuple, so the entries cannot change after these checks
        object.__setattr__(self, "entries", tuple(self.entries))
        names = [e.name for e in self.entries]
        if len(set(names)) != len(names):
            raise ValidationError(f"duplicate split names: {names}")
        if "train" in names:
            raise ValidationError("'train' is reserved for the remainder split")

    @classmethod
    def from_json_file(cls, path: str | Path) -> "SplitSpec":
        """Read ``{"seed": str, "splits": [{"name": str, "size": int,
        "origin": str (optional)}, ...]}``.

        Raises IngestError when the file cannot be read as UTF-8 JSON. Raises
        ValidationError, prefixed by the path, when it is not an object whose
        ``splits`` is a list of objects, or when a field breaks its type's rule.
        """
        # ValueError: bad UTF-8, bad JSON, or an int of too many digits
        try:
            obj = json.loads(Path(path).read_text("utf-8"))
        except (OSError, ValueError) as exc:
            raise IngestError(f"{path}: cannot read split spec: {exc}") from exc
        splits = obj.get("splits") if isinstance(obj, dict) else None
        try:
            check_items(splits, "the spec object's 'splits'", dict)
            entries = []
            for e in splits:
                origin = None if e.get("origin") is None else Origin(e["origin"])
                entries.append(SplitEntry(e.get("name"), e.get("size"), origin))
            return cls(seed=obj.get("seed"), entries=entries)
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from exc


def split(pool: Corpus, spec: SplitSpec) -> dict[str, Corpus]:
    """Partition a pool into the declared splits plus a "train" remainder.

    Deterministic in (pool membership, spec): reordering the pool does not
    change who lands where. Raises when an entry's candidate pool (after its
    origin restriction) is too small.
    """
    remaining: dict[str, SentencePair] = {p.id: p for p in pool}
    result: dict[str, Corpus] = {}
    for entry in spec.entries:
        candidates = [
            p
            for p in remaining.values()
            if entry.origin is None or p.origin == entry.origin
        ]
        if len(candidates) < entry.size:
            raise ValidationError(
                f"split {entry.name!r} wants {entry.size} pairs but only "
                f"{len(candidates)} candidates remain"
                + (f" with origin {entry.origin}" if entry.origin else "")
            )
        chosen = hash_sorted(candidates, spec.seed)[: entry.size]
        for p in chosen:
            del remaining[p.id]
        result[entry.name] = Corpus(chosen, entry.name)
    result["train"] = Corpus([p for p in pool if p.id in remaining], "train")
    return result


@dataclass(frozen=True)
class OverlapReport:
    """Outcome of train/eval exact-match overlap verification."""

    checked_pairs: int
    collisions: tuple[tuple[str, str, str], ...]  # (train_id, eval_id, shared text)

    @property
    def passed(self) -> bool:
        return not self.collisions

    def to_json(self) -> str:
        return json.dumps(
            {
                "checked_pairs": self.checked_pairs,
                "passed": self.passed,
                "collisions": [
                    {"train_id": t, "eval_id": e, "text": s} for t, e, s in self.collisions
                ],
            },
            ensure_ascii=False,
            indent=2,
        )


def verify_overlap(train: Corpus, eval_sets: Sequence[Corpus]) -> OverlapReport:
    """Report every train/eval pair sharing identical source text.

    Only train-vs-eval is checked; eval-vs-eval sharing is out of scope.
    """
    check_type(train, "train", Corpus)
    check_items(eval_sets, "eval sets", Corpus)
    train_by_text: dict[str, list[str]] = {}
    for p in train:
        train_by_text.setdefault(p.source_text, []).append(p.id)
    collisions: list[tuple[str, str, str]] = []
    checked = 0
    for ev in eval_sets:
        for p in ev:
            checked += 1
            for train_id in train_by_text.get(p.source_text, ()):
                collisions.append((train_id, p.id, p.source_text))
    return OverlapReport(checked_pairs=checked, collisions=tuple(collisions))


def flip_concat(corpus: Corpus) -> Corpus:
    """Original pairs followed by direction-flipped copies, each flipped id
    the original's with ``:rev`` appended.

    Flipping an already-flipped corpus (or a JSONL export of one read back by
    ``ingest``, which keeps its ids) raises ``ValidationError``: a pair ``x``
    flips to the ``x:rev`` already present, so ``Corpus`` refuses the
    duplicate id instead of adding every text pair a second time.

    Split first, then flip each split. ``split`` places a pair by its
    source text alone, so a corpus flipped before splitting puts most flips
    of the eval pairs in train, and ``verify_overlap``, which compares
    source with source, does not see it.
    """
    flipped = [
        replace(
            p,
            id=f"{p.id}:rev",
            source_text=p.target_text,
            target_text=p.source_text,
            source_lang=p.target_lang,
            target_lang=p.source_lang,
        )
        for p in corpus
    ]
    return replace(corpus, pairs=[*corpus.pairs, *flipped])


def concat(corpora: Sequence[Corpus], name: str = "concat") -> Corpus:
    """Concatenate corpora in order. Pair ids must stay globally unique."""
    check_items(corpora, "corpora to concatenate", Corpus)
    pairs: list[SentencePair] = []
    for c in corpora:
        pairs.extend(c.pairs)
    return Corpus(pairs, name)

"""Domain types, text normalization, and TSV/JSONL ingestion for parallel corpora.

A corpus is an ordered collection of sentence pairs. All text is NFC-normalized
with whitespace collapsed at ingestion time, so every downstream exact-match
operation (dedup, overlap verification) compares canonical forms.
"""

from __future__ import annotations

import json
import logging
import re
import unicodedata
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional

from .errors import IngestError, ValidationError

logger = logging.getLogger(__name__)

_LANG_TAG_RE = re.compile(r"[a-z]{3}_[A-Z][a-z]{3}")
_WS_RE = re.compile(r"\s+")


@dataclass(frozen=True)
class LanguageTag:
    """BCP-47-style language + script tag, e.g. ``eng_Latn`` or ``trp_Latn``."""

    code: str

    def __post_init__(self) -> None:
        if not _LANG_TAG_RE.fullmatch(self.code):
            raise ValidationError(
                f"bad language tag {self.code!r}: expected 3 lowercase letters, "
                "underscore, title-case 4-letter script (e.g. 'eng_Latn')"
            )

    def __str__(self) -> str:
        return self.code


ENG_LATN = LanguageTag("eng_Latn")
TRP_LATN = LanguageTag("trp_Latn")


@dataclass(frozen=True)
class Origin:
    """Provenance label for a sentence pair: any non-empty label without
    whitespace, case-folded."""

    label: str

    def __post_init__(self) -> None:
        if not self.label or _WS_RE.search(self.label):
            raise ValidationError(f"bad origin label {self.label!r}: must be non-empty, no whitespace")
        object.__setattr__(self, "label", self.label.lower())

    def __str__(self) -> str:
        return self.label


def normalize_text(raw: str) -> str:
    """Canonicalize a sentence: NFC form, trimmed, inner whitespace runs collapsed.

    Case is preserved. Idempotent.
    """
    return _WS_RE.sub(" ", unicodedata.normalize("NFC", raw)).strip()


@dataclass(frozen=True)
class SentencePair:
    """One aligned source/target sentence with language tags and provenance."""

    id: str
    source_text: str
    target_text: str
    source_lang: LanguageTag
    target_lang: LanguageTag
    origin: Origin
    score: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.id:
            raise ValidationError("sentence pair id must be non-empty")
        for side, text in (("source", self.source_text), ("target", self.target_text)):
            if not text.strip():
                raise ValidationError(f"pair {self.id}: {side} text empty after trimming")
            if "\t" in text or "\n" in text or "\r" in text:
                raise ValidationError(f"pair {self.id}: {side} text contains raw tab/newline")
        if self.source_lang == self.target_lang:
            raise ValidationError(f"pair {self.id}: source and target language tags are equal")
        if self.score is not None and not -1.0 <= self.score <= 1.0:
            raise ValidationError(f"pair {self.id}: score {self.score} outside [-1, 1]")


@dataclass(frozen=True)
class Corpus:
    """Ordered sentence pairs with unique ids."""

    pairs: tuple[SentencePair, ...]
    name: str = "corpus"

    def __post_init__(self) -> None:
        object.__setattr__(self, "pairs", tuple(self.pairs))
        seen: set[str] = set()
        for pair in self.pairs:
            if pair.id in seen:
                raise ValidationError(f"corpus {self.name!r}: duplicate pair id {pair.id!r}")
            seen.add(pair.id)

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self) -> Iterator[SentencePair]:
        return iter(self.pairs)

    def ids(self) -> set[str]:
        return {p.id for p in self.pairs}


# TSV field escaping. Backslash must be escaped first so that text containing
# literal "\t" (backslash + t) survives a round trip.

def escape_field(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\t", "\\t").replace("\n", "\\n")


_UNESCAPE_RE = re.compile(r"\\([tn\\])")
_UNESCAPED = {"t": "\t", "n": "\n", "\\": "\\"}


def unescape_field(text: str) -> str:
    if "\\" not in text:
        return text
    return _UNESCAPE_RE.sub(lambda m: _UNESCAPED[m.group(1)], text)


def ingest(
    path: str | Path,
    format: str | None = None,
    source_lang: LanguageTag = ENG_LATN,
    target_lang: LanguageTag = TRP_LATN,
    origin: Origin = Origin("other"),
    header: bool = False,
) -> Corpus:
    """Read a TSV or JSONL file into a Corpus named after the file's stem.

    With ``format=None`` the suffix chooses the format: ``.tsv`` or
    ``.jsonl``, case-insensitive; any other suffix raises ``IngestError``.
    A missing or unreadable path (a directory, no permission) and bytes
    that are not UTF-8 raise ``IngestError`` too.

    Every row is normalized via :func:`normalize_text`. Malformed rows are
    logged and skipped; more than 10% malformed rows is treated as a wrong
    format and raises. Ids are assigned as ``<origin>:<0-based row index>``
    unless a JSONL row supplies its own ``id``.
    """
    path = Path(path)
    if format is None:
        format = {".tsv": "tsv", ".jsonl": "jsonl"}.get(path.suffix.lower())
        if format is None:
            raise IngestError(f"cannot infer format from {str(path)!r}; pass the format argument")
    elif format not in ("tsv", "jsonl"):
        raise IngestError(f"unknown format {format!r}: expected 'tsv' or 'jsonl'")
    try:
        text = path.read_bytes().decode("utf-8")
    except FileNotFoundError as exc:
        raise IngestError(f"{path}: no such file") from exc
    except OSError as exc:
        raise IngestError(f"{path}: cannot read: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise IngestError(f"{path}: invalid UTF-8 at byte offset {exc.start}") from exc
    # a leading byte-order mark is not text; decoding it as utf-8-sig instead
    # would shift the byte offset reported above
    text = text.removeprefix("\ufeff")

    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if header and lines:
        lines = lines[1:]

    pairs: list[SentencePair] = []
    malformed = 0
    seen_rows = 0

    for row_index, line in enumerate(lines):
        line = line.rstrip("\r")
        if not line.strip():
            continue  # blank lines are skipped, not counted as rows
        seen_rows += 1
        try:
            pair = _parse_row(line, format, row_index, source_lang, target_lang, origin)
        except ValidationError as exc:
            malformed += 1
            logger.warning("%s row %d malformed: %s", path, row_index, exc)
            continue
        pairs.append(pair)

    if seen_rows and malformed * 10 > seen_rows:
        raise IngestError(
            f"{path}: {malformed}/{seen_rows} rows malformed (>10%), "
            "likely the wrong format"
        )
    if malformed:
        logger.warning("%s: skipped %d malformed rows", path, malformed)
    return Corpus(pairs, path.stem)


def _optional_text(obj: dict, key: str) -> Optional[str]:
    """A JSONL row's optional string field: None when absent or null, else it
    must be a non-empty string (no coercion of numbers, lists or "")."""
    value = obj.get(key)
    if value is not None and (not isinstance(value, str) or not value):
        raise ValidationError(f"bad {key!r} value {value!r}: not a non-empty string")
    return value


def _parse_row(
    line: str,
    format: str,
    row_index: int,
    source_lang: LanguageTag,
    target_lang: LanguageTag,
    origin: Origin,
) -> SentencePair:
    pair_id: Optional[str] = None
    score: Optional[float] = None
    if format == "tsv":
        cols = line.split("\t")
        if len(cols) != 2:
            raise ValidationError(f"expected 2 tab-separated columns, got {len(cols)}")
        src = normalize_text(unescape_field(cols[0]))
        tgt = normalize_text(unescape_field(cols[1]))
    else:
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"invalid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise ValidationError("row is not a JSON object")
        if not isinstance(obj.get("source"), str) or not isinstance(obj.get("target"), str):
            raise ValidationError("missing 'source'/'target' string fields")
        src = normalize_text(obj["source"])
        tgt = normalize_text(obj["target"])
        label = _optional_text(obj, "origin")
        if label is not None:
            origin = Origin(label)
        pair_id = _optional_text(obj, "id")
        score = obj.get("score")
        # bool is an int subclass, and a numeric string is not a number
        if score is not None and type(score) not in (int, float):
            raise ValidationError(f"bad score value {score!r}: not a JSON number")
        tag = _optional_text(obj, "source_lang")
        if tag is not None:
            source_lang = LanguageTag(tag)
        tag = _optional_text(obj, "target_lang")
        if tag is not None:
            target_lang = LanguageTag(tag)
    return SentencePair(
        id=pair_id or f"{origin.label}:{row_index}",
        source_text=src,
        target_text=tgt,
        source_lang=source_lang,
        target_lang=target_lang,
        origin=origin,
        score=score,
    )


def write(corpus: Corpus, path: str | Path, format: str) -> None:
    """Serialize a corpus to TSV or JSONL.

    JSONL carries per-pair id, language tags, origin and score, so it is the
    lossless interchange format; TSV keeps only the two text columns. A path
    that cannot be opened or written (a missing directory, a directory)
    raises ``IngestError``.
    """
    path = Path(path)
    if format not in ("tsv", "jsonl"):
        raise IngestError(f"unknown format {format!r}: expected 'tsv' or 'jsonl'")
    try:
        with path.open("w", encoding="utf-8", newline="\n") as fh:
            for pair in corpus.pairs:
                if format == "tsv":
                    fh.write(f"{escape_field(pair.source_text)}\t{escape_field(pair.target_text)}\n")
                else:
                    obj: dict[str, object] = {
                        "id": pair.id,
                        "source": pair.source_text,
                        "target": pair.target_text,
                        "source_lang": pair.source_lang.code,
                        "target_lang": pair.target_lang.code,
                        "origin": pair.origin.label,
                    }
                    if pair.score is not None:
                        obj["score"] = pair.score
                    fh.write(json.dumps(obj, ensure_ascii=False) + "\n")
    except OSError as exc:
        raise IngestError(f"{path}: cannot write: {exc.strerror}") from exc


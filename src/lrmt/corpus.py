"""Domain types, text normalization, and TSV/JSONL ingestion for parallel corpora.

A corpus is an ordered collection of sentence pairs. All text is NFC-normalized
with whitespace collapsed at ingestion time, so every downstream exact-match
operation (dedup, overlap verification) compares canonical forms. A TSV cell
is the text verbatim: no text holds a tab, newline or CR, so nothing is escaped.
"""

from __future__ import annotations

import json
import logging
import re
import sys
import unicodedata
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Iterator, Optional

from .errors import IngestError, ValidationError

logger = logging.getLogger(__name__)

_LANG_TAG_RE = re.compile(r"[a-z]{3}_[A-Z][a-z]{3}")
_WS_RE = re.compile(r"\s+")
_FORMATS = ("tsv", "jsonl")


def _shown(x: object) -> str:
    """repr(x), but an int beyond float range by its size: repr raises
    ValueError on an int of over sys.get_int_max_str_digits() digits, or on x holding one.
    A repr of more than 200 characters, such as a corpus's, is cut short by
    reprlib, two levels deep, so a refusal's message stays short."""
    if isinstance(x, int) and x.bit_length() > sys.float_info.max_exp:
        return f"<{'negative ' if x < 0 else ''}int of {x.bit_length()} bits>"
    try:
        shown = repr(x)
    except ValueError:
        return f"<{type(x).__name__} holding an int of too many digits>"
    if len(shown) <= 200:
        return shown
    import reprlib  # only a refusal of a long value pays for the import

    bounded = reprlib.Repr()
    bounded.maxlevel = 2
    return bounded.repr(x)


def check_type(x: object, what: str, kind: type) -> None:
    """The type rule: `x` is a `kind`, or ValidationError naming `what`, the
    type `x` is and `x` itself, shown by :func:`_shown`."""
    if not isinstance(x, kind):
        raise ValidationError(f"{what} must be {kind.__name__}, not {type(x).__name__}: {_shown(x)}")


@dataclass(frozen=True)
class LanguageTag:
    """BCP-47-style language + script tag, e.g. ``eng_Latn`` or ``trp_Latn``."""

    code: str

    def __post_init__(self) -> None:
        check_type(self.code, "language tag", str)
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
        check_type(self.label, "origin label", str)
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


def check_number(x: object, what: str, low: float, high: float) -> None:
    """The number rule: an int or float, not a bool, within float range (so
    not NaN or inf), in [low, high]. A bound may be infinite, so (-inf, inf)
    asks only for a number within float range. Raises ValidationError naming
    `what`."""
    # bool is an int subclass, and a numeric string is not a number
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ValidationError(f"{what} {_shown(x)} is not a number")
    # comparisons, unlike math.isfinite, take an int of any size; NaN fails
    # them, and an int beyond float range would overflow the arithmetic after
    if not -sys.float_info.max <= x <= sys.float_info.max:
        raise ValidationError(f"{what} {_shown(x)} is NaN, inf or beyond float range")
    if not low <= x <= high:
        raise ValidationError(f"{what} {x!r} outside [{low:g}, {high:g}]")


def check_count(x: object, what: str, low: int) -> None:
    """The count rule: an exact int, so not a bool or a float, at least `low`.
    Raises ValidationError naming `what`."""
    if type(x) is not int or x < low:
        raise ValidationError(f"{what} {_shown(x)} is not an integer >= {_shown(low)}")


def check_items(x: object, what: str, kind: type) -> None:
    """The container rule: a list or tuple whose every item is a `kind`, so a
    str, set, dict, iterator or lone object raises ValidationError naming
    `what`. A caller whose items another rule checks passes `object`."""
    if not isinstance(x, (list, tuple)):
        raise ValidationError(f"{what} must be a list or tuple, not {type(x).__name__}")
    # one pass at C speed; the offending item is looked for only on failure
    if not all(map(isinstance, x, repeat(kind))):
        for i, item in enumerate(x):
            check_type(item, f"{what} item {i}", kind)


def check_score(score: object, what: str) -> None:
    """The similarity-score rule: :func:`check_number` on [-1, 1], the range
    of a cosine."""
    check_number(score, what, -1.0, 1.0)


@dataclass(frozen=True)
class SentencePair:
    """One aligned source/target sentence with language tags and provenance.
    Every field is checked here, the score by :func:`check_score`, so readers
    hand fields over unchecked."""

    id: str
    source_text: str
    target_text: str
    source_lang: LanguageTag
    target_lang: LanguageTag
    origin: Origin
    score: Optional[float] = None

    def __post_init__(self) -> None:
        # constant names: an f-string would be built on every construction
        check_type(self.id, "sentence pair id", str)
        if not self.id:
            raise ValidationError("sentence pair id '' is not a non-empty string")
        for what, text in (("source text", self.source_text), ("target text", self.target_text)):
            check_type(text, what, str)
            if not text.strip():
                raise ValidationError(f"pair {self.id}: {what} {text!r} is not a non-blank string")
            if "\t" in text or "\n" in text or "\r" in text:
                raise ValidationError(f"pair {self.id}: {what} contains raw tab/newline")
        check_type(self.source_lang, "source language tag", LanguageTag)
        check_type(self.target_lang, "target language tag", LanguageTag)
        check_type(self.origin, "pair origin", Origin)
        if self.source_lang == self.target_lang:
            raise ValidationError(f"pair {self.id}: source and target language tags are equal")
        if self.score is not None:
            check_score(self.score, f"pair {self.id}: score")


@dataclass(frozen=True)
class Corpus:
    """Ordered sentence pairs with unique ids."""

    pairs: tuple[SentencePair, ...]
    name: str = "corpus"

    def __post_init__(self) -> None:
        check_type(self.name, "corpus name", str)
        check_items(self.pairs, f"corpus {self.name!r}: pairs", SentencePair)
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


def _check_format(format: object) -> None:
    if format not in _FORMATS:
        raise IngestError(f"unknown format {_shown(format)}: expected 'tsv' or 'jsonl'")


def _path(path: object, what: str) -> Path:
    """`path` as a Path; a value Path() refuses raises ValidationError naming `what`."""
    try:
        return Path(path)
    except TypeError:
        raise ValidationError(f"{what} must be str or PathLike, not {type(path).__name__}: {_shown(path)}") from None


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
    that are not UTF-8 raise ``IngestError`` too; a path that is not a str
    or ``os.PathLike`` raises ``ValidationError``.

    Every text, a TSV cell verbatim, is normalized via :func:`normalize_text`;
    a JSONL row's other fields go to the types, which check them, and an absent
    or null one takes the default. Malformed rows are logged and skipped; more
    than 10% malformed rows is treated as a wrong format and raises. Ids are
    assigned as ``<origin>:<0-based row index>`` unless a JSONL row supplies
    its own ``id``.
    """
    path = _path(path, "ingest path")
    if format is None:
        format = path.suffix.lower()[1:]
        if format not in _FORMATS:
            raise IngestError(f"cannot infer format from {str(path)!r}; pass the format argument")
    _check_format(format)
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
    if header:
        lines = lines[1:]

    pairs: list[SentencePair] = []
    malformed = 0
    seen_rows = 0

    for row_index, line in enumerate(lines):
        # a CR ending a row is whitespace to normalize_text and json.loads
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

    if malformed * 10 > seen_rows:
        raise IngestError(
            f"{path}: {malformed}/{seen_rows} rows malformed (>10%), "
            "likely the wrong format"
        )
    if malformed:
        logger.warning("%s: skipped %d malformed rows", path, malformed)
    return Corpus(pairs, path.stem)


def _parse_row(
    line: str,
    format: str,
    row_index: int,
    source_lang: LanguageTag,
    target_lang: LanguageTag,
    origin: Origin,
) -> SentencePair:
    pair_id = score = None
    if format == "tsv":
        cols = line.split("\t")
        if len(cols) != 2:
            raise ValidationError(f"expected 2 tab-separated columns, got {len(cols)}")
        src, tgt = map(normalize_text, cols)
    else:
        try:
            obj = json.loads(line)
        except ValueError as exc:  # JSONDecodeError, or an int of too many digits
            raise ValidationError(f"invalid JSON: {exc}") from exc
        check_type(obj, "JSON row", dict)
        check_type(obj.get("source"), "JSON row's 'source'", str)
        check_type(obj.get("target"), "JSON row's 'target'", str)
        src = normalize_text(obj["source"])
        tgt = normalize_text(obj["target"])
        if obj.get("origin") is not None:
            origin = Origin(obj["origin"])
        if obj.get("source_lang") is not None:
            source_lang = LanguageTag(obj["source_lang"])
        if obj.get("target_lang") is not None:
            target_lang = LanguageTag(obj["target_lang"])
        pair_id, score = obj.get("id"), obj.get("score")
    return SentencePair(
        id=f"{origin.label}:{row_index}" if pair_id is None else pair_id,
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
    lossless interchange format; TSV keeps only the two texts, each cell the
    text verbatim. A path that cannot be opened or written (a missing
    directory, a directory) raises ``IngestError``; a corpus that is not a
    ``Corpus``, or a path that is not a str or ``os.PathLike``, raises
    ``ValidationError``.
    """
    check_type(corpus, "corpus", Corpus)
    path = _path(path, "write path")
    _check_format(format)
    try:
        with path.open("w", encoding="utf-8", newline="\n") as fh:
            for pair in corpus.pairs:
                if format == "tsv":
                    fh.write(f"{pair.source_text}\t{pair.target_text}\n")
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


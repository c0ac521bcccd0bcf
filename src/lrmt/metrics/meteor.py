"""Staged-alignment metric: exact, stem-table, synonym-table matching with a
fragmentation penalty.

Stem and synonym stages run only when tables are supplied; the tables are
plain-text sidecar files, so any language can be plugged in without code
changes.
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping, Optional

from ..errors import IngestError, ValidationError
from .tokenizer import TokenizedSentence, check_parallel

StemTable = Mapping[str, str]
SynonymTable = Mapping[str, frozenset]


def _table_lines(path: str | Path) -> list[str]:
    """The stripped lines of a table file, less blank lines and #-comments."""
    try:
        text = Path(path).read_text("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise IngestError(f"{path}: cannot read table: {exc}") from exc
    return [ln for ln in map(str.strip, text.splitlines()) if ln and not ln.startswith("#")]


def load_stem_table(path: str | Path) -> dict[str, str]:
    """Lines of "word stem"; blank lines and #-comments ignored."""
    table: dict[str, str] = {}
    for ln in _table_lines(path):
        parts = ln.split()
        if len(parts) != 2:
            raise ValidationError(f"bad stem line {ln!r}: expected 'word stem'")
        table[parts[0]] = parts[1]
    return table


def load_synonym_table(path: str | Path) -> dict[str, frozenset]:
    """Lines of "word syn1 syn2 ..."; blank lines and #-comments ignored."""
    table: dict[str, frozenset] = {}
    for ln in _table_lines(path):
        parts = ln.split()
        if len(parts) < 2:
            raise ValidationError(f"bad synonym line {ln!r}: expected 'word syn...'")
        table[parts[0]] = frozenset(parts[1:])
    return table


def _align(
    hyp: tuple[str, ...],
    ref: tuple[str, ...],
    stem_table: Optional[StemTable],
    synonym_table: Optional[SynonymTable],
) -> list[tuple[int, int]]:
    """Greedy left-to-right unique alignment, one stage at a time."""
    stages = [lambda h, r: h == r]
    if stem_table is not None:
        stages.append(lambda h, r: stem_table.get(h, h) == stem_table.get(r, r))
    if synonym_table is not None:
        stages.append(
            lambda h, r: r in synonym_table.get(h, frozenset())
            or h in synonym_table.get(r, frozenset())
        )
    hyp_free = [True] * len(hyp)
    ref_free = [True] * len(ref)
    matches: list[tuple[int, int]] = []
    for stage in stages:
        for i, h in enumerate(hyp):
            if not hyp_free[i]:
                continue
            for j, r in enumerate(ref):
                if ref_free[j] and stage(h, r):
                    hyp_free[i] = False
                    ref_free[j] = False
                    matches.append((i, j))
                    break
    matches.sort()
    return matches


def _chunks(matches: list[tuple[int, int]]) -> int:
    # matches sorted by hyp index; a chunk extends while both indices step by 1
    count = 0
    prev = None
    for i, j in matches:
        if prev is None or i != prev[0] + 1 or j != prev[1] + 1:
            count += 1
        prev = (i, j)
    return count


def meteor_sentence(
    hyp: TokenizedSentence,
    ref: TokenizedSentence,
    stem_table: Optional[StemTable] = None,
    synonym_table: Optional[SynonymTable] = None,
) -> float:
    matches = _align(hyp.tokens, ref.tokens, stem_table, synonym_table)
    m = len(matches)
    if m == 0:
        return 0.0
    p = m / len(hyp)
    r = m / len(ref)
    f_mean = 10 * p * r / (r + 9 * p)
    penalty = 0.5 * (_chunks(matches) / m) ** 3
    return f_mean * (1.0 - penalty)


def meteor_corpus(
    hyps: list[TokenizedSentence],
    refs: list[TokenizedSentence],
    stem_table: Optional[StemTable] = None,
    synonym_table: Optional[SynonymTable] = None,
) -> float:
    """Unweighted mean of sentence scores."""
    check_parallel(hyps, refs)
    return sum(
        meteor_sentence(h, r, stem_table, synonym_table) for h, r in zip(hyps, refs)
    ) / len(hyps)

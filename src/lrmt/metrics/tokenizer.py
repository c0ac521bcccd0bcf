"""Reference tokenizer, corpus check and n-gram counter shared by the metrics.

A small, frozen rule set ("13a-lite"): pad punctuation with spaces, keep
decimal/thousands separators and in-abbreviation periods attached, split on
whitespace. The rules are locked by a golden-file test; changing them changes
every metric, so don't.
"""

from __future__ import annotations

import unicodedata
from collections import Counter
from dataclasses import dataclass
from typing import Sequence, Sized

from ..errors import ValidationError

_ASCII_PUNCT = set("!\"#$%&'()*+,-./:;<=>?@[\\]^_`{|}~")


@dataclass(frozen=True)
class TokenizedSentence:
    tokens: tuple[str, ...]

    def __post_init__(self) -> None:
        # tuple() of a string would split it into characters
        if isinstance(self.tokens, str):
            raise ValidationError(f"tokens {self.tokens!r} is a string, not a sequence of tokens")
        object.__setattr__(self, "tokens", tuple(self.tokens))
        for tok in self.tokens:
            if not tok or any(ch.isspace() for ch in tok):
                raise ValidationError(f"bad token {tok!r}: empty or contains whitespace")

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self):
        return iter(self.tokens)


def check_parallel(hyps: Sized, refs: Sized) -> None:
    """Raise ValidationError unless hyps and refs pair up one to one and are
    not empty; every corpus metric starts here."""
    if len(hyps) != len(refs):
        raise ValidationError(f"hyp/ref length mismatch: {len(hyps)} vs {len(refs)}")
    if not hyps:
        raise ValidationError("empty corpus")


def ngram_stats(hyp: Sequence, ref: Sequence, max_order: int) -> tuple[tuple[int, int, int], ...]:
    """Per-order (clipped matches, hyp n-grams, ref n-grams) of one segment,
    for orders 1..max_order.

    An n-gram is a slice, so a string gives character n-grams and a token
    tuple word n-grams. One Counter holds the hypothesis n-grams of every
    order, keyed by the n-gram itself (its order is its length). Each
    reference n-gram then takes one of its copies while any are left, so an
    n-gram matches min(hyp count, ref count) times: the clipped count.
    """
    orders = range(1, max_order + 1)
    left = Counter(hyp[i : i + n] for n in orders for i in range(len(hyp) - n + 1))
    get = left.get
    stats = []
    for n in orders:
        matched = 0
        for i in range(len(ref) - n + 1):
            gram = ref[i : i + n]
            copies = get(gram)
            if copies:
                left[gram] = copies - 1
                matched += 1
        stats.append((matched, max(len(hyp) - n + 1, 0), max(len(ref) - n + 1, 0)))
    return tuple(stats)


def _is_ascii_digit(ch: str) -> bool:
    return "0" <= ch <= "9"


def _is_ascii_alpha(ch: str) -> bool:
    return "a" <= ch <= "z" or "A" <= ch <= "Z"


def tokenize_13a(text: str) -> TokenizedSentence:
    """Tokenize normalized text.

    Rules, applied per character against its original neighbors:
      1. non-ASCII punctuation (Unicode category P*) is padded with spaces;
      2. ASCII punctuation is padded, except '.'/',' between two digits
         (3.14, 1,000) and '.' after a letter with a non-space following
         (U.S.A. style abbreviations mid-token);
      3. the result splits on whitespace.
    """
    out: list[str] = []
    n = len(text)
    for k, ch in enumerate(text):
        prev = text[k - 1] if k > 0 else " "
        nxt = text[k + 1] if k + 1 < n else " "
        if ord(ch) < 128:
            if ch in _ASCII_PUNCT:
                if ch in ".," and _is_ascii_digit(prev) and _is_ascii_digit(nxt):
                    out.append(ch)
                elif ch == "." and _is_ascii_alpha(prev) and not nxt.isspace():
                    out.append(ch)
                else:
                    out.append(f" {ch} ")
            else:
                out.append(ch)
        elif unicodedata.category(ch).startswith("P"):
            out.append(f" {ch} ")
        else:
            out.append(ch)
    return TokenizedSentence(tokens=tuple("".join(out).split()))

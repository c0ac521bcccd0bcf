"""Reference tokenizer, corpus check, n-gram counter and F-measure shared by the metrics.

A small, frozen rule set ("13a-lite"): pad punctuation with spaces, keep
decimal/thousands separators and in-abbreviation periods attached, split on
whitespace. The rules are locked by a golden-file test; changing them changes
every metric, so don't. The n-gram counter skips a pair's shared prefix and
suffix, whose n-grams match one for one, and adds their count exactly; an
exact copy is counted in closed form.
`f_measure` is the one F_beta formula: chrF, ROUGE-L and METEOR call it, and
`total` is the one float sum: every metric's mean and cross-order fold calls it.
"""

from __future__ import annotations

import re
import unicodedata
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..corpus import check_items, check_type
from ..errors import ValidationError

# ASCII punctuation except tokenize_13a's rule-2 exceptions, judged on the original text
_PAD_ASCII = re.compile(r"(?!(?<=[0-9])[.,][0-9]|(?<=[A-Za-z])\.\S)[!-/:-@\[-`{-~]")


@dataclass(frozen=True)
class TokenizedSentence:
    tokens: tuple[str, ...]

    def __post_init__(self) -> None:
        check_items(self.tokens, "tokens", str)
        object.__setattr__(self, "tokens", tuple(self.tokens))
        if " ".join(self.tokens).split() != list(self.tokens):  # split() splits on isspace()
            tok = next(t for t in self.tokens if not t or any(map(str.isspace, t)))
            raise ValidationError(f"bad token {tok!r}: empty or contains whitespace")

    def __len__(self) -> int:
        return len(self.tokens)


def check_parallel(hyps: Sequence, refs: Sequence, kind: type) -> None:
    """Raise ValidationError unless hyps and refs are equally long, non-empty
    lists or tuples of `kind` (:func:`~lrmt.corpus.check_items`); every
    corpus metric starts here."""
    check_items(hyps, "hyps", kind)
    check_items(refs, "refs", kind)
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
    n-gram matches min(hyp count, ref count) times: the clipped count. Each
    side is counted only from a = p - max_order + 1 to b = s - max_order + 1
    items before its end, for a common prefix of p and suffix of s items (s
    capped so they do not overlap). The n-grams outside are one multiset c on
    both sides and min(c + x, c + y) = c + min(x, y), so adding c is exact.
    An exact copy is all c: each order counts its t = len - n + 1 n-grams
    (or 0) as (t, t, t), with no Counter.
    """
    if hyp == ref:  # an exact copy: every n-gram of each order matches
        return tuple((t, t, t) for t in (max(len(hyp) - n + 1, 0) for n in range(1, max_order + 1)))
    short, p, s = min(len(hyp), len(ref)), 0, 0
    while p < short and hyp[p] == ref[p]:
        p += 1
    while s < short - p and hyp[-1 - s] == ref[-1 - s]:
        s += 1
    a, b = max(0, p - max_order + 1), max(0, s - max_order + 1)
    hyp_win, ref_win = hyp[a : len(hyp) - b], ref[a : len(ref) - b]
    orders = range(1, max_order + 1)
    left = Counter(hyp_win[i : i + n] for n in orders for i in range(len(hyp_win) - n + 1))
    get = left.get
    stats = []
    for n in orders:
        matched = max(len(hyp) - n + 1, 0) - max(len(hyp_win) - n + 1, 0)
        for i in range(len(ref_win) - n + 1):
            gram = ref_win[i : i + n]
            copies = get(gram)
            if copies:
                left[gram] = copies - 1
                matched += 1
        stats.append((matched, max(len(hyp) - n + 1, 0), max(len(ref) - n + 1, 0)))
    return tuple(stats)


def f_measure(matches: int, hyp_total: int, ref_total: int, beta: float) -> float:
    """F_beta of precision matches / hyp_total and recall matches / ref_total
    (beta > 1 favors recall); 0.0 when nothing matches, so no total divides."""
    if matches == 0:
        return 0.0
    b2 = beta * beta
    p = matches / hyp_total
    r = matches / ref_total
    return (1 + b2) * p * r / (b2 * p + r)


def total(values: Iterable[float]) -> float:
    """Sum from the int 0, left to right: sum()'s order before Python 3.12,
    whose sum() compensates float rounding, so a score keeps its last digit
    on every Python version. An all-int input stays an exact int."""
    result = 0
    for v in values:
        result += v
    return result


def tokenize_13a(text: str) -> TokenizedSentence:
    """Tokenize normalized text.

    Rules, applied per character against its original neighbors:
      1. non-ASCII punctuation (Unicode category P*) is padded with spaces;
      2. ASCII punctuation is padded, except '.'/',' between two digits
         (3.14, 1,000) and '.' after a letter with a non-space following
         (U.S.A. style abbreviations mid-token);
      3. the result splits on whitespace.

    Rule 2 is one regex pass; rule 1 depends on the character alone, so it
    runs second, and only on text that is not ASCII.
    """
    check_type(text, "text", str)
    padded = _PAD_ASCII.sub(r" \g<0> ", text)
    if not padded.isascii():
        pad = [f" {c} " if c > "\x7f" and unicodedata.category(c)[0] == "P" else c for c in padded]
        padded = "".join(pad)
    return _split_tokens(padded)


def _split_tokens(text: str) -> TokenizedSentence:
    """The TokenizedSentence of `text`'s whitespace-split tokens, built
    without `__post_init__`: str.split() yields no empty token and none that
    holds whitespace, which is all that check asks."""
    sentence = object.__new__(TokenizedSentence)
    object.__setattr__(sentence, "tokens", tuple(text.split()))
    return sentence

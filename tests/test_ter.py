import itertools
import random

import pytest

from lrmt.errors import ValidationError
from lrmt.metrics._kernels import levenshtein_masks, match_masks
from lrmt.metrics.ter import MAX_SHIFT_DIST, MAX_SHIFT_SIZE, _best_shift, ter_corpus, ter_sentence
from lrmt.metrics.tokenizer import TokenizedSentence, tokenize_13a


def lev(a, b):
    n, m = len(a), len(b)
    dp = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        dp[i][0] = i
    for j in range(m + 1):
        dp[0][j] = j
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            dp[i][j] = min(dp[i - 1][j] + 1, dp[i][j - 1] + 1, dp[i - 1][j - 1] + cost)
    return dp[n][m]


def oracle_edits(hyp, ref):
    """Exhaustive minimum of (block moves + edit distance) over every move
    sequence: any contiguous block, any landing position, breadth-first with
    a cost bound. Tractable for short sentences only."""
    start = tuple(hyp)
    best = lev(start, ref)
    seen = {start}
    frontier = [start]
    shifts = 0
    while frontier and shifts + 1 < best:
        shifts += 1
        nxt = []
        for state in frontier:
            n = len(state)
            for size in range(1, n + 1):
                for i in range(n - size + 1):
                    block = state[i : i + size]
                    rem = state[:i] + state[i + size :]
                    for k in range(len(rem) + 1):
                        if k == i:
                            continue
                        cand = rem[:k] + block + rem[k:]
                        if cand in seen:
                            continue
                        seen.add(cand)
                        best = min(best, shifts + lev(cand, ref))
                        nxt.append(cand)
        frontier = nxt
    return best


def reference_best_shift(current, ref_masks, ref_len, base):
    """The plain scan: every candidate built and scored in full, in scan order."""
    best = None
    best_dist = base
    n = len(current)
    for size in range(1, min(MAX_SHIFT_SIZE, n) + 1):
        for i in range(n - size + 1):
            block = current[i : i + size]
            remaining = current[:i] + current[i + size :]
            for k in range(len(remaining) + 1):
                if k == i or abs(i - k) > MAX_SHIFT_DIST:
                    continue
                cand = remaining[:k] + block + remaining[k:]
                d = levenshtein_masks(cand, ref_masks, ref_len)
                if d < best_dist:
                    best_dist = d
                    best = cand
    if best is None:
        return None
    return best, best_dist


def best_shift(hyp, ref, search=_best_shift):
    ref_masks = match_masks(ref)
    return search(hyp, ref_masks, len(ref), levenshtein_masks(hyp, ref_masks, len(ref)))


def assert_same_best_shift(hyp, ref):
    assert best_shift(hyp, ref) == best_shift(hyp, ref, reference_best_shift), (hyp, ref)


def sent(text):
    return tokenize_13a(text)


def toks(*tokens):
    return TokenizedSentence(tokens=tuple(tokens))


class TestTerSentence:
    def test_identity(self):
        edits, rate = ter_sentence(sent("the cat sat"), sent("the cat sat"))
        assert edits == 0
        assert rate == 0.0

    def test_empty_hyp_all_insertions(self):
        edits, rate = ter_sentence(toks(), toks("a", "b", "c", "d"))
        assert edits == 4
        assert rate == 1.0

    def test_one_shift_beats_two_substitutions(self):
        edits, rate = ter_sentence(sent("b a c d"), sent("a b c d"))
        assert edits == 1
        assert rate == 0.25
        assert oracle_edits(("b", "a", "c", "d"), ("a", "b", "c", "d")) == 1

    def test_block_shift(self):
        # move a 2-token block home in one edit
        edits, _ = ter_sentence(toks("c", "d", "a", "b"), toks("a", "b", "c", "d"))
        assert edits == 1

    def test_shift_never_hurts(self):
        rng = random.Random(48)
        vocab = ["a", "b", "c", "d", "e"]
        for _ in range(150):
            hyp = tuple(rng.choice(vocab) for _ in range(rng.randrange(0, 7)))
            ref = tuple(rng.choice(vocab) for _ in range(rng.randrange(1, 7)))
            edits, _ = ter_sentence(toks(*hyp), toks(*ref))
            assert edits <= lev(hyp, ref)

    def test_matches_exhaustive_oracle(self):
        rng = random.Random(49)
        vocab = ["a", "b", "c", "d"]
        for _ in range(120):
            hyp = tuple(rng.choice(vocab) for _ in range(rng.randrange(1, 6)))
            ref = tuple(rng.choice(vocab) for _ in range(rng.randrange(1, 6)))
            edits, _ = ter_sentence(toks(*hyp), toks(*ref))
            assert edits == oracle_edits(hyp, ref), (hyp, ref)

    def test_best_shift_matches_plain_scan(self):
        # tiny vocabularies make ties common, so a changed tie-break shows;
        # past 10 tokens MAX_SHIFT_SIZE limits the blocks
        rng = random.Random(50)
        for _ in range(80):
            vocab = "abcd"[: rng.randrange(1, 5)]
            hyp = [rng.choice(vocab) for _ in range(rng.randrange(0, 21))]
            ref = [rng.choice(vocab) for _ in range(rng.randrange(1, 21))]
            assert_same_best_shift(hyp, ref)

    def test_best_shift_matches_plain_scan_on_permutations(self):
        # distinct tokens: every block of a 6-token hyp at every landing
        ref = list("abcdef")
        for hyp in itertools.permutations(ref):
            assert_same_best_shift(list(hyp), ref)

    def test_best_shift_matches_plain_scan_past_distance_cap(self):
        # from 52 tokens on, MAX_SHIFT_DIST keeps some landings out of reach:
        # "x" fixes these in one shift of 50 places, but not of 51
        within = [f"w{j}" for j in range(50)]
        assert best_shift(["x"] + within, within + ["x"]) == (within + ["x"], 0)
        assert best_shift(within + ["x"], ["x"] + within) == (["x"] + within, 0)
        beyond = within + ["w50"]
        assert best_shift(["x"] + beyond, beyond + ["x"]) is None
        assert best_shift(beyond + ["x"], ["x"] + beyond) is None
        rng = random.Random(51)
        vocab = "abcdefgh"[: rng.randrange(2, 9)]
        hyp = [rng.choice(vocab) for _ in range(rng.randrange(52, 61))]
        ref = [rng.choice(vocab) for _ in range(rng.randrange(1, 61))]
        assert_same_best_shift(hyp, ref)

    def test_empty_ref_rejected(self):
        with pytest.raises(ValidationError):
            ter_sentence(toks("a"), toks())

    def test_rate_can_exceed_one(self):
        edits, rate = ter_sentence(toks("x", "y", "z", "w"), toks("a"))
        assert edits == 4
        assert rate == 4.0

    def test_caps_exported(self):
        assert MAX_SHIFT_SIZE == 10
        assert MAX_SHIFT_DIST == 50


class TestTerCorpus:
    def test_sums_not_means(self):
        # 1 edit / 4 ref + 0 edits / 2 ref pooled: 1/6, not mean(0.25, 0)
        hyps = [sent("b a c d"), sent("x y")]
        refs = [sent("a b c d"), sent("x y")]
        edits, ref_len, rate = ter_corpus(hyps, refs)
        assert (edits, ref_len) == (1, 6)
        assert rate == pytest.approx(1 / 6)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            ter_corpus([sent("a")], [])

    def test_empty_corpus(self):
        with pytest.raises(ValidationError):
            ter_corpus([], [])

import itertools
import random
from collections import Counter

import pytest

from lrmt.errors import ValidationError
from lrmt.metrics._kernels import levenshtein_masks, match_masks
from lrmt.metrics.report import evaluate_corpus
from lrmt.metrics.ter import (
    MAX_SHIFT_DIST,
    MAX_SHIFT_SIZE,
    _best_shift,
    _shift_floor,
    ter_sentence,
)
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


def best_shift(hyp, ref):
    """_best_shift from hyp's own distance, with the floor ter_sentence gives it."""
    ref_masks = match_masks(ref)
    base = levenshtein_masks(hyp, ref_masks, len(ref))
    return _best_shift(hyp, ref_masks, len(ref), base, _shift_floor(hyp, ref))


def assert_same_best_shift(hyp, ref):
    """Check _best_shift against the plain scan; return the plain scan's result."""
    ref_masks = match_masks(ref)
    base = levenshtein_masks(hyp, ref_masks, len(ref))
    expected = reference_best_shift(hyp, ref_masks, len(ref), base)
    assert best_shift(hyp, ref) == expected, (hyp, ref)
    return expected


def count_stage(stages, hyp, ref, found):
    """Tally a plain-scan result by the stage of _best_shift that finds it:
    the first finds a distance <= floor + 1, the second one >= floor + 2."""
    if found is not None:
        stages["first" if found[1] <= _shift_floor(hyp, ref) + 1 else "second"] += 1


def floorless_edits(hyp, ref):
    """TER edits from the greedy loop without the floor: shift while any
    shift helps, with the plain scan."""
    ref_masks = match_masks(ref)
    current = list(hyp)
    shifts = 0
    dist = levenshtein_masks(current, ref_masks, len(ref))
    while dist > 0:
        found = reference_best_shift(current, ref_masks, len(ref), dist)
        if found is None:
            break
        current, dist = found
        shifts += 1
    return shifts + dist


def eval_long_pair(rng, n, moves):
    """A hyp/ref pair shaped like the benchmark's long segments: an n-token
    reference of Zipf-weighted words, and a hypothesis made from it by
    `moves` block moves, one substitution, one drop and one insertion."""
    words = [f"w{r}" for r in range(60)]
    weights = [1 / (r + 1) for r in range(60)]
    ref = rng.choices(words, weights, k=n)
    hyp = list(ref)
    for _ in range(moves):
        size = rng.randint(2, 4)
        start = rng.randrange(n - size + 1)
        block = hyp[start : start + size]
        del hyp[start : start + size]
        dest = rng.choice([k for k in range(len(hyp) + 1) if k != start])
        hyp[dest:dest] = block
    hyp[rng.randrange(len(hyp))] = rng.choice(words)
    del hyp[rng.randrange(len(hyp))]
    hyp.insert(rng.randrange(len(hyp) + 1), rng.choice(words))
    return hyp, ref


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
        stages = Counter()
        for _ in range(80):
            vocab = "abcd"[: rng.randrange(1, 5)]
            hyp = [rng.choice(vocab) for _ in range(rng.randrange(0, 21))]
            ref = [rng.choice(vocab) for _ in range(rng.randrange(1, 21))]
            count_stage(stages, hyp, ref, assert_same_best_shift(hyp, ref))
        assert stages["first"] > 0 and stages["second"] > 0, stages

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

    def test_floor_is_min_over_reorderings(self):
        rng = random.Random(52)
        for _ in range(300):
            vocab = "abcd"[: rng.randrange(1, 5)]
            hyp = tuple(rng.choice(vocab) for _ in range(rng.randrange(0, 7)))
            ref = tuple(rng.choice(vocab) for _ in range(rng.randrange(1, 7)))
            reachable = min(lev(p, ref) for p in set(itertools.permutations(hyp)))
            assert _shift_floor(hyp, ref) == reachable, (hyp, ref)

    def test_floor_does_not_bind(self):
        # c b a reorders to a b c, but no single shift lowers the distance
        hyp, ref = ["c", "b", "a"], ["a", "b", "c"]
        assert _shift_floor(hyp, ref) == 0
        assert best_shift(hyp, ref) is None
        assert ter_sentence(toks(*hyp), toks(*ref)) == (2, 2 / 3)

    def test_second_stage(self):
        # floor 0, base 4: one shift fixes one transposition and reaches 2,
        # above floor + 1, so only the second stage finds it
        hyp, ref = list("bacdefhg"), list("abcdefgh")
        assert _shift_floor(hyp, ref) == 0
        assert levenshtein_masks(hyp, match_masks(ref), len(ref)) == 4
        expected = (list("abcdefhg"), 2)
        assert reference_best_shift(hyp, match_masks(ref), len(ref), 4) == expected
        assert best_shift(hyp, ref) == expected
        assert ter_sentence(toks(*hyp), toks(*ref)) == (2, 0.25)

    def test_matches_floorless_loop(self):
        # tiny vocabularies make ties common, so a different first winner
        # among equal shifts would show in later shifts' counts
        rng = random.Random(53)
        for _ in range(150):
            vocab = "abcde"[: rng.randrange(1, 6)]
            hyp = [rng.choice(vocab) for _ in range(rng.randrange(0, 13))]
            ref = [rng.choice(vocab) for _ in range(rng.randrange(1, 13))]
            edits, _ = ter_sentence(toks(*hyp), toks(*ref))
            assert edits == floorless_edits(hyp, ref), (hyp, ref)

    def test_long_segments_match_plain_scan(self):
        # the lengths where the diagonal bound and the start-column skip
        # prune most; the cases above stay under 13 tokens. A shift usually
        # fixes one block move to within one edit of the floor, but not two.
        rng = random.Random(54)
        stages = Counter()
        for n in (16, 23, 30):
            for moves in (1, 2):
                hyp, ref = eval_long_pair(rng, n, moves)
                count_stage(stages, hyp, ref, assert_same_best_shift(hyp, ref))
                edits, _ = ter_sentence(toks(*hyp), toks(*ref))
                assert edits == floorless_edits(hyp, ref), (hyp, ref)
        assert stages["first"] > 0 and stages["second"] > 0, stages

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
    """Corpus TER as evaluate_corpus reports it: summed edits over summed
    reference lengths."""

    def test_sums_not_means(self):
        # 1 edit / 4 ref + 0 edits / 2 ref pooled: 1/6, not mean(0.25, 0)
        hyps, refs = ["b a c d", "x y"], ["a b c d", "x y"]
        edits = sum(ter_sentence(sent(h), sent(r))[0] for h, r in zip(hyps, refs))
        ref_len = sum(len(sent(r)) for r in refs)
        assert (edits, ref_len) == (1, 6)
        ter = evaluate_corpus(hyps, refs).ter
        assert ter == edits / ref_len * 100.0
        assert ter == pytest.approx(100 / 6)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            evaluate_corpus(["a"], [])

    def test_empty_corpus(self):
        with pytest.raises(ValidationError):
            evaluate_corpus([], [])

import itertools
import random
from collections import Counter

import pytest

from lrmt.errors import ValidationError
from lrmt.metrics import ter
from lrmt.metrics._kernels import (
    lcs_length,
    lcs_resume,
    levenshtein_masks,
    levenshtein_prefix_states,
    levenshtein_resume,
    match_masks,
    resume_lower_bound,
)
from lrmt.metrics.report import evaluate_corpus
from lrmt.metrics.ter import (
    MAX_SHIFT_DIST,
    MAX_SHIFT_SIZE,
    _best_shift,
    _scan,
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


def fixed_prefix_scan(current, ref_masks, ref_len, states, starts, best_dist, floor):
    """`_scan` before the right moves shared a growing prefix: every right
    move of a block from `i` resumes from `states[i]`, reads `after[:k-i]`
    again, and is skipped only while `starts[i] >= best_dist`."""
    best = None
    n = len(current)
    for size in range(1, min(MAX_SHIFT_SIZE, n) + 1):
        for i in range(n - size + 1):
            block = current[i : i + size]
            after = current[i + size :]
            for k in range(max(0, i - MAX_SHIFT_DIST), i - size):
                if starts[k] >= best_dist:
                    continue
                tail = block + current[k:i] + after
                state = levenshtein_resume(tail, ref_masks, ref_len, states[k], starts[k], best_dist)
                if state is not None:
                    best_dist = state[2]
                    best = current[:k] + tail
                    if best_dist == floor:
                        return best, best_dist
            for k in range(i + size, min(n - size, i + MAX_SHIFT_DIST) + 1):
                if starts[i] >= best_dist:
                    break
                tail = after[: k - i] + block + after[k - i :]
                state = levenshtein_resume(tail, ref_masks, ref_len, states[i], starts[i], best_dist)
                if state is not None:
                    best_dist = state[2]
                    best = current[:i] + tail
                    if best_dist == floor:
                        return best, best_dist
    if best is None:
        return None
    return best, best_dist


def fixed_prefix_best_shift(current, ref_masks, ref_len, floor):
    """`_best_shift`'s two stages over `fixed_prefix_scan`."""
    n = len(current)
    states = levenshtein_prefix_states(current, ref_masks, ref_len)
    starts = [resume_lower_bound(state, ref_len, n - k) for k, state in enumerate(states)]
    base = states[-1][2]
    found = fixed_prefix_scan(current, ref_masks, ref_len, states, starts, min(base, floor + 2), floor)
    if found is None and floor + 2 < base:
        found = fixed_prefix_scan(current, ref_masks, ref_len, states, starts, base, floor + 2)
    return found


def two_loop_scan(current, ref_masks, ref_len, states, starts, lcs_vectors, pre, suf, best_dist, floor):
    """`_scan` before its landings shared one loop: left moves resume from
    `states[k]` and are skipped while `starts[k] >= best_dist`; right moves
    resume from a running prefix state, are skipped while `starts[i] >=
    best_dist`, and break once the running state's cell reaches it. It
    checks every block by the exact LCS bound alone, so it ignores the
    prefix and suffix LCS tables `pre` and `suf`. Its kernel calls go
    through the `ter` module, so a test can record them."""
    best = None
    n = len(current)
    longest = max(n, ref_len)
    unreachable = n + ref_len + 1
    for size in range(1, min(MAX_SHIFT_SIZE, n) + 1):
        for i in range(n - size + 1):
            block = current[i : i + size]
            after = current[i + size :]
            cap = 2 * ref_len - (
                lcs_resume(after, ref_masks, ref_len, lcs_vectors[i]).bit_count()
                + lcs_resume(block, ref_masks, ref_len, lcs_vectors[0]).bit_count()
            )
            if longest - cap >= best_dist:
                continue
            for k in range(max(0, i - MAX_SHIFT_DIST), i - size):
                if starts[k] >= best_dist:
                    continue
                tail = block + current[k:i] + after
                state = ter.levenshtein_resume(tail, ref_masks, ref_len, states[k], starts[k], best_dist)
                if state is not None:
                    best_dist = state[2]
                    best = current[:k] + tail
                    if best_dist == floor:
                        return best, best_dist
            last = min(n - size, i + MAX_SHIFT_DIST)
            if last < i + size or starts[i] >= best_dist:
                continue
            pstate = states[i]
            for k in range(i + 1, last + 1):
                tok = (after[k - i - 1],)
                low = resume_lower_bound(pstate, ref_len, 1)
                pstate = ter.levenshtein_resume(tok, ref_masks, ref_len, pstate, low, unreachable)
                low = resume_lower_bound(pstate, ref_len, n - k)
                if low >= best_dist:
                    break
                if k < i + size:
                    continue
                tail = block + after[k - i :]
                state = ter.levenshtein_resume(tail, ref_masks, ref_len, pstate, low, best_dist)
                if state is not None:
                    best_dist = state[2]
                    best = current[:i] + after[: k - i] + tail
                    if best_dist == floor:
                        return best, best_dist
    if best is None:
        return None
    return best, best_dist


def candidate_calls(monkeypatch, scan, hyp, ref):
    """ter_sentence's result with `scan` as `_best_shift`'s scan, and every
    candidate call it made to `levenshtein_resume`: (tokens, state, low,
    bound), in order."""
    calls = []

    def recording(a, peq, m, state, low, bound):
        # the prefix steps pass a bound above any distance
        if bound <= len(hyp) + len(ref):
            calls.append((tuple(a), state, low, bound))
        return levenshtein_resume(a, peq, m, state, low, bound)

    monkeypatch.setattr(ter, "levenshtein_resume", recording)
    monkeypatch.setattr(ter, "_scan", scan)
    return ter_sentence(toks(*hyp), toks(*ref)), calls


def assert_same_candidates(monkeypatch, hyp, ref):
    """Check that `_scan` and `two_loop_scan` score the same candidates from
    the same states, in the same order, at every move of ter_sentence's
    loop; return how many there were."""
    expected = candidate_calls(monkeypatch, two_loop_scan, hyp, ref)
    assert candidate_calls(monkeypatch, _scan, hyp, ref) == expected, (hyp, ref)
    return len(expected[1])


def best_shift(hyp, ref):
    """_best_shift with the floor ter_sentence gives it."""
    return _best_shift(hyp, match_masks(ref), match_masks(ref[::-1]), len(ref), _shift_floor(hyp, ref))


def assert_same_best_shift(hyp, ref):
    """Check _best_shift against the plain scan and the fixed-prefix scan;
    return the plain scan's result."""
    ref_masks = match_masks(ref)
    base = levenshtein_masks(hyp, ref_masks, len(ref))
    expected = reference_best_shift(hyp, ref_masks, len(ref), base)
    assert best_shift(hyp, ref) == expected, (hyp, ref)
    assert fixed_prefix_best_shift(hyp, ref_masks, len(ref), _shift_floor(hyp, ref)) == expected, (hyp, ref)
    return expected


def assert_same_shift_path(hyp, ref):
    """Run ter_sentence's greedy loop and check that _best_shift and the
    fixed-prefix scan make the same move at every step; return the edits."""
    ref_masks = match_masks(ref)
    current = list(hyp)
    shifts = 0
    dist = levenshtein_masks(current, ref_masks, len(ref))
    floor = _shift_floor(current, ref)
    while dist > floor + 1:
        found = _best_shift(current, ref_masks, match_masks(ref[::-1]), len(ref), floor)
        assert found == fixed_prefix_best_shift(current, ref_masks, len(ref), floor), (current, ref)
        if found is None:
            break
        current, dist = found
        shifts += 1
    return shifts + dist


def right_move_landings(monkeypatch, hyp, ref):
    """_best_shift's result, and the landings `k` of the right moves of
    `hyp[0]` that it scored, in order. `hyp[0]` must occur once in `hyp`:
    the block `[hyp[0]]` is the first one scanned, and it has no left moves,
    so its candidates are the first ones scored, each `[hyp[0]] +
    hyp[k+1:]` from the running prefix state."""
    calls = []

    def counting(a, peq, m, state, low, bound):
        calls.append((tuple(a), bound))
        return levenshtein_resume(a, peq, m, state, low, bound)

    monkeypatch.setattr(ter, "levenshtein_resume", counting)
    found = best_shift(hyp, ref)
    # the prefix steps pass a bound above any distance
    candidates = [a for a, bound in calls if bound <= len(hyp) + len(ref)]
    first = list(itertools.takewhile(lambda a: a[0] == hyp[0], candidates))
    return found, [len(hyp) - len(a) for a in first]


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


def always_floor_ter(hyp, ref):
    """ter_sentence without its two early exits: no exact-copy return, and
    the floor computed for every pair."""
    ref_masks = match_masks(ref)
    current = list(hyp)
    shifts = 0
    dist = levenshtein_masks(current, ref_masks, len(ref))
    floor = _shift_floor(current, ref)
    while dist > floor + 1:
        found = _best_shift(current, ref_masks, match_masks(ref[::-1]), len(ref), floor)
        if found is None:
            break
        current, dist = found
        shifts += 1
    return shifts + dist, (shifts + dist) / len(ref)


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


def scan_tables(hyp, ref):
    """The tables `_best_shift` hands its scan: (states, starts,
    lcs_vectors, pre, suf)."""
    seen = []

    def recording(current, ref_masks, ref_len, *tables_and_bounds):
        seen.append(tables_and_bounds[:-2])

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ter, "_scan", recording)
        best_shift(hyp, ref)
    return seen[0]


def block_bounds(hyp, ref):
    """{(i, size): (first tier, exact)}, the least distance each tier of
    shortcut 6 allows a landing of hyp[i:i+size]. The first tier reads
    `_best_shift`'s `pre` and `suf` tables, the exact one resumes LCS(hyp
    without the block, ref) from its vector after hyp[:i], and LCS(block,
    ref) is one token's step from the vector of the block one shorter, as
    `_scan` does; each is checked against `lcs_length`."""
    ref_masks, m, n = match_masks(ref), len(ref), len(hyp)
    _, _, vectors, pre, suf = scan_tables(hyp, ref)
    assert pre == [lcs_length(hyp[:k], ref) for k in range(n + 1)]
    assert suf == [lcs_length(hyp[k:], ref) for k in range(n + 1)]
    blocks = vectors[:1] * n
    bounds = {}
    for size in range(1, min(MAX_SHIFT_SIZE, n) + 1):
        for i in range(n - size + 1):
            block, rest = hyp[i : i + size], hyp[:i] + hyp[i + size :]
            blocks[i] = lcs_resume((hyp[i + size - 1],), ref_masks, m, blocks[i])
            in_block = m - blocks[i].bit_count()
            assert in_block == lcs_length(block, ref)
            cut = m - lcs_resume(hyp[i + size :], ref_masks, m, vectors[i]).bit_count()
            assert cut == lcs_length(rest, ref)
            longest = max(n, m)
            bounds[i, size] = (longest - pre[i] - suf[i + size] - in_block, longest - cut - in_block)
    return bounds


def assert_bounds_below_landings(hyp, ref):
    """Every block's first-tier bound is at most its exact bound, which is at
    most its least distance over all landings, also those beyond
    MAX_SHIFT_DIST; return how many blocks the exact bound meets, and at how
    many the first tier equals it."""
    ref_masks = match_masks(ref)
    tight = same = 0
    for (i, size), (first, exact) in block_bounds(hyp, ref).items():
        assert first <= exact, (hyp, ref, i, size)
        same += first == exact
        block, rest = hyp[i : i + size], hyp[:i] + hyp[i + size :]
        landings = [rest[:k] + block + rest[k:] for k in range(len(rest) + 1) if k != i]
        if landings:
            least = min(levenshtein_masks(c, ref_masks, len(ref)) for c in landings)
            assert exact <= least, (hyp, ref, i, size)
            tight += exact == least
    return tight, same


def block_of(hyp, tail):
    """(i, size) of the block a candidate tail starts with, for a `hyp` of
    distinct tokens: a tail is the block, then tokens that do not follow it
    in `hyp` (left moves: `hyp[k:i]`, k < i; right moves: `after[k-i:]`,
    k >= i + size), or nothing."""
    i = hyp.index(tail[0])
    size = 0
    while size < len(tail) and i + size < len(hyp) and tail[size] == hyp[i + size]:
        size += 1
    return i, size


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

    def test_best_shift_matches_fixed_prefix_scan(self):
        # every move of ter_sentence's loop, on segments up to 16 tokens
        rng = random.Random(57)
        for _ in range(150):
            vocab = "abcdefgh"[: rng.randrange(1, 9)]
            hyp = [rng.choice(vocab) for _ in range(rng.randrange(0, 17))]
            ref = [rng.choice(vocab) for _ in range(rng.randrange(1, 17))]
            edits = assert_same_shift_path(hyp, ref)
            assert ter_sentence(toks(*hyp), toks(*ref))[0] == edits, (hyp, ref)

    def test_best_shift_matches_fixed_prefix_scan_on_eval_long_pairs(self):
        rng = random.Random(58)
        for n in (16, 23, 30):
            for moves in (1, 2, 3):
                for _ in range(4):
                    hyp, ref = eval_long_pair(rng, n, moves)
                    edits = assert_same_shift_path(hyp, ref)
                    assert ter_sentence(toks(*hyp), toks(*ref))[0] == edits, (hyp, ref)

    def test_best_shift_matches_fixed_prefix_scan_past_distance_cap(self):
        # from 52 tokens on, MAX_SHIFT_DIST ends the right moves before the
        # end of the segment
        rng = random.Random(59)
        for n in (52, 58, 64):
            hyp, ref = eval_long_pair(rng, n, 2)
            edits = assert_same_shift_path(hyp, ref)
            assert ter_sentence(toks(*hyp), toks(*ref))[0] == edits, (hyp, ref)

    def test_same_candidates_as_two_loop_scan(self, monkeypatch):
        rng = random.Random(62)
        calls = 0
        for _ in range(80):
            vocab = "abcd"[: rng.randrange(1, 5)]
            hyp = [rng.choice(vocab) for _ in range(rng.randrange(0, 21))]
            ref = [rng.choice(vocab) for _ in range(rng.randrange(1, 21))]
            calls += assert_same_candidates(monkeypatch, hyp, ref)
        assert calls > 0

    def test_same_candidates_as_two_loop_scan_on_permutations(self, monkeypatch):
        ref = list("abcdef")
        calls = sum(assert_same_candidates(monkeypatch, list(hyp), ref) for hyp in itertools.permutations(ref))
        assert calls > 0

    def test_same_candidates_as_two_loop_scan_on_eval_long_pairs(self, monkeypatch):
        # from 52 tokens on, MAX_SHIFT_DIST ends some blocks' landings on
        # both sides before the ends of the segment
        rng = random.Random(63)
        for n in (16, 30, 52, 64):
            for moves in (1, 2, 3):
                assert assert_same_candidates(monkeypatch, *eval_long_pair(rng, n, moves)) > 0

    def test_running_bound_breaks_right_moves(self, monkeypatch):
        # "x" can land at k = 1..4. From k = 3 on, every landing starts with
        # "a b c", whose cell on the final cell's diagonal (D[3][3] against
        # "a x b") is 2, the start bound: the loop breaks there, where the
        # fixed-prefix scan scores k = 3 and 4 too
        hyp, ref = "x a b c d".split(), "a x b d c".split()
        found, landings = right_move_landings(monkeypatch, hyp, ref)
        assert landings == [1, 2]
        assert found == ("a x b c d".split(), 2)
        assert found == fixed_prefix_best_shift(hyp, match_masks(ref), len(ref), 0)

    def test_right_move_past_its_own_size(self):
        # "b" (i = 1, size 1) wins by landing at k = 3 > i + size: the result
        # keeps the prefix "x" and the passed tokens "c a" before the block
        hyp, ref = "x b c a d".split(), "x c a b d".split()
        assert best_shift(hyp, ref) == (ref, 0)
        assert assert_same_best_shift(hyp, ref) == (ref, 0)

    def test_blocks_with_no_right_move(self):
        # n - size < i + size leaves a block no right move: here every block
        # of size 2 and up. No shift helps, so the scan passes all of them.
        assert assert_same_best_shift(list("cba"), list("abc")) is None
        ref = [f"w{j}" for j in range(12)]
        assert_same_best_shift(ref[::-1], ref)

    def test_block_bound_below_every_landing(self):
        rng = random.Random(60)
        pairs = []
        for _ in range(60):
            vocab = "abcdefgh"[: rng.randrange(1, 9)]
            hyp = [rng.choice(vocab) for _ in range(rng.randrange(0, 17))]
            ref = [rng.choice(vocab) for _ in range(rng.randrange(1, 17))]
            pairs.append((hyp, ref))
        for n in (16, 23, 30):
            for moves in (1, 2, 3):
                pairs.append(eval_long_pair(rng, n, moves))
        # a reference of 65 tokens and up spans more than one 64-bit word of
        # the LCS vectors
        pairs.append(eval_long_pair(rng, 66, 2))
        tight, same = map(sum, zip(*(assert_bounds_below_landings(hyp, ref) for hyp, ref in pairs)))
        # the exact bound meets the least distance for some blocks, so it is
        # not loose everywhere; the first tier equals it for some, which then
        # never need the exact resume
        assert tight > 0 and same > 0

    def test_ruled_out_blocks_never_reach_the_kernel(self, monkeypatch):
        # The first candidate of a block is scored at the best distance the
        # block was checked against, so its bound must be below it. Distinct
        # hyp tokens name each tail's block.
        calls = []

        def counting(a, peq, m, state, low, bound):
            calls.append((tuple(a), bound))
            return levenshtein_resume(a, peq, m, state, low, bound)

        monkeypatch.setattr(ter, "levenshtein_resume", counting)
        rng = random.Random(61)
        words = [f"w{j}" for j in range(40)]
        tried = ruled_out = 0
        for _ in range(40):
            n = rng.randrange(4, 21)
            ref = rng.sample(words, n)
            hyp = list(ref)
            for _ in range(rng.randrange(1, 4)):
                size = rng.randint(1, 3)
                start = rng.randrange(n - size + 1)
                block = hyp[start : start + size]
                del hyp[start : start + size]
                dest = rng.randrange(len(hyp) + 1)
                hyp[dest:dest] = block
            # one substitution by a word the reference lacks
            hyp[rng.randrange(n)] = rng.choice([w for w in words if w not in ref])
            ref_masks = match_masks(ref)
            floor = _shift_floor(hyp, ref)
            if levenshtein_masks(hyp, ref_masks, len(ref)) <= floor + 1:
                continue
            bounds = block_bounds(hyp, ref)
            calls.clear()
            _best_shift(hyp, ref_masks, match_masks(ref[::-1]), len(ref), floor)
            # the prefix steps pass a bound above any distance
            candidates = [(a, bound) for a, bound in calls if bound <= len(hyp) + len(ref)]
            visits = [
                (block_of(hyp, a), bound)
                for j, (a, bound) in enumerate(candidates)
                if j == 0 or block_of(hyp, a) != block_of(hyp, candidates[j - 1][0])
            ]
            for block, bound in visits:
                assert bounds[block][1] < bound, (hyp, ref, block)
            tried += len(visits)
            start = min(levenshtein_masks(hyp, ref_masks, len(ref)), floor + 2)
            ruled_out += sum(exact >= start for _, exact in bounds.values())
        assert tried > 0 and ruled_out > 0, (tried, ruled_out)

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
        # the lengths where the diagonal bound and its break prune most;
        # the cases above stay under 13 tokens. A shift usually
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

    def test_empty_pair_rejected(self):
        # the empty-reference check comes before the exact-copy return
        with pytest.raises(ValidationError, match="non-empty reference"):
            ter_sentence(toks(), toks())

    def test_exact_copy(self):
        assert ter_sentence(toks("a", "b", "a"), toks("a", "b", "a")) == (0, 0.0)

    def test_matches_always_floor_loop(self):
        # short segments like eval-short's: exact copies, one edit away (where
        # the floor is skipped) and further
        rng = random.Random(56)
        for _ in range(2000):
            vocab = "abcde"[: rng.randrange(1, 6)]
            ref = [rng.choice(vocab) for _ in range(rng.randrange(1, 11))]
            hyp = list(ref)
            for _ in range(rng.randrange(0, 4)):
                k = rng.randrange(len(hyp) + 1)
                if k < len(hyp) and rng.random() < 0.5:
                    del hyp[k]
                else:
                    hyp.insert(k, rng.choice(vocab))
            if rng.random() < 0.2:
                rng.shuffle(hyp)
            assert ter_sentence(toks(*hyp), toks(*ref)) == always_floor_ter(hyp, ref), (hyp, ref)

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

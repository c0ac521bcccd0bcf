import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

import lrmt.metrics
from lrmt.metrics._kernels import (
    lcs_length,
    lcs_prefix_vectors,
    lcs_resume,
    levenshtein,
    levenshtein_masks,
    levenshtein_prefix_states,
    levenshtein_resume,
    match_masks,
    resume_lower_bound,
)


def lev_matrix(a, b):
    # textbook full-matrix DP, no tricks
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
    return dp


def lev_oracle(a, b):
    return lev_matrix(a, b)[len(a)][len(b)]


def lcs_oracle(a, b):
    n, m = len(a), len(b)
    dp = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            if a[i - 1] == b[j - 1]:
                dp[i][j] = dp[i - 1][j - 1] + 1
            else:
                dp[i][j] = max(dp[i - 1][j], dp[i][j - 1])
    return dp[n][m]


class TestLevenshtein:
    def test_identity(self):
        assert levenshtein(["a", "b", "c"], ["a", "b", "c"]) == 0

    def test_empty_sides(self):
        assert levenshtein([], ["x", "y"]) == 2
        assert levenshtein(["x"], []) == 1
        assert levenshtein([], []) == 0

    def test_known_case(self):
        assert levenshtein(list("kitten"), list("sitting")) == 3

    def test_matches_oracle_random(self):
        rng = random.Random(77)
        for _ in range(200):
            vocab = rng.randrange(1, 21)
            a = [rng.randrange(vocab) for _ in range(rng.randrange(0, 141))]
            b = [rng.randrange(vocab) for _ in range(rng.randrange(0, 141))]
            assert levenshtein(a, b) == lev_oracle(a, b)


class TestResume:
    def random_case(self, rng):
        vocab = rng.randrange(1, 21)
        a = [rng.randrange(vocab) for _ in range(rng.randrange(0, 81))]
        b = [rng.randrange(vocab) for _ in range(rng.randrange(1, 81))]
        return a, b

    def test_prefix_states_score_each_prefix(self):
        rng = random.Random(80)
        for _ in range(30):
            a, b = self.random_case(rng)
            states = levenshtein_prefix_states(a, match_masks(b), len(b))
            assert [score for _, _, score in states] == [
                lev_oracle(a[:p], b) for p in range(len(a) + 1)
            ]

    def test_resume_equals_whole_sequence(self):
        rng = random.Random(81)
        for _ in range(200):
            a, b = self.random_case(rng)
            peq = match_masks(b)
            states = levenshtein_prefix_states(a, peq, len(b))
            p = rng.randrange(len(a) + 1)
            # the rest of `a`, or any other continuation of the shared prefix
            rest = a[p:]
            if rng.random() < 0.5:
                rest = [rng.randrange(20) for _ in range(rng.randrange(0, 41))]
            whole = a[:p] + rest
            # a bound no distance reaches: the plain resume
            low = resume_lower_bound(states[p], len(b), len(rest))
            state = levenshtein_resume(rest, peq, len(b), states[p], low, len(whole) + len(b) + 1)
            assert state[2] == lev_oracle(whole, b)
            assert state == levenshtein_prefix_states(whole, peq, len(b))[-1]
            assert levenshtein_masks(whole, peq, len(b)) == state[2]

    def continuation(self, rng, a, p):
        """The rest of `a`, a permutation of it (as TER's tails are), or
        fresh tokens."""
        kind = rng.randrange(3)
        if kind == 0:
            return a[p:]
        if kind == 1:
            return rng.sample(a[p:], len(a) - p)
        return [rng.randrange(20) for _ in range(rng.randrange(0, 41))]

    def test_bound_gives_up_only_at_or_above_it(self):
        rng = random.Random(82)
        for _ in range(300):
            a, b = self.random_case(rng)
            peq = match_masks(b)
            states = levenshtein_prefix_states(a, peq, len(b))
            p = rng.randrange(len(a) + 1)
            rest = self.continuation(rng, a, p)
            whole = a[:p] + rest
            true = lev_oracle(whole, b)
            low = resume_lower_bound(states[p], len(b), len(rest))
            for bound in range(true - 2, true + 3):
                state = levenshtein_resume(rest, peq, len(b), states[p], low, bound)
                if true < bound:
                    assert state == levenshtein_prefix_states(whole, peq, len(b))[-1]
                else:
                    assert state is None

    def test_lower_bound_is_the_final_cells_diagonal(self):
        # D[i][m - rem] while that column exists, then where the diagonal
        # enters column 0; never above any continuation's distance, never
        # below the last cell minus the tokens left
        rng = random.Random(83)
        for _ in range(100):
            vocab = rng.randrange(1, 9)
            a = [rng.randrange(vocab) for _ in range(rng.randrange(0, 16))]
            b = [rng.randrange(vocab) for _ in range(rng.randrange(1, 16))]
            m = len(b)
            dp = lev_matrix(a, b)
            states = levenshtein_prefix_states(a, match_masks(b), m)
            for i in range(len(a) + 1):
                for rem in range(m + 4):
                    low = resume_lower_bound(states[i], m, rem)
                    assert low == (dp[i][m - rem] if rem <= m else i + rem - m)
                    assert low >= dp[i][m] - rem
                    rest = [rng.randrange(vocab) for _ in range(rem)]
                    assert low <= lev_oracle(a[:i] + rest, b)

    def test_landing_bounds_rise_along_one_diagonal(self):
        # TER's landings of a block cut from an n-token `a` resume after
        # rest[:p] with n - p tokens left: the start bounds are the cells
        # D[p][m - n + p] of rest's table, one diagonal, so they never fall
        # as p grows. While that column is below 0, the bound is the cell
        # where the diagonal enters column 0, D[n - m][0] = n - m.
        rng = random.Random(84)
        columns, rises = set(), 0
        for _ in range(150):
            vocab = rng.randrange(1, 9)
            a = [rng.randrange(vocab) for _ in range(rng.randrange(1, 21))]
            b = [rng.randrange(vocab) for _ in range(rng.randrange(1, 21))]
            n, m = len(a), len(b)
            size = rng.randrange(1, n + 1)
            i = rng.randrange(n - size + 1)
            rest = a[:i] + a[i + size :]
            dp = lev_matrix(rest, b)
            states = levenshtein_prefix_states(rest, match_masks(b), m)
            lows = [resume_lower_bound(states[p], m, n - p) for p in range(len(rest) + 1)]
            cells = [dp[p][m - n + p] if m - n + p >= 0 else n - m for p in range(len(rest) + 1)]
            assert lows == cells, (a, b, i, size)
            assert lows == sorted(lows), (a, b, i, size)
            columns.update(m - n + p >= 0 for p in range(len(rest) + 1))
            rises += lows[-1] > lows[0]
        assert columns == {False, True} and rises > 0, (columns, rises)

    def test_gives_up_on_the_diagonal_before_reading_on(self):
        # After "a f" against a..f the last cell is 4, so the last cell minus
        # the two tokens left is 2, below the bound 3; the diagonal cell
        # D[2][4] = lev("a f", "a b c d") = 3 already reaches it, so the
        # kernel stops before it hashes the next token.
        class Unread(Exception):
            pass

        class Unreadable:
            def __hash__(self):
                raise Unread

        b = list("abcdef")
        peq = match_masks(b)
        start = levenshtein_prefix_states([], peq, len(b))[0]
        tail = ["a", "f", Unreadable(), "x"]
        assert levenshtein_prefix_states(tail[:2], peq, len(b))[-1][2] == 4
        assert lev_oracle(tail[:2], b[:4]) == 3
        low = resume_lower_bound(start, len(b), len(tail))
        assert levenshtein_resume(tail, peq, len(b), start, low, 3) is None
        # one bound higher, the diagonal stays below it and the token is read
        with pytest.raises(Unread):
            levenshtein_resume(tail, peq, len(b), start, low, 4)


class TestLcs:
    def test_identity(self):
        assert lcs_length(["a", "b"], ["a", "b"]) == 2

    def test_disjoint(self):
        assert lcs_length(["a"], ["b"]) == 0

    def test_known_case(self):
        assert lcs_length(list("ABCBDAB"), list("BDCABA")) == 4

    def test_matches_oracle_random(self):
        rng = random.Random(78)
        for _ in range(200):
            vocab = rng.randrange(1, 21)
            a = [rng.randrange(vocab) for _ in range(rng.randrange(0, 141))]
            b = [rng.randrange(vocab) for _ in range(rng.randrange(0, 141))]
            assert lcs_length(a, b) == lcs_oracle(a, b)

    def test_resume_from_every_prefix_vector(self):
        # the vector after each prefix, resumed over the rest of `a`, over a
        # permutation of it (as TER's candidates are) or over fresh tokens
        rng = random.Random(79)
        for _ in range(60):
            vocab = rng.randrange(1, 21)
            a = [rng.randrange(vocab) for _ in range(rng.randrange(0, 41))]
            b = [rng.randrange(vocab) for _ in range(rng.randrange(0, 41))]
            m = len(b)
            peq = match_masks(b)
            vectors = [(1 << m) - 1]
            for tok in a:
                vectors.append(lcs_resume((tok,), peq, m, vectors[-1]))
            for p, v in enumerate(vectors):
                fresh = [rng.randrange(20) for _ in range(rng.randrange(0, 21))]
                for rest in (a[p:], rng.sample(a[p:], len(a) - p), fresh):
                    assert m - lcs_resume(rest, peq, m, v).bit_count() == lcs_oracle(a[:p] + rest, b)
                assert lcs_resume(a[p:], peq, m, v) == vectors[-1]

    def test_prefix_vectors_chain_one_token_steps(self):
        # m >= 65 spans more than one 64-bit word; small vocabularies repeat
        # tokens on both sides
        rng = random.Random(80)
        for _ in range(40):
            vocab = rng.randrange(1, 9)
            a = [rng.randrange(vocab) for _ in range(rng.randrange(0, 81))]
            b = [rng.randrange(vocab) for _ in range(rng.randrange(65, 101))]
            m = len(b)
            peq = match_masks(b)
            vectors = lcs_prefix_vectors(a, peq, m)
            chained = [(1 << m) - 1]
            for tok in a:
                chained.append(lcs_resume((tok,), peq, m, chained[-1]))
            assert vectors == chained
            # the pass over both sides reversed gives the LCS of every suffix,
            # since LCS(x, y) = LCS(rev x, rev y)
            backward = lcs_prefix_vectors(a[::-1], match_masks(b[::-1]), m)
            suffixes = [m - v.bit_count() for v in reversed(backward)]
            assert suffixes == [lcs_oracle(a[k:], b) for k in range(len(a) + 1)]


class TestBackends:
    def test_backend_reported(self):
        assert lrmt.metrics.BACKEND == "bitparallel"

    def test_every_module_imports_only_stdlib(self):
        # pyproject.toml declares `dependencies = []`
        src = str(Path(lrmt.metrics.__file__).resolve().parents[2])
        code = (
            "import importlib, json, pkgutil, sys\n"
            f"sys.path.insert(0, {src!r})\n"
            "before = set(sys.modules)\n"
            "import lrmt\n"
            "names = [m.name for m in pkgutil.walk_packages(lrmt.__path__, 'lrmt.')]\n"
            "for name in names:\n"
            "    importlib.import_module(name)\n"
            "loaded = {m.partition('.')[0] for m in set(sys.modules) - before}\n"
            "print(json.dumps([names, sorted(loaded)]))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        names, loaded = json.loads(out.stdout)
        assert {"lrmt.corpus", "lrmt.quality", "lrmt.metrics.ter"} <= set(names)
        assert [m for m in loaded if m != "lrmt" and m not in sys.stdlib_module_names] == []

import random
import subprocess
import sys
from pathlib import Path

import pytest

import lrmt.metrics
from lrmt.metrics._kernels import (
    lcs_length,
    levenshtein,
    levenshtein_masks,
    levenshtein_prefix_states,
    levenshtein_resume,
    match_masks,
)


def lev_oracle(a, b):
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
    return dp[n][m]


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
            state = levenshtein_resume(rest, peq, len(b), states[p], len(whole) + len(b) + 1)
            assert state[2] == lev_oracle(whole, b)
            assert state == levenshtein_prefix_states(whole, peq, len(b))[-1]
            assert levenshtein_masks(whole, peq, len(b)) == state[2]

    def test_bound_gives_up_only_at_or_above_it(self):
        rng = random.Random(82)
        for _ in range(200):
            a, b = self.random_case(rng)
            peq = match_masks(b)
            states = levenshtein_prefix_states(a, peq, len(b))
            p = rng.randrange(len(a) + 1)
            true = lev_oracle(a, b)
            for bound in range(true - 2, true + 3):
                state = levenshtein_resume(a[p:], peq, len(b), states[p], bound)
                if true < bound:
                    assert state == states[-1]
                else:
                    assert state is None


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


class TestBackends:
    def test_backend_reported(self):
        assert lrmt.metrics.BACKEND == "bitparallel"

    @pytest.mark.parametrize("dependency", ["numpy", "requests"])
    @pytest.mark.parametrize("module", ["lrmt.metrics", "lrmt.quality", "lrmt.pipeline", "lrmt.corpus"])
    def test_import_leaves_dependency_out(self, module, dependency):
        src = str(Path(lrmt.metrics.__file__).resolve().parents[2])
        code = (
            f"import sys; sys.path.insert(0, {src!r}); import {module}; "
            f"print({dependency!r} in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"

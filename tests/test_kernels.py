import random
import subprocess
import sys
from pathlib import Path

import lrmt.metrics
from lrmt.metrics._kernels import lcs_length, levenshtein


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

    def test_metrics_import_leaves_numpy_out(self):
        src = str(Path(lrmt.metrics.__file__).resolve().parents[2])
        code = (
            f"import sys; sys.path.insert(0, {src!r}); import lrmt.metrics; "
            "print('numpy' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"

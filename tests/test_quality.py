import json
import math
import random
import statistics
import threading
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest

from lrmt.corpus import ENG_LATN, TRP_LATN, Corpus, Origin, SentencePair
from lrmt.errors import ProviderError, ValidationError
from lrmt.pipeline import SplitEntry, SplitSpec, sample_key, split
from lrmt.quality import (
    EMBED_BATCH,
    EmbeddingClient,
    ScorePopulation,
    ScoringError,
    analysis_report,
    cosine,
    filter_by_threshold,
    histogram_csv,
    retention_curve,
    score_pairs,
    stratified_sample,
)

SMOLSENT = Origin("smolsent")


class TestEmbeddingParse:
    def test_well_formed(self):
        rows = EmbeddingClient._parse({"vectors": [[0.5, 1.0], [2.0, -1.0]], "dim": 2}, 2)
        assert rows == [[0.5, 1.0], [2.0, -1.0]]

    @pytest.mark.parametrize("body", [[[0.5, 1.0]], "vectors", None, 3])
    def test_body_not_an_object(self, body):
        with pytest.raises(ProviderError):
            EmbeddingClient._parse(body, 1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry(self, bad):
        with pytest.raises(ProviderError):
            EmbeddingClient._parse({"vectors": [[0.5, 1.0], [bad, 1.0]], "dim": 2}, 2)

    @pytest.mark.parametrize(
        "vectors", [[[0.5, 1.0], [2.0]], [["a", "b"]], [["0.5", "1.0"]], [0.5, 1.0]]
    )
    def test_rows_not_numeric(self, vectors):
        with pytest.raises(ProviderError):
            EmbeddingClient._parse({"vectors": vectors}, len(vectors))

    @pytest.mark.parametrize("entry", [True, False])
    def test_bool_entry(self, entry):
        # JSON true/false used to pass as 1.0/0.0
        with pytest.raises(ProviderError, match="not rows of numbers"):
            EmbeddingClient._parse({"vectors": [[0.5, entry]], "dim": 2}, 1)

    @pytest.mark.parametrize("dim", [True, 1.0, "1"])
    def test_dim_not_an_int(self, dim):
        # "dim": true used to pass as width 1, since True == 1
        with pytest.raises(ProviderError, match="disagree with dim"):
            EmbeddingClient._parse({"vectors": [[0.5]], "dim": dim}, 1)

    def test_int_entries_and_null_dim(self):
        assert EmbeddingClient._parse({"vectors": [[1, -2]], "dim": None}, 1) == [[1.0, -2.0]]
        with pytest.raises(ProviderError, match="not rows of numbers"):
            EmbeddingClient._parse({"vectors": [[10**400]]}, 1)


# --- the numpy code these functions replaced, kept as their reference ---


def np_cosine(u, v):
    u, v = np.asarray(u, dtype=np.float64), np.asarray(v, dtype=np.float64)
    denom = float(np.linalg.norm(u) * np.linalg.norm(v))
    if denom == 0.0:
        return 0.0
    return float(min(1.0, max(-1.0, float(np.dot(u, v)) / denom)))


def np_histogram_csv(scores):
    edges = np.linspace(-1.0, 1.0, 51)
    counts, _ = np.histogram(np.asarray(scores, dtype=np.float64), bins=edges)
    lines = ["bin_low,bin_high,count"]
    for i in range(50):
        lines.append(f"{edges[i]:.6f},{edges[i + 1]:.6f},{int(counts[i])}")
    return "\n".join(lines) + "\n"


class TestCosine:
    def test_exact_on_k_over_32768_vectors(self):
        # every product and sum of such components is exact, so any order agrees
        rng = random.Random(5)
        for _ in range(300):
            dim = rng.randrange(1, 769)
            u = [rng.randrange(-32768, 32768) / 32768.0 for _ in range(dim)]
            v = [rng.randrange(-32768, 32768) / 32768.0 for _ in range(dim)]
            assert cosine(u, v) == np_cosine(u, v)

    def test_close_on_gaussian_vectors(self):
        rng = random.Random(6)
        for _ in range(300):
            dim = rng.randrange(1, 769)
            u = [rng.gauss(0.0, 1.0) for _ in range(dim)]
            v = [rng.gauss(0.0, 1.0) for _ in range(dim)]
            assert abs(cosine(u, v) - np_cosine(u, v)) <= 1e-15
            # correctly rounded sums: the order of the components cannot matter
            assert cosine(u[::-1], v[::-1]) == cosine(u, v)

    def test_zero_vector(self):
        assert cosine([0.0, 0.0], [0.5, 1.0]) == 0.0

    def test_clamped(self):
        # unclamped, u.u / (|u| |u|) rounds to 1.0000000000000002 here
        u = [-1.0, -0.1]
        assert cosine(u, u) == 1.0
        assert cosine(u, [-x for x in u]) == -1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ProviderError):
            cosine([1.0, 0.0], [1.0])

    @pytest.mark.parametrize(
        "u, v",
        [
            ([1e200, 1.0], [1e200, 1.0]),  # x * x is inf; the clamp used to turn NaN into -1
            ([1e154, 1e154], [1e154, 1e154]),  # finite squares whose sum overflows
            ([1e200, 1e200], [1e200, -1e200]),  # the dot product adds inf and -inf
        ],
        ids=["square-inf", "sum-overflow", "dot-inf-minus-inf"],
    )
    def test_overflow_raises(self, u, v):
        with pytest.raises(ProviderError, match="overflow"):
            cosine(u, v)

    def test_underflowing_norm_raises(self):
        # 1e-200 squared is 0.0, which used to read as a zero vector
        with pytest.raises(ProviderError, match="underflows"):
            cosine([1e-200], [1e-200])
        with pytest.raises(ProviderError, match="underflows"):
            cosine([0.5, 1.0], [1e-200, 0.0])


class TestHistogram:
    @pytest.mark.parametrize("seed", [1, 7, 50])
    def test_matches_numpy(self, seed):
        rng = random.Random(seed)
        edges = np.linspace(-1.0, 1.0, 51).tolist()
        # both sides of every edge, except outside the closed range [-1, 1]
        near = [math.nextafter(e, d) for e in edges for d in (-math.inf, math.inf)][1:-1]
        spread = [rng.uniform(-1.0, 1.0) for _ in range(1500)]
        scores = spread + edges + near
        rng.shuffle(scores)
        assert histogram_csv(scores) == np_histogram_csv(scores)

    def test_out_of_range_and_non_finite_rejected(self):
        for bad in (-1.5, 1.5, math.nextafter(1.0, 2.0), math.inf, -math.inf, math.nan):
            with pytest.raises(ValidationError, match="outside"):
                histogram_csv([0.25, bad, 0.5])

    def test_no_scores(self):
        with pytest.raises(ValidationError, match="at least one score"):
            histogram_csv([])


def _grid_scores(rng, n):
    # scores on a 1/8 grid, so many sit exactly on a threshold
    return [rng.randrange(-8, 9) / 8 for _ in range(n)]


class TestPopulationStats:
    def test_matches_brute_force(self):
        rng = random.Random(11)
        for n in (1, 2, 3, 50, 1000):
            scores = _grid_scores(rng, n) if n % 2 else [rng.uniform(-1, 1) for _ in range(n)]
            pop = ScorePopulation(scores)
            assert pop.scores == tuple(scores)
            assert pop.n == n
            assert math.isclose(pop.mean, statistics.fmean(scores), rel_tol=1e-12, abs_tol=1e-15)
            assert math.isclose(pop.std, statistics.pstdev(scores), rel_tol=1e-12, abs_tol=1e-15)

    def test_stats_are_derived_not_passed(self):
        assert ScorePopulation((0.5, -0.5)).std == 0.5
        with pytest.raises(TypeError):
            ScorePopulation(scores=(0.5,), n=1, mean=0.5, std=0.0)

    @pytest.mark.parametrize("scores", [[], [1.5], [0.0, -1.01], [math.nan]])
    def test_rejects(self, scores):
        with pytest.raises(ValidationError):
            ScorePopulation(scores)


class TestRetentionCurve:
    def test_matches_brute_force_with_ties(self):
        rng = random.Random(12)
        for n in (1, 2, 17, 400):
            scores = _grid_scores(rng, n)
            thresholds = sorted({rng.randrange(-9, 10) / 8 for _ in range(12)} | {0.3, -1.0, 1.0})
            curve = retention_curve(scores, thresholds)
            assert curve == tuple(
                (t, sum(1 for s in scores if s >= t) / n) for t in thresholds
            )

    @pytest.mark.parametrize(
        "scores, thresholds", [([], [0.0]), ([0.5], [0.5, 0.0]), ([math.nan], [0.0]), ([0.5], [math.nan])]
    )
    def test_rejects(self, scores, thresholds):
        with pytest.raises(ValidationError):
            retention_curve(scores, thresholds)


class TestAnalysisReport:
    def test_matches_brute_force(self):
        rng = random.Random(18)
        for n in (1, 2, 33, 500):
            scores = _grid_scores(rng, n)
            thresholds = sorted({rng.randrange(-9, 10) / 8 for _ in range(6)})
            report = analysis_report(scores, thresholds, histogram_path="h.csv")
            assert report["n"] == n
            assert math.isclose(report["mean"], statistics.fmean(scores), rel_tol=1e-12, abs_tol=1e-15)
            assert math.isclose(report["std"], statistics.pstdev(scores), rel_tol=1e-12, abs_tol=1e-15)
            assert report["curve"] == [
                {"threshold": t, "retained_fraction": sum(1 for s in scores if s >= t) / n}
                for t in thresholds
            ]
            assert (report["std_kind"], report["retention_bound"]) == ("population", "inclusive")
            assert report["histogram_path"] == "h.csv"
            json.dumps(report)

    @pytest.mark.parametrize("scores, thresholds", [([], [0.0]), ([0.5], [math.nan])])
    def test_rejects(self, scores, thresholds):
        with pytest.raises(ValidationError):
            analysis_report(scores, thresholds)


def _scored_pool(rng, n):
    # scores on the 1/8 grid land on band edges; repeated source texts give
    # equal sample keys, so the id breaks the tie
    return Corpus(
        [
            SentencePair(
                id=f"p{i:03d}",
                source_text=f"src {rng.randrange(max(n // 2, 1))}",
                target_text=f"tgt {i}",
                source_lang=ENG_LATN,
                target_lang=TRP_LATN,
                origin=SMOLSENT,
                score=rng.randrange(-8, 9) / 8,
            )
            for i in range(n)
        ],
        name="pool",
    )


def _unscored(pool):
    return replace(pool, pairs=[*pool.pairs, replace(pool.pairs[0], id="unscored", score=None)])


class TestFilterByThreshold:
    def test_every_pair_on_exactly_one_side(self):
        rng = random.Random(13)
        for n in (1, 5, 60):
            pool = _scored_pool(rng, n)
            for t in (-1.0, -0.5, 0.0, 0.125, 1.0, 1.5):
                kept, dropped = filter_by_threshold(pool, t)
                assert kept.pairs == tuple(p for p in pool if p.score >= t)
                assert dropped.pairs == tuple(p for p in pool if not p.score >= t)
                assert (kept.name, dropped.name) == ("pool-kept", "pool-dropped")

    def test_rejects(self):
        pool = _scored_pool(random.Random(13), 4)
        with pytest.raises(ValidationError, match="no score"):
            filter_by_threshold(_unscored(pool), 0.0)
        with pytest.raises(ValidationError, match="NaN"):
            filter_by_threshold(pool, math.nan)


class TestStratifiedSample:
    BANDS = ((0.25, 1.0), (-1.0, -0.5), (-0.5, 0.0))

    def test_matches_brute_force(self):
        rng = random.Random(14)
        for n in (1, 7, 80):
            pool = _scored_pool(rng, n)
            for per_band in (1, 3, 100):
                sample = stratified_sample(pool, self.BANDS, per_band, seed="s")
                assert [(b.low, b.high) for b in sample.bands] == list(self.BANDS)
                for band in sample.bands:
                    # [low, high), closed when high is the top score 1.0
                    members = {
                        p.id: p
                        for p in pool
                        if band.low <= p.score < band.high or p.score == band.high == 1.0
                    }
                    chosen = [p.id for p in band.pairs]
                    assert len(chosen) == min(per_band, len(members))
                    assert set(chosen) <= set(members)
                    rank = {i: (sample_key("s", p.source_text), i) for i, p in members.items()}
                    assert chosen == sorted(chosen, key=rank.get)
                    rest = [rank[i] for i in members if i not in chosen]
                    if chosen and rest:
                        assert rank[chosen[-1]] < min(rest)

    def test_one_band_matches_split(self):
        # a band that covers every score picks what a one-entry split picks
        rng = random.Random(17)
        for n in (1, 9, 70):
            pool = _scored_pool(rng, n)
            for size in {1, max(n // 2, 1), n}:
                sample = stratified_sample(pool, [(-1.0, 2.0)], size, seed="s")
                part = split(pool, SplitSpec(seed="s", entries=(SplitEntry("x", size),)))
                assert sample.bands[0].pairs == part["x"].pairs

    def test_short_band_warnings(self):
        base = _scored_pool(random.Random(15), 1).pairs[0]
        scores = (-0.75, -0.6, 0.5, 0.5, 0.9)
        pool = Corpus([replace(base, id=f"q{i}", score=s) for i, s in enumerate(scores)])
        sample = stratified_sample(pool, self.BANDS, 3, seed="s")
        assert sample.warnings == (
            "band [-1,-0.5) has 2 of 3 requested pairs",
            "band [-0.5,0) has 0 of 3 requested pairs",
        )
        assert stratified_sample(pool, self.BANDS[:1], 3, seed="s").warnings == ()

    def test_band_ending_at_one_is_closed(self):
        # an untranslated copy scores exactly 1.0
        base = _scored_pool(random.Random(15), 1).pairs[0]
        pool = Corpus([replace(base, score=1.0)])
        sample = stratified_sample(pool, [(0.0, 1.0)], 1, seed="s")
        assert sample.bands[0].pairs == pool.pairs
        assert sample.bands[0].label == "[0,1]"
        assert sample.warnings == ()

    def test_independent_of_pool_order(self):
        rng = random.Random(16)
        pool = _scored_pool(rng, 60)
        expected = stratified_sample(pool, self.BANDS, 4, seed="s")
        for _ in range(5):
            shuffled = list(pool.pairs)
            rng.shuffle(shuffled)
            assert stratified_sample(replace(pool, pairs=shuffled), self.BANDS, 4, seed="s") == expected

    @pytest.mark.parametrize(
        "bands, per_band",
        [
            (((0.0, 0.5), (0.25, 1.0)), 2),
            (((0.5, 1.0), (-1.0, 0.75)), 2),
            (((0.5, 0.5),), 2),
            (((0.5, 1.0), (1.0, 1.5)), 2),
            (((0.5, 0.0),), 2),
            (((0.0, math.nan),), 2),
            (((math.nan, 0.5),), 2),
            (((-1.0, 0.0), (0.0, math.nan)), 2),
            (BANDS, 0),
            (BANDS, -1),
        ],
        ids=[
            "overlap", "overlap-unsorted", "empty", "share-closed-top", "reversed", "nan-high", "nan-low",
            "nan-second", "per-band-0", "per-band-negative",
        ],
    )
    def test_rejects(self, bands, per_band):
        pool = _scored_pool(random.Random(17), 10)
        with pytest.raises(ValidationError):
            stratified_sample(pool, bands, per_band, seed="s")

    def test_rejects_unscored_pair(self):
        pool = _scored_pool(random.Random(17), 10)
        with pytest.raises(ValidationError, match="no score"):
            stratified_sample(_unscored(pool), self.BANDS, 2, seed="s")


# --- the HTTP boundary, against a scripted stdlib server on 127.0.0.1 ---


def _vector(text):
    return [float(len(text)), 1.0]


class _ScriptedHandler(BaseHTTPRequestHandler):
    """Answers each POST with the server's next (status, body) reply; the last
    reply repeats. A body of None is a well-formed answer for the texts."""

    def do_POST(self):
        request = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        server = self.server
        server.content_types.append(self.headers["Content-Type"])
        server.requests += 1
        status, body = server.replies[min(server.requests, len(server.replies)) - 1]
        if body is None:
            body = json.dumps({"vectors": [_vector(t) for t in request["texts"]], "dim": 2}).encode()
        self.send_response(status)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format, *args):
        pass


@pytest.fixture
def serve():
    """serve(*replies) -> (server, client for it that never sleeps)."""
    servers = []

    def start(*replies):
        server = HTTPServer(("127.0.0.1", 0), _ScriptedHandler)
        server.replies, server.requests, server.content_types = replies, 0, []
        threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True).start()
        servers.append(server)
        url = f"http://127.0.0.1:{server.server_port}"
        return server, EmbeddingClient(url, timeout=5.0, sleep=lambda s: None)

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()


class TestEmbeddingClient:
    def test_well_formed(self, serve):
        server, client = serve((200, None))
        assert client.embed(["ab", "c"]) == [[2.0, 1.0], [1.0, 1.0]]
        assert server.requests == 1
        assert server.content_types == ["application/json"]

    @pytest.mark.parametrize("status", [503, 500, 408, 429])
    def test_transient_error_retried(self, serve, status):
        server, client = serve((status, b"busy"), (200, None))
        assert client.embed(["abc"]) == [[3.0, 1.0]]
        assert server.requests == 2

    @pytest.mark.parametrize("status", [400, 404, 422])
    def test_client_error_fails_after_one_request(self, serve, status):
        server, client = serve((status, b"bad request"), (200, None))
        with pytest.raises(ProviderError, match=f"HTTP {status}"):
            client.embed(["abc"])
        assert server.requests == 1

    def test_gives_up_after_max_attempts(self, serve):
        server, client = serve((503, b""))
        with pytest.raises(ProviderError, match="after 3 attempts: HTTP 503"):
            client.embed(["abc"])
        assert server.requests == 3

    @pytest.mark.parametrize("body", [b"<html>oops</html>", b"", b"\xff\xfe{"], ids=["html", "empty", "bom"])
    def test_non_json_200(self, serve, body):
        server, client = serve((200, body))
        with pytest.raises(ProviderError, match="not JSON"):
            client.embed(["abc"])
        assert server.requests == 1

    @pytest.mark.parametrize("url", ["127.0.0.1:8000", "file:///etc", "ftp://127.0.0.1"])
    def test_url_not_http(self, url):
        with pytest.raises(ValidationError):
            EmbeddingClient(url)

    @pytest.mark.parametrize("timeout", [-1.0, math.nan, math.inf, 0.0])
    def test_timeout_not_finite_positive(self, timeout):
        # the socket raises ValueError or OverflowError for the first three,
        # and 0 makes it non-blocking, so every attempt fails
        with pytest.raises(ValidationError, match="timeout"):
            EmbeddingClient("http://127.0.0.1:8000", timeout=timeout)

    def test_unreachable(self, serve):
        server, client = serve((200, None))
        server.shutdown()
        server.server_close()
        with pytest.raises(ProviderError, match="unreachable after 3 attempts"):
            client.embed(["abc"])

    def test_score_pairs_keeps_partial_progress(self, serve):
        pairs = [
            SentencePair(f"p{i}", "a" * (i + 1), "b" * (3 * i + 1), ENG_LATN, TRP_LATN, SMOLSENT)
            for i in range(EMBED_BATCH + 2)
        ]
        # batch 1 (source, target) succeeds; batch 2, two pairs, fails on every attempt
        server, client = serve((200, None), (200, None), (503, b""))
        with pytest.raises(ScoringError, match=f"stopped at pair p{EMBED_BATCH}:") as info:
            score_pairs(Corpus(pairs), client)
        cause = info.value.__cause__ or info.value.__context__
        assert type(cause) is ProviderError and "after 3 attempts" in str(cause)
        partial = {p.id: p.score for p in info.value.partial}
        assert partial == {
            p.id: (cosine(_vector(p.source_text), _vector(p.target_text)) if i < EMBED_BATCH else None)
            for i, p in enumerate(pairs)
        }
        assert server.requests == 2 + 3

    def test_score_pairs_width_mismatch(self, serve):
        pair = SentencePair("p0", "a", "b", ENG_LATN, TRP_LATN, SMOLSENT)
        server, client = serve((200, None), (200, b'{"vectors": [[1.0, 2.0, 3.0]], "dim": 3}'))
        with pytest.raises(ScoringError, match="dimension mismatch: 2 vs 3") as info:
            score_pairs(Corpus([pair]), client)
        assert [p.score for p in info.value.partial] == [None]

    def test_score_pairs_overflow_keeps_no_score_of_its_batch(self, serve):
        pairs = [SentencePair(f"p{i}", "a", "b", ENG_LATN, TRP_LATN, SMOLSENT) for i in range(2)]
        body = b'{"vectors": [[1.0, 2.0], [1e200, 1.0]], "dim": 2}'
        server, client = serve((200, body))
        with pytest.raises(ScoringError, match="stopped at pair p0: .*overflow") as info:
            score_pairs(Corpus(pairs), client)
        assert [p.score for p in info.value.partial] == [None, None]

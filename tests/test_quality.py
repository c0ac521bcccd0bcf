import json
import math
import random
import re
import statistics
import subprocess
import sys
import threading
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import lrmt
from lrmt.corpus import ENG_LATN, TRP_LATN, Corpus, LanguageTag, Origin, SentencePair, _parse_row, ingest, write
from lrmt.errors import IngestError, LrmtError, ProviderError, ValidationError
from lrmt.metrics import evaluate_corpus
from lrmt.metrics.bleu import BleuStats
from lrmt.metrics.chrf import chrf, chrf_stats
from lrmt.metrics.meteor import meteor_corpus
from lrmt.metrics.rouge import rouge_l_corpus
from lrmt.metrics.tokenizer import TokenizedSentence, tokenize_13a
from lrmt.pipeline import (
    SplitEntry,
    SplitSpec,
    concat,
    dedup,
    filter_length,
    sample_key,
    split,
    swap_rows,
    verify_overlap,
)
from lrmt.quality import (
    EMBED_BATCH,
    EmbeddingClient,
    ScoringError,
    analysis_report,
    cosine,
    filter_by_threshold,
    histogram_csv,
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
            with pytest.raises(ValidationError, match="outside|NaN, inf or beyond float range"):
                histogram_csv([0.25, bad, 0.5])

    def test_no_scores(self):
        with pytest.raises(ValidationError, match="at least one score"):
            histogram_csv([])


def _grid_scores(rng, n):
    # scores on a 1/8 grid, so many sit exactly on a threshold
    return [rng.randrange(-8, 9) / 8 for _ in range(n)]


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

    def test_stats_match_brute_force(self):
        rng = random.Random(11)
        for n in (1, 2, 3, 50, 1000):
            scores = _grid_scores(rng, n) if n % 2 else [rng.uniform(-1, 1) for _ in range(n)]
            report = analysis_report(scores, [])
            assert report["n"] == n
            assert math.isclose(report["mean"], statistics.fmean(scores), rel_tol=1e-12, abs_tol=1e-15)
            assert math.isclose(report["std"], statistics.pstdev(scores), rel_tol=1e-12, abs_tol=1e-15)
        assert analysis_report([0.5, -0.5], [])["std"] == 0.5

    @pytest.mark.parametrize("scores, thresholds", [([], [0.0]), ([0.5], [math.nan])])
    def test_rejects(self, scores, thresholds):
        with pytest.raises(ValidationError):
            analysis_report(scores, thresholds)

    @pytest.mark.parametrize(
        "bad",
        [
            [],
            [1.5],
            [-1.01],
            [math.nextafter(1.0, 2.0)],
            [math.nan],
            [math.inf],
            [-math.inf],
            [0.5, 7.0],
            [0.0, -1.01],
            [True],
        ],
    )
    def test_score_rule_shared_with_histogram(self, bad):
        with pytest.raises(ValidationError) as report_error:
            analysis_report(bad, [0.0])
        with pytest.raises(ValidationError) as histogram_error:
            histogram_csv(bad)
        assert str(report_error.value) == str(histogram_error.value)
        assert re.search(r"at least one score|outside \[-1, 1\]|NaN, inf or beyond float range|not a number", str(report_error.value))


class TestRetentionCurve:
    # the retention curve is built inside analysis_report; these check it there
    def test_matches_brute_force_with_ties(self):
        rng = random.Random(12)
        for n in (1, 2, 17, 400):
            scores = _grid_scores(rng, n)
            thresholds = sorted({rng.randrange(-9, 10) / 8 for _ in range(12)} | {0.3, -1.0, 1.0})
            assert analysis_report(scores, thresholds)["curve"] == [
                {"threshold": t, "retained_fraction": sum(1 for s in scores if s >= t) / n}
                for t in thresholds
            ]

    @pytest.mark.parametrize(
        "scores, thresholds", [([], [0.0]), ([0.5], [0.5, 0.0]), ([math.nan], [0.0]), ([0.5], [math.nan])]
    )
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
            (((0.0, math.inf),), 2),
            (((-math.inf, 0.0),), 2),
            (((None, 0.5),), 2),
            (((0.0, "1"),), 2),
            (BANDS, 0),
            (BANDS, -1),
            (BANDS, 2.0),
            (BANDS, True),
            ([0.5], 2),
            ([(0.1,)], 2),
            (None, 2),
        ],
        ids=[
            "overlap", "overlap-unsorted", "empty", "share-closed-top", "reversed", "nan-high", "nan-low",
            "nan-second", "inf-high", "inf-low", "none-low", "str-high", "per-band-0", "per-band-negative",
            "per-band-float", "per-band-bool", "band-not-a-pair", "band-one-bound", "bands-none",
        ],
    )
    def test_rejects(self, bands, per_band):
        pool = _scored_pool(random.Random(17), 10)
        with pytest.raises(ValidationError):
            stratified_sample(pool, bands, per_band, seed="s")

    @pytest.mark.parametrize(
        "bands, named",
        [
            ([0.5], "band must be a list or tuple, not float"),
            ([(0.1,)], "band (0.1,) is not a (low, high) pair"),
            (None, "bands must be a list or tuple, not NoneType"),
            ((0.0, 0.5), "band must be a list or tuple, not float"),
        ],
        ids=["float", "one-bound", "none", "flat-pair"],
    )
    def test_band_shape_names_the_band(self, bands, named):
        pool = _scored_pool(random.Random(17), 10)
        with pytest.raises(ValidationError, match=re.escape(named)):
            stratified_sample(pool, bands, 2, seed="s")

    def test_list_bands_accepted(self):
        # JSON gives lists: a list band samples as its tuple, also beside tuples
        pool = _scored_pool(random.Random(17), 30)
        as_tuples = stratified_sample(pool, ((-1.0, 0.0), (0.0, 1.0)), 2, seed="s")
        assert stratified_sample(pool, [[-1.0, 0.0], (0.0, 1.0)], 2, seed="s") == as_tuples

    @pytest.mark.parametrize("seed", [5, None, b"s"])
    def test_rejects_seed_not_a_string(self, seed):
        pool = _scored_pool(random.Random(17), 10)
        with pytest.raises(ValidationError, match=re.escape(f"sample seed must be str, not {type(seed).__name__}: {seed!r}")):
            stratified_sample(pool, self.BANDS, 2, seed=seed)

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

    @pytest.mark.parametrize("url", ["127.0.0.1:8000", "file:///etc", "ftp://127.0.0.1", None, b"http://x"])
    def test_url_not_http(self, url):
        # a str is refused by its prefix, anything else by its type
        shown = f"must be http(s), got {url!r}" if isinstance(url, str) else f"must be str, not {type(url).__name__}: {url!r}"
        with pytest.raises(ValidationError, match=re.escape(f"embedding service URL {shown}")):
            EmbeddingClient(url)

    @pytest.mark.parametrize("timeout", [-1.0, math.nan, math.inf, 0.0, 0, True, "5", None])
    def test_timeout_not_finite_positive(self, timeout):
        # the socket raises ValueError or OverflowError for the first three,
        # 0 makes it non-blocking, so every attempt fails, and True, "5" and None
        # are no numbers
        with pytest.raises(ValidationError, match="timeout"):
            EmbeddingClient("http://127.0.0.1:8000", timeout=timeout)

    @pytest.mark.parametrize(
        "texts, what",
        [
            ("smol:3", "embed texts must be a list or tuple, not str"),
            (["ab", None], "embed texts item 1 must be str, not NoneType: None"),
            ([1, "ab"], "embed texts item 0 must be str, not int: 1"),
            ([b"ab"], "embed texts item 0 must be str, not bytes: b'ab'"),
        ],
        ids=["str", "none", "int", "bytes"],
    )
    def test_non_text_rejected_before_any_request(self, serve, texts, what):
        # a str would go out as one text per character
        server, client = serve((200, None))
        with pytest.raises(ValidationError, match=re.escape(what)):
            client.embed(texts)
        assert server.requests == 0

    def test_http_stack_imported_only_by_embed(self):
        # http.client and urllib.request pull in email and ssl, which no
        # evaluation path needs
        src = str(Path(lrmt.__file__).resolve().parents[1])
        code = (
            "import sys\n"
            f"sys.path.insert(0, {src!r})\n"
            "import lrmt.pipeline, lrmt.quality, lrmt.metrics\n"
            "print(sorted({'http.client', 'urllib.request'} & set(sys.modules)))\n"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

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


# --- the number rule, across every numeric argument ---

_POOL = _scored_pool(random.Random(19), 6)


def _score_pair(score):
    return SentencePair("p0", "a", "b", ENG_LATN, TRP_LATN, SMOLSENT, score=score)


HUGE = 10**5000  # more digits than repr allows

# argument -> (call with the value, the name its error gives, values outside its
# range, a boundary value that passes). Thresholds, band bounds and COMET
# scores have no range limit: only +-inf and ints beyond float range lie
# outside. A count is an exact int.
BEYOND_FLOAT = [2**1024, HUGE, -HUGE]
NUMERIC_ARGUMENTS = {
    "filter_by_threshold": (lambda x: filter_by_threshold(_POOL, x), "threshold", BEYOND_FLOAT, 1.5),
    "analysis_report": (lambda x: analysis_report([0.5], [x]), "threshold", BEYOND_FLOAT, 1.5),
    "band-low": (lambda x: stratified_sample(_POOL, [(x, 2.0)], 1, "s"), "band low", BEYOND_FLOAT, -1.0),
    "band-high": (lambda x: stratified_sample(_POOL, [(-1.0, x)], 1, "s"), "band high", BEYOND_FLOAT, 2.0),
    "per_band": (lambda x: stratified_sample(_POOL, [(-1.0, 2.0)], x, "s"), "per_band", [0, 1.0, -HUGE], 1),
    "min_words": (lambda x: filter_length(_POOL, x, 5), "min_words", [0, 1.0, -HUGE], 1),
    "max_words": (lambda x: filter_length(_POOL, 2, x), "max_words", [1, 2.0, -HUGE], 2),
    "split-size": (lambda x: SplitEntry("dev", x), "split 'dev': size", [-1, 0.0, -HUGE], 0),
    "timeout": (lambda x: EmbeddingClient("http://127.0.0.1:8000", timeout=x), "embedding timeout", [0, -1.0, -HUGE], 0.001),
    "pair-score": (_score_pair, "pair p0: score", [math.nextafter(1.0, 2.0), -1.5, HUGE], -1.0),
    "embedding-score": (
        lambda x: evaluate_corpus(["a b"], ["a b"], embedding_scores=[x]), "embedding score", [1.5, HUGE], 1.0
    ),
    "comet-score": (lambda x: evaluate_corpus(["a b"], ["a b"], comet_scores=[x]), "comet score", BEYOND_FLOAT, -3.0),
    # a score column is a list or tuple; None leaves the column out
    "embedding-column": (
        lambda x: evaluate_corpus(["a"], ["a"], embedding_scores=x), "embedding scores", [5, 0.5], [1.0]
    ),
    "comet-column": (lambda x: evaluate_corpus(["a"], ["a"], comet_scores=x), "comet scores", [5, -3.0], (-3.0,)),
}
NOT_NUMBERS = [True, "0.5", None, math.nan, math.inf, -math.inf]


def _huge_int_id(value):
    # str of an int of more than 4,300 digits raises ValueError; None keeps
    # pytest's own id for every other value
    return f"int-of-{value.bit_length()}-bits" if type(value) is int and value.bit_length() > 1024 else None


@pytest.mark.parametrize(
    "argument, bad",
    [
        (arg, bad)
        for arg, (*_, outside, _) in NUMERIC_ARGUMENTS.items()
        for bad in NOT_NUMBERS + outside
        # None is an unscored pair's score, and a column left out
        if not (arg in ("pair-score", "embedding-column", "comet-column") and bad is None)
    ],
    ids=_huge_int_id,
)
def test_numeric_argument_rejects(argument, bad):
    call, what, *_ = NUMERIC_ARGUMENTS[argument]
    # ValidationError, never TypeError, AttributeError or an accepted value
    with pytest.raises(ValidationError, match=re.escape(what)):
        call(bad)


@pytest.mark.parametrize("argument", NUMERIC_ARGUMENTS)
def test_numeric_argument_boundary_passes(argument):
    call, *_, boundary = NUMERIC_ARGUMENTS[argument]
    call(boundary)


# --- the container rule, across every container argument ---


def _embed(texts):
    """embed(texts) against a fresh scripted server on 127.0.0.1."""
    server = HTTPServer(("127.0.0.1", 0), _ScriptedHandler)
    server.replies, server.requests, server.content_types = ((200, None),), 0, []
    threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True).start()
    try:
        return EmbeddingClient(f"http://127.0.0.1:{server.server_port}", timeout=5.0).embed(texts)
    finally:
        server.shutdown()
        server.server_close()


_TOK = tokenize_13a("a b")

# argument -> (call with the container, the name its error gives, items that
# pass). Every container argument is a list or tuple, under check_items.
CONTAINER_ARGUMENTS = {
    "corpus-pairs": (lambda x: Corpus(x, "c"), "corpus 'c': pairs", _POOL.pairs[:2]),
    "split-entries": (lambda x: SplitSpec("s", x), "split entries", [SplitEntry("dev", 1)]),
    "concat": (concat, "corpora to concatenate", [_POOL]),
    "eval-sets": (lambda x: verify_overlap(_POOL, x), "eval sets", [_POOL]),
    "swap-ids": (lambda x: swap_rows(_POOL, x), "swap ids", [_POOL.pairs[0].id]),
    "bands": (lambda x: stratified_sample(_POOL, x, 1, "s"), "bands", [(-1.0, 2.0)]),
    "band": (lambda x: stratified_sample(_POOL, [x], 1, "s"), "band", (-1.0, 2.0)),
    "evaluate-hyps": (lambda x: evaluate_corpus(x, ["a b"]), "hyps", ["a b"]),
    "evaluate-refs": (lambda x: evaluate_corpus(["a b"], x), "refs", ["a b"]),
    "embedding-scores": (lambda x: evaluate_corpus(["a"], ["a"], embedding_scores=x), "embedding scores", [1.0]),
    "comet-scores": (lambda x: evaluate_corpus(["a"], ["a"], comet_scores=x), "comet scores", [-3.0]),
    "chrf-hyps": (lambda x: chrf(x, ["a b"]), "hyps", ["a b"]),
    "chrf-refs": (lambda x: chrf(["a b"], x), "refs", ["a b"]),
    "rouge-hyps": (lambda x: rouge_l_corpus(x, [_TOK]), "hyps", [_TOK]),
    "rouge-refs": (lambda x: rouge_l_corpus([_TOK], x), "refs", [_TOK]),
    "meteor-hyps": (lambda x: meteor_corpus(x, [_TOK]), "hyps", [_TOK]),
    "meteor-refs": (lambda x: meteor_corpus([_TOK], x), "refs", [_TOK]),
    "tokens": (TokenizedSentence, "tokens", ["a", "b"]),
    "embed-texts": (_embed, "embed texts", ["ab"]),
    "analysis-scores": (lambda x: analysis_report(x, [0.0]), "scores", [0.5]),
    "thresholds": (lambda x: analysis_report([0.5], x), "thresholds", [0.0]),
    "histogram-scores": (histogram_csv, "scores", [0.5]),
    "bleu-clipped": (lambda x: BleuStats(x, (1,) * 4, 1, 1), "clipped", [1] * 4),
    "bleu-totals": (lambda x: BleuStats((0,) * 4, x, 1, 1), "totals", [1] * 4),
}
# what each refused container is built from the items that pass
NOT_CONTAINERS = {
    "str": lambda items: "ab",
    "set": set,
    "dict": dict.fromkeys,
    "generator": lambda items: (item for item in items),
    "int": lambda items: 5,
    "None": lambda items: None,
}


@pytest.mark.parametrize(
    "argument, shape",
    [
        (arg, shape)
        for arg in CONTAINER_ARGUMENTS
        for shape in NOT_CONTAINERS
        # None leaves a score column out
        if not (arg in ("embedding-scores", "comet-scores") and shape == "None")
    ],
)
def test_container_argument_rejects(argument, shape):
    call, what, items = CONTAINER_ARGUMENTS[argument]
    bad = NOT_CONTAINERS[shape](items)
    # ValidationError naming the argument, never TypeError, AttributeError or
    # a result read in hash, key or character order
    with pytest.raises(ValidationError, match=f"^{re.escape(what)} must be a list or tuple, not {type(bad).__name__}$"):
        call(bad)


@pytest.mark.parametrize("container", [list, tuple])
@pytest.mark.parametrize("argument", CONTAINER_ARGUMENTS)
def test_container_argument_passes(argument, container):
    call, _, items = CONTAINER_ARGUMENTS[argument]
    call(container(items))


def test_histogram_of_an_iterator_refused():
    # the score check used to consume the iterator, and the counts read all zero
    with pytest.raises(ValidationError, match="scores must be a list or tuple, not list_iterator"):
        histogram_csv(iter([0.5, 0.5]))
    counts = [int(line.rsplit(",", 1)[1]) for line in histogram_csv([0.5, 0.5]).splitlines()[1:]]
    assert sum(counts) == 2


# --- the type rule, across every typed argument ---


def _pair(**fields):
    return SentencePair(**{"id": "p0", "source_text": "a", "target_text": "b", "source_lang": ENG_LATN,
                           "target_lang": TRP_LATN, "origin": SMOLSENT, **fields})


def _json_row(obj):
    """_parse_row on a JSONL row that decodes to obj. json.loads is stubbed:
    JSON holds no bytes, and it refuses an int of 5,000 digits itself."""
    with mock.patch.object(lrmt.corpus.json, "loads", return_value=obj):
        return _parse_row("{}", "jsonl", 0, ENG_LATN, TRP_LATN, SMOLSENT)


# argument -> (call with the value, the name its error gives, its type, a value
# that passes). Every typed argument calls check_type.
TYPE_ARGUMENTS = {
    "language-tag": (LanguageTag, "language tag", str, "eng_Latn"),
    "origin-label": (Origin, "origin label", str, "web"),
    "pair-id": (lambda x: _pair(id=x), "sentence pair id", str, "p0"),
    "source-text": (lambda x: _pair(source_text=x), "source text", str, "a"),
    "target-text": (lambda x: _pair(target_text=x), "target text", str, "b"),
    "source-tag": (lambda x: _pair(source_lang=x), "source language tag", LanguageTag, ENG_LATN),
    "target-tag": (lambda x: _pair(target_lang=x), "target language tag", LanguageTag, TRP_LATN),
    "pair-origin": (lambda x: _pair(origin=x), "pair origin", Origin, SMOLSENT),
    "corpus-name": (lambda x: Corpus(_POOL.pairs, x), "corpus name", str, "c"),
    "json-row": (_json_row, "JSON row", dict, {"source": "a", "target": "b"}),
    "json-source": (lambda x: _json_row({"source": x, "target": "b"}), "JSON row's 'source'", str, "a"),
    "json-target": (lambda x: _json_row({"source": "a", "target": x}), "JSON row's 'target'", str, "b"),
    "split-name": (lambda x: SplitEntry(x, 1), "split name", str, "dev"),
    "split-origin": (lambda x: SplitEntry("dev", 1, x), "split 'dev': origin", Origin, SMOLSENT),
    "split-seed": (lambda x: SplitSpec(x, []), "split seed", str, "s"),
    "overlap-train": (lambda x: verify_overlap(x, [_POOL]), "train", Corpus, _POOL),
    "sample-seed": (lambda x: stratified_sample(_POOL, [(-1.0, 2.0)], 1, x), "sample seed", str, "s"),
    "embedding-url": (EmbeddingClient, "embedding service URL", str, "http://127.0.0.1:8000"),
    "tokenize": (tokenize_13a, "text", str, "a b"),
    "chrf-hyp": (lambda x: chrf_stats(x, "a b"), "hyp", str, "a b"),
    "chrf-ref": (lambda x: chrf_stats("a b", x), "ref", str, "a b"),
}
NOT_OF_TYPE = [None, 5, b"x", ["x"], HUGE]


@pytest.mark.parametrize(
    "argument, bad",
    [
        (arg, bad)
        for arg in TYPE_ARGUMENTS
        for bad in NOT_OF_TYPE
        # None is a split with no origin restriction
        if not (arg == "split-origin" and bad is None)
    ],
    ids=_huge_int_id,
)
def test_typed_argument_rejects(argument, bad):
    call, what, kind, _ = TYPE_ARGUMENTS[argument]
    shown = f"<int of {HUGE.bit_length()} bits>" if bad is HUGE else repr(bad)
    message = f"{what} must be {kind.__name__}, not {type(bad).__name__}: {shown}"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call(bad)


@pytest.mark.parametrize("argument", TYPE_ARGUMENTS)
def test_typed_argument_passes(argument):
    call, *_, good = TYPE_ARGUMENTS[argument]
    call(good)


# arguments whose refusal shows a value that is no type check: argument ->
# (call with the value, the error it documents, a pattern of its message)
SHOWN_ARGUMENTS = {
    "dedup-key": (lambda x: dedup(_POOL, x), ValidationError, "dedup key"),
    "ingest-format": (lambda x: ingest("missing.tsv", x), IngestError, "unknown format"),
    "write-format": (lambda x: write(_POOL, "missing-dir/x.tsv", x), IngestError, "unknown format"),
    "band-pair": (lambda x: stratified_sample(_POOL, [(x,)], 1, "s"), ValidationError, r"is not a \(low, high\) pair"),
    "bleu-counts": (lambda x: BleuStats((x,) * 4, (1,) * 4, 1, 1), ValidationError, "clipped"),
}
ALL_ARGUMENTS = {
    **{f"number:{arg}": (call, ValidationError, None) for arg, (call, *_) in NUMERIC_ARGUMENTS.items()},
    **{f"container:{arg}": (call, ValidationError, None) for arg, (call, *_) in CONTAINER_ARGUMENTS.items()},
    **{f"type:{arg}": (call, ValidationError, None) for arg, (call, *_) in TYPE_ARGUMENTS.items()},
    **SHOWN_ARGUMENTS,
}
# a count has no upper limit, so 10**5000 is one (min_words is then above max_words)
COUNTS = {"number:per_band", "number:max_words", "number:split-size"}


@pytest.mark.parametrize("value", [HUGE, [HUGE]], ids=["huge-int", "list-of-huge-int"])
@pytest.mark.parametrize("argument", ALL_ARGUMENTS)
def test_an_unprintable_value_is_refused_as_documented(argument, value):
    # repr of an int of more than 4,300 digits raises ValueError; every refusal
    # shows such a value by its size instead
    call, error, pattern = ALL_ARGUMENTS[argument]
    assert issubclass(error, LrmtError)
    if argument in COUNTS and value is HUGE:
        call(value)
        return
    with pytest.raises(error, match=pattern):
        call(value)

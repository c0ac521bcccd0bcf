"""Embedding-similarity quality analysis: scoring pairs through the
embedding service, the analysis report a filtering threshold is chosen from,
its score histogram, stratified inspection sampling, and threshold filtering.

Scores are persisted on the corpus (JSONL `score` field), so everything here
except `score_pairs` is pure computation over already-scored data; the
embedding service is only touched at that one boundary.
"""

from __future__ import annotations

import json
import math
import operator
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from itertools import chain
from typing import Callable, Optional, Sequence

from .corpus import Corpus, SentencePair, _shown, check_count, check_items, check_number, check_score, check_type
from .errors import ProviderError, ValidationError
from .pipeline import hash_sorted

MAX_EMBED_BATCH = 512  # server-side request cap
EMBED_BATCH = 128  # pairs per score_pairs batch: one source and one target request
MAX_ATTEMPTS = 3  # tries per embed request before a transient failure is final


def filter_by_threshold(corpus: Corpus, threshold: float) -> tuple[Corpus, Corpus]:
    """Split into (kept: score >= threshold, dropped). Threshold -1 keeps all.

    The threshold follows the number rule (:func:`~lrmt.corpus.check_number`)
    with no range limit: any finite number, so a bool, NaN or +-inf raises.
    """
    check_type(corpus, "corpus", Corpus)
    check_number(threshold, "threshold", -math.inf, math.inf)
    kept: list[SentencePair] = []
    dropped: list[SentencePair] = []
    for pair in corpus:
        if pair.score is None:
            raise ValidationError(f"pair {pair.id} has no score; run scoring first")
        (kept if pair.score >= threshold else dropped).append(pair)
    return Corpus(kept, f"{corpus.name}-kept"), Corpus(dropped, f"{corpus.name}-dropped")


# the highest score a pair can have; a band ending here includes it
TOP_SCORE = 1.0


@dataclass(frozen=True)
class BandSample:
    low: float
    high: float
    pairs: tuple[SentencePair, ...]

    @property
    def label(self) -> str:
        return f"[{self.low:g},{self.high:g}" + ("]" if self.high == TOP_SCORE else ")")


@dataclass(frozen=True)
class StratifiedSample:
    """Per-band inspection samples plus warnings about short bands."""

    bands: tuple[BandSample, ...]
    warnings: tuple[str, ...]


def stratified_sample(
    corpus: Corpus,
    bands: Sequence[tuple[float, float]],
    per_band: int,
    seed: str,
) -> StratifiedSample:
    """Up to per_band pairs per [low, high) score band, hash-sort selected.

    A band whose high is 1.0 is closed, [low, 1.0], so it holds the pairs
    that score exactly 1.0, such as untranslated copies.

    Each band takes its first per_band members in hash_sorted order, the
    order split uses, so the same seed always yields the same sample. Bands
    shorter than per_band are reported as warnings, not errors.

    ``bands`` is a list or tuple of (low, high) pairs, each a list or tuple,
    whose bounds follow the number rule (:func:`~lrmt.corpus.check_number`)
    with no range limit, and per_band the count rule
    (:func:`~lrmt.corpus.check_count`), at least 1; the seed is a str.
    """
    check_type(corpus, "corpus", Corpus)
    check_count(per_band, "per_band", 1)
    check_type(seed, "sample seed", str)
    check_items(bands, "bands", object)
    for band in bands:
        check_items(band, "band", object)
        if len(band) != 2:
            raise ValidationError(f"band {_shown(band)} is not a (low, high) pair")
        low, high = band
        check_number(low, "band low", -math.inf, math.inf)
        check_number(high, "band high", -math.inf, math.inf)
        if not low < high:
            raise ValidationError(f"empty band [{low},{high})")
    spans = sorted(map(tuple, bands))  # a list and a tuple do not compare
    for (a_lo, a_hi), (b_lo, b_hi) in zip(spans, spans[1:]):
        if b_lo < a_hi or b_lo == a_hi == TOP_SCORE:
            raise ValidationError(f"bands overlap: [{a_lo},{a_hi}) and [{b_lo},{b_hi})")
    for pair in corpus:
        if pair.score is None:
            raise ValidationError(f"pair {pair.id} has no score; run scoring first")
    out: list[BandSample] = []
    warnings: list[str] = []
    for low, high in bands:
        members = (p for p in corpus if low <= p.score < high or p.score == high == TOP_SCORE)
        band = BandSample(low=low, high=high, pairs=tuple(hash_sorted(members, seed)[:per_band]))
        if len(band.pairs) < per_band:
            warnings.append(f"band {band.label} has {len(band.pairs)} of {_shown(per_band)} requested pairs")
        out.append(band)
    return StratifiedSample(bands=tuple(out), warnings=tuple(warnings))


def _check_scores(scores: Sequence[float]) -> None:
    """The analysis needs a list or tuple of at least one `check_score` score."""
    check_items(scores, "scores", object)
    if not scores:
        raise ValidationError("the analysis needs at least one score")
    for s in scores:
        check_score(s, "score")


def histogram_csv(scores: Sequence[float]) -> str:
    """CSV of (bin_low, bin_high, count) over 50 equal-width bins on the score
    range [-1, 1]; the last bin is closed. Raises ValidationError on the
    scores `analysis_report` rejects."""
    _check_scores(scores)
    bins, low, high = 50, -1.0, 1.0
    step = (high - low) / bins
    edges = [low + i * step for i in range(bins)] + [high]
    counts = [0] * bins
    for x in scores:
        counts[min(bisect_right(edges, x), bins) - 1] += 1
    lines = ["bin_low,bin_high,count"]
    for i in range(bins):
        lines.append(f"{edges[i]:.6f},{edges[i + 1]:.6f},{counts[i]}")
    return "\n".join(lines) + "\n"


def analysis_report(
    scores: Sequence[float],
    thresholds: Sequence[float],
    histogram_path: Optional[str] = None,
) -> dict:
    """JSON-ready summary of the scores, with the conventions it uses: `n`,
    `mean`, the population `std` (N denominator, not N-1; both by two-pass
    compensated sums) and a curve of the fraction of scores >= each threshold
    (an inclusive bound). Scores and thresholds are lists or tuples.
    Thresholds must ascend, each under the number rule
    (:func:`~lrmt.corpus.check_number`) with no range limit, so the fractions
    lie in [0, 1] and never increase along the curve. No scores, or a score
    `check_score` rejects (a bool, NaN included), raises ValidationError.

    `histogram_path` is only recorded, as the caller passes it: the report
    writes no file. A caller that names a histogram writes it there itself,
    for instance the text of `histogram_csv(scores)`.
    """
    _check_scores(scores)
    check_items(thresholds, "thresholds", object)
    for t in thresholds:
        check_number(t, "threshold", -math.inf, math.inf)
    if any(b < a for a, b in zip(thresholds, thresholds[1:])):
        raise ValidationError("thresholds must be sorted ascending")
    n = len(scores)
    mean = math.fsum(scores) / n
    ordered = sorted(scores)
    return {
        "n": n,
        "mean": mean,
        "std": math.sqrt(math.fsum((s - mean) ** 2 for s in scores) / n),
        "std_kind": "population",
        "retention_bound": "inclusive",
        "curve": [
            {"threshold": float(t), "retained_fraction": (n - bisect_left(ordered, t)) / n}
            for t in thresholds
        ],
        "histogram_path": histogram_path,
    }


def cosine(u: Sequence[float], v: Sequence[float]) -> float:
    """Cosine similarity with correctly rounded sums, clamped into [-1, 1]
    against rounding spill. A zero vector scores 0.0.

    Raises ProviderError on a width mismatch, and when a squared norm or the
    dot product overflows, or a nonzero vector's squared norm underflows to
    0: floats then cannot give the cosine, and the clamp would turn the NaN
    into -1.
    """
    if len(u) != len(v):
        raise ProviderError(f"embedding dimension mismatch: {len(u)} vs {len(v)}")
    try:
        uu, vv, dot = (math.fsum(map(operator.mul, a, b)) for a, b in ((u, u), (v, v), (u, v)))
    except (OverflowError, ValueError) as exc:  # fsum's overflow and inf - inf
        raise ProviderError(f"embedding vectors overflow the cosine: {exc}") from exc
    if not (math.isfinite(uu) and math.isfinite(vv) and math.isfinite(dot)):
        raise ProviderError("embedding vectors overflow the cosine")
    if (uu == 0.0 and any(u)) or (vv == 0.0 and any(v)):
        raise ProviderError("embedding vector too small: its squared norm underflows to 0")
    if uu == 0.0 or vv == 0.0:
        return 0.0
    return min(1.0, max(-1.0, dot / (math.sqrt(uu) * math.sqrt(vv))))


class EmbeddingClient:
    """Client for the sentence-embedding sidecar: POST {url}/embed
    {"texts": [...]} -> {"vectors": [[...]], "dim": n, "model_id": str}.

    Transport errors and 5xx, 408 and 429 responses are retried with
    exponential backoff, up to MAX_ATTEMPTS attempts per request. Any other
    4xx means the request itself is wrong and fails after one attempt, and a
    2xx body that is not JSON or breaks the contract fails fast; all of these
    raise ProviderError. `timeout` is in seconds, per attempt: a number under
    :func:`~lrmt.corpus.check_number` on [0, inf], and not 0.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        # urllib would also open file:// and ftp:// URLs; the service speaks HTTP only
        check_type(base_url, "embedding service URL", str)
        if not base_url.startswith(("http://", "https://")):
            raise ValidationError(f"embedding service URL must be http(s), got {base_url!r}")
        # the socket rejects a negative, NaN or infinite timeout only on first use
        check_number(timeout, "embedding timeout", 0.0, math.inf)
        if timeout == 0:  # a non-blocking socket: every attempt would fail
            raise ValidationError(f"embedding timeout {timeout!r} is not > 0")
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self._sleep = sleep

    def embed(self, texts: Sequence[str]) -> list[list[float]]:
        # a str would be sent as one text per character
        check_items(texts, "embed texts", str)
        if not 1 <= len(texts) <= MAX_EMBED_BATCH:
            raise ValidationError(f"embed batch size {len(texts)} outside 1..{MAX_EMBED_BATCH}")
        # imported here, not at module level: they pull in email and ssl,
        # which nothing but this request needs
        import http.client
        import urllib.error
        import urllib.request

        data = json.dumps({"texts": list(texts)}).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        request = urllib.request.Request(f"{self.base_url}/embed", data, headers)
        for attempt in range(MAX_ATTEMPTS):
            if attempt:
                self._sleep(1.0 * 2 ** (attempt - 1))
            try:
                with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                    raw = resp.read()
            except urllib.error.HTTPError as exc:
                exc.close()
                if 400 <= exc.code < 500 and exc.code not in (408, 429):
                    raise ProviderError(f"embedding service rejected the request: HTTP {exc.code}")
                last_error = f"HTTP {exc.code}"
                continue
            except (OSError, http.client.HTTPException) as exc:
                last_error = str(exc)
                continue
            try:
                body = json.loads(raw)
            except ValueError as exc:
                raise ProviderError(f"embed response is not JSON: {exc}") from exc
            return self._parse(body, len(texts))
        raise ProviderError(
            f"embedding service unreachable after {MAX_ATTEMPTS} attempts: {last_error}"
        )

    @staticmethod
    def _parse(body: object, expected: int) -> list[list[float]]:
        if not isinstance(body, dict):
            raise ProviderError(f"embed response is a JSON {type(body).__name__}, not an object")
        vectors = body.get("vectors")
        dim = body.get("dim")
        if not isinstance(vectors, list) or len(vectors) != expected:
            raise ProviderError(
                f"embed response carries {len(vectors) if isinstance(vectors, list) else 'no'} "
                f"vectors for {expected} texts"
            )
        if not all(isinstance(row, list) for row in vectors):
            raise ProviderError("embed response vectors are not rows of numbers")
        widths = {len(row) for row in vectors}
        # True == 1, so a bool dim would pass as width 1 without the type check
        if len(widths) != 1 or (dim is not None and (type(dim) is not int or dim not in widths)):
            raise ProviderError(f"embed response row widths {sorted(widths)} disagree with dim={dim!r}")
        entries = list(chain.from_iterable(vectors))
        # exact types: JSON true/false decode to bool, which would pass as 1.0/0.0
        if not set(map(type, entries)) <= {int, float}:
            raise ProviderError("embed response vectors are not rows of numbers")
        try:
            if not all(map(math.isfinite, entries)):
                raise ProviderError("embed response holds a non-finite vector entry")
        except OverflowError as exc:  # an int too large for a float
            raise ProviderError(f"embed response vectors are not rows of numbers: {exc}") from exc
        return [list(map(float, row)) for row in vectors]


class ScoringError(ProviderError):
    """Scoring failed partway; `partial` holds every pair, scored where done."""

    def __init__(self, message: str, partial: Corpus) -> None:
        super().__init__(message)
        self.partial = partial


def score_pairs(corpus: Corpus, embedder: EmbeddingClient) -> Corpus:
    """Attach cosine(source embedding, target embedding) to every unscored pair,
    EMBED_BATCH pairs at a time.

    A pair that already has a score keeps it and is never sent, so a rerun
    after a partial failure resumes where it stopped. On provider failure the
    raised ScoringError carries the partially scored corpus for persisting,
    with the ProviderError as its cause.
    """
    check_type(corpus, "corpus", Corpus)
    scored: dict[str, float] = {}
    todo = [p for p in corpus if p.score is None]
    error: Optional[ProviderError] = None
    for start in range(0, len(todo), EMBED_BATCH):
        batch = todo[start : start + EMBED_BATCH]
        try:
            src_vecs = embedder.embed([p.source_text for p in batch])
            tgt_vecs = embedder.embed([p.target_text for p in batch])
            # cosine raises ProviderError on a width mismatch or an overflow; the
            # batch then keeps no score, so the error names its first pair
            scored.update({pair.id: cosine(u, v) for pair, u, v in zip(batch, src_vecs, tgt_vecs)})
        except ProviderError as exc:
            error = exc
            break
    pairs = [replace(p, score=scored[p.id]) if p.id in scored else p for p in corpus]
    out = replace(corpus, pairs=pairs)
    if error is not None:
        message = f"scoring stopped at pair {batch[0].id}: {error}"
        raise ScoringError(message, partial=out) from error
    return out

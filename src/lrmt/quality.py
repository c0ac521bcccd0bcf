"""Embedding-similarity quality analysis: population statistics, retention
curves, histogram export, stratified inspection sampling, and threshold
filtering.

Scores are persisted on the corpus (JSONL `score` field), so everything here
except `score_pairs` is pure computation over already-scored data; the
embedding service is only touched at that one boundary.
"""

from __future__ import annotations

import http.client
import json
import math
import operator
import time
import urllib.error
import urllib.request
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from itertools import chain
from typing import Callable, Optional, Sequence

from .corpus import Corpus, SentencePair
from .errors import ProviderError, ValidationError
from .pipeline import hash_sorted

MAX_EMBED_BATCH = 512  # server-side request cap
EMBED_BATCH = 128  # pairs per score_pairs batch: one source and one target request
MAX_ATTEMPTS = 3  # tries per embed request before a transient failure is final


@dataclass(frozen=True)
class ScorePopulation:
    """Scores with their population mean/std (N denominator, not N-1), derived
    from `scores` by two-pass compensated sums."""

    scores: tuple[float, ...]
    n: int = field(init=False)
    mean: float = field(init=False)
    std: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "scores", tuple(self.scores))
        if not self.scores:
            raise ValidationError("a score population needs at least one score")
        for s in self.scores:
            if not -1.0 <= s <= 1.0:
                raise ValidationError(f"score {s} outside [-1, 1]")
        n = len(self.scores)
        mean = math.fsum(self.scores) / n
        var = math.fsum((s - mean) ** 2 for s in self.scores) / n
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", math.sqrt(var))


def retention_curve(
    scores: Sequence[float], thresholds: Sequence[float]
) -> tuple[tuple[float, float], ...]:
    """(t, fraction of scores >= t) for each threshold t, in order.

    Thresholds must ascend and be NaN-free, so the fractions lie in [0, 1]
    and never increase along the curve.
    """
    if not scores:
        raise ValidationError("retention_curve needs at least one score")
    if any(map(math.isnan, chain(scores, thresholds))):
        raise ValidationError("retention_curve got a NaN score or threshold")
    if any(b < a for a, b in zip(thresholds, thresholds[1:])):
        raise ValidationError("thresholds must be sorted ascending")
    ordered = sorted(scores)
    n = len(ordered)
    return tuple((float(t), (n - bisect_left(ordered, t)) / n) for t in thresholds)


def filter_by_threshold(corpus: Corpus, threshold: float) -> tuple[Corpus, Corpus]:
    """Split into (kept: score >= threshold, dropped). Threshold -1 keeps all."""
    if math.isnan(threshold):
        raise ValidationError("filter_by_threshold got a NaN threshold")
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
    """
    if per_band < 1:
        raise ValidationError(f"per_band must be >= 1, got {per_band}")
    for low, high in bands:
        if not low < high:  # also catches a NaN bound
            raise ValidationError(f"empty band [{low},{high})")
    spans = sorted(bands)
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
            warnings.append(f"band {band.label} has {len(band.pairs)} of {per_band} requested pairs")
        out.append(band)
    return StratifiedSample(bands=tuple(out), warnings=tuple(warnings))


def histogram_csv(scores: Sequence[float]) -> str:
    """CSV of (bin_low, bin_high, count) over 50 equal-width bins on the score
    range [-1, 1]; the last bin is closed. A NaN score or one outside [-1, 1]
    raises ValidationError, as in ScorePopulation."""
    if not scores:
        raise ValidationError("histogram needs at least one score")
    bins, low, high = 50, -1.0, 1.0
    step = (high - low) / bins
    edges = [low + i * step for i in range(bins)] + [high]
    counts = [0] * bins
    for x in scores:
        if not low <= x <= high:  # NaN fails both comparisons
            raise ValidationError(f"score {x} outside [-1, 1]")
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
    """JSON-ready summary: stats, retention curve, conventions used.

    `histogram_path` is only recorded, as the caller passes it: the report
    writes no file. A caller that names a histogram writes it there itself,
    for instance the text of `histogram_csv(scores)`.
    """
    pop = ScorePopulation(scores)
    curve = retention_curve(scores, thresholds)
    return {
        "n": pop.n,
        "mean": pop.mean,
        "std": pop.std,
        "std_kind": "population",
        "retention_bound": "inclusive",
        "curve": [
            {"threshold": t, "retained_fraction": f} for t, f in curve
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
    raise ProviderError. `timeout` is in seconds, per attempt.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        # urllib would also open file:// and ftp:// URLs; the service speaks HTTP only
        if not base_url.startswith(("http://", "https://")):
            raise ValidationError(f"embedding service URL must be http(s), got {base_url!r}")
        # the socket rejects a negative, NaN or infinite timeout only on first use; 0 is non-blocking
        if not 0.0 < timeout < math.inf:
            raise ValidationError(f"embedding timeout must be finite seconds > 0, got {timeout!r}")
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self._sleep = sleep

    def embed(self, texts: Sequence[str]) -> list[list[float]]:
        if not 1 <= len(texts) <= MAX_EMBED_BATCH:
            raise ValidationError(
                f"embed batch size {len(texts)} outside 1..{MAX_EMBED_BATCH}"
            )
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

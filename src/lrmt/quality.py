"""Embedding-similarity quality analysis: population statistics, retention
curves, histogram export, stratified inspection sampling, and threshold
filtering.

Scores are persisted on the corpus (JSONL `score` field), so everything here
except `score_pairs` is pure computation over already-scored data; the
embedding service is only touched at that one boundary.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
import requests

from .corpus import Corpus, SentencePair
from .errors import ProviderError, ValidationError
from .pipeline import sample_key

MAX_EMBED_BATCH = 512  # server-side request cap


@dataclass(frozen=True)
class ScorePopulation:
    """Scores with their population mean/std (N denominator, not N-1)."""

    scores: tuple[float, ...]
    n: int
    mean: float
    std: float

    def __post_init__(self) -> None:
        if self.n != len(self.scores):
            raise ValidationError(f"n={self.n} but {len(self.scores)} scores")
        for s in self.scores:
            if not -1.0 <= s <= 1.0:
                raise ValidationError(f"score {s} outside [-1, 1]")
        mean, std = _two_pass_stats(self.scores)
        if abs(mean - self.mean) > 1e-9 or abs(std - self.std) > 1e-9:
            raise ValidationError("stored mean/std disagree with recomputation")


def _two_pass_stats(scores: Sequence[float]) -> tuple[float, float]:
    mean = math.fsum(scores) / len(scores)
    var = math.fsum((s - mean) ** 2 for s in scores) / len(scores)
    return mean, math.sqrt(var)


def population_stats(scores: Sequence[float]) -> ScorePopulation:
    """Mean and population standard deviation via two-pass compensated sums."""
    if not scores:
        raise ValidationError("population_stats needs at least one score")
    mean, std = _two_pass_stats(scores)
    return ScorePopulation(scores=tuple(scores), n=len(scores), mean=mean, std=std)


@dataclass(frozen=True)
class RetentionCurve:
    """(threshold, retained fraction) points; fractions never increase."""

    points: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        fracs = [f for _, f in self.points]
        if any(b > a for a, b in zip(fracs, fracs[1:])):
            raise ValidationError("retention fractions must be nonincreasing")
        for _, f in self.points:
            if not 0.0 <= f <= 1.0:
                raise ValidationError(f"retained fraction {f} outside [0, 1]")


def retention_curve(scores: Sequence[float], thresholds: Sequence[float]) -> RetentionCurve:
    """Fraction of scores >= t (inclusive) for each threshold."""
    if not scores:
        raise ValidationError("retention_curve needs at least one score")
    if any(b < a for a, b in zip(thresholds, thresholds[1:])):
        raise ValidationError("thresholds must be sorted ascending")
    n = len(scores)
    points = tuple(
        (float(t), sum(1 for s in scores if s >= t) / n) for t in thresholds
    )
    return RetentionCurve(points=points)


def filter_by_threshold(corpus: Corpus, threshold: float) -> tuple[Corpus, Corpus]:
    """Split into (kept: score >= threshold, dropped). Threshold -1 keeps all."""
    kept: list[SentencePair] = []
    dropped: list[SentencePair] = []
    for pair in corpus:
        if pair.score is None:
            raise ValidationError(f"pair {pair.id} has no score; run scoring first")
        (kept if pair.score >= threshold else dropped).append(pair)
    return (
        corpus.with_pairs(kept, name=f"{corpus.name}-kept"),
        corpus.with_pairs(dropped, name=f"{corpus.name}-dropped"),
    )


@dataclass(frozen=True)
class BandSample:
    low: float
    high: float
    requested: int
    pairs: tuple[SentencePair, ...]

    @property
    def label(self) -> str:
        return f"[{self.low:g},{self.high:g})"


@dataclass(frozen=True)
class StratifiedSample:
    """Per-band inspection samples plus warnings about short bands."""

    bands: tuple[BandSample, ...]
    warnings: tuple[str, ...]

    def corpus(self, name: str = "sample") -> Corpus:
        pairs = [p for band in self.bands for p in band.pairs]
        return Corpus.from_pairs(pairs, name=name)

    def to_tsv(self) -> str:
        lines = ["band\tid\tscore\tsource\ttarget"]
        for band in self.bands:
            for p in band.pairs:
                lines.append(
                    f"{band.label}\t{p.id}\t{p.score:.6f}\t{p.source_text}\t{p.target_text}"
                )
        return "\n".join(lines) + "\n"


def stratified_sample(
    corpus: Corpus,
    bands: Sequence[tuple[float, float]],
    per_band: int,
    seed: str,
) -> StratifiedSample:
    """Up to per_band pairs per [low, high) score band, hash-sort selected.

    Selection reuses the split rule (SHA-256 of seed and source text), so the
    same seed always yields the same sample. Bands shorter than per_band are
    reported as warnings, not errors.
    """
    if per_band < 1:
        raise ValidationError(f"per_band must be >= 1, got {per_band}")
    spans = sorted(bands)
    for (a_lo, a_hi), (b_lo, b_hi) in zip(spans, spans[1:]):
        if b_lo < a_hi:
            raise ValidationError(f"bands overlap: [{a_lo},{a_hi}) and [{b_lo},{b_hi})")
    for pair in corpus:
        if pair.score is None:
            raise ValidationError(f"pair {pair.id} has no score; run scoring first")
    out: list[BandSample] = []
    warnings: list[str] = []
    for low, high in bands:
        if low >= high:
            raise ValidationError(f"empty band [{low},{high})")
        members = [p for p in corpus if low <= p.score < high]
        members.sort(key=lambda p: (sample_key(seed, p.source_text), p.id))
        chosen = tuple(members[:per_band])
        if len(chosen) < per_band:
            warnings.append(
                f"band [{low:g},{high:g}) has {len(chosen)} of {per_band} requested pairs"
            )
        out.append(BandSample(low=low, high=high, requested=per_band, pairs=chosen))
    return StratifiedSample(bands=tuple(out), warnings=tuple(warnings))


def histogram_csv(
    scores: Sequence[float], bins: int = 50, low: float = -1.0, high: float = 1.0
) -> str:
    """CSV of (bin_low, bin_high, count) over equal-width bins."""
    if not scores:
        raise ValidationError("histogram needs at least one score")
    edges = np.linspace(low, high, bins + 1)
    counts, _ = np.histogram(np.asarray(scores, dtype=np.float64), bins=edges)
    lines = ["bin_low,bin_high,count"]
    for i in range(bins):
        lines.append(f"{edges[i]:.6f},{edges[i + 1]:.6f},{int(counts[i])}")
    return "\n".join(lines) + "\n"


def analysis_report(
    scores: Sequence[float],
    thresholds: Sequence[float],
    histogram_path: Optional[str] = None,
) -> dict:
    """JSON-ready summary: stats, retention curve, conventions used."""
    pop = population_stats(scores)
    curve = retention_curve(scores, thresholds)
    return {
        "n": pop.n,
        "mean": pop.mean,
        "std": pop.std,
        "std_kind": "population",
        "retention_bound": "inclusive",
        "curve": [
            {"threshold": t, "retained_fraction": f} for t, f in curve.points
        ],
        "histogram_path": histogram_path,
    }


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity, clamped into [-1, 1] against rounding spill."""
    if u.shape != v.shape:
        raise ProviderError(f"embedding dimension mismatch: {u.shape} vs {v.shape}")
    denom = float(np.linalg.norm(u) * np.linalg.norm(v))
    if denom == 0.0:
        return 0.0
    return float(min(1.0, max(-1.0, float(np.dot(u, v)) / denom)))


class EmbeddingClient:
    """Client for the sentence-embedding sidecar: POST {url}/embed
    {"texts": [...]} -> {"vectors": [[...]], "dim": n, "model_id": str}.

    Non-200 responses and transport errors are retried with exponential
    backoff; a malformed 200 body is a contract violation and fails fast.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        max_attempts: int = 3,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.max_attempts = max_attempts
        self._sleep = sleep

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        if not 1 <= len(texts) <= MAX_EMBED_BATCH:
            raise ValidationError(
                f"embed batch size {len(texts)} outside 1..{MAX_EMBED_BATCH}"
            )
        last_error = "no attempt made"
        for attempt in range(self.max_attempts):
            if attempt:
                self._sleep(1.0 * 2 ** (attempt - 1))
            try:
                resp = requests.post(
                    f"{self.base_url}/embed", json={"texts": list(texts)}, timeout=self.timeout
                )
            except requests.RequestException as exc:
                last_error = str(exc)
                continue
            if resp.status_code != 200:
                last_error = f"HTTP {resp.status_code}"
                continue
            return self._parse(resp.json(), len(texts))
        raise ProviderError(
            f"embedding service unreachable after {self.max_attempts} attempts: {last_error}"
        )

    @staticmethod
    def _parse(body: object, expected: int) -> np.ndarray:
        if not isinstance(body, dict):
            raise ProviderError(f"embed response is a JSON {type(body).__name__}, not an object")
        vectors = body.get("vectors")
        dim = body.get("dim")
        if not isinstance(vectors, list) or len(vectors) != expected:
            raise ProviderError(
                f"embed response carries {len(vectors) if isinstance(vectors, list) else 'no'} "
                f"vectors for {expected} texts"
            )
        try:
            arr = np.asarray(vectors, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ProviderError(f"embed response vectors are not rows of numbers: {exc}") from exc
        if arr.ndim != 2 or (dim is not None and arr.shape[1] != dim):
            raise ProviderError(f"embed response shape {arr.shape} disagrees with dim={dim}")
        if not np.isfinite(arr).all():
            raise ProviderError("embed response holds a non-finite vector entry")
        return arr


class ScoringError(ProviderError):
    """Scoring failed partway; `partial` holds every pair, scored where done."""

    def __init__(self, message: str, partial: Corpus) -> None:
        super().__init__(message)
        self.partial = partial


def score_pairs(
    corpus: Corpus,
    embedder: EmbeddingClient,
    batch_size: int = 128,
    force: bool = False,
) -> Corpus:
    """Attach cosine(source embedding, target embedding) to every pair.

    Already-scored pairs are skipped unless force is set, which makes a rerun
    after a partial failure resume where it stopped. On provider failure the
    raised ScoringError carries the partially scored corpus for persisting.
    """
    if not 1 <= batch_size <= MAX_EMBED_BATCH:
        raise ValidationError(f"batch_size {batch_size} outside 1..{MAX_EMBED_BATCH}")
    scored: dict[str, float] = {}
    todo = [p for p in corpus if force or p.score is None]

    def result(error: Optional[str] = None) -> Corpus:
        pairs = [
            p.with_score(scored[p.id]) if p.id in scored else p for p in corpus
        ]
        out = corpus.with_pairs(pairs)
        if error is not None:
            raise ScoringError(error, partial=out)
        return out

    for start in range(0, len(todo), batch_size):
        batch = todo[start : start + batch_size]
        try:
            src_vecs = embedder.embed([p.source_text for p in batch])
            tgt_vecs = embedder.embed([p.target_text for p in batch])
        except ProviderError as exc:
            return result(error=f"scoring stopped at pair {batch[0].id}: {exc}")
        if src_vecs.shape != tgt_vecs.shape:
            return result(
                error=f"embedding dimension mismatch: {src_vecs.shape} vs {tgt_vecs.shape}"
            )
        for pair, u, v in zip(batch, src_vecs, tgt_vecs):
            scored[pair.id] = cosine(u, v)
    return result()

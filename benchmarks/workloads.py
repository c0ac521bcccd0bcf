"""One operation of each benchmark workload, and the checks on its output.

Each operation calls lrmt's public functions only, with a span around every
call into a layer (``corpus``, ``pipeline``, ``quality``, ``metrics.*``).
Untraced operations pass a NullTracer, so both kinds run the same code.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from lrmt.corpus import ENG_LATN, TRP_LATN, Origin, ingest, write
from lrmt.metrics import (
    SIGNATURE,
    BleuStats,
    MetricReport,
    bleu_from_stats,
    chrf,
    evaluate_corpus,
    lcs_length,
    levenshtein,
    meteor_corpus,
    rouge_l_corpus,
    sentence_stats,
    ter_sentence,
    tokenize_13a,
)
from lrmt.pipeline import (
    SplitEntry,
    SplitSpec,
    concat,
    dedup,
    detect_swapped_rows,
    filter_length,
    flip_concat,
    split,
    swap_rows,
    verify_overlap,
)
from lrmt.quality import (
    EmbeddingClient,
    analysis_report,
    filter_by_threshold,
    histogram_csv,
    score_pairs,
    stratified_sample,
)

from gen import FILTER_MAX_WORDS, BuildInput, EvalInput

SPLIT_SPEC = SplitSpec(
    seed="bench",
    entries=(
        # Eval splits come from sources whose English texts are all distinct,
        # so no split boundary separates two pairs that share a source text.
        SplitEntry("dev", 300, Origin("smolsent")),
        SplitEntry("test", 300, Origin("synthetic")),
    ),
)
THRESHOLDS = (-0.5, -0.25, 0.0, 0.25, 0.5)
BANDS = ((-1.0, -0.25), (-0.25, 0.0), (0.0, 0.25), (0.25, 1.0))
PER_BAND = 50
KEEP_THRESHOLD = -0.25
EMBED_BATCH = 128  # score_pairs' default batch size


@dataclass
class OpResult:
    seconds: float
    pairs: int
    failures: list[str]
    digests: dict[str, str]
    counts: dict[str, float] = field(default_factory=dict)
    report: str = ""


def _sha(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8") + b"\n")
    return h.hexdigest()


class StubClient:
    """Reads the embedding stub's request and text counters."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.url = f"http://127.0.0.1:{port}"

    def stats(self) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", "/stats")
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()


def build_op(inp: BuildInput, workdir: Path, stub: StubClient, tracer) -> OpResult:
    """ingest -> concat -> dedup -> filter_length -> swap repair -> split ->
    verify_overlap -> score_pairs -> analysis -> stratified sample ->
    threshold filter -> flip_concat -> write."""
    for name, data in inp.files.items():
        (workdir / name).write_bytes(data)
    embedder = EmbeddingClient(stub.url)
    before = stub.stats()
    span = tracer.span
    start = perf_counter()
    with span("build"):
        ingested = []
        for name, origin in inp.origins.items():
            fmt = "jsonl" if name.endswith(".jsonl") else "tsv"
            with span("corpus.ingest"):
                ingested.append(ingest(workdir / name, fmt, ENG_LATN, TRP_LATN, Origin(origin)))
        with span("pipeline.concat"):
            raw = concat(ingested, name="raw")
        with span("pipeline.dedup"):
            deduped, removed = dedup(raw, key="both")
        with span("pipeline.filter_length"):
            pool = filter_length(deduped, 1, FILTER_MAX_WORDS)
        with span("pipeline.detect_swapped"):
            swapped = detect_swapped_rows(pool)
            pool = swap_rows(pool, swapped)
        with span("pipeline.split"):
            splits = split(pool, SPLIT_SPEC)
        with span("pipeline.verify_overlap"):
            overlap = verify_overlap(splits["train"], [splits["dev"], splits["test"]])
        with span("quality.score_pairs"):
            scored = score_pairs(splits["train"], embedder)
        scores = [p.score for p in scored]
        with span("quality.analysis"):
            analysis_report(scores, THRESHOLDS, histogram_path="histogram.csv")
            histogram_csv(scores)
        with span("quality.stratified_sample"):
            sample = stratified_sample(scored, BANDS, PER_BAND, seed=SPLIT_SPEC.seed)
        with span("quality.filter_by_threshold"):
            kept, dropped = filter_by_threshold(scored, KEEP_THRESHOLD)
        with span("pipeline.flip_concat"):
            export = flip_concat(kept)
        with span("corpus.write"):
            write(export, workdir / "train.jsonl", "jsonl")
            write(splits["dev"], workdir / "dev.tsv", "tsv")
            write(splits["test"], workdir / "test.tsv", "tsv")
    seconds = perf_counter() - start
    after = stub.stats()

    fail: list[str] = []

    def expect(ok: bool, what: str) -> None:
        if not ok:
            fail.append(what)

    for corpus, (name, rows) in zip(ingested, inp.rows.items()):
        expect(len(corpus) == rows - inp.malformed[name], f"{name}: ingested {len(corpus)} rows")
    expect(removed == inp.duplicates, f"dedup removed {removed}, expected {inp.duplicates}")
    expect(len(pool) == inp.filtered_pool, f"filtered pool {len(pool)}, expected {inp.filtered_pool}")
    expect(set(swapped) == inp.swapped_ids, f"{len(swapped)} rows detected as swapped")
    split_ids = [c.ids() for c in splits.values()]
    expect(sum(map(len, split_ids)) == len(pool), "split sizes do not add up to the pool")
    expect(set().union(*split_ids) == pool.ids(), "splits do not partition the filtered pool")
    expect(overlap.passed, f"verify_overlap found {len(overlap.collisions)} collisions")
    expect(all(s is not None and -1.0 <= s <= 1.0 for s in scores), "a score is missing or outside [-1, 1]")
    by_id = {p.id: p.score for p in scored}
    kept_prescore = sum(1 for pid, s in inp.prescored.items() if by_id.get(pid) == s)
    expect(kept_prescore == len(inp.prescored), f"{kept_prescore} of {len(inp.prescored)} pre-scores kept")
    expect(len(kept) + len(dropped) == len(scored), "threshold filter lost pairs")
    expect(len(export) == 2 * len(kept), "flip_concat did not double the kept pairs")
    lines = (workdir / "train.jsonl").read_bytes().count(b"\n")
    expect(lines == len(export), f"train.jsonl has {lines} lines for {len(export)} pairs")
    for band in sample.bands:
        expect(all(band.low <= p.score < band.high for p in band.pairs), f"sample band {band.label} leaks")

    todo = [p for p in splits["train"] if p.score is None]
    sent_texts = [p.source_text for p in todo] + [p.target_text for p in todo]
    requests = after["requests"] - before["requests"]
    texts = after["texts"] - before["texts"]
    batches = math.ceil(len(todo) / EMBED_BATCH)
    return OpResult(
        seconds=seconds,
        pairs=inp.total_rows,
        failures=fail,
        digests={
            "inputs": inp.digest(),
            "splits": _sha(f"{name}\t{pid}" for name, c in splits.items() for pid in sorted(c.ids())),
            "scores": _sha(f"{p.id}\t{p.score:.12f}" for p in sorted(scored, key=lambda p: p.id)),
        },
        counts={
            "corpus.ingest_rows": sum(map(len, ingested)),
            "corpus.malformed_rows": inp.total_rows - sum(map(len, ingested)),
            "pipeline.dedup_removed": removed,
            "pipeline.swapped_rows": len(swapped),
            "quality.embed_requests": requests,
            "quality.embed_texts": texts,
            "quality.embed_retries": requests - 2 * batches,
            "quality.distinct_text_ratio": len(set(sent_texts)) / texts if texts else 1.0,
            "quality.prescored_skipped": kept_prescore,
        },
    )


def _check_report(report: MetricReport) -> list[str]:
    fail = []
    for name, value, high in (
        ("bleu", report.bleu, 100.0),
        ("chrf", report.chrf, 100.0),
        ("rouge_l", report.rouge_l, 1.0),
        ("meteor", report.meteor, 1.0),
        ("bp", report.bp, 1.0),
    ):
        if not 0.0 <= value <= high:
            fail.append(f"{name} {value} outside [0, {high}]")
    if not all(0.0 <= p <= 100.0 for p in report.precisions):
        fail.append(f"precisions {report.precisions} outside [0, 100]")
    if not (report.ter >= 0.0 and math.isfinite(report.ter)):
        fail.append(f"ter {report.ter} is negative or not finite")
    if report.signature != SIGNATURE:
        fail.append(f"signature {report.signature!r} is not {SIGNATURE!r}")
    return fail


def eval_op(inp: EvalInput) -> OpResult:
    """One evaluate_corpus call over the operation's segments."""
    start = perf_counter()
    report = evaluate_corpus(inp.hyps, inp.refs)
    seconds = perf_counter() - start
    text = report.to_json()
    return OpResult(
        seconds=seconds,
        pairs=len(inp.refs),
        failures=_check_report(report),
        digests={"inputs": inp.digest(), "report": _sha([text])},
        report=text,
    )


def eval_op_traced(inp: EvalInput, tracer) -> OpResult:
    """evaluate_corpus's steps called layer by layer, each inside a span.

    The report it assembles must equal evaluate_corpus's report on the same
    input; the caller compares the two.
    """
    span = tracer.span
    hyps, refs = inp.hyps, inp.refs
    start = perf_counter()
    with span("eval"):
        with span("metrics.tokenizer"):
            hyp_tok = [tokenize_13a(h) for h in hyps]
            ref_tok = [tokenize_13a(r) for r in refs]
        with span("metrics.bleu"):
            stats = BleuStats.zero()
            for h, r in zip(hyp_tok, ref_tok):
                stats = stats + sentence_stats(h, r)
            bleu, precisions, bp = bleu_from_stats(stats)
        with span("metrics.ter"):
            edits = ref_len = 0
            for h, r in zip(hyp_tok, ref_tok):
                with span("metrics.ter.segment"):
                    e, _ = ter_sentence(h, r)
                edits += e
                ref_len += len(r)
        with span("metrics.chrf"):
            chrf_score = chrf(hyps, refs)
        with span("metrics.rouge_l"):
            rouge = rouge_l_corpus(hyp_tok, ref_tok)
        with span("metrics.meteor"):
            meteor = meteor_corpus(hyp_tok, ref_tok)
        report = MetricReport(
            bleu=bleu,
            precisions=precisions,
            bp=bp,
            chrf=chrf_score,
            ter=edits / ref_len * 100.0,
            rouge_l=rouge,
            meteor=meteor,
            signature=SIGNATURE,
        )
    seconds = perf_counter() - start

    # Kernel timings sit outside the timed operation: one call of each kernel
    # per hyp/ref token pair.
    pairs = [(h.tokens, r.tokens) for h, r in zip(hyp_tok, ref_tok)]
    with span("metrics.kernels.levenshtein"):
        for a, b in pairs:
            levenshtein(a, b)
    with span("metrics.kernels.lcs"):
        for a, b in pairs:
            lcs_length(a, b)
    text = report.to_json()
    return OpResult(
        seconds=seconds,
        pairs=len(refs),
        failures=_check_report(report),
        digests={"inputs": inp.digest(), "report": _sha([text])},
        counts={
            "metrics.kernels.calls": len(pairs),
            "metrics.kernels.cells": sum(len(a) * len(b) for a, b in pairs),
        },
        report=text,
    )

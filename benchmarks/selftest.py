"""Tests of the benchmark itself: generator, embedding stub and output checks.

Run from the repository root:

    python3 -m pytest benchmarks/selftest.py -q
"""

from __future__ import annotations

import http.client
import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import gen  # noqa: E402
import stub  # noqa: E402
import workloads  # noqa: E402
from lrmt.corpus import Origin  # noqa: E402
from lrmt.metrics import evaluate_corpus, tokenize_13a  # noqa: E402
from lrmt.pipeline import SplitEntry, SplitSpec  # noqa: E402
from run import StubProcess  # noqa: E402
from spans import NullTracer, Tracer, self_times  # noqa: E402


@pytest.fixture
def small_build(monkeypatch):
    monkeypatch.setattr(gen, "SMOL_ROWS", 1000)
    monkeypatch.setattr(gen, "GATITOS_ROWS", 800)
    monkeypatch.setattr(gen, "SYNTH_ROWS", 800)
    spec = SplitSpec(
        seed="bench",
        entries=(SplitEntry("dev", 50, Origin("smolsent")), SplitEntry("test", 50, Origin("synthetic"))),
    )
    monkeypatch.setattr(workloads, "SPLIT_SPEC", spec)


@pytest.fixture(scope="module")
def stub_port():
    with StubProcess() as port:
        yield port


def test_generator_same_seed_same_bytes(small_build):
    a = gen.build_input(7, 0, gen.Vocab(7))
    b = gen.build_input(7, 0, gen.Vocab(7))
    assert a.files == b.files and a.digest() == b.digest()
    for workload in ("eval-short", "eval-long"):
        x = gen.eval_input(7, workload, 0, gen.Vocab(7))
        y = gen.eval_input(7, workload, 0, gen.Vocab(7))
        assert (x.hyps, x.refs) == (y.hyps, y.refs)


def test_generator_other_seed_or_operation_other_bytes(small_build):
    base = gen.build_input(7, 0, gen.Vocab(7)).digest()
    assert gen.build_input(8, 0, gen.Vocab(8)).digest() != base
    assert gen.build_input(7, 1, gen.Vocab(7)).digest() != base
    for workload in ("eval-short", "eval-long"):
        x = gen.eval_input(7, workload, 0, gen.Vocab(7)).digest()
        assert gen.eval_input(8, workload, 0, gen.Vocab(8)).digest() != x
        assert gen.eval_input(7, workload, 1, gen.Vocab(7)).digest() != x


def test_generator_counts_do_not_depend_on_seed(small_build):
    a = gen.build_input(1, 0, gen.Vocab(1))
    b = gen.build_input(2, 0, gen.Vocab(2))
    assert a.rows == b.rows and a.malformed == b.malformed
    assert a.duplicates == b.duplicates and a.filtered_pool == b.filtered_pool
    assert len(a.swapped_ids) == len(b.swapped_ids) and len(a.prescored) == len(b.prescored)
    assert a.properties == b.properties


def test_eval_reference_lengths_are_tokenizer_tokens():
    inp = gen.eval_input(3, "eval-short", 0, gen.Vocab(3))
    assert sorted(len(tokenize_13a(r)) for r in inp.refs) == sorted(gen.EVAL_SHORT_LENGTHS)
    inp = gen.eval_input(3, "eval-long", 0, gen.Vocab(3))
    assert [len(tokenize_13a(r)) for r in inp.refs] == list(gen.EVAL_LONG_LENGTHS)


def _embed(port: int, texts: list[str]) -> dict:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("POST", "/embed", body=json.dumps({"texts": texts}), headers={"Content-Type": "application/json"})
        return json.loads(conn.getresponse().read())
    finally:
        conn.close()


def test_stub_is_deterministic_and_counts(stub_port):
    assert stub.vector("water") == stub.vector("water")
    assert stub.vector("water") != stub.vector("fire")
    assert all(-1.0 <= x < 1.0 for x in stub.vector("water")) and len(stub.vector("x")) == stub.DIM
    before = workloads.StubClient(stub_port).stats()
    body = _embed(stub_port, ["water", "fire", "water"])
    assert body["vectors"] == [stub.vector("water"), stub.vector("fire"), stub.vector("water")]
    assert body["dim"] == stub.DIM
    after = workloads.StubClient(stub_port).stats()
    assert after == {"requests": before["requests"] + 1, "texts": before["texts"] + 3}
    # a second stub process answers the same vectors
    with StubProcess() as other:
        assert _embed(other, ["water"])["vectors"] == [stub.vector("water")]


def test_stub_process_is_stopped():
    ctx = StubProcess()
    ctx.__enter__()
    ctx.__exit__()
    assert ctx.proc.poll() is not None


def test_build_checks_pass_then_catch_perturbed_expectations(small_build, stub_port, tmp_path):
    inp = gen.build_input(5, 0, gen.Vocab(5))
    ok = workloads.build_op(inp, tmp_path, workloads.StubClient(stub_port), NullTracer())
    assert ok.failures == []
    assert ok.counts["quality.embed_retries"] == 0
    assert ok.counts["quality.prescored_skipped"] == len(inp.prescored)

    perturbed = replace(inp, duplicates=inp.duplicates + 1, swapped_ids=inp.swapped_ids - {min(inp.swapped_ids)})
    bad = workloads.build_op(perturbed, tmp_path, workloads.StubClient(stub_port), NullTracer())
    assert any("dedup removed" in f for f in bad.failures)
    assert any("swapped" in f for f in bad.failures)
    assert bad.digests["splits"] == ok.digests["splits"]


def test_report_check_catches_out_of_range_and_wrong_signature():
    report = evaluate_corpus(["the cat sat"], ["the cat sat down"])
    assert workloads._check_report(report) == []
    assert workloads._check_report(replace(report, bleu=150.0))
    assert workloads._check_report(replace(report, ter=-1.0))
    assert workloads._check_report(replace(report, signature="BLEU|other"))


def test_traced_eval_reproduces_evaluate_corpus_and_digest_sees_changes():
    inp = gen.eval_input(4, "eval-short", 0, gen.Vocab(4))
    inp = gen.EvalInput(hyps=inp.hyps[:60], refs=inp.refs[:60])
    plain = workloads.eval_op(inp)
    tracer = Tracer()
    traced = workloads.eval_op_traced(inp, tracer)
    assert traced.report == plain.report and traced.failures == []
    times = self_times(tracer.spans, 0)
    assert {"metrics.tokenizer", "metrics.ter.segment", "metrics.meteor"} <= set(times)
    assert all(t >= 0.0 for t in times.values())

    changed = gen.EvalInput(hyps=[inp.hyps[0] + " extra"] + inp.hyps[1:], refs=inp.refs)
    assert workloads.eval_op(changed).digests["report"] != plain.digests["report"]


def test_run_exits_nonzero_without_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "build", "--seed", "0", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""

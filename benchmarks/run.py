"""lrmt benchmark: closed-loop workloads with one caller, end to end and per layer.

Run from the repository root:

    python3 benchmarks/run.py --workload build --seed 0 --seconds 35 --trace 0

Workloads (inputs come from gen.py, seeded by --seed, fresh for every
operation so nothing is served twice):

- ``build``: ingest of three raw files (about 20k rows) through write, scoring
  against the embedding stub in stub.py. Runs every corpus, pipeline and
  quality path, the resume path beside fresh scoring, and no metric.
- ``eval-short``: evaluate_corpus on 1,000 segments of 1-10 tokens. Many cheap
  calls, where per-call overhead shows and TER's shift search is shallow.
- ``eval-long``: evaluate_corpus on 3 segments of 16, 23 and 30 tokens. TER's
  shift search and the per-cell kernel cost are nearly all of the run.

With ``--trace 0`` the run repeats the operation for --seconds and reports the
end-to-end metrics: ``pairs_per_s``, the pairs of all operations over their
summed time (a pair is a raw row for build, a hyp/ref segment for the eval
workloads); ``setup_s``, the median over SETUP_REPEATS fresh interpreters of
the time to start, import lrmt and do its first-call work; and
``peak_rss_mb``, this process's peak resident memory. With ``--trace 1`` it
alternates an untraced and a traced operation on the same input and reports
the per-layer metrics, read from the traced operations' spans, plus the
tracing overhead. The last line of standard output is one JSON object; a full
run record (metadata, input properties, digests and, when traced, every span)
is written to ``.bench_run/`` in the current directory.

Outputs are checked on every operation; with seed 0 the first operation's
digests must also equal those in expected.json. A failed check or a raised
exception counts the operation as failed.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import gen
from spans import NullTracer, Tracer, durations, self_times

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("build", "eval-short", "eval-long")
DEFAULT_SEED = 0
SETUP_REPEATS = 7

# Import lrmt and do its first-call lazy work: the stopword list, and the JIT
# compile of the edit-distance kernels when numba is present.
_SETUP_CODE = """\
import sys
sys.path.insert(0, {src!r})
import lrmt.pipeline, lrmt.quality, lrmt.metrics
lrmt.pipeline.load_stopwords()
lrmt.metrics.levenshtein(("a", "b"), ("b", "c"))
lrmt.metrics.lcs_length(("a", "b"), ("b", "c"))
"""

# Spans whose per-operation self time is reported as "<span>_s".
PER_LAYER_SPANS = (
    "corpus.ingest",
    "corpus.write",
    "pipeline.dedup",
    "pipeline.filter_length",
    "pipeline.detect_swapped",
    "pipeline.split",
    "pipeline.verify_overlap",
    "pipeline.flip_concat",
    "quality.score_pairs",
    "quality.analysis",
    "quality.stratified_sample",
    "metrics.tokenizer",
    "metrics.bleu",
    "metrics.chrf",
    "metrics.rouge_l",
    "metrics.meteor",
)
PER_LAYER_COUNTS = (
    "corpus.ingest_rows",
    "corpus.malformed_rows",
    "pipeline.dedup_removed",
    "pipeline.swapped_rows",
    "quality.embed_requests",
    "quality.embed_texts",
    "quality.embed_retries",
    "quality.distinct_text_ratio",
    "quality.prescored_skipped",
    "metrics.kernels.cells",
)


def measure_setup(src: Path) -> list[float]:
    """Seconds from starting a fresh interpreter to the end of lrmt's set-up,
    once per repeat; each child is waited for before the next starts."""
    code = _SETUP_CODE.format(src=str(src)) + "print('ready', flush=True)\n"
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            times.append(perf_counter() - start)
        finally:
            proc.stdout.close()
            proc.wait(timeout=60)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up child failed with exit code {proc.returncode}")
    return times


class StubProcess:
    """The embedding stub as a child process, stopped and waited for on exit."""

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "stub.py")], stdout=subprocess.PIPE, text=True
        )
        line = self.proc.stdout.readline().split()
        if len(line) != 2 or line[0] != "port":
            self.__exit__()
            raise RuntimeError("embedding stub did not report its port")
        return int(line[1])

    def __exit__(self, *exc) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = root / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "lrmt" / "__init__.py").is_file():
        print(f"error: {src}/lrmt not found; run from the repository root", file=sys.stderr)
        return 2

    setup_times = measure_setup(src)
    exec(_SETUP_CODE.format(src=str(src)), {})
    import lrmt
    import numpy
    from lrmt.metrics import BACKEND, SIGNATURE

    if Path(lrmt.__file__).resolve().parent != (src / "lrmt").resolve():
        print(f"error: imported lrmt from {lrmt.__file__}, not {src}", file=sys.stderr)
        return 2
    # The stub is local; no proxy from the environment may stand in between.
    os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"
    # Malformed rows are logged by ingest on purpose; keep them off stderr.
    logging.getLogger("lrmt").addHandler(logging.NullHandler())

    import workloads

    expected = json.loads((BENCH_DIR / "expected.json").read_text())
    vocab = gen.Vocab(args.seed)
    run_dir = root / ".bench_run"
    run_dir.mkdir(exist_ok=True)
    tracer = Tracer() if args.trace else None

    untraced: list = []
    traced: list = []
    overhead: list[float] = []  # traced / untraced seconds, same input
    failed = 0
    first_digests: dict | None = None
    properties: dict = {}

    def attempt(op: int, fn, *fn_args):
        nonlocal failed
        try:
            result = fn(*fn_args)
        except Exception:
            traceback.print_exc()
            failed += 1
            return None
        if result.failures:
            print(f"operation {op}: " + "; ".join(result.failures), file=sys.stderr)
            failed += 1
        return result

    def build(op: int, inp, stub, tr):
        with tempfile.TemporaryDirectory(dir=run_dir) as tmp:
            return attempt(op, workloads.build_op, inp, Path(tmp), stub, tr)

    def one_op(op: int, stub) -> None:
        nonlocal failed, first_digests, properties
        if args.workload == "build":
            inp = gen.build_input(args.seed, op, vocab)
            plain = build(op, inp, stub, NullTracer())
        else:
            inp = gen.eval_input(args.seed, args.workload, op, vocab)
            plain = attempt(op, workloads.eval_op, inp)
        if op == 0:
            properties = inp.properties
            first_digests = plain.digests if plain else None
        if plain is not None:
            untraced.append(plain)
        if tracer is None:
            return
        tracer.op = op
        if args.workload == "build":
            t = build(op, inp, stub, tracer)
        else:
            t = attempt(op, workloads.eval_op_traced, inp, tracer)
            if t is not None and plain is not None and t.report != plain.report:
                print(f"operation {op}: per-layer report differs from evaluate_corpus", file=sys.stderr)
                failed += 1
        if t is not None:
            traced.append(t)
            if plain is not None:
                overhead.append(t.seconds / plain.seconds)

    def loop(stub) -> int:
        # Stop before an operation that would likely end past the deadline,
        # judged by the previous one; the first operation always runs.
        deadline = perf_counter() + args.seconds
        op = 0
        while True:
            started = perf_counter()
            one_op(op, stub)
            op += 1
            now = perf_counter()
            if now + (now - started) > deadline:
                return op

    if args.workload == "build":
        with StubProcess() as port:
            ops = loop(workloads.StubClient(port))
    else:
        ops = loop(None)
    attempted = ops * (2 if args.trace else 1)

    if args.seed == DEFAULT_SEED:
        want = expected[args.workload]
        if first_digests != want:
            print(f"digests of operation 0 {first_digests} differ from expected.json {want}", file=sys.stderr)
            failed += 1

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    plain_seconds = sum(r.seconds for r in untraced)
    pairs_per_s = sum(r.pairs for r in untraced) / plain_seconds if plain_seconds else 0.0
    units = {}
    if not args.trace:
        metrics = {
            "setup_s": median(setup_times),
            "pairs_per_s": pairs_per_s,
            "peak_rss_mb": peak_rss_mb,
        }
        units = {"setup_s": "s", "pairs_per_s": "pairs/s", "peak_rss_mb": "MiB"}
    else:
        metrics, units = per_layer(tracer, traced, overhead)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {
            "platform": platform.platform(),
            "machine": platform.machine(),
            "processor": platform.processor(),
            "nproc": len(os.sched_getaffinity(0)),
        },
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "lrmt": lrmt.__version__,
        "kernel_backend": BACKEND,
        "signature": SIGNATURE,
        "git_commit": git_commit(root),
        "input_properties": properties,
        "digests_op0": first_digests,
        "setup_s_samples": setup_times,
        "op_seconds": [r.seconds for r in untraced],
        "traced_op_seconds": [r.seconds for r in traced],
        "error_rate": failed / attempted,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }
    if tracer is not None:
        record["self_seconds_per_op"] = [self_times(tracer.spans, op) for op in range(ops)]
        record["spans"] = tracer.spans
    out = run_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  operations {attempted}  kernel {BACKEND}")
    for name, value in metrics.items():
        print(f"{name:34s} {value:.6g} {units[name]}")
    print(f"{'error_rate':34s} {failed / attempted:.6g} fraction")
    print(f"run record: {out.relative_to(root)}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
            }
        )
    )
    return 0


def per_layer(tracer: Tracer, traced: list, overhead: list[float]):
    """Per-layer metrics: the median over traced operations of each layer's
    time per operation, the counts, TER per segment and the tracing overhead."""
    ops = sorted({s["op"] for s in tracer.spans})
    per_op = [self_times(tracer.spans, op) for op in ops]
    metrics: dict[str, float] = {}
    units: dict[str, str] = {}
    for span in PER_LAYER_SPANS:
        metrics[f"{span}_s"] = median([t.get(span, 0.0) for t in per_op])
        units[f"{span}_s"] = "s"
    # TER's segments are its children, so its time is the inclusive one.
    metrics["metrics.ter_s"] = median([sum(durations(tracer.spans, op, "metrics.ter")) for op in ops])
    units["metrics.ter_s"] = "s"
    segments = [d for op in ops for d in durations(tracer.spans, op, "metrics.ter.segment")]
    metrics["metrics.ter_segment_p50_ms"] = median(segments) * 1e3
    metrics["metrics.ter_segment_max_ms"] = max(segments, default=0.0) * 1e3
    units["metrics.ter_segment_p50_ms"] = units["metrics.ter_segment_max_ms"] = "ms"
    for kernel in ("levenshtein", "lcs"):
        name = f"metrics.kernels.{kernel}_us"
        calls = sum(r.counts.get("metrics.kernels.calls", 0) for r in traced)
        total = sum(sum(durations(tracer.spans, op, f"metrics.kernels.{kernel}")) for op in ops)
        metrics[name] = total / calls * 1e6 if calls else 0.0
        units[name] = "us"
    for name in PER_LAYER_COUNTS:
        metrics[name] = median([r.counts.get(name, 0) for r in traced])
        units[name] = "ratio" if name.endswith("ratio") else "count"
    metrics["trace.overhead_pct"] = (median(overhead) - 1.0) * 100.0 if overhead else 0.0
    units["trace.overhead_pct"] = "%"
    return metrics, units


if __name__ == "__main__":
    sys.exit(main())

"""Alternating-pairs comparison of two commits on benchmarks/run.py.

Each side is exported with `git archive` into its own temporary directory, and
`python3 benchmarks/run.py` runs from that directory's root, so both sides
run their committed files from fresh checkouts of the same shape. Pair p runs
the parent first when p is odd and the change first when it is even. After
the untraced pairs, one traced run per side records the per-layer metrics.

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD \\
        --what "what the change does" --out BENCH_name.json \\
        --workloads eval-long eval-short build --pairs 10 --seconds 35

Options --extra-seed and --extra-pairs add pairs on one more seed, for each
workload. The output is one JSON object:

- "end_to_end": per "<workload> seed <seed>", the pair count, whether every
  run passed its checks, the failed operations per side, each side's run
  start times (Unix seconds, in pair order) and, per end-to-end metric, each
  side's runs with their median and quartiles (statistics.quantiles, n=4),
  each pair's change / parent ratio with its median and quartiles, the pairs
  the change won and the ties. The machine's speed can drift within a
  series; the two runs of a pair are adjacent in time, so the ratios show a
  difference that the per-side quartiles blur;
- "per_layer_traced": per "<workload> seed <seed>", each side's per-layer
  metrics from its traced run.

Stdlib only; reads git and runs the benchmark, nothing else.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
END_TO_END = {"pairs_per_s": "higher", "peak_rss_mb": "lower", "setup_s": "lower"}
SIDES = ("parent", "change")


def export(rev: str, dest: Path) -> str:
    """Write the files of `rev` under `dest`; return its full commit id."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        cwd=REPO, check=True, capture_output=True, text=True,
    ).stdout.strip()
    tar = subprocess.run(["git", "archive", commit], cwd=REPO, check=True, capture_output=True)
    with tarfile.open(fileobj=io.BytesIO(tar.stdout)) as archive:
        archive.extractall(dest, filter="data")
    return commit


def run(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run; its last output line, plus the run record's signature
    and the run's start time."""
    started = time.time()
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{root}: run.py exited {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    record = root / ".bench_run" / f"{workload}-seed{seed}-trace{trace}.json"
    result["signature"] = json.loads(record.read_text())["signature"]
    result["started"] = started
    return result


def summary(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4) if len(runs) > 1 else runs * 3
    return {"median": median, "q1": q1, "q3": q3, "runs": runs}


def compare(units: dict, per_side: dict, metric: str, better: str) -> dict:
    parent = [r["metrics"][metric]["value"] for r in per_side["parent"]]
    change = [r["metrics"][metric]["value"] for r in per_side["change"]]
    wins = sum((c > p) if better == "higher" else (c < p) for p, c in zip(parent, change))
    return {
        "unit": units[metric],
        "better": better,
        "parent": summary(parent),
        "change": summary(change),
        "ratio": summary([c / p for p, c in zip(parent, change)]),
        "change_wins": wins,
        "ties": sum(p == c for p, c in zip(parent, change)),
    }


def pairs(roots: dict, workload: str, seed: int, count: int, seconds: float) -> dict:
    per_side = {side: [] for side in SIDES}
    for p in range(1, count + 1):
        for side in SIDES if p % 2 else SIDES[::-1]:
            per_side[side].append(run(roots[side], workload, seed, seconds, 0))
        print(f"{workload} seed {seed} pair {p}/{count}", file=sys.stderr, flush=True)
    units = {name: m["unit"] for name, m in per_side["change"][0]["metrics"].items()}
    return {
        "seed": seed,
        "pairs": count,
        "seconds": seconds,
        "correct": all(r["correct"] for side in SIDES for r in per_side[side]),
        "failed_ops": {side: sum(r["failed"] for r in per_side[side]) for side in SIDES},
        "started": {side: [r["started"] for r in per_side[side]] for side in SIDES},
        "metrics": {m: compare(units, per_side, m, better) for m, better in END_TO_END.items()},
        "signature": per_side["change"][0]["signature"],
    }


def traced(roots: dict, workload: str, seed: int, seconds: float) -> dict:
    out = {"seconds": seconds}
    results = {side: run(roots[side], workload, seed, seconds, 1) for side in SIDES}
    for side in SIDES:
        out[side] = {name: m["value"] for name, m in results[side]["metrics"].items()}
    out["correct"] = all(r["correct"] for r in results.values())
    return out


def _count(text: str) -> int:
    """A pair count for argparse: an int of at least 1, since a side with no
    runs has nothing to summarise."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--change", default="HEAD", help="git revision of the change")
    parser.add_argument("--what", required=True, help="one line: what the change does")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workloads", nargs="+", default=["eval-long", "eval-short", "build"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=_count, default=10)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace-seconds", type=float, default=15)
    parser.add_argument("--extra-seed", type=int)
    parser.add_argument("--extra-pairs", type=_count, default=4)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        roots = {side: Path(tmp) / side for side in SIDES}
        commits = {side: export(getattr(args, side), roots[side]) for side in SIDES}
        end_to_end, per_layer = {}, {}
        signature = None
        for workload in args.workloads:
            runs = [(args.seed, args.pairs)]
            if args.extra_seed is not None:
                runs.append((args.extra_seed, args.extra_pairs))
            for seed, count in runs:
                result = pairs(roots, workload, seed, count, args.seconds)
                signature = result.pop("signature")
                end_to_end[f"{workload} seed {seed}"] = result
            per_layer[f"{workload} seed {args.seed}"] = traced(
                roots, workload, args.seed, args.trace_seconds
            )

    record = {
        "what": args.what,
        "command": "python3 benchmarks/run.py --workload <w> --seed <seed> --seconds <s> --trace <t>",
        "protocol": "alternating pairs, parent first in odd pairs and change first in even pairs; "
        "quartiles are statistics.quantiles(runs, n=4); a pair is won when the change reads better; "
        "a ratio is change / parent within one pair",
        "machine": {
            "platform": platform.platform(),
            "machine": platform.machine(),
            "processor": platform.processor(),
            "nproc": len(os.sched_getaffinity(0)),
        },
        "python": platform.python_version(),
        "parent_commit": commits["parent"],
        "change_commit": commits["change"],
        "signature": signature,
        "end_to_end": end_to_end,
        "per_layer_traced": per_layer,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

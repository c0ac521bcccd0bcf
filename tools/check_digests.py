"""Compare the benchmark's seed-0 eval digests with benchmarks/expected.json
under the running interpreter. Needs neither pytest nor numpy, so it runs on
any Python that lrmt supports:

    python3 tools/check_digests.py

Prints one line per eval workload and exits 1 if a digest differs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "benchmarks"
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gen  # noqa: E402
import workloads  # noqa: E402
from run import DEFAULT_SEED  # noqa: E402

WORKLOADS = ("eval-short", "eval-long")


def expected(workload: str) -> dict:
    """The digests benchmarks/expected.json holds for `workload`."""
    return json.loads((BENCH / "expected.json").read_text())[workload]


def op0_digests(workload: str) -> dict:
    """Input and report digests of operation 0 of `workload` at the default seed."""
    inp = gen.eval_input(DEFAULT_SEED, workload, 0, gen.Vocab(DEFAULT_SEED))
    return workloads.eval_op(inp).digests


def main() -> int:
    differ = 0
    for workload in WORKLOADS:
        match = op0_digests(workload) == expected(workload)
        differ += not match
        print(f"Python {sys.version.split()[0]} {workload}: {'match' if match else 'DIFFER'}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's seed-0 eval reports still hash to benchmarks/expected.json.

A benchmark run compares these digests too, but only when it runs; here a
change that moves a metric's last digit fails tier-1. tools/check_digests.py
computes them, and also runs alone on an interpreter without pytest. Each
digest is checked twice: with the running Python's sum(), and with a stand-in
that compensates float additions as sum() does from Python 3.12 on
(Neumaier), so the scores cannot depend on which of the two sum() behaviours
the interpreter has.
"""

import builtins
import importlib.util
import math
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "check_digests.py"
_SPEC = importlib.util.spec_from_file_location("check_digests", _PATH)
check_digests = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_digests)
_builtin_sum = builtins.sum


def compensated_sum(iterable, /, start=0):
    """sum() as Python 3.12 computes it for floats: Neumaier's compensated
    summation, the compensation added once at the end. Anything but a
    non-empty run of floats is summed by the builtin."""
    items = list(iterable)
    if not (items and type(start) in (int, float) and all(type(x) is float for x in items)):
        return _builtin_sum(items, start)
    result, c = start + items[0], 0.0
    for x in items[1:]:
        t = result + x
        c += (result - t) + x if abs(result) >= abs(x) else (x - t) + result
        result = t
    return result + c if c and math.isfinite(c) else result


def test_compensated_sum_compensates_floats_only():
    assert compensated_sum([0.1] * 10) == 1.0
    assert compensated_sum([1e100, 1.0, -1e100]) == 1.0
    assert compensated_sum([2, 3]) == 5 and type(compensated_sum([2, 3])) is int
    assert compensated_sum([], 7) == 7
    assert compensated_sum([[1]], []) == [1]


@pytest.mark.parametrize("summation", ["builtin", "compensated"])
@pytest.mark.parametrize("workload", check_digests.WORKLOADS)
def test_seed0_eval_digests_match_expected(workload, summation, monkeypatch):
    if summation == "compensated":
        monkeypatch.setattr(builtins, "sum", compensated_sum)
    assert check_digests.op0_digests(workload) == check_digests.expected(workload)

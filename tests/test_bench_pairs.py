"""The pure parts of tools/bench_pairs.py, the script that writes the
committed BENCH_*.json records: per-side summaries, per-pair comparison and
argument checks. Nothing here runs git or the benchmark."""

import importlib.util
import statistics
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _runs(values, metric="m"):
    return [{"metrics": {metric: {"value": v}}} for v in values]


class TestSummary:
    def test_one_run(self):
        assert bench_pairs.summary([3.5]) == {"median": 3.5, "q1": 3.5, "q3": 3.5, "runs": [3.5]}

    @pytest.mark.parametrize("runs", [[1.0, 2.0], [5.0, 1.0, 4.0], [0.5, 9.0, 2.0, 7.5, 3.0, 3.0]])
    def test_quartiles(self, runs):
        q1, median, q3 = statistics.quantiles(runs, n=4)
        assert bench_pairs.summary(runs) == {"median": median, "q1": q1, "q3": q3, "runs": runs}


class TestCompare:
    PARENT = [100.0, 200.0, 50.0, 80.0]
    CHANGE = [110.0, 200.0, 40.0, 80.0]

    def compare(self, better):
        per_side = {"parent": _runs(self.PARENT), "change": _runs(self.CHANGE)}
        return bench_pairs.compare({"m": "pairs/s"}, per_side, "m", better)

    def test_higher_is_better(self):
        out = self.compare("higher")
        assert (out["unit"], out["better"]) == ("pairs/s", "higher")
        assert (out["change_wins"], out["ties"]) == (1, 2)

    def test_lower_is_better(self):
        out = self.compare("lower")
        assert (out["change_wins"], out["ties"]) == (1, 2)

    def test_ratio_within_each_pair(self):
        out = self.compare("higher")
        assert out["ratio"]["runs"] == [1.1, 1.0, 0.8, 1.0]
        assert out["parent"] == bench_pairs.summary(self.PARENT)
        assert out["change"] == bench_pairs.summary(self.CHANGE)


@pytest.mark.parametrize("option", ["--pairs", "--extra-pairs"])
@pytest.mark.parametrize("value", ["0", "-1", "two"])
def test_pair_counts_below_one_rejected(option, value, monkeypatch, tmp_path, capsys):
    def no_export(rev, dest):
        raise AssertionError("exported before the arguments were checked")

    monkeypatch.setattr(bench_pairs, "export", no_export)
    argv = ["--parent", "HEAD", "--what", "w", "--out", str(tmp_path / "b.json"), option, value]
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(argv)
    assert exit_info.value.code == 2
    assert option in capsys.readouterr().err

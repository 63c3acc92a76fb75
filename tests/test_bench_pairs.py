"""tools/bench_pairs.py's summary of alternating benchmark pairs, on made-up run results."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

DECLARED = [
    {"name": "throughput", "unit": "items/s", "better": "higher", "bound": 0.21},
    {"name": "latency_ms.p50", "unit": "ms", "better": "lower", "bound": 0.23},
]


def result(throughput: float, p50: float, correct: bool = True, failed: int = 0,
           attempted: int = 100) -> dict:
    """A run's last line as run.py prints it, reduced to the declared metrics."""
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": {
        "throughput": {"value": throughput, "unit": "items/s"},
        "latency_ms.p50": {"value": p50, "unit": "ms"},
    }}


def test_quartiles_inclusive_and_of_one_value():
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_summary_counts_wins_by_direction_and_checks_the_parent_iqr():
    pairs = [
        (result(100, 3.0), result(120, 1.5)),
        (result(104, 3.2), result(110, 1.6)),
        (result(108, 3.4), result(108, 3.4)),  # a tie wins nothing
        (result(112, 3.6), result(100, 3.8)),  # the parent wins both
    ]
    summary = bench_pairs.summarise(pairs, DECLARED)
    assert summary["pairs"] == 4 and summary["clean"]
    throughput, p50 = summary["metrics"]["throughput"], summary["metrics"]["latency_ms.p50"]
    assert throughput["won"] == 2 and p50["won"] == 2
    assert throughput["tied"] == 1 and p50["tied"] == 1
    assert throughput["parent"] == {"q1": 103.0, "median": 106.0, "q3": 109.0}
    assert throughput["change"]["median"] == 109.0
    assert not throughput["beyond_iqr"]  # +3 items/s against a parent IQR of 6
    assert p50["parent"]["median"] == pytest.approx(3.3) and p50["change"]["median"] == 2.5
    assert p50["beyond_iqr"]  # 0.8 ms lower against a parent IQR of 0.3


@pytest.mark.parametrize("bad", [{"correct": False}, {"failed": 1}])
def test_summary_is_not_clean_when_any_run_failed(bad):
    pairs = [(result(100, 3.0), result(120, 1.5)), (result(100, 3.0), result(120, 1.5, **bad))]
    assert not bench_pairs.summarise(pairs, DECLARED)["clean"]


def test_verdict_is_worse_beyond_the_bound_unresolved_in_a_wide_parent_spread_else_ok():
    steady = [100.0, 101.0, 99.0, 100.0, 100.0]
    verdict = bench_pairs.verdict
    # throughput (higher is better, bound 0.21): 25% down is beyond the bound, 15% down is not
    assert verdict(steady, [75.0, 76.0, 74.0, 75.0, 75.0], 1, 0.21) == "worse"
    assert verdict(steady, [85.0, 86.0, 84.0, 85.0, 85.0], 1, 0.21) == "ok"
    # latency (lower is better, bound 0.23): 30% up is worse, a faster change is ok
    assert verdict(steady, [130.0, 131.0, 129.0, 130.0, 130.0], -1, 0.23) == "worse"
    assert verdict(steady, [60.0, 61.0, 59.0, 60.0, 60.0], -1, 0.23) == "ok"
    # the parent's quartiles 70 and 130 lie 60 apart, wider than 0.21 * 100 = 21
    wide = [40.0, 70.0, 100.0, 130.0, 160.0]
    assert verdict(wide, [95.0, 100.0, 105.0, 110.0, 120.0], 1, 0.21) == "unresolved"
    # unless every change run beats every parent run
    assert verdict(wide, [170.0, 180.0, 190.0, 200.0, 210.0], 1, 0.21) == "ok"
    assert verdict(wide, [10.0, 20.0, 30.0, 35.0, 39.0], -1, 0.21) == "ok"
    # the bound sets the line: quartiles 22 apart exceed 0.21 * 100, quartiles 20 apart do not
    change = [96.0, 98.0, 100.0, 102.0, 104.0]
    assert verdict([75.0, 90.0, 100.0, 112.0, 125.0], change, 1, 0.21) == "unresolved"
    assert verdict([80.0, 90.0, 100.0, 110.0, 120.0], change, 1, 0.21) == "ok"
    # a median worse by more than the bound is worse even in a wide spread
    assert verdict(wide, [50.0, 60.0, 70.0, 75.0, 80.0], 1, 0.21) == "worse"


def test_summary_carries_each_metric_verdict():
    pairs = [(result(100 + i, 3.0), result(70 + i, 3.0)) for i in range(4)]
    metrics = bench_pairs.summarise(pairs, DECLARED)["metrics"]
    assert metrics["throughput"]["verdict"] == "worse"
    assert metrics["latency_ms.p50"]["verdict"] == "ok"  # tied on every pair


def test_peak_rss_is_printed_next_to_each_sides_median_item_count(tmp_path, monkeypatch, capsys):
    declared = [*DECLARED, {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1}]
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": declared}))
    # in run order: parent, change; change, parent; parent, change
    runs = iter([(100, 20.0, 1000), (120, 21.0, 1200), (118, 21.2, 1180), (104, 20.2, 1040),
                 (102, 20.1, 1020), (122, 21.4, 1220)])

    def run_once(checkout, workload, seed, seconds):
        throughput, rss, attempted = next(runs)
        run = result(throughput, 3.0, attempted=attempted)
        run["metrics"]["peak_rss_mb"] = {"value": rss, "unit": "MB"}
        return run

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    argv = ["--parent", str(tmp_path), "--change", str(tmp_path), "--workload", "walk", "--pairs", "3",
            "--seconds", "1"]
    assert bench_pairs.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    rss = next(line for line in lines if line.lstrip().startswith("peak_rss_mb"))
    assert rss.endswith("  attempted parent 1020 change 1200")
    assert not any("attempted" in line for line in lines[:-1] if line is not rss)
    assert json.loads(lines[-1])["attempted"] == {"parent": 1020, "change": 1200}


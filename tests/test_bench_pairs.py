"""tools/bench_pairs.py's summary of alternating benchmark pairs, on made-up run results."""

import importlib.util
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


def result(throughput: float, p50: float, correct: bool = True, failed: int = 0) -> dict:
    """A run's last line as run.py prints it, reduced to the declared metrics."""
    return {"correct": correct, "attempted": 100, "failed": failed, "metrics": {
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

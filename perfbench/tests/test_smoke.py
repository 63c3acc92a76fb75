"""Smoke test of the benchmark: every workload at a tiny size, traced and untraced.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from workloads import Analytic, Reduction  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "sweep": Reduction("sweep", ((101, ("zp", "mult", "ec"), None),), ledger_passes=1),
    "walk": Reduction("walk", ((16381, ("ec",), (1, 2, 3, 4)),), ledger_passes=1),
    "large-order": Reduction("large-order", ((1009, ("zp", "mult"), (12,)),), ledger_passes=1),
    "analytic": Analytic(records=3),  # two complete factorizations, one budget exhaustion
}


def run_main(monkeypatch, capsys, table, workload, trace):
    monkeypatch.setattr(workloads, "WORKLOADS", table)
    rc = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.05", "--trace", str(trace)])
    lines = capsys.readouterr().out.splitlines()
    return rc, lines, json.loads(lines[-1])


def test_workloads_match_spec():
    assert set(TINY) == set(workloads.WORKLOADS) == {w["name"] for w in SPEC["workloads"]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_metric_printed(monkeypatch, capsys, workload, trace):
    rc, lines, result = run_main(monkeypatch, capsys, TINY, workload, trace)
    assert rc == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.split()[:1] == [m["name"]] and f" {m['unit']} " in line
                   and f"({m['better']} is better)" in line for line in lines), m["name"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert any(line.startswith(f"perfbench: workload={workload} seed=3 ") for line in lines)


def corrupted(name, configs):
    """A workload whose first item expects the wrong x."""
    wl = Reduction(name, configs, ledger_passes=1)
    draw = wl.draw_pass

    def draw_pass(state, rng):
        items = draw(state, rng)
        group, handle, Q, d, x = items[0]
        items[0] = (group, handle, Q, d, x % (group.order - 1) + 1)
        return items

    wl.draw_pass = draw_pass
    return wl


def test_wrong_expected_x_is_counted_as_failure(monkeypatch, capsys):
    wl = corrupted("walk", ((16381, ("ec",), (2,)),))
    rc, lines, result = run_main(monkeypatch, capsys, {"walk": wl}, "walk", 0)
    assert rc == 1
    # every pass holds two items (x and its inverse), the first one corrupted
    assert result["correct"] is False and result["failed"] == result["attempted"] // 2 >= 1
    assert any(line.startswith("failure: ") and "expected" in line for line in lines)


def test_exception_in_item_is_counted_not_raised():
    wl = Reduction("walk", ((16381, ("zp",), (11,)),), ledger_passes=1)  # 11 does not divide p-1
    out = workloads.measure(wl, seed=0, seconds=0)
    assert out.attempted == 2 and len(out.failures) == 2
    assert all("InvalidDivisorError" in f for f in out.failures)


def test_failed_analytic_worker_ends_the_window(monkeypatch):
    def run_worker(job):
        if job["mode"] == "pass":
            raise RuntimeError("analytic worker exited 1")
        return {"ready": True}

    monkeypatch.setattr(workloads, "run_worker", run_worker)
    out = workloads.measure(Analytic(records=1), seed=0, seconds=1.0)
    assert out.passes == 1 and out.attempted == 1 and len(out.failures) == 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "walk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_scaled_samples_inside_long_calls():
    import calibration

    with calibration.Scaled() as timer:
        with timer.call():
            end = calibration.clock() + 0.3
            while calibration.clock() < end:
                pass
    # entry and exit samples, plus samples taken inside the call every SAMPLE_EVERY_S
    assert len(timer.refs) > 2
    assert len(timer.raw) == len(timer.times) == 1
    # the samples' own time is left out of the call's
    assert timer.raw[0] < 0.3 and timer.times[0] > 0

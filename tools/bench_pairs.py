"""Run the benchmark in a parent and a change checkout as alternating pairs, and compare them.

Usage, from anywhere:

    python3 tools/bench_pairs.py --parent <checkout> --change <checkout> \\
        --workload large-order --pairs 10 --seconds 10 --seed 11

Pair i runs `perfbench/run.py --seed <seed + i> --trace 0` once in each
checkout, one process at a time; even pairs run the parent first, odd pairs
the change. For every end-to-end metric of the change's BENCHMARK.json it
prints each side's median and quartiles, the pairs the change won and
those it tied (a ledger count tied on every pair did not move), whether
the change's median is better than the parent's by more than the
parent's quartile distance, and a regression verdict against the metric's
bound (see verdict). Next to peak_rss_mb it prints each side's median item
count (attempted), since a run's peak RSS grows with the items it holds.
The last line of standard output is the same summary as one JSON object.
The exit code is 0 when every run was correct with no failed item, 1
otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method; one value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(parent: list[float], change: list[float], sign: int, bound: float) -> str:
    """The regression rule for one metric, sign +1 when higher is better and -1 when lower is.

    "worse" when the change's median is worse than the parent's by more than
    bound times the parent's median; else "unresolved" when the parent's
    quartile distance exceeds that margin and not every change run beats
    every parent run; else "ok".
    """
    q1, median, q3 = quartiles(parent)
    margin = bound * abs(median)
    if sign * (quartiles(change)[1] - median) < -margin:
        return "worse"
    if q3 - q1 > margin and min(sign * v for v in change) <= max(sign * v for v in parent):
        return "unresolved"
    return "ok"


def summarise(pairs: list[tuple[dict, dict]], declared: list[dict]) -> dict:
    """Compare (parent, change) run results, each the JSON object run.py prints last.

    declared is BENCHMARK.json's end_to_end list. A pair is won when the
    change's value is strictly better than the parent's in the metric's
    better-direction, and tied when the two are equal. beyond_iqr holds when
    the change's median is better than the parent's by more than the
    parent's quartile distance. verdict applies the metric's declared bound.
    attempted is each side's median item count, against which a peak RSS
    that grows with the items a run holds can be read.
    """
    metrics = {}
    for spec in declared:
        name, sign = spec["name"], 1 if spec["better"] == "higher" else -1
        values = {side: [run["metrics"][name]["value"] for run in runs]
                  for side, runs in zip(SIDES, zip(*pairs))}
        stats = {side: dict(zip(("q1", "median", "q3"), quartiles(values[side]))) for side in SIDES}
        gain = sign * (stats["change"]["median"] - stats["parent"]["median"])
        metrics[name] = {
            **stats,
            "won": sum(sign * (new - old) > 0 for old, new in zip(values["parent"], values["change"])),
            "tied": sum(new == old for old, new in zip(values["parent"], values["change"])),
            "beyond_iqr": gain > stats["parent"]["q3"] - stats["parent"]["q1"],
            "verdict": verdict(values["parent"], values["change"], sign, spec["bound"]),
        }
    clean = all(run["correct"] and run["failed"] == 0 for pair in pairs for run in pair)
    attempted = {side: statistics.median(run["attempted"] for run in runs)
                 for side, runs in zip(SIDES, zip(*pairs))}
    return {"pairs": len(pairs), "clean": clean, "attempted": attempted, "metrics": metrics}


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in checkout; its last line of output, parsed."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{checkout}: no output (exit {done.returncode}): {done.stderr.strip()}")
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=0, help="pair i runs seed + i")
    args = parser.parse_args(argv)
    declared = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    pairs = []
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        runs = {side: run_once(getattr(args, side), args.workload, args.seed + i, args.seconds)
                for side in order}
        pairs.append((runs["parent"], runs["change"]))
        print(f"pair {i} seed {args.seed + i}: " + ", ".join(
            f"{side} {'ok' if runs[side]['correct'] else 'NOT CORRECT'}" for side in order), flush=True)
    summary = summarise(pairs, declared)
    print(f"{args.workload}: {len(pairs)} pairs at --seconds {args.seconds:g}, "
          f"every run correct with 0 failed: {summary['clean']}")
    counts = f"  attempted parent {summary['attempted']['parent']:g} change {summary['attempted']['change']:g}"
    for name, m in summary["metrics"].items():
        parent, change = m["parent"], m["change"]
        print(f"  {name:<30} parent {parent['median']:.6g} [{parent['q1']:.6g}, {parent['q3']:.6g}]"
              f"  change {change['median']:.6g} [{change['q1']:.6g}, {change['q3']:.6g}]"
              f"  won {m['won']}/{len(pairs)} tied {m['tied']}  {m['verdict']}"
              f"{'  beyond parent IQR' if m['beyond_iqr'] else ''}{counts if name == 'peak_rss_mb' else ''}")
    print(json.dumps({"workload": args.workload, "seconds": args.seconds, "seed": args.seed, **summary}))
    return 0 if summary["clean"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""dhpbound benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

With --trace 0 the run reports the end-to-end metrics of BENCHMARK.json;
with --trace 1 a traced run reports the per-layer ones. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics; the lines before it say the same for a reader, with each
metric's unit and better-direction. The exit code is 0 when every check
passed, 1 when a check failed and 2 when the benchmark could not start (for
example, when the package sources are missing).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"
SPANS_DIR = ROOT / ".perfbench"

workloads = tracing = None  # imported by main() once src/ is on the path


def import_package():
    """Import dhpbound from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import dhpbound

    if Path(dhpbound.__file__).resolve().parent != (src / "dhpbound").resolve():
        raise ImportError(f"dhpbound imported from {dhpbound.__file__}, not from {src}")


def peak_rss_mb() -> float:
    """Peak resident set of this process or of its largest child (analytic passes run there)."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it: (value, percentile)."""
    ordered = sorted(latencies) or [0.0]  # no latencies only when every pass failed
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(workload, seed: int, seconds: float):
    out = workloads.measure(workload, seed, seconds)
    tail_value, tail_pct = tail(out.latencies)
    metrics = {
        "setup_s": statistics.median(out.setup_s),
        "throughput": len(out.latencies) / out.busy if out.busy else 0.0,
        "latency_ms.p50": statistics.median(out.latencies or [0.0]) * 1e3,
        "latency_ms.tail": tail_value * 1e3,
        "peak_rss_mb": peak_rss_mb(),
        "ledger.group_ops_per_item": mean(g for g, _ in out.ledger),
        "ledger.oracle_calls_per_item": mean(c for _, c in out.ledger),
    }
    raw_p50 = statistics.median(out.raw_latencies or [0.0])
    notes = [
        f"items={len(out.latencies)} passes={out.passes} busy_s={out.busy:.3f} "
        f"setup_samples={len(out.setup_s)}",
        f"as measured, before scaling to the reference speed: busy_s={out.raw_busy:.3f} "
        f"raw.throughput={len(out.raw_latencies) / out.raw_busy if out.raw_busy else 0.0:.6g} "
        f"raw.latency_ms.p50={raw_p50 * 1e3:.6g}",
        f"latency_ms.tail is p{tail_pct:.2f} of n={len(out.latencies)} items",
        f"ledger sample: first {workload.ledger_passes} passes, {len(out.ledger)} priced items",
    ]
    return out, metrics, notes, True


def per_layer(workload, seed: int, seconds: float):
    """Untraced then traced window over the same items, plus the group-law microbenchmarks."""
    plain = workloads.measure(workload, seed, seconds / 2)
    tracer = tracing.Tracer()
    with tracer.installed():
        out = workloads.measure(workload, seed, seconds / 2, tracer)
    items = max(len(out.latencies), 1)

    def per_item(name, index):  # index 0: calls, 1: seconds, 2: self seconds
        return tracer.spans.get(name, (0, 0.0, 0.0))[index] / items

    def count(name):
        return tracer.counts.get(name, 0) / items

    def inside_items(counter):  # calls made inside the package, not by the benchmark itself
        return (tracer.calls_in(counter) - tracer.calls_in(counter, "-")) / items

    dh = tracer.samples.get("oracle.dh")
    metrics = {
        "oracle.dh.calls": per_item("oracle.dh", 0),
        "oracle.dh.s": per_item("oracle.dh", 1),
        "oracle.dh_us.p50": statistics.median(dh) * 1e6 if dh else 0.0,
        "oracle.solver_probes": tracer.calls_in("groups.encode", "oracle.dh") / items,
        "oracle.first_dh.s": out.first_dh_s,
        "groups.add.calls": inside_items("groups.add"),
        "groups.encode.calls": inside_items("groups.encode"),
        "groups.scalar_mul.calls": inside_items("groups.scalar_mul"),
        "reduction.reduce_dlog.s": per_item("reduction.reduce_dlog", 1),
        "reduction.self.s": per_item("reduction.reduce_dlog", 2),
        "reduction.find_generator.s": per_item("reduction.find_generator", 1),
        "reduction.phase1.s": per_item("reduction.phase1", 1),
        "reduction.phase2.s": per_item("reduction.phase2", 1),
        "reduction.phase1.giant_steps": count("reduction.phase1.giant_steps"),
        "reduction.phase2.giant_steps": count("reduction.phase2.giant_steps"),
        "reduction.table_entries": count("reduction.table_entries"),
        "implicit.scalar.calls": per_item("implicit.scalar", 0),
        "implicit.scalar.s": per_item("implicit.scalar", 1),
        "implicit.pow.s": per_item("implicit.pow", 1),
        "modmath.factorize.calls": per_item("modmath.factorize", 0),
        "modmath.factorize.complete": count("modmath.factorize.complete"),
        "modmath.factorize.s": per_item("modmath.factorize", 1),
        "modmath.divisors_in_range.s": per_item("modmath.divisors_in_range", 1),
        "modmath.is_prime.s": per_item("modmath.is_prime", 1),
        "bounds.load_database.s": per_item("bounds.load_database", 1),
        "bounds.table_rows.s": per_item("bounds.table_rows", 1),
        "bounds.suggest_divisor.s": per_item("bounds.suggest_divisor", 1),
        "cli.main.s": per_item("cli.main", 1),
        "cli.self.s": per_item("cli.main", 2),
        "trace.overhead_ratio": (len(out.latencies) * plain.busy / (out.busy * len(plain.latencies))
                                 if out.busy and plain.latencies else 0.0),
        **workloads.microbenchmarks(seed),
    }
    missing = sorted(workload.expected - tracer.fired)
    SPANS_DIR.mkdir(exist_ok=True)
    spans_file = SPANS_DIR / f"spans-{workload.name}-seed{seed}.jsonl"
    with spans_file.open("w") as fh:
        for span_id, parent, item, name, start, end in tracer.records:
            fh.write(json.dumps({"id": span_id, "parent": parent, "item": item, "name": name,
                                 "start": start, "end": end}) + "\n")
    notes = [f"traced items={items} passes={out.passes}; untraced items={len(plain.latencies)}",
             f"{len(tracer.records)} spans written to {spans_file.relative_to(ROOT)}"]
    for counter in ("groups.add", "groups.encode", "groups.scalar_mul"):
        split = {p: n for (c, p), n in sorted(tracer.by_span.items()) if c == counter}
        notes.append(f"{counter}.calls by enclosing span: {split}")
    if missing:
        notes.append(f"FAILED: expected wrappers never fired: {', '.join(missing)}")
    out.attempted += plain.attempted
    out.failures = plain.failures + out.failures
    return out, metrics, notes, not missing


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = json.loads(SPEC.read_text())
        import_package()
        global workloads, tracing
        import tracing
        import workloads
    except (OSError, ImportError, ValueError) as exc:
        print(f"perfbench: cannot start: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    os.environ.pop("DHP_DB", None)  # the analytic workload grades the packaged database
    workload = workloads.WORKLOADS[args.workload]
    run = per_layer if args.trace else end_to_end
    out, values, notes, wrappers_ok = run(workload, args.seed, args.seconds)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    if set(values) != {m["name"] for m in declared}:
        raise RuntimeError(f"metrics {sorted(set(values) ^ {m['name'] for m in declared})} "
                           "differ from BENCHMARK.json")
    failed = min(len(out.failures), out.attempted)
    print(f"perfbench: workload={workload.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"attempted={out.attempted} failed={failed} fail_ratio={failed / max(out.attempted, 1):.6f}")
    for line in notes + [f"failure: {f}" for f in out.failures[:10]]:
        print(line)
    for m in declared:
        print(f"  {m['name']:<32} {values[m['name']]:>18.10g} {m['unit']:<12} ({m['better']} is better)")
    correct = failed == 0 and wrappers_ok
    print(json.dumps({
        "correct": correct,
        "attempted": out.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

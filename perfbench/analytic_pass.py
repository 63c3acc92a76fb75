"""One pass of the benchmark's analytic workload, in a fresh process.

Usage: python3 analytic_pass.py '<job json>'

A job is {"mode": "ready"} (import the package, load the database, exit) or
{"mode": "pass", "records": N|null, "budget": B, "trace": bool, "pass": k}.
A pass calls ``dhpbound.cli.main`` in-process: ``tables --format json`` once,
then ``divisors --p <p> --budget B`` for the first N database records. It
prints one JSON line: each call's exit code and output, each divisors call's
p, the calls' CPU times in order (tables first), scaled to the reference
speed and as measured, and with "trace" the tracer's aggregates.
Checking the outputs is left to the parent, outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dhpbound import bounds, cli  # noqa: E402

import calibration  # noqa: E402


def call(timer: calibration.Scaled, argv: list[str]) -> tuple[int, str]:
    """Run the CLI in-process on argv, timing it into `timer`: (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), timer.call():
        rc = cli.main(argv)
    return rc, out.getvalue()


def run_pass(job: dict) -> dict:
    ps = [rec.p for rec in bounds.load_database()[: job["records"]]]
    tracer = None
    with contextlib.ExitStack() as stack:
        if job["trace"]:
            import tracing

            tracer = tracing.Tracer()
            stack.enter_context(tracer.installed())
        timer = stack.enter_context(calibration.Scaled(sampling=tracer is None))
        if tracer is not None:
            tracer.item = f"{job['pass']}.tables"
        tables = call(timer, ["tables", "--format", "json"])
        divisors = []
        for i, p in enumerate(ps):
            if tracer is not None:
                tracer.item = f"{job['pass']}.{i}"
            divisors.append((p, *call(timer, ["divisors", "--p", str(p), "--budget", str(job["budget"])])))
    result = {"tables": tables, "divisors": divisors, "times": timer.times, "raw": timer.raw}
    if tracer is not None:
        result["trace"] = tracer.export()
    return result


def main(argv: list[str]) -> int:
    job = json.loads(argv[0])
    if job["mode"] == "ready":
        bounds.load_database()
        print(json.dumps({"ready": True}))
    else:
        print(json.dumps(run_pass(job)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Workloads of the dhpbound benchmark: inputs, set-up, item execution and checks.

Every workload is driven through the package's public functions in a closed
loop with one caller. An item is one reduction, or on ``analytic`` one
``dhpbound divisors`` call. Each item is checked; a failed check or an
exception is counted and never raised past the loop.

Reduction inputs come in inverse pairs (x, x^-1 mod p) on the same group and
divisor. The dlog of x^-1 is minus that of x, so the two phase-1 walks of a
pair together span the whole index-d subgroup and the per-item ledger barely
moves with the seed, while every x is still drawn from the seed.
"""

from __future__ import annotations

import json
import random
import re
import resource
import statistics
import subprocess
import sys
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from dhpbound import bounds, groups, modmath, oracle, reduction
from dhpbound.implicit import PowCallBoundWarning

import calibration
import tracing

WORKER = Path(__file__).resolve().parent / "analytic_pass.py"
WORKER_TIMEOUT_S = 150
ANALYTIC_BUDGET = 10**6  # the `divisors --budget` of the analytic workload
SETUP_SAMPLES = 5  # set-ups timed per untraced window; a traced window sets up once


@dataclass
class PassResult:
    """What one pass over a workload's inputs produced.

    Times are CPU seconds scaled to the reference speed (see calibration.py);
    raw_* keep them as measured.
    """

    latencies: list[float] = field(default_factory=list)  # one per item
    raw_latencies: list[float] = field(default_factory=list)
    busy: float = 0.0  # the pass's timed calls: its items, plus the analytic pass's tables call
    raw_busy: float = 0.0
    attempted: int = 0  # operations checked (items, plus the analytic pass's tables call)
    failures: list[str] = field(default_factory=list)
    ledger: list[tuple[float, int]] = field(default_factory=list)  # (group ops, oracle calls)


@dataclass
class Outcome(PassResult):
    """A measured window: its passes' results added together, and its set-ups."""

    passes: int = 0
    setup_s: list[float] = field(default_factory=list)  # scaled seconds, one per set-up
    first_dh_s: float = 0.0  # traced windows: seconds in the set-up's first dh calls

    def add(self, res: PassResult) -> None:
        self.latencies += res.latencies
        self.raw_latencies += res.raw_latencies
        self.busy += res.busy
        self.raw_busy += res.raw_busy
        self.attempted += res.attempted
        self.failures += res.failures
        self.ledger += res.ledger
        self.passes += 1


def set_up(workload, tracer, out: Outcome):
    """Time one set-up into `out` and return the state it built.

    A traced window keeps the set-up's spans apart from the items'.
    """
    if tracer is not None:
        tracer.item = "setup"
    with calibration.Scaled(sampling=tracer is None) as timer:
        with timer.call():
            state, child_s = workload.setup()
        timer.raw[-1] += child_s  # CPU time the set-up spent in a child process
    out.setup_s += timer.times
    if tracer is not None:
        out.first_dh_s = tracer.spans.get("oracle.first_dh", (0, 0.0))[1]
        tracer.reset()
    return state


def measure(workload, seed: int, seconds: float, tracer=None) -> Outcome:
    """Set up, then run whole passes until the ledger sample is done and the
    timed calls have taken `seconds` at the reference speed.

    Counting scaled seconds rather than wall time keeps the number of passes
    of a seed nearly independent of the host's speed. The item stream
    depends only on the workload and the seed, so a traced and an untraced
    window over the same seed start with the same items, and the first
    `ledger_passes` passes (the ledger sample) are the same on every run;
    the ledger is averaged over them alone. A pass that timed nothing (an
    analytic worker that failed to run) ends the window.
    """
    rng = random.Random(f"{workload.name}:{seed}")
    out = Outcome()
    state = None
    for _ in range(1 if tracer is not None else SETUP_SAMPLES):
        state = None  # let the previous set-up's tables go before building the next
        state = set_up(workload, tracer, out)
    while out.passes < workload.ledger_passes or out.busy < seconds:
        res = workload.run_pass(state, rng, tracer, out.passes)
        if out.passes >= workload.ledger_passes:
            res.ledger = []
        out.add(res)
        if res.busy <= 0:
            break
    return out


# ------------------------------------------------------------------ reductions


def mult_subgroup(p: int) -> groups.MultSubgroup:
    """Order-p subgroup of F_q^x for the first prime q = 2kp + 1 and first usable h."""
    k = 1
    while not modmath.is_prime(2 * k * p + 1):
        k += 1
    q = 2 * k * p + 1
    for h in range(2, 1000):
        try:
            return groups.make_mult_subgroup(q, p, h)
        except groups.BadGeneratorError:
            continue
    raise RuntimeError(f"no generator of the order-{p} subgroup of F_{q}^x")


def build_group(backend: str, p: int) -> groups.CyclicGroup:
    """Order-p group on a backend; ec uses the packaged toy curve at p = 16381, else a searched curve."""
    if backend == "zp":
        return groups.make_zp_additive(p)
    if backend == "mult":
        return mult_subgroup(p)
    if p == 16381:
        return groups.load_toy_curve()
    return groups.make_ec_group(*groups.find_ec_group_params(p))


def microbenchmarks(seed: int, points: int = 1000, repeats: int = 5) -> dict[str, float]:
    """Group law of each backend at p = 16381 on seeded points, median of `repeats` timings."""
    rng = random.Random(f"groups:{seed}")
    out = {}
    for backend in ("zp", "mult", "ec"):
        g = build_group(backend, 16381)
        ks = [rng.randrange(1, g.order) for _ in range(points)]
        pts = [g.scalar_mul(k, g.generator) for k in ks]
        pairs = list(zip(pts, pts[1:] + pts[:1]))

        def per_call(loop) -> float:
            times = []
            for _ in range(repeats):
                start = calibration.clock()
                loop()
                times.append((calibration.clock() - start) / points)
            return statistics.median(times)

        out[f"groups.add_ns.{backend}"] = per_call(lambda: [g.add(a, b) for a, b in pairs]) * 1e9
        out[f"groups.encode_ns.{backend}"] = per_call(lambda: [g.encode(a) for a in pts]) * 1e9
        out[f"groups.scalar_mul_us.{backend}"] = per_call(
            lambda: [g.scalar_mul(k, a) for k, a in zip(ks, pts)]) * 1e6
    return out


def check_reduction(tr, p: int, d: int, x: int, caught) -> str | None:
    """The checks `dhpbound reduce` output is trusted for; None when all hold."""
    problems = []
    if tr.x != x:
        problems.append(f"recovered x={tr.x}, expected {x}")
    if tr.ledger.oracle_calls != bounds.oracle_calls_exact(d):
        problems.append(f"{tr.ledger.oracle_calls} oracle calls, formula {bounds.oracle_calls_exact(d)}")
    if not reduction.cost_report(tr, p, d)["within_sweep_ceiling"]:
        problems.append(f"{tr.ledger.group_ops} group ops above the sweep ceiling")
    warned = any(issubclass(w.category, PowCallBoundWarning) for w in caught)
    if warned != (d > 1 and d & (d + 1) == 0):  # all-ones exponents, and only they, warn
        problems.append(f"PowCallBoundWarning {'raised' if warned else 'missing'} for d={d}")
    return "; ".join(problems) or None


def reduce_item(timer, group, handle, Q, d: int, x: int):
    """One reduction, run as `dhpbound reduce` runs it and timed into `timer`: (transcript, failure).

    The generator seed stays at its default, so the BSGS step constants, and
    with them the per-step group-op charge, are the same for every input seed.
    """
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", PowCallBoundWarning)
            with timer.call():
                tr = reduction.reduce_dlog(group, handle, Q, d)
    except Exception as exc:  # counted as a failed item, never raised past the loop
        return None, f"p={group.order} d={d} x={x}: {exc!r}"
    problem = check_reduction(tr, group.order, d, x, caught)
    return tr, problem and f"p={group.order} d={d} x={x} {group.backend}: {problem}"


class Reduction:
    """Reductions over fixed (p, backends, divisors) configurations; handles reused across x.

    A pass draws one x per (group, d) and then runs the inverses of those x,
    so every pass is a whole number of inverse pairs.
    """

    expected = tracing.REDUCTION_EXPECTED  # wrappers a traced run must see fire

    def __init__(self, name: str, configs, ledger_passes: int):
        self.name = name
        self.configs = configs  # (p, backends, divisors; None means every divisor of p-1)
        self.ledger_passes = ledger_passes

    def setup(self):
        """Build the groups and handles, answer one dh per handle (lazy solver build).

        Returns the state and 0.0, the CPU seconds spent in other processes.
        """
        state = []
        for p, backends, divisors in self.configs:
            ds = divisors or modmath.divisors_in_range(modmath.factorize(p - 1), 1, p - 1)
            for backend in backends:
                group = build_group(backend, p)
                handle = oracle.OracleHandle(group)
                handle.dh(group.generator, group.generator)
                state += [(group, handle, d) for d in ds]
        return state, 0.0

    def draw_pass(self, state, rng: random.Random) -> list[tuple]:
        xs = [rng.randrange(1, group.order) for group, _, _ in state]
        xs += [pow(x, -1, group.order) for x, (group, _, _) in zip(xs, state)]
        return [(group, handle, group.scalar_mul(x, group.generator), d, x)
                for (group, handle, d), x in zip(state + state, xs)]

    def run_pass(self, state, rng, tracer, pass_no: int) -> PassResult:
        items = self.draw_pass(state, rng)
        res = PassResult(attempted=len(items))
        with calibration.Scaled(sampling=tracer is None) as timer:
            for i, (group, handle, Q, d, x) in enumerate(items):
                if tracer is not None:
                    tracer.item = f"{pass_no}.{i}"
                tr, failure = reduce_item(timer, group, handle, Q, d, x)
                if failure:
                    res.failures.append(failure)
                elif tr is not None:
                    res.ledger.append((tr.ledger.group_ops, tr.ledger.oracle_calls))
        res.latencies, res.raw_latencies = timer.times, timer.raw
        res.busy, res.raw_busy = sum(timer.times), sum(timer.raw)
        return res


# ------------------------------------------------------------------- analytic


def probable_prime(n: int) -> bool:
    """Miller-Rabin over the first 20 prime bases, independent of dhpbound.modmath."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)
    if n < 2:
        return False
    for b in bases:
        if n % b == 0:
            return n == b
    s, r = n - 1, 0
    while s % 2 == 0:
        s, r = s // 2, r + 1
    for b in bases:
        y = pow(b, s, n)
        if y in (1, n - 1):
            continue
        for _ in range(r - 1):
            y = y * y % n
            if y == n - 1:
                break
        else:
            return False
    return True


FACTOR_LINE = re.compile(r"^p-1 factorization \[(complete|PARTIAL[^\]]*)\]: (.*)$", re.M)
SUGGESTION_LINE = re.compile(r"^policy suggestion \(paper\): d=(\d+) \(n=(\d+), log2 M=([\d.]+)\)$", re.M)


def check_divisors(p: int, rc: int, text: str) -> tuple[str | None, tuple[float, int] | None]:
    """Check one `divisors` output: (failure or None, priced (M, n) of the suggestion or None)."""
    if rc != 0:
        return f"divisors --p {p} exited {rc}", None
    if f"p = {p} (" not in text:
        return f"divisors --p {p}: output names another p", None
    match = FACTOR_LINE.search(text)
    if match is None:
        return f"divisors --p {p}: no factorization line", None
    complete = match.group(1) == "complete"
    primes, cofactor = [], 1
    product = 1
    for part in match.group(2).split(" * "):
        if part.startswith("C"):
            cofactor = int(part[part.index("(") + 1:-1])
            continue
        q, _, e = part.partition("^")
        primes.append(int(q))
        product *= int(q) ** int(e or 1)
    if product * cofactor != p - 1:
        return f"divisors --p {p}: factors multiply to {product * cofactor}, not p-1", None
    if not all(probable_prime(q) for q in primes):
        return f"divisors --p {p}: a listed factor is composite", None
    if complete != (cofactor == 1) or (cofactor > 1 and probable_prime(cofactor)):
        return f"divisors --p {p}: cofactor {cofactor} contradicts [{match.group(1)}]", None
    suggestion = SUGGESTION_LINE.search(text)
    if complete != (suggestion is not None):
        return f"divisors --p {p}: suggestion present={suggestion is not None}, complete={complete}", None
    if suggestion is None:
        return None, None
    return None, (2 ** float(suggestion.group(3)), int(suggestion.group(2)))


def check_tables(rc: int, text: str) -> str | None:
    if rc != 2:
        return f"tables exited {rc}, expected 2 (annotated SECT239K1 misprint)"
    verdicts = {row["name"]: row["verdict"] for row in json.loads(text)["rows"]}
    if verdicts.get("SECT239K1") != bounds.VERDICT_ANNOTATED:
        return f"SECT239K1 graded {verdicts.get('SECT239K1')!r}, expected annotated mismatch"
    return None


def run_worker(job: dict) -> dict:
    """Run analytic_pass.py in a fresh process and return its JSON line."""
    proc = subprocess.run(
        [sys.executable, str(WORKER), json.dumps(job)],
        capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"analytic worker exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Analytic:
    """`tables --format json` once, then `divisors --p <p> --budget B` per database record.

    Each pass runs in a fresh process: modmath's factorization cache would
    otherwise turn every later pass into cache hits, while each real
    `dhpbound divisors` invocation pays the cold cost.
    """

    name = "analytic"
    ledger_passes = 1
    expected = tracing.ANALYTIC_EXPECTED

    def __init__(self, records: int | None = None):
        self.records = records  # how many database records a pass covers; None means all

    def setup(self):
        """Start a fresh process that imports the package and loads the database.

        Returns no state and the CPU seconds the process took.
        """
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        run_worker({"mode": "ready"})
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        return None, (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)

    def run_pass(self, state, rng, tracer, pass_no: int) -> PassResult:
        res = PassResult(attempted=1)
        job = {"mode": "pass", "records": self.records, "budget": ANALYTIC_BUDGET,
               "trace": tracer is not None, "pass": pass_no}
        try:
            out = run_worker(job)
        except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
            res.failures.append(f"analytic pass {pass_no}: {exc!r}")
            return res
        # the worker times the tables call first, then each divisors call
        res.latencies, res.raw_latencies = out["times"][1:], out["raw"][1:]
        res.busy, res.raw_busy = sum(out["times"]), sum(out["raw"])
        res.attempted += len(out["divisors"])
        try:
            failure = check_tables(*out["tables"])
        except (ValueError, KeyError, TypeError) as exc:
            failure = f"tables output unreadable: {exc!r}"
        if failure:
            res.failures.append(failure)
        for p, rc, text in out["divisors"]:
            try:
                failure, priced = check_divisors(p, rc, text)
            except ValueError as exc:
                failure, priced = f"divisors --p {p}: output unreadable: {exc!r}", None
            if failure:
                res.failures.append(failure)
            elif priced:
                res.ledger.append(priced)
        if tracer is not None:
            tracer.merge(out["trace"])
        return res


WORKLOADS = {
    w.name: w for w in (
        Reduction("sweep", ((101, ("zp", "mult", "ec"), None), (1009, ("zp", "mult", "ec"), None)),
                  ledger_passes=4),
        Reduction("walk", ((16381, ("ec",), (1, 2, 3, 4)),), ledger_passes=50),
        Reduction("large-order", ((4294967291, ("zp", "mult"), (190,)),), ledger_passes=8),
        Analytic(),
    )
}

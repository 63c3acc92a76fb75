"""Command-line front end: table reproduction, desk-scale reductions, divisor tooling.

Exit codes are the machine contract: 0 success / clean match, 1 hard failure,
2 reference-table mismatch within documented tolerances, 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
import warnings
from collections import Counter
from dataclasses import asdict

from . import bounds, invariants
from .cost import WALK_NAMES, InvalidDivisorError, divisor_split, oracle_calls_exact, reduction_ops_bound
from .groups import (
    ORDER_GUARD,
    CyclicGroup,
    GroupConstructionError,
    GuardRailError,
    make_group,
    make_zp_additive,
)
from .implicit import PowCallBoundWarning
from .modmath import DIVISOR_CAP, count_divisors_in_range, factorize, is_prime, log2_approx
from .oracle import OracleHandle
from .reduction import ZeroDlogError, cost_report, reduce_dlog

BACKENDS = ("zp", "mult", "ec")  # make_group's backends, as --backend names them


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


class CliError(Exception):
    """Named operational failure; message printed, exit 1."""


def _require_prime(p: int) -> None:
    """Refuse p below 3 or composite: the checks reduce and divisors share."""
    if p < 3:
        raise CliError(f"p must be a prime >= 3, got {p}")
    if not is_prime(p):
        raise CliError(f"p={p} is not prime")


def non_negative_int(text: str) -> int:
    """argparse type for counts: a usage error (exit 64) below zero."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


# --------------------------------------------------------------- tables


def _fmt2(v) -> str:
    return "-" if v is None else f"{v:.2f}"


def _fmt_delta(v) -> str:
    return "-" if v is None else f"{v:+.2f}"


def _log2_cells(r: bounds.BoundRow) -> list[str]:
    return [r.name] + [_fmt2(v) for v in (r.log2_sqrt_p, r.log2_M, r.log2_n, r.log2_TDH)]


def _markdown_table(rows: list[bounds.BoundRow], diff: bool) -> list[str]:
    head = ["curve", "log2 sqrt(p)", "log2 M", "log2 n", "log2 T_DH", "flags"]
    if diff:
        head.append("deltas (sqrt/M/n/T_DH)")
    lines = [
        "| " + " | ".join(head) + " |",
        "|" + "|".join("---" for _ in head) + "|",
    ]
    for r in rows:
        cells = _log2_cells(r) + [" ".join(r.flags) or "-"]
        if diff:
            cells.append(
                "/".join(_fmt_delta(d) for d in r.deltas) if r.deltas else "-"
            )
        lines.append("| " + " | ".join(cells) + " |")
    return lines


def cmd_tables(args) -> int:
    try:
        db = bounds.load_database(args.db)
    except (OSError, bounds.DatabaseError) as exc:
        print(f"error: cannot load curve database: {exc}", file=sys.stderr)
        return 1
    rows = bounds.table_rows(db)
    prime_rows = [r for r in rows if r.field_kind == "prime"]
    binary_rows = [r for r in rows if r.field_kind == "binary"]
    if args.format == "json":
        print(json.dumps({"rows": [asdict(r) for r in rows]}, indent=2))
    elif args.format == "csv":
        cols = "name,log2_sqrt_p,log2_M,log2_n,log2_TDH,flags"
        if args.diff:
            cols += ",delta_sqrt,delta_M,delta_n,delta_TDH"
        print(cols)
        for r in rows:
            cells = _log2_cells(r) + [";".join(r.flags)]
            if args.diff:
                cells += [_fmt_delta(d) for d in (r.deltas or (None,) * 4)]
            print(",".join(cells))
    else:
        print("## prime-field curves\n")
        print("\n".join(_markdown_table(prime_rows, args.diff)))
        print("\n## binary-field curves\n")
        print("\n".join(_markdown_table(binary_rows, args.diff)))
        counts = Counter(r.verdict for r in rows)
        summary = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
        print(f"\nsummary: {summary}")
        for r in rows:
            for note in r.annotations:
                print(f"note [{r.name}]: {note}")
    return bounds.rows_exit_code(rows)


# --------------------------------------------------------------- reduce


def cmd_reduce(args) -> int:
    p, d = args.p, args.d
    try:
        _require_prime(p)
        if p > ORDER_GUARD:
            raise CliError(f"desk-scale guard: p must be <= 2^32, got {p}")
        divisor_split(p, d)
        if args.x is not None:
            x = args.x
            if x == 0:
                raise CliError("zero dlog: x=0 is outside [1, p-1] (Q would be the identity)")
            if not 1 <= x <= p - 1:
                raise CliError(f"x={x} outside [1, p-1]")
        else:
            x = random.Random(args.seed).randrange(1, p)
        group = make_group(args.backend, p)
        oracle = OracleHandle(group)
        Q = group.scalar_mul(x, group.generator)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", PowCallBoundWarning)
            tr = reduce_dlog(group, oracle, Q, d, seed=args.seed)
        report = cost_report(tr, p, d)
    except (CliError, InvalidDivisorError, ZeroDlogError, GroupConstructionError, GuardRailError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    notes = [str(w.message) for w in caught if issubclass(w.category, PowCallBoundWarning)]
    recovered = tr.x == x
    doc = {
        "transcript": tr.to_dict(),
        "cost_report": report,
        "simulator": {"solver_steps": oracle.solver_steps},
        "requested_x": x,
        "recovered": recovered,
        "warnings": notes,
    }
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    elif args.format == "csv":
        # the whole document, one level flattened: the transcript's own keys, the outcome, each
        # report's keys dotted, and last the warnings as one row, their notes joined by "; "
        fields = {**doc["transcript"], **{k: doc[k] for k in ("requested_x", "recovered", "cost_report", "simulator")}}
        fields["warnings"] = "; ".join(notes)
        flat = {}
        for k, v in fields.items():
            flat.update({f"{k}.{kk}": vv for kk, vv in v.items()} if isinstance(v, dict) else {k: v})
        print("\n".join(["key,value", *(f"{k},{v}" for k, v in flat.items())]))
    else:
        print(f"# dlog recovery: p={p}, d={d}, backend={tr.backend}, seed={args.seed}")
        print(f"generator of F_p^x: zeta0={tr.params.zeta0}  (zeta=zeta0^d={tr.params.zeta})")
        print(f"phase 1 (oracle-assisted BSGS): j={tr.j}  [u1={tr.u1}, v1={tr.v1}, d1={tr.params.d1}]")
        print(f"phase 2 (oracle-free BSGS):     t={tr.t}  [u2={tr.u2}, v2={tr.v2}, s2={tr.params.s2}]")
        print(f"exponent: i0 = ((p-1)/d)*t + j = {tr.i0}")
        print(f"recovered x = zeta0^i0 mod p = {tr.x}  (requested {x}, match: {recovered})")
        led = tr.ledger
        print(
            f"ledger: oracle_calls={led.oracle_calls} group_ops={led.group_ops} "
            f"table_entries={led.bsgs_table_entries}"
        )
        print(f"simulator: solver_steps={oracle.solver_steps} (off the books)")
        print(
            f"oracle calls: formula={report['oracle_calls_formula']} "
            f"(match: {report['oracle_calls_match_formula']}), "
            f"reference bound 2*floor(log2 d)={report['lemma_oracle_call_bound']} "
            f"(within: {report['within_lemma_oracle_bound']})"
        )
        print(
            f"group ops: sweep ceiling {report['sweep_group_op_ceiling']} "
            f"(within: {report['within_sweep_ceiling']}), "
            f"walk ceiling {report['walk_group_op_ceiling']} "
            f"(within: {report['within_walk_ceiling']}), "
            f"M bound (not enforced) {report['kkm_group_op_bound']}"
        )
        print("walk windows (0 = plain double-and-add): " + ", ".join(
            f"{name}={report['window_' + name]}" for name in WALK_NAMES
        ))
        for note in notes:
            print(f"note: {note}")
    return 0 if recovered else 1


# -------------------------------------------------------------- divisors


def _factor_string(f) -> str:
    parts = [f"{q}^{e}" if e > 1 else str(q) for q, e in f.factors]
    if not f.complete:
        parts.append(f"C{len(str(f.cofactor))}({f.cofactor})")
    return " * ".join(parts) if parts else "1"


def cmd_divisors(args) -> int:
    p = args.p
    try:
        _require_prime(p)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    f = factorize(p - 1, effort_budget=args.budget)
    print(f"p = {p} ({p.bit_length()} bits)")
    status = "complete" if f.complete else f"PARTIAL (effort budget {args.budget} exhausted)"
    print(f"p-1 factorization [{status}]: {_factor_string(f)}")
    if not f.complete:
        print(f"  unfactored composite cofactor: {f.cofactor} ({f.cofactor.bit_length()} bits)")
    lo, hi = bounds.paper_band(p)
    if f.complete:
        listed = bounds.divisors_in_range(f, lo, hi, cap=32) if lo <= hi else []  # the 32 smallest
        count = count_divisors_in_range(f, lo, hi) if len(listed) == 32 else len(listed)  # up to the cap
        shown = ", ".join(map(str, listed)) or "(none)"
        floor = "at least " if count == DIVISOR_CAP else ""
        more = f" ... and {floor}{count - 32} more" if count > 32 else ""
        print(f"divisors in [{lo}, {hi}]: {shown}{more}")
        suggestion = bounds.suggest_divisor(p, f, args.policy)
        if suggestion is None:
            print(f"policy suggestion ({args.policy}): none (no divisor satisfies the policy)")
        else:
            n = oracle_calls_exact(suggestion)
            m_log = log2_approx(reduction_ops_bound(p, suggestion))
            print(
                f"policy suggestion ({args.policy}): d={suggestion} "
                f"(n={n}, log2 M={m_log:.2f})"
            )
    else:
        print(f"divisors in [{lo}, {hi}]: enumeration unavailable (incomplete factorization)")
        print(f"policy suggestion ({args.policy}): unavailable (incomplete factorization)")
    try:
        db = bounds.load_database(args.db)
    except (OSError, bounds.DatabaseError) as exc:
        source = args.db or os.environ.get("DHP_DB") or "(packaged)"
        print(f"warning: database {source}: {exc}; cross-reference skipped", file=sys.stderr)
        db = []
    for rec in db:
        if rec.p == p and rec.d is not None:  # load_database admits only a d dividing p - 1
            print(f"database {rec.name}: stored d={rec.d}")
    return 0


# -------------------------------------------------------------- selftest


def _suite_modmath(rng: random.Random, deep: bool) -> None:
    invariants.check_factorize_sample(rng, 400 if deep else 150, 2**24 if deep else 2**20)
    invariants.check_is_prime_small(500)


def _suite_groups(rng: random.Random, deep: bool) -> None:
    # every (p, backend) pair, then a curve with no packaged record, which find_ec_group_params finds
    groups = [make_group(kind, p) for p in (29, 101) for kind in BACKENDS] + [make_group("ec", 257)]
    for group in groups:
        invariants.check_group_laws(group, rng, 12, 300 if deep else 80)
        invariants.check_encode(group, rng, 300 if deep else 80)


def _suite_oracle(rng: random.Random, deep: bool) -> None:
    for p in (29, 101):
        for kind in BACKENDS:
            group = make_group(kind, p)
            invariants.check_dh(group, OracleHandle(group), rng, 120 if deep else 40)


def _suite_implicit(rng: random.Random, deep: bool) -> None:
    group = make_zp_additive(16381 if deep else 101)
    invariants.check_implicit_field_ops(group, OracleHandle(group), rng, 1000 if deep else 200)


def _sweep(group: CyclicGroup, rng: random.Random, n: int | None) -> None:
    """check_reduction for every divisor of p-1: on every x, or on n x drawn per divisor."""
    p = group.order
    oracle = OracleHandle(group)
    for d in bounds.divisors_in_range(factorize(p - 1), 1, p - 1):
        xs = range(1, p) if n is None else sorted({rng.randrange(1, p) for _ in range(n)})
        for x in xs:
            invariants.check_reduction(group, oracle, x, d, seed=x)


def _suite_reduction(rng: random.Random, deep: bool) -> None:
    for p in (29, 101, 1009) if deep else (29, 101):
        _sweep(make_group("zp", p), rng, None)
        for kind in ("mult", "ec"):
            _sweep(make_group(kind, p), rng, 200 if deep else 10)
    if deep:
        _sweep(make_zp_additive(16381), rng, 30)
        # the paper's setting at the 2^32 ceiling: the registry's curve, d = 2019 the smallest in
        # its band [cbrt p, sqrt p]
        group = make_group("ec", 4293896137)
        oracle = OracleHandle(group)
        for x in sorted(rng.randrange(1, group.order) for _ in range(2)):
            invariants.check_reduction(group, oracle, x, 2019, seed=x)


def _suite_bounds(rng: random.Random, deep: bool) -> None:
    invariants.check_database(bounds.load_database())


def _suite_generator_density(rng: random.Random, deep: bool) -> None:
    seeds = [rng.randrange(2**62) for _ in range(10**4 if deep else 10**3)]
    invariants.check_generator_density(seeds, 0.02 if deep else 0.05)


_SUITES = [
    ("modmath", _suite_modmath),
    ("groups", _suite_groups),
    ("oracle", _suite_oracle),
    ("implicit", _suite_implicit),
    ("reduction", _suite_reduction),
    ("bounds", _suite_bounds),
    ("generator-density", _suite_generator_density),
]


def cmd_selftest(args) -> int:
    deep = args.depth == "full"
    rng = random.Random(args.seed)
    failed = False
    for name, suite in _SUITES:
        start = time.monotonic()
        try:
            suite(rng, deep)
        except invariants.InvariantFailure as exc:
            print(f"{name}: FAIL: {exc}  [{time.monotonic() - start:.1f}s]")
            failed = True
            continue
        print(f"{name}: ok  [{time.monotonic() - start:.1f}s]")
    return 1 if failed else 0


# ------------------------------------------------------------------ main


def build_parser() -> _Parser:
    parser = _Parser(prog="dhpbound", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_tables = sub.add_parser("tables", help="recompute the reference bound tables")
    p_tables.add_argument("--format", choices=("markdown", "csv", "json"), default="markdown")
    p_tables.add_argument("--diff", action="store_true", help="show computed-minus-expected deltas")
    p_tables.add_argument("--db", default=None, help="database path (default: $DHP_DB or packaged)")
    p_tables.set_defaults(func=cmd_tables)

    p_reduce = sub.add_parser("reduce", help="run one desk-scale dlog recovery")
    p_reduce.add_argument("--p", type=int, required=True, help="prime group order (<= 2^32)")
    p_reduce.add_argument("--d", type=int, required=True, help="divisor of p-1")
    x_group = p_reduce.add_mutually_exclusive_group(required=True)
    x_group.add_argument("--x", type=int, help="exponent to hide and recover")
    x_group.add_argument("--random", action="store_true", help="draw x from the seed")
    p_reduce.add_argument("--backend", choices=BACKENDS, default="zp")
    p_reduce.add_argument("--seed", type=int, default=0)
    p_reduce.add_argument("--format", choices=("markdown", "csv", "json"), default="markdown")
    p_reduce.set_defaults(func=cmd_reduce)

    p_div = sub.add_parser("divisors", help="factor p-1 and suggest a divisor")
    p_div.add_argument("--p", type=int, required=True, help="prime")
    p_div.add_argument("--policy", choices=("paper", "min-n"), default="paper")
    p_div.add_argument("--budget", type=non_negative_int, default=10**6,
                       help="factoring effort budget: modular multiplications of Brent's method "
                            "(default 10^6, seconds on every database record; raise it to split "
                            "a p-1 whose cofactor stays composite)")
    p_div.add_argument("--db", default=None, help="database path for cross-reference")
    p_div.set_defaults(func=cmd_divisors)

    p_self = sub.add_parser("selftest", help="run the invariant suites")
    p_self.add_argument("--depth", choices=("quick", "full"), default="quick")
    p_self.add_argument("--seed", type=int, default=0)
    p_self.set_defaults(func=cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
    except BrokenPipeError:  # the reader left early, as `| head` does: exit 1 quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())

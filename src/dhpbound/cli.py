"""Command-line front end: table reproduction, desk-scale reductions, divisor tooling.

Exit codes are the machine contract: 0 success / clean match, 1 hard failure,
2 reference-table mismatch within documented tolerances, 64 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import random
import sys
import time
import warnings
from dataclasses import asdict

from . import bounds
from .groups import (
    ORDER_GUARD,
    CyclicGroup,
    GroupConstructionError,
    find_ec_group_params,
    find_mult_subgroup,
    load_toy_curve,
    make_ec_group,
    make_zp_additive,
)
from .implicit import (
    PowCallBoundWarning,
    embed,
    implicit_add,
    implicit_inv,
    implicit_mul,
    implicit_pow,
    implicit_scalar,
    implicit_sub,
)
from .modmath import factorize, icbrt, is_prime, log2_approx
from .oracle import OracleHandle
from .reduction import (
    InvalidDivisorError,
    ZeroDlogError,
    cost_report,
    find_generator,
    reduce_dlog,
)

EC_SEARCH_GUARD = 2**14  # curve search enumerates points; beyond this use zp or mult


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


class CliError(Exception):
    """Named operational failure; message printed, exit 1."""


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
    except (OSError, json.JSONDecodeError, bounds.DatabaseError) as exc:
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
        counts: dict[str, int] = {}
        for r in rows:
            counts[r.verdict] = counts.get(r.verdict, 0) + 1
        summary = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
        print(f"\nsummary: {summary}")
        for r in rows:
            for note in r.annotations:
                print(f"note [{r.name}]: {note}")
    return bounds.rows_exit_code(rows)


# --------------------------------------------------------------- reduce


def _build_group(backend: str, p: int) -> CyclicGroup:
    if backend == "zp":
        return make_zp_additive(p)
    if backend == "mult":
        return find_mult_subgroup(p)
    if backend == "ec":
        if p == 16381:
            return load_toy_curve()
        if p > EC_SEARCH_GUARD:
            raise CliError(
                f"ec backend searches a curve by point counting, capped at p <= {EC_SEARCH_GUARD}; "
                f"use --backend zp or mult for p={p}"
            )
        q, a, b, gx, gy, order = find_ec_group_params(p)
        return make_ec_group(q, a, b, gx, gy, order)
    raise CliError(f"unknown backend {backend!r}")


def cmd_reduce(args) -> int:
    p, d = args.p, args.d
    try:
        if p < 3:
            raise CliError(f"p must be a prime >= 3, got {p}")
        if not is_prime(p):
            raise CliError(f"p={p} is not prime")
        if p > ORDER_GUARD:
            raise CliError(f"desk-scale guard: p must be <= 2^32, got {p}")
        if d < 1 or (p - 1) % d != 0:
            raise CliError(f"invalid divisor: d={d} does not divide p-1={p - 1}")
        if args.x is not None:
            x = args.x
            if x == 0:
                raise CliError("zero dlog: x=0 is outside [1, p-1] (Q would be the identity)")
            if not 1 <= x <= p - 1:
                raise CliError(f"x={x} outside [1, p-1]")
        else:
            x = random.Random(args.seed).randrange(1, p)
        group = _build_group(args.backend, p)
        oracle = OracleHandle(group)
        Q = group.scalar_mul(x, group.generator)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", PowCallBoundWarning)
            tr = reduce_dlog(group, oracle, Q, d, seed=args.seed)
        report = cost_report(tr, p, d)
    except (CliError, InvalidDivisorError, ZeroDlogError, GroupConstructionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    notes = [str(w.message) for w in caught if issubclass(w.category, PowCallBoundWarning)]
    recovered = tr.x == x
    if args.format == "json":
        print(
            json.dumps(
                {
                    "transcript": tr.to_dict(),
                    "cost_report": report,
                    "requested_x": x,
                    "recovered": recovered,
                    "warnings": notes,
                },
                indent=2,
            )
        )
    elif args.format == "csv":
        print("key,value")
        for k, v in {**tr.to_dict(), "requested_x": x, "recovered": recovered}.items():
            if isinstance(v, dict):
                for kk, vv in v.items():
                    print(f"{k}.{kk},{vv}")
            else:
                print(f"{k},{v}")
        for k, v in report.items():
            print(f"cost_report.{k},{v}")
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
        print(
            f"oracle calls: formula={report['oracle_calls_formula']} "
            f"(match: {report['oracle_calls_match_formula']}), "
            f"reference bound 2*floor(log2 d)={report['lemma_oracle_call_bound']} "
            f"(within: {report['within_lemma_oracle_bound']})"
        )
        print(
            f"group ops: headline ceiling {report['lemma_group_op_ceiling']}"
            f"+slack {report['slack_allowance']} (within: {report['within_lemma_group_ceiling']}), "
            f"sweep ceiling {report['sweep_group_op_ceiling']} "
            f"(within: {report['within_sweep_ceiling']}), "
            f"M bound (not enforced) {report['kkm_group_op_bound']}"
        )
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
    if p < 3:
        print(f"error: p must be a prime >= 3, got {p}", file=sys.stderr)
        return 1
    if not is_prime(p):
        print(f"error: p={p} is not prime", file=sys.stderr)
        return 1
    f = factorize(p - 1, effort_budget=args.budget)
    print(f"p = {p} ({p.bit_length()} bits)")
    status = "complete" if f.complete else f"PARTIAL (effort budget {args.budget} exhausted)"
    print(f"p-1 factorization [{status}]: {_factor_string(f)}")
    if not f.complete:
        print(f"  unfactored composite cofactor: {f.cofactor} ({f.cofactor.bit_length()} bits)")
    lo = icbrt(p)
    if lo**3 < p:
        lo += 1
    hi = math.isqrt(p)
    if f.complete:
        band = bounds.divisors_in_range(f, lo, hi) if lo <= hi else []
        shown = ", ".join(str(d) for d in band[:32]) or "(none)"
        more = f" ... and {len(band) - 32} more" if len(band) > 32 else ""
        print(f"divisors in [{lo}, {hi}]: {shown}{more}")
        suggestion = bounds.suggest_divisor(p, f, args.policy)
        if suggestion is None:
            print(f"policy suggestion ({args.policy}): none (no divisor satisfies the policy)")
        else:
            n = bounds.oracle_calls_exact(suggestion)
            m_log = log2_approx(bounds.reduction_ops_bound(p, suggestion))
            print(
                f"policy suggestion ({args.policy}): d={suggestion} "
                f"(n={n}, log2 M={m_log:.2f})"
            )
    else:
        print(f"divisors in [{lo}, {hi}]: enumeration unavailable (incomplete factorization)")
        print(f"policy suggestion ({args.policy}): unavailable (incomplete factorization)")
    try:
        db = bounds.load_database(args.db)
    except (OSError, json.JSONDecodeError, bounds.DatabaseError) as exc:
        source = args.db or os.environ.get("DHP_DB") or "(packaged)"
        print(f"warning: database {source}: {exc}; cross-reference skipped", file=sys.stderr)
        db = []
    for rec in db:
        if rec.p == p and rec.d is not None:
            divides = (p - 1) % rec.d == 0
            print(f"database {rec.name}: stored d={rec.d} divides p-1: {divides}")
    return 0


# -------------------------------------------------------------- selftest


class SelfTestFailure(Exception):
    pass


def _check(cond: bool, invariant: str) -> None:
    if not cond:
        raise SelfTestFailure(invariant)


@functools.lru_cache(maxsize=8)
def _st_backends(p: int) -> tuple[CyclicGroup, ...]:
    # curve search for the ec backend is the slow part; share instances across suites
    return (make_zp_additive(p), _build_group("mult", p), _build_group("ec", p))


def _st_modmath(rng: random.Random, deep: bool) -> None:
    limit = 2**24 if deep else 2**20
    for _ in range(400 if deep else 150):
        n = rng.randrange(2, limit)
        f = factorize(n)
        _check(f.complete, f"factorize({n}) incomplete below trial-division range")
        _check(f.value == n, f"factor product != {n}")
        _check(all(is_prime(q) for q, _ in f.factors), f"non-prime factor for {n}")
    small = [k for k in range(2, 500) if is_prime(k)]
    sieve = [k for k in range(2, 500) if all(k % j for j in range(2, k))]
    _check(small == sieve, "is_prime disagrees with trial division below 500")


def _st_groups(rng: random.Random, deep: bool) -> None:
    for p in (29, 101):
        for group in _st_backends(p):
            pts = [group.scalar_mul(rng.randrange(p), group.generator) for _ in range(12)]
            for _ in range(300 if deep else 80):
                a, b, c = (rng.choice(pts) for _ in range(3))
                lhs = group.add(group.add(a, b), c)
                rhs = group.add(a, group.add(b, c))
                _check(group.eq(lhs, rhs), f"associativity on {group.backend} p={p}")
                _check(
                    group.eq(group.add(a, b), group.add(b, a)),
                    f"commutativity on {group.backend} p={p}",
                )
                _check(
                    group.eq(group.add(a, group.negate(a)), group.identity),
                    f"inverse law on {group.backend} p={p}",
                )
            seen = {group.encode(group.scalar_mul(k, group.generator)) for k in range(p)}
            _check(len(seen) == p, f"encode not injective on {group.backend} p={p}")


def _st_oracle(rng: random.Random, deep: bool) -> None:
    for p in (29, 101):
        for group in _st_backends(p):
            oracle = OracleHandle(group)
            for _ in range(120 if deep else 40):
                a, b = rng.randrange(1, p), rng.randrange(1, p)
                A = group.scalar_mul(a, group.generator)
                B = group.scalar_mul(b, group.generator)
                got = oracle.dh(A, B)
                want = group.scalar_mul(a * b % p, group.generator)
                _check(group.eq(got, want), f"dh({a}P,{b}P) != {a}*{b}P on {group.backend} p={p}")


def _st_implicit(rng: random.Random, deep: bool) -> None:
    p = 16381 if deep else 101
    group = make_zp_additive(p)
    oracle = OracleHandle(group)
    rounds = 1000 if deep else 200
    for _ in range(rounds):
        y, z = rng.randrange(p), rng.randrange(p)
        a, b = embed(group, y), embed(group, z)
        _check(
            group.eq(implicit_add(a, b).image, embed(group, (y + z) % p).image),
            "implicit add != field add",
        )
        _check(
            group.eq(implicit_sub(a, b).image, embed(group, (y - z) % p).image),
            "implicit sub != field sub",
        )
        c = rng.randrange(p)
        _check(
            group.eq(implicit_scalar(c, a).image, embed(group, c * y % p).image),
            "implicit scalar != field scalar",
        )
        _check(
            group.eq(implicit_mul(oracle, a, b).image, embed(group, y * z % p).image),
            "implicit mul != field mul",
        )
        e = rng.randrange(1, p)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PowCallBoundWarning)
            _check(
                group.eq(implicit_pow(oracle, a, e).image, embed(group, pow(y, e, p)).image),
                "implicit pow != field pow",
            )
        if y != 0:
            _check(
                group.eq(implicit_inv(oracle, a).image, embed(group, pow(y, p - 2, p)).image),
                "implicit inv != field inverse",
            )


def _st_reduction(rng: random.Random, deep: bool) -> None:
    from .modmath import divisors_in_range

    def sweep(group, divisors, xs):
        oracle = OracleHandle(group)
        p = group.order
        for d in divisors:
            for x in xs(d):
                Q = group.scalar_mul(x, group.generator)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", PowCallBoundWarning)
                    tr = reduce_dlog(group, oracle, Q, d, seed=x)
                _check(tr.x == x, f"reduce_dlog missed x={x} (p={p}, d={d}, {group.backend})")
                _check(
                    tr.ledger.oracle_calls == bounds.oracle_calls_exact(d),
                    f"oracle calls != exact formula (p={p}, d={d})",
                )
                rep = cost_report(tr, p, d)
                _check(
                    rep["within_sweep_ceiling"],
                    f"group ops above sweep ceiling (p={p}, d={d})",
                )

    for p in (29, 101):
        divisors = divisors_in_range(factorize(p - 1), 1, p - 1)
        zp, mult, ec = _st_backends(p)
        sweep(zp, divisors, lambda d: range(1, p))
        n_random = 200 if deep else 10
        for group in (mult, ec):
            sweep(
                group,
                divisors,
                lambda d: sorted({rng.randrange(1, p) for _ in range(n_random)}),
            )
    if deep:
        p = 1009
        divisors = divisors_in_range(factorize(p - 1), 1, p - 1)
        sweep(make_zp_additive(p), divisors, lambda d: range(1, p))
        mult, ec = _st_backends(p)[1:]
        for group in (mult, ec):
            sweep(
                group,
                divisors,
                lambda d: sorted({rng.randrange(1, p) for _ in range(200)}),
            )
        p = 16381
        divisors = divisors_in_range(factorize(p - 1), 1, p - 1)
        sweep(make_zp_additive(p), divisors, lambda d: sorted({rng.randrange(1, p) for _ in range(30)}))


def _st_bounds(rng: random.Random, deep: bool) -> None:
    db = bounds.load_database()
    _check(len(db) == 33, "database does not hold 33 records")
    rounds = 64
    for rec in db:
        _check(is_prime(rec.p, rounds=rounds), f"database p not prime: {rec.name}")
        if rec.d is not None:
            _check((rec.p - 1) % rec.d == 0, f"database d does not divide p-1: {rec.name}")
    rows = bounds.table_rows(db)
    for row in rows:
        ok = row.verdict in (bounds.VERDICT_OK, bounds.VERDICT_NO_DATA)
        if row.name == "SECT239K1":
            _check(row.verdict == bounds.VERDICT_ANNOTATED, "SECT239K1 must grade as annotated")
        else:
            _check(ok, f"table row {row.name} grades {row.verdict}")
    _check(bounds.rows_exit_code(rows) == 2, "full-table exit code != 2")


def _st_generator_density(rng: random.Random, deep: bool) -> None:
    trials = 10**4 if deep else 10**3
    f = factorize(100)
    stats: dict = {}
    for i in range(trials):
        find_generator(101, f, seed=rng.randrange(2**62), stats=stats)
    rate = trials / stats["candidates"]
    tol = 0.02 if deep else 0.05
    _check(abs(rate - 0.40) <= tol, f"generator acceptance rate {rate:.3f} != 0.40 +- {tol}")


_SUITES = [
    ("modmath", _st_modmath),
    ("groups", _st_groups),
    ("oracle", _st_oracle),
    ("implicit", _st_implicit),
    ("reduction", _st_reduction),
    ("bounds", _st_bounds),
    ("generator-density", _st_generator_density),
]


def cmd_selftest(args) -> int:
    deep = args.depth == "full"
    rng = random.Random(args.seed)
    failed = False
    for name, suite in _SUITES:
        start = time.monotonic()
        try:
            suite(rng, deep)
        except SelfTestFailure as exc:
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
    p_reduce.add_argument("--backend", choices=("zp", "mult", "ec"), default="zp")
    p_reduce.add_argument("--seed", type=int, default=0)
    p_reduce.add_argument("--format", choices=("markdown", "csv", "json"), default="markdown")
    p_reduce.set_defaults(func=cmd_reduce)

    p_div = sub.add_parser("divisors", help="factor p-1 and suggest a divisor")
    p_div.add_argument("--p", type=int, required=True, help="prime")
    p_div.add_argument("--policy", choices=("paper", "min-n"), default="paper")
    p_div.add_argument("--budget", type=non_negative_int, default=10**8, help="factoring effort budget")
    p_div.add_argument("--db", default=None, help="database path for cross-reference")
    p_div.set_defaults(func=cmd_divisors)

    p_self = sub.add_parser("selftest", help="run the invariant suites")
    p_self.add_argument("--depth", choices=("quick", "full"), default="quick")
    p_self.add_argument("--seed", type=int, default=0)
    p_self.set_defaults(func=cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

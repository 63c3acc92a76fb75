"""The invariants behind the paper's claims, one plain function per check.

``dhpbound selftest`` and the pytest suite run these same functions. Each one
takes its inputs (group, oracle, rng, sample count, seeds, tolerance) as
arguments and raises InvariantFailure, whose message names the law that broke.
Primitives are checked against independent computations: trial division,
brute-force discrete logs and direct F_p arithmetic.
"""

from __future__ import annotations

import math
import random
import warnings

from . import bounds
from .groups import CyclicGroup, brute_force_dlog
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
from .modmath import factorize, is_prime
from .oracle import OracleHandle
from .reduction import ReductionTranscript, cost_report, find_generator, reduce_dlog


class InvariantFailure(Exception):
    """A checked invariant does not hold; the message names it."""


def _check(cond: bool, invariant: str) -> None:
    if not cond:
        raise InvariantFailure(invariant)


def check_factorize_sample(rng: random.Random, samples: int, limit: int) -> None:
    """factorize(n) is complete, multiplies back to n and has prime factors, n in [2, limit)."""
    for _ in range(samples):
        n = rng.randrange(2, limit)
        f = factorize(n)
        _check(f.complete, f"factorize({n}) incomplete below trial-division range")
        _check(f.value == n, f"factor product != {n}")
        _check(all(is_prime(q) for q, _ in f.factors), f"non-prime factor for {n}")


def check_is_prime_small(limit: int) -> None:
    """is_prime agrees with trial division on every n in [0, limit)."""
    for n in range(limit):
        trial = n >= 2 and all(n % k for k in range(2, math.isqrt(n) + 1))
        _check(is_prime(n) == trial, f"is_prime disagrees with trial division below {limit}")


def check_group_laws(group: CyclicGroup, rng: random.Random, points: int, rounds: int) -> None:
    """Associativity, commutativity, identity and inverse on sampled multiples of the generator."""
    p = group.order
    where = f"on {group.backend} p={p}"
    pts = [group.scalar_mul(rng.randrange(p), group.generator) for _ in range(points)]
    for _ in range(rounds):
        a, b, c = (rng.choice(pts) for _ in range(3))
        lhs = group.add(group.add(a, b), c)
        _check(group.eq(lhs, group.add(a, group.add(b, c))), f"associativity {where}")
        _check(group.eq(group.add(a, b), group.add(b, a)), f"commutativity {where}")
        _check(group.eq(group.add(a, group.identity), a), f"identity law {where}")
        _check(group.eq(group.add(a, group.negate(a)), group.identity), f"inverse law {where}")


def check_encode(group: CyclicGroup, rng: random.Random, pairs: int) -> None:
    """encode is injective on the whole group and agrees with eq on sampled pairs."""
    p = group.order
    pts = [group.scalar_mul(k, group.generator) for k in range(p)]
    where = f"on {group.backend} p={p}"
    _check(len({group.encode(pt) for pt in pts}) == p, f"encode not injective {where}")
    for _ in range(pairs):
        a, b = rng.choice(pts), rng.choice(pts)
        same = group.encode(a) == group.encode(b)
        _check(group.eq(a, b) == same, f"encode disagrees with eq {where}")


def check_dh(group: CyclicGroup, oracle: OracleHandle, rng: random.Random, samples: int) -> None:
    """dh(aP, bP) has discrete log ab mod p, as brute_force_dlog finds it."""
    p = group.order
    for _ in range(samples):
        a, b = rng.randrange(p), rng.randrange(p)
        got = oracle.dh(group.scalar_mul(a, group.generator), group.scalar_mul(b, group.generator))
        _check(
            brute_force_dlog(group, got) == a * b % p,
            f"dh({a}P,{b}P) != {a}*{b}P on {group.backend} p={p}",
        )


def check_implicit_field_ops(
    group: CyclicGroup, oracle: OracleHandle, rng: random.Random, samples: int
) -> None:
    """Implicit add, sub, scalar, mul, pow and inv equal direct F_p arithmetic on sampled y, z."""
    p = group.order
    for _ in range(samples):
        y, z, c, e = rng.randrange(p), rng.randrange(p), rng.randrange(p), rng.randrange(1, p)
        a, b = embed(group, y), embed(group, z)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PowCallBoundWarning)
            checks = [
                (implicit_add(a, b), (y + z) % p, "implicit add != field add"),
                (implicit_sub(a, b), (y - z) % p, "implicit sub != field sub"),
                (implicit_scalar(c, a), c * y % p, "implicit scalar != field scalar"),
                (implicit_mul(oracle, a, b), y * z % p, "implicit mul != field mul"),
                (implicit_pow(oracle, a, e), pow(y, e, p), "implicit pow != field pow"),
            ]
            if y != 0:
                inverse = pow(y, p - 2, p)
                checks.append((implicit_inv(oracle, a), inverse, "implicit inv != field inverse"))
        for got, want, invariant in checks:
            _check(group.eq(got.image, embed(group, want).image), invariant)


def check_reduction(
    group: CyclicGroup, oracle: OracleHandle, x: int, d: int, seed: int
) -> ReductionTranscript:
    """One full recovery of x with every transcript invariant; returns the transcript.

    x is recovered, the matches lie in range and reassemble i0, oracle calls
    equal floor(log2 d) + popcount(d), group ops stay under the sweep and walk
    ceilings, and the reported M bound is 2*(d1 + s2) of the run's own split.
    """
    p = group.order
    where = f"(p={p}, d={d})"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PowCallBoundWarning)
        tr = reduce_dlog(group, oracle, group.scalar_mul(x, group.generator), d, seed=seed)
    m = (p - 1) // d
    _check(tr.x == x, f"reduce_dlog missed x={x} (p={p}, d={d}, {group.backend})")
    _check(1 <= tr.j <= m and 0 <= tr.t < d, f"match out of range: j={tr.j}, t={tr.t} {where}")
    _check(tr.j == tr.u1 * tr.params.d1 - tr.v1, f"j != u1*d1 - v1 {where}")
    _check(tr.t == tr.u2 * tr.params.s2 - tr.v2, f"t != u2*s2 - v2 {where}")
    _check(
        tr.i0 == m * tr.t + tr.j and pow(tr.params.zeta0, tr.i0, p) == x,
        f"i0={tr.i0} does not reassemble x={x} {where}",
    )
    rep = cost_report(tr, p, d)
    calls = 0 if d == 1 else (d.bit_length() - 1) + d.bit_count()
    _check(
        tr.ledger.oracle_calls == calls and rep["oracle_calls_match_formula"],
        f"oracle calls != exact formula {where}",
    )
    _check(rep["within_sweep_ceiling"], f"group ops above sweep ceiling {where}")
    _check(rep["within_walk_ceiling"], f"group ops above walk ceiling {where}")
    m_bound = 2 * (tr.params.d1 + tr.params.s2)
    _check(rep["kkm_group_op_bound"] == m_bound, f"M bound != 2*(d1 + s2) = {m_bound} {where}")
    return tr


def check_database(db: list[bounds.CurveRecord]) -> None:
    """The packaged database: 33 records, every p prime under 64 rounds, every
    stored d dividing p-1, and the table grading as published (only SECT239K1
    annotated, full-table exit code 2)."""
    _check(len(db) == 33, "database does not hold 33 records")
    for rec in db:
        _check(is_prime(rec.p, rounds=64), f"database p not prime: {rec.name}")
        if rec.d is not None:
            _check((rec.p - 1) % rec.d == 0, f"database d does not divide p-1: {rec.name}")
    rows = bounds.table_rows(db)
    for row in rows:
        if row.name == "SECT239K1":
            _check(row.verdict == bounds.VERDICT_ANNOTATED, "SECT239K1 must grade as annotated")
        else:
            _check(
                row.verdict in (bounds.VERDICT_OK, bounds.VERDICT_NO_DATA),
                f"table row {row.name} grades {row.verdict}",
            )
    _check(bounds.rows_exit_code(rows) == 2, "full-table exit code != 2")


def check_generator_density(seeds, tolerance: float) -> tuple[float, float]:
    """find_generator at p = 101 accepts 0.40 +- tolerance of its candidates over the seeds.

    The rate must also beat the density floor 1/(6 ln ln 100). Returns
    (rate, floor).
    """
    f = factorize(100)
    stats: dict = {}
    for seed in seeds:
        find_generator(101, f, seed, stats=stats)
    rate = len(seeds) / stats["candidates"]
    floor = 1.0 / (6.0 * math.log(math.log(100)))
    what = f"generator acceptance rate {rate:.3f}"
    _check(abs(rate - 0.40) <= tolerance, f"{what} != 0.40 +- {tolerance}")
    _check(rate > floor, f"{what} below the density floor {floor:.4f}")
    return rate, floor

"""Discrete-log recovery from a DH oracle, for any divisor d of p-1.

Given Q = xP in a group of prime order p, a DH oracle, and a divisor d of
p-1, the engine recovers x with exactly floor(log2 d) + popcount(d) oracle
calls (zero when d = 1) plus a bounded number of plain group operations:

1. Pick a generator zeta0 of F_p^x and set zeta = zeta0^d, which generates
   the index-d subgroup of order m = (p-1)/d.
2. Compute the image of x^d by square-and-multiply on the implicit element
   (this is the only oracle consumption), then find j in [1, m] with
   x^d = zeta^j by a baby-step giant-step walk in the implicit field --
   writing j = u1*d1 - v1 with d1 = isqrt(m). The baby side visits
   zeta^v1 * (x^d P), the giant side (zeta^d1)^u1 * P.
3. Writing x = zeta0^(m*t + j) for t in [0, d), find t by a second walk
   driven by powers of zeta0^m, t = u2*s2 - v2 with s2 = isqrt(d). Every
   scaling here is by an explicitly known field constant, so this phase is
   oracle-free.
4. Recombine: i0 = m*t + j, x = zeta0^i0 mod p, verified against Q before
   returning.

Both phases are one collision search. Each side visits k * base for a base
fixed per walk (x^d P, Q or P) and a multiplier k the walk knows, k <- k *
stride mod p per step; _walk yields its encoded keys and bills each point as
it is pulled, and groups.bsgs_table/bsgs_probe pull only the points the
search uses. A walk runs on a fixed-base table in the manner of
Kozaki-Kutsuma-Matsuo's refinement of Cheon's algorithm: columns 2^(wj) *
base built with implicit_scalar, 2^w - 2 row multiples per column, then one
addition per nonzero w-bit digit of k past the first. window_plan picks w
per walk from its exact number of points, and w = 0 keeps the plain
double-and-add walk when no table is cheaper. The ledger is charged exactly
that, tables in full on every run, whatever the backend does underneath.
Phase 1's giant side visits (zeta^d1)^u1 * P, which depends on the group and
that stride alone, never on Q, so the group keeps its keys per d as far as
any run pulled, and later runs read them back; each is still billed.
The final verification is a self-check, not part of the algorithm, and is
left off the books.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import asdict, dataclass
from typing import NamedTuple

from .groups import CyclicGroup, GroupPoint, bsgs_probe, bsgs_table, scalar_mul_cost
from .implicit import ImplicitFieldElement, implicit_pow, implicit_scalar
from .modmath import Factorization, IncompleteFactorizationError, factorize
from .oracle import CostLedger, OracleHandle


class ZeroDlogError(ValueError):
    """Q is the identity: x = 0 is outside the x in [1, p-1] contract."""


class InvalidDivisorError(ValueError):
    """The requested d does not divide p-1."""


class ImprobableFailureError(RuntimeError):
    """Generator sampling failed far beyond its probabilistic budget."""


class InternalInconsistencyError(RuntimeError):
    """A BSGS sweep that must succeed did not, or the recovered x failed verification."""


@dataclass(frozen=True)
class ReductionParams:
    """Derived constants for one run: divisor split, step sizes, generator powers."""

    d: int
    d1: int  # isqrt((p-1)/d), phase-1 step size
    s2: int  # isqrt(d), phase-2 step size
    zeta0: int  # generator of F_p^x
    zeta: int  # zeta0^d mod p, generates the order-m subgroup
    seed: int


@dataclass
class ReductionTranscript:
    """Everything one run produced: matches from both phases, the answer, the bill."""

    p: int
    backend: str
    j: int
    u1: int
    v1: int
    t: int
    u2: int
    v2: int
    i0: int
    x: int
    ledger: CostLedger
    params: ReductionParams

    def to_dict(self) -> dict:
        return asdict(self)  # ledger and params become nested dicts


def generator_try_budget(p: int) -> int:
    """Sampling attempts allowed before declaring improbable failure."""
    return 512 * max(1, math.ceil(6 * math.log(math.log(p - 1))))


def find_generator(
    p: int, factors_of_p_minus_1: Factorization, seed: int, stats: dict | None = None
) -> int:
    """Uniformly sampled generator of F_p^x, deterministic for a given seed.

    A candidate c generates iff c^((p-1)/q) != 1 for every prime q | p-1. The
    generator density exceeds 1/(6 ln ln(p-1)), so the fixed try budget fails
    only with negligible probability on valid inputs. When a stats dict is
    supplied, the number of candidates examined is accumulated under
    "candidates" (one entry per sampled c, accepted or not), also when the
    sample comes out of _sample_generator's memo.
    """
    if not factors_of_p_minus_1.complete:
        raise IncompleteFactorizationError("generator search needs p-1 fully factored")
    if p < 3:
        raise ValueError(f"p must be a prime >= 3, got {p}")
    candidates = generator_try_budget(p)  # what a failed search examined
    try:
        zeta0, candidates = _sample_generator(p, factors_of_p_minus_1.primes(), seed)
    finally:
        if stats is not None:
            stats["candidates"] = stats.get("candidates", 0) + candidates
    return zeta0


@functools.lru_cache(maxsize=1024)
def _sample_generator(p: int, primes: tuple[int, ...], seed: int) -> tuple[int, int]:
    """(generator, candidates examined), drawn by random.Random(seed).

    A failed search raises, so lru_cache never keeps it.
    """
    if p == 3:
        return 2, 1  # the only generator, and the sampling range [2, p-2] is empty
    prime_cofactors = [(p - 1) // q for q in primes]
    rng = random.Random(seed)
    budget = generator_try_budget(p)
    for candidates in range(1, budget + 1):
        c = rng.randrange(2, p - 1)
        if all(pow(c, e, p) != 1 for e in prime_cofactors):
            return c, candidates
    raise ImprobableFailureError(
        f"no generator of F_{p}^x in {budget} samples: p composite or factorization wrong"
    )


class Walk(NamedTuple):
    """One BSGS side: it visits k*base for k = k0*stride^i mod p, i = 0..points-1 at most."""

    k0: int
    stride: int
    points: int


# a run's four walks in order, as cost_report names their windows
WALK_NAMES = ("phase1_baby", "phase1_giant", "phase2_baby", "phase2_giant")


def phase1_walks(p: int, params: ReductionParams) -> tuple[Walk, Walk]:
    """Phase 1's baby side (on x^d*P) and giant side (on P)."""
    m = (p - 1) // params.d
    giant = pow(params.zeta, params.d1, p)
    return Walk(1, params.zeta, params.d1 + 1), Walk(giant, giant, -(-m // params.d1) + 1)


def phase2_walks(p: int, params: ReductionParams, j: int) -> tuple[Walk, Walk]:
    """Phase 2's baby side (on Q) and giant side (on P), once phase 1 has found j."""
    d, s2 = params.d, params.s2
    zm = pow(params.zeta0, (p - 1) // d, p)
    return Walk(1, zm, s2 + 1), Walk(pow(params.zeta0, j, p), pow(zm, s2, p), -(-d // s2) + 2)


@functools.lru_cache(maxsize=1024)
def _windows(bits: int, later: int) -> tuple[tuple[int, int, int, int, int, int], ...]:
    """Windows 1 <= w < bits for multipliers below 2^bits and a walk of later + 1 points.

    Each is (table cost plus the worst case of every point past the first,
    w, cols, table cost, low, high), cheapest first. A table has cols = ceil(bits/w) columns 2^(wj)*base,
    cols - 1 of them built with w doublings each, and 2^w - 2 row multiples
    per column at one addition each; every point after the first costs at
    most cols - 1 additions. low and high hold the low w-1 bits and the top
    bit of every digit: k has (((k & low) + low | k) & high).bit_count()
    nonzero w-bit digits, since adding low carries into a digit's top bit
    exactly when its low bits are not all zero.
    """
    out = []
    for w in range(1, bits):
        cols = -(-bits // w)
        unit = ((1 << (w * cols)) - 1) // ((1 << w) - 1)  # lowest bit of every digit
        table = (cols - 1) * w + cols * ((1 << w) - 2)
        low, high = unit * ((1 << (w - 1)) - 1), unit << (w - 1)
        out.append((table + later * (cols - 1), w, cols, table, low, high))
    return tuple(sorted(out))


def _plan(p: int, walk: Walk) -> tuple[int, tuple | None]:
    """(worst-case group ops, window) of window_plan's choice; window None is the plain walk."""
    k0, stride, points = walk
    later = points - 1
    best, choice = scalar_mul_cost(k0) + later * scalar_mul_cost(stride), None
    for window in _windows((p - 1).bit_length(), later):
        bill, _, _, _, low, high = window
        if bill >= best:  # k0's digits only add to it, and later windows cost no less
            break
        bill += (((k0 & low) + low | k0) & high).bit_count() - 1
        if bill < best:
            best, choice = bill, window
    return best, choice


def window_plan(p: int, walk: Walk) -> tuple[int, int]:
    """(w, worst-case group ops) of the cheapest way to run walk; w = 0 is the plain walk.

    The plain walk pays a double-and-add by k0 to reach its start and one by
    the stride per later point. A w-bit window (1 <= w < bits of p-1) pays
    for its table up front, then one addition per nonzero digit of k past the
    first: exactly that for k0, at most cols - 1 for every later point. Ties
    keep the plain walk, so no walk is planned to cost more than it does
    without windows; among windows they keep the first in _windows' order.
    """
    bill, window = _plan(p, walk)
    return (0 if window is None else window[1]), bill


def _walk(
    group: CyclicGroup,
    ledger: CostLedger,
    base: ImplicitFieldElement,
    walk: Walk,
    keys: list | None = None,
):
    """Generator of the encoded keys of k*base, k = k0*stride^i mod p, billed per pull.

    Under window_plan's w = 0 each point is an implicit_scalar by the stride
    of the last (the first by k0 of base). Otherwise k*base is read off the
    group's fixed-base hook, on columns built with implicit_scalar: the first
    pull charges the table in full, also when the generator's is reused, and
    each point its nonzero digits - 1, as the generic path performs. The
    windowed walk reads key i from keys when the list reaches that far, else
    evaluates and appends it, so a list kept across runs never grows past the
    last point pulled; the plain walk ignores it.
    """
    p = group.order
    _, window = _plan(p, walk)
    encode = group.encode
    if window is None:
        point = base if walk.k0 == 1 else implicit_scalar(walk.k0, base, ledger)
        while True:
            yield encode(point.image)
            point = implicit_scalar(walk.stride, point, ledger)
    _, w, cols, table, low, high = window
    ledger.charge_group_ops(table)
    cache = group._generator_tables if base.image.data == group.generator.data else {}
    times = cache.get(w)
    if times is None:
        column, columns = base, [base.image.data]
        for _ in range(cols - 1):
            column = implicit_scalar(1 << w, column)
            columns.append(column.image.data)
        times = cache[w] = group._raw_fixed_base(columns, w)
    keys = [] if keys is None else keys
    k, stride = walk.k0, walk.stride
    for i in itertools.count():
        ledger.group_ops += (((k & low) + low | k) & high).bit_count() - 1
        if i == len(keys):
            keys.append(encode(GroupPoint(group, times(k))))
        yield keys[i]
        k = k * stride % p


def _collide(
    group: CyclicGroup, oracle: OracleHandle, base: ImplicitFieldElement,
    baby: Walk, giant: Walk, us: range, accept, keys: list | None = None,
) -> tuple[int, int] | None:
    """First accepted (u, v) where the giant walk on P meets the baby walk on base, else None.

    Billed to the oracle's ledger, or to a throwaway one when it is detached.
    """
    ledger = CostLedger() if oracle.ledger is None else oracle.ledger
    table = bsgs_table(_walk(group, ledger, base, baby), baby.points)
    ledger.charge_table_entries(baby.points)
    giants = _walk(group, ledger, ImplicitFieldElement(group.generator), giant, keys)
    return bsgs_probe(table, giants, us, accept)


def phase1_find_j(
    group: CyclicGroup,
    oracle: OracleHandle,
    q_pow_d: ImplicitFieldElement,
    params: ReductionParams,
) -> tuple[int, int, int]:
    """Find j in [1, m] with x^d = zeta^j, m = (p-1)/d, by BSGS on implicit elements.

    Baby side stores zeta^v1 * x^d for v1 = 0..d1; giant side walks
    (zeta^d1)^u1 for u1 = 1..ceil(m/d1)+1 and probes. Matches whose
    j = u1*d1 - v1 falls outside [1, m] are collisions from wrapped exponents
    (possible only in degenerate splits); the sweep continues past them.
    """
    p = group.order
    m = (p - 1) // params.d
    d1 = params.d1
    baby, giant = phase1_walks(p, params)
    # the giant side depends on the group and its stride alone, never on Q
    stride, keys = group._giant_keys.get(params.d, (None, None))
    if stride != giant.stride:
        keys = []
        group._giant_keys[params.d] = (giant.stride, keys)
    hit = _collide(
        group, oracle, q_pow_d, baby, giant,
        range(1, giant.points + 1), lambda u1, v1: 1 <= u1 * d1 - v1 <= m, keys,
    )
    if hit is None:
        raise InternalInconsistencyError(
            f"phase 1 found no j in [1, {m}] for d={params.d}: oracle or generator is broken"
        )
    u1, v1 = hit
    return u1 * d1 - v1, u1, v1


def phase2_find_t(
    group: CyclicGroup,
    oracle: OracleHandle,
    Q: GroupPoint,
    j: int,
    params: ReductionParams,
) -> tuple[int, int, int]:
    """Find t in [0, d) with x = zeta0^(m*t + j), by a second, oracle-free BSGS.

    Baby side stores (zeta0^m)^v2 * x for v2 = 0..s2; giant side starts at
    zeta0^j and walks (zeta0^(m*s2))^u2 for u2 = 0..ceil(d/s2)+1. Every
    scaling constant is an explicit field element, so no oracle calls occur.
    """
    d, s2 = params.d, params.s2
    baby, giant = phase2_walks(group.order, params, j)
    hit = _collide(
        group, oracle, ImplicitFieldElement(Q), baby, giant,
        range(giant.points), lambda u2, v2: 0 <= u2 * s2 - v2 < d,
    )
    if hit is None:
        raise InternalInconsistencyError(
            f"phase 2 found no t in [0, {d}) at j={j}: phase 1 result inconsistent"
        )
    u2, v2 = hit
    return u2 * s2 - v2, u2, v2


def reduce_dlog(
    group: CyclicGroup, oracle: OracleHandle, Q: GroupPoint, d: int, seed: int = 0
) -> ReductionTranscript:
    """Recover x from Q = xP using the oracle and the divisor d of p-1.

    Attaches a fresh ledger to the oracle for the duration of the run. The
    returned transcript carries the matches of both phases, the recombined
    exponent, the recovered x (verified to satisfy xP = Q), and the ledger.
    """
    p = group.order
    group._member(Q)
    if d < 1 or (p - 1) % d != 0:
        raise InvalidDivisorError(f"d={d} does not divide p-1={p - 1}")
    if group.eq(Q, group.identity):
        raise ZeroDlogError("Q is the identity: its exponent 0 is outside [1, p-1]")
    ledger = CostLedger()
    oracle.attach_ledger(ledger)
    zeta0 = find_generator(p, factorize(p - 1), seed)
    params = ReductionParams(
        d=d,
        d1=math.isqrt((p - 1) // d),
        s2=math.isqrt(d),
        zeta0=zeta0,
        zeta=pow(zeta0, d, p),
        seed=seed,
    )
    Q_implicit = ImplicitFieldElement(Q)
    # for d = 1, x^d is already in hand: no oracle calls
    x_pow_d = Q_implicit if d == 1 else implicit_pow(oracle, Q_implicit, d)
    j, u1, v1 = phase1_find_j(group, oracle, x_pow_d, params)
    t, u2, v2 = phase2_find_t(group, oracle, Q, j, params)
    i0 = ((p - 1) // d) * t + j
    x = pow(zeta0, i0, p)
    # self-check, off the books: the algorithm's answer must reproduce Q
    if not group.eq(group.scalar_mul(x, group.generator), Q):
        raise InternalInconsistencyError(f"recovered x={x} fails x*P = Q at p={p}, d={d}")
    return ReductionTranscript(
        p=p, backend=group.backend,
        j=j, u1=u1, v1=v1, t=t, u2=u2, v2=v2,
        i0=i0, x=x, ledger=ledger, params=params,
    )


def oracle_calls_exact(d: int) -> int:
    """DH-oracle calls consumed computing x^d: floor(log2 d) + popcount(d), none for d = 1."""
    if d < 1:
        raise ValueError(f"divisor must be >= 1, got {d}")
    if d == 1:
        return 0
    return (d.bit_length() - 1) + d.bit_count()


def reduction_ops_bound(p: int, d: int) -> int:
    """Group operations for the two BSGS walks: M = 2*(isqrt((p-1)/d) + isqrt(d))."""
    if d < 1 or (p - 1) % d != 0:
        raise InvalidDivisorError(f"d={d} does not divide p-1={p - 1}")
    return 2 * (math.isqrt((p - 1) // d) + math.isqrt(d))


def ceil_log2(n: int) -> int:
    """Smallest k with 2^k >= n, for n >= 1."""
    if n < 1:
        raise ValueError(f"ceil_log2 of {n} undefined")
    return (n - 1).bit_length()


def cost_report(tr: ReductionTranscript, p: int, d: int) -> dict:
    """Measured costs of a run against the analytic ceilings.

    Two group-op ceilings are reported and must always hold. The sweep
    ceiling prices every step the implementation can possibly take at
    2*ceil(log2 p) operations, giant strides past the range boundary
    included. The walk ceiling is the exact worst case of the four walks as
    planned (window_plan, tables included, giant sides run to their last
    point); it is recomputed from the transcript and is never above what the
    same walks cost without windows. The tighter 2*(d1 + s2) form is the
    known-improvement M bound, reported for comparison and not enforced: it
    prices each step at one group operation, and a fixed-base walk gets down
    to one addition per point only with two columns, that is with tables of
    about sqrt(p) entries. So M is out of reach for this method:
    kkm_group_op_bound stays reported but unenforced, and the walk ceiling,
    the planner's optimum, is the bound every run is held to.
    """
    d1, s2 = tr.params.d1, tr.params.s2
    m = (p - 1) // d
    calls_formula = oracle_calls_exact(d)
    lemma_call_bound = 0 if d == 1 else 2 * (d.bit_length() - 1)
    sweep_steps = (-(-m // d1) + 1) + (-(-d // s2) + 1) + d1 + s2
    # implied by the walk ceiling, kept for perfbench workloads.check_reduction (within_sweep_ceiling)
    sweep_ceiling = 2 * ceil_log2(p) * sweep_steps
    walks = (*phase1_walks(p, tr.params), *phase2_walks(p, tr.params, tr.j))
    plans = {name: window_plan(p, walk) for name, walk in zip(WALK_NAMES, walks)}
    walk_ceiling = sum(bill for _, bill in plans.values())
    return {
        "p": p,
        "d": d,
        "measured_group_ops": tr.ledger.group_ops,
        "measured_oracle_calls": tr.ledger.oracle_calls,
        "bsgs_table_entries": tr.ledger.bsgs_table_entries,
        "oracle_calls_formula": calls_formula,
        "oracle_calls_match_formula": tr.ledger.oracle_calls == calls_formula,
        "lemma_oracle_call_bound": lemma_call_bound,
        "within_lemma_oracle_bound": tr.ledger.oracle_calls <= lemma_call_bound,
        "kkm_group_op_bound": reduction_ops_bound(p, d),
        "sweep_group_op_ceiling": sweep_ceiling,
        "within_sweep_ceiling": tr.ledger.group_ops <= sweep_ceiling,
        "walk_group_op_ceiling": walk_ceiling,
        "within_walk_ceiling": tr.ledger.group_ops <= walk_ceiling,
        **{f"window_{name}": w for name, (w, _) in plans.items()},
    }

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
stride mod p per step. _walk yields its encoded keys lazily, so
groups.bsgs_table/bsgs_probe evaluate only the points the search uses, and
_charges gives the group ops of each point, so a search is billed the sum
over the points it pulled. A walk runs on a fixed-base table in the manner of
Kozaki-Kutsuma-Matsuo's refinement of Cheon's algorithm: columns 2^(wj) *
base (on P the group's kept generator table, otherwise built with
implicit_scalar), 2^w - 2 row multiples per column except the top one, whose
row stops at the top w-bit digit of p - 1, then one addition per nonzero
w-bit digit of k past the first. _plan picks w per walk from the points it
is billed for: all of a baby side, the first half of a giant side, which is
billed only through its match. w = 0 keeps the plain double-and-add walk
when no table is cheaper. Both giant walks are on P, so phase 2's giant walk
is offered phase 1's window with its table already paid for, and a run
builds and bills at most one table on P. Each run is planned once: the
transcript carries the four planned walks, and cost_report reads them. The
ledger is charged exactly that, each table in full with the first point of
the walk that owns it, also when the group reuses the generator's from an
earlier run, whatever the backend does underneath.
Phase 1's walks depend on p, d and zeta, never on Q. So the group keeps
phase 1 as a giant_table, one per d: its planned walks, and the giant side's
points zeta^e * P for e = d1*u1, each key mapped to its exponent e. The
first run on a table builds it over the whole giant walk, exactly as a
one-shot run would. The first run that reuses it adds the half-stride points
e = d1*u - floor(d1/2) once, so later runs meet a stored e within about d1/2
baby points. Each run streams its baby points zeta^v * x^d P into the table
and stops at the first hit: zeta has order m, so any hit gives
j = (e - v - 1) mod m + 1. The table also stores what the walks cost, so the
run is still billed the search as a baby table probed in u1 order would run
it, at u1 = ceil(j/d1) and v1 = u1*d1 - j: the whole baby walk and its table
entries, the giant walk through u1. Phase 2 builds its baby table and probes
it with its giant walk on every run.
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
    plan: tuple[Planned, ...]  # the four walks on their windows, in WALK_NAMES order

    def to_dict(self) -> dict:
        """The run's fields, ledger and params as nested dicts; the plan stays out of exports."""
        out = asdict(self)
        del out["plan"]
        return out


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


class Window(NamedTuple):
    """A w-bit fixed-base table as the planner prices it.

    bill is table plus cols - 1 for every priced point past the first, the
    key _windows sorts by. The table has cols = ceil(bits/w) columns
    2^(wj)*base, cols - 1 of them built with w doublings each, and costs
    table group ops. low and high hold the low w-1 bits and the top bit of
    every digit: k has (((k & low) + low | k) & high).bit_count() nonzero
    w-bit digits, since adding low carries into a digit's top bit exactly
    when its low bits are not all zero.
    """

    bill: int
    w: int
    cols: int
    table: int
    low: int
    high: int


@functools.lru_cache(maxsize=1024)
def _windows(n: int, later: int) -> tuple[Window, ...]:
    """Windows 1 <= w < bits of n for multipliers k <= n and a walk priced at later + 1 points, cheapest first.

    Every row but the top column's holds 2^w - 2 multiples at one addition
    each. The top column's row holds them only up to top = n >> (w*(cols - 1)),
    the largest top digit of any k <= n, at max(top - 1, 0) additions. Every
    point after the first costs at most cols - 1 additions.
    """
    bits = n.bit_length()
    out = []
    for w in range(1, bits):
        cols = -(-bits // w)
        unit = ((1 << (w * cols)) - 1) // ((1 << w) - 1)  # lowest bit of every digit
        top = n >> (w * (cols - 1))
        table = (cols - 1) * w + (cols - 1) * ((1 << w) - 2) + max(top - 1, 0)
        low, high = unit * ((1 << (w - 1)) - 1), unit << (w - 1)
        out.append(Window(table + later * (cols - 1), w, cols, table, low, high))
    return tuple(sorted(out))


def _digits(k: int, window: Window) -> int:
    """Nonzero w-bit digits of k."""
    return (((k & window.low) + window.low | k) & window.high).bit_count()


def _worst(walk: Walk, window: Window | None, points: int) -> int:
    """Worst-case group ops of walk's first points points on window; None is the plain walk.

    The plain walk pays a double-and-add by k0 to reach its start and one by
    the stride per later point. A window pays its table, then one addition
    per nonzero digit of k past the first: exactly that for k0, at most
    cols - 1 for every later point.
    """
    if window is None:
        return scalar_mul_cost(walk.k0) + (points - 1) * scalar_mul_cost(walk.stride)
    return window.table + _digits(walk.k0, window) - 1 + (points - 1) * (window.cols - 1)


Planned = tuple[Walk, Window | None]  # a walk and the window it runs on


@functools.lru_cache(maxsize=256)
def _plan(p: int, walk: Walk, giant: bool = False, shared: Window | None = None) -> Window | None:
    """The window walk runs on, the one that makes the points it is billed cheapest; None is the plain walk.

    A baby side is billed in full, so it is priced at all its points. A
    giant side is billed only through its match, so it is priced at its
    first ceil(points/2). shared is phase 1's giant window, whose table the
    run already built and was billed for: it is offered with no table
    charge and wins ties, so a run builds and bills at most one table on P.
    Otherwise ties keep the plain walk, and among windows the first in
    _windows' order. So no baby side costs more in the worst case than
    without windows, and no giant side's first ceil(points/2) points do; a
    giant side's later points may cost more than the plain walk's would.
    Memoised: every run on one (p, d, seed) has the same phase-2 baby walk.
    """
    priced = -(-walk.points // 2) if giant else walk.points
    best, choice = _worst(walk, None, priced), None
    if shared is not None:
        shared = shared._replace(bill=shared.bill - shared.table, table=0)
        bill = _worst(walk, shared, priced)
        if bill <= best:
            best, choice = bill, shared
    for window in _windows(p - 1, priced - 1):
        if window.bill >= best:  # k0's digits only add to it, and later windows cost no less
            break
        bill = window.bill + _digits(walk.k0, window) - 1
        if bill < best:
            best, choice = bill, window
    return choice


def _charges(p: int, walk: Walk, window: Window | None):
    """Group ops of each point of walk in turn, as _walk evaluates it on window.

    The plain walk (None) pays a double-and-add by k0 for its first point
    and one by the stride for each later one. A windowed walk pays the
    window's table with the first point, also when the group reuses the
    generator's from an earlier run (none on a table phase 2 shares with
    phase 1), and each point its nonzero digits - 1, as the generic path
    performs. A search is billed the sum over the points it pulled.
    """
    k, stride, points = walk
    if window is None:
        yield scalar_mul_cost(k)
        yield from itertools.repeat(scalar_mul_cost(stride), points - 1)
        return
    table, low, high = window.table, window.low, window.high
    for i in range(points):
        yield (0 if i else table) + (((k & low) + low | k) & high).bit_count() - 1
        k = k * stride % p


def _walk(group: CyclicGroup, base: ImplicitFieldElement, walk: Walk, window: Window | None):
    """Generator of the encoded keys of k*base, k = k0*stride^i mod p, one per pull.

    On the plain walk (None) each point is an implicit_scalar by the stride
    of the last (the first by k0 of base). Otherwise k*base is read off the
    group's fixed-base hook: a walk on the generator reads the group's kept
    table for its w, any other walk builds its columns with implicit_scalar
    at the first pull.
    """
    p = group.order
    encode = group.encode
    if window is None:
        point = base if walk.k0 == 1 else implicit_scalar(walk.k0, base)
        while True:
            yield encode(point.image)
            point = implicit_scalar(walk.stride, point)
    w = window.w
    if base.image.data == group.generator.data:
        times = group._generator_table(w)
    else:
        column, columns = base, [base.image.data]
        for _ in range(window.cols - 1):
            column = implicit_scalar(1 << w, column)
            columns.append(column.image.data)
        times = group._raw_fixed_base(columns, w)
    k, stride = walk.k0, walk.stride
    while True:
        yield encode(GroupPoint(group, times(k)))
        k = k * stride % p


def _bill(oracle: OracleHandle, group_ops: int, table_entries: int) -> None:
    """Charge one search to the oracle's ledger; a detached oracle keeps no bill."""
    if oracle.ledger is not None:
        oracle.ledger.charge_group_ops(group_ops)
        oracle.ledger.charge_table_entries(table_entries)


@dataclass
class GiantTable:
    """Phase 1's giant side for one (group, d, zeta), shared by every Q.

    plan is phase 1's (baby, giant) walks on their windows, planned once when
    the table is built: the walks depend only on p, d and zeta. table maps
    the encoded key of zeta^e * P to e. A build stores the giant walk,
    e = d1*u for u = 1..G with G = its points; extended marks that the
    half-stride walk e = d1*u - floor(d1/2), u = 1..G, has been added too, so
    the table holds at most 2G keys. baby_bill is the group ops of the whole
    baby walk, giant_bills[i] those of the giant walk's first i + 1 points.
    """

    zeta: int
    plan: tuple[Planned, Planned]
    table: dict
    baby_bill: int
    giant_bills: list[int]
    extended: bool = False


def _giant_keys(group: CyclicGroup, walk: Walk, window: Window | None, e0: int, d1: int):
    """(key, e) of zeta^e * P for e = e0 + d1*i, i < walk.points, with walk visiting those points.

    Pulls exactly walk.points keys.
    """
    generator = ImplicitFieldElement(group.generator)
    keys = itertools.islice(_walk(group, generator, walk, window), walk.points)
    return zip(keys, range(e0, e0 + d1 * walk.points, d1))


def giant_table(group: CyclicGroup, params: ReductionParams) -> GiantTable:
    """The group's phase-1 giant table for params: planned and built on first use, extended on first reuse.

    One table per d: a run with another zeta replaces it. A build plans
    both phase-1 walks and pulls every point of the giant walk; the first
    run that finds its zeta kept adds the half-stride walk once, from
    zeta^(d1 - h) with h = floor(d1/2) on the same stride and window
    (nothing when h = 0). Neither is billed, and a one-shot run never
    extends.
    """
    p, d1 = group.order, params.d1
    kept = group._giant_tables.get(params.d)
    if kept is None or kept.zeta != params.zeta:
        baby, giant = phase1_walks(p, params)
        baby_window, giant_window = _plan(p, baby), _plan(p, giant, giant=True)
        kept = group._giant_tables[params.d] = GiantTable(
            params.zeta,
            ((baby, baby_window), (giant, giant_window)),
            dict(_giant_keys(group, giant, giant_window, d1, d1)),
            sum(_charges(p, baby, baby_window)),
            list(itertools.accumulate(_charges(p, giant, giant_window))),
        )
    elif not kept.extended:
        h = d1 // 2
        if h:
            giant, giant_window = kept.plan[1]
            half = giant._replace(k0=pow(params.zeta, d1 - h, p))
            kept.table.update(_giant_keys(group, half, giant_window, d1 - h, d1))
        kept.extended = True
    return kept


def phase1_find_j(
    group: CyclicGroup,
    oracle: OracleHandle,
    q_pow_d: ImplicitFieldElement,
    params: ReductionParams,
) -> tuple[int, int, int, tuple[Planned, Planned]]:
    """Find j in [1, m] with x^d = zeta^j, m = (p-1)/d, by BSGS on implicit elements.

    The giant side is the group's giant_table of zeta^e * P; the baby side
    zeta^v * x^d for v = 0..d1 probes it, one point per v, and stops at the
    first hit. zeta has order exactly m, so a hit zeta^v * x^d = zeta^e gives
    j = (e - v - 1) mod m + 1, whichever stored e it met, also in degenerate
    splits where exponents wrap. The run is billed the search a baby table
    probed in u1 order would run, whose match is u1 = ceil(j/d1),
    v1 = u1*d1 - j: the whole baby walk and its table entries, the giant
    walk through u1. On an extended table the probe pulls at most
    ceil(d1/2) + 1 baby points. Returns (j, u1, v1, the table's plan).
    """
    m = (group.order - 1) // params.d
    d1 = params.d1
    giants = giant_table(group, params)
    baby, window = giants.plan[0]
    hit = bsgs_probe(giants.table, _walk(group, q_pow_d, baby, window), range(baby.points))
    if hit is None:
        raise InternalInconsistencyError(
            f"phase 1 found no j in [1, {m}] for d={params.d}: oracle or generator is broken"
        )
    v, e = hit
    j = (e - v - 1) % m + 1
    u1 = -(-j // d1)
    _bill(oracle, giants.baby_bill + giants.giant_bills[u1 - 1], baby.points)
    return j, u1, u1 * d1 - j, giants.plan


def phase2_find_t(
    group: CyclicGroup,
    oracle: OracleHandle,
    Q: GroupPoint,
    j: int,
    params: ReductionParams,
    shared: Window | None,
) -> tuple[int, int, int, tuple[Planned, Planned]]:
    """Find t in [0, d) with x = zeta0^(m*t + j), by a second, oracle-free BSGS.

    Baby side stores (zeta0^m)^v2 * x for v2 = 0..s2; giant side starts at
    zeta0^j and walks (zeta0^(m*s2))^u2 for u2 = 0..ceil(d/s2)+1. Every
    scaling constant is an explicit field element, so no oracle calls occur.
    The giant side is on P, like phase 1's, and shared is phase 1's giant
    window, which _plan offers it with no table charge. The run is billed
    the whole baby walk and its table entries, and the giant walk through
    u2. Returns (t, u2, v2, the planned walks).
    """
    p = group.order
    d, s2 = params.d, params.s2
    baby, giant = phase2_walks(p, params, j)
    baby_window, giant_window = _plan(p, baby), _plan(p, giant, giant=True, shared=shared)
    table = bsgs_table(_walk(group, ImplicitFieldElement(Q), baby, baby_window), baby.points)
    giants = _walk(group, ImplicitFieldElement(group.generator), giant, giant_window)
    hit = bsgs_probe(table, giants, range(giant.points), lambda u2, v2: 0 <= u2 * s2 - v2 < d)
    if hit is None:
        raise InternalInconsistencyError(
            f"phase 2 found no t in [0, {d}) at j={j}: phase 1 result inconsistent"
        )
    u2, v2 = hit
    bill = sum(_charges(p, baby, baby_window))
    bill += sum(itertools.islice(_charges(p, giant, giant_window), u2 + 1))
    _bill(oracle, bill, baby.points)
    return u2 * s2 - v2, u2, v2, ((baby, baby_window), (giant, giant_window))


def reduce_dlog(
    group: CyclicGroup, oracle: OracleHandle, Q: GroupPoint, d: int, seed: int = 0
) -> ReductionTranscript:
    """Recover x from Q = xP using the oracle and the divisor d of p-1.

    Attaches a fresh ledger to the oracle for the duration of the run. The
    returned transcript carries the matches of both phases, the recombined
    exponent, the recovered x (verified to satisfy xP = Q), the ledger and
    the four planned walks.
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
    j, u1, v1, plan1 = phase1_find_j(group, oracle, x_pow_d, params)
    t, u2, v2, plan2 = phase2_find_t(group, oracle, Q, j, params, shared=plan1[1][1])
    i0 = ((p - 1) // d) * t + j
    x = pow(zeta0, i0, p)
    # self-check, off the books: the algorithm's answer must reproduce Q
    if not group.eq(group.scalar_mul(x, group.generator), Q):
        raise InternalInconsistencyError(f"recovered x={x} fails x*P = Q at p={p}, d={d}")
    return ReductionTranscript(
        p=p, backend=group.backend,
        j=j, u1=u1, v1=v1, t=t, u2=u2, v2=v2,
        i0=i0, x=x, ledger=ledger, params=params, plan=(*plan1, *plan2),
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
    included. The walk ceiling is the exact worst case of the four walks in
    tr.plan, on the windows the run used (tables included, the generator
    table once, giant sides run to their last point), and window_<walk>
    reports each walk's w from the same plan; nothing is planned again.
    The planner prices a giant side at its first ceil(points/2) points, so
    the ceiling is not bounded by what the same walks cost without windows;
    what holds is that no baby side, and no giant side's priced prefix,
    costs more in the worst case than without them. check_reduction and
    criterion 5 hold the walk ceiling under the sweep ceiling on every run
    they make. The tighter 2*(d1 + s2) form is the known-improvement M
    bound, reported for comparison and not enforced: it prices each step at
    one group operation, and a fixed-base walk gets down to one addition per
    point only with two columns, that is with tables of about sqrt(p)
    entries. So M is out of reach for this method: kkm_group_op_bound stays
    reported but unenforced, and the walk ceiling, the worst case of the
    walks as planned, is the bound every run is held to.
    """
    d1, s2 = tr.params.d1, tr.params.s2
    m = (p - 1) // d
    calls_formula = oracle_calls_exact(d)
    lemma_call_bound = 0 if d == 1 else 2 * (d.bit_length() - 1)
    sweep_steps = (-(-m // d1) + 1) + (-(-d // s2) + 1) + d1 + s2
    # implied by the walk ceiling, kept for perfbench workloads.check_reduction (within_sweep_ceiling)
    sweep_ceiling = 2 * ceil_log2(p) * sweep_steps
    walk_ceiling = sum(_worst(walk, window, walk.points) for walk, window in tr.plan)
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
        **{
            f"window_{name}": 0 if window is None else window.w
            for name, (_, window) in zip(WALK_NAMES, tr.plan)
        },
    }

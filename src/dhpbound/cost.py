"""Every price the reduction and the bound tables charge, from integers alone.

Nothing here builds a group, an oracle or a search: a price is a function
of p, the divisor d of p - 1 and the multipliers a walk knows. The bound
tables need only oracle_calls_exact(d), the DH-oracle calls n, and
reduction_ops_bound(p, d), the group-operation bound M = 2*(isqrt((p-1)/d)
+ isqrt(d)); the reduction takes its plan and its bill from here too.
divisor_split is the one divisor rule: a d that does not divide p - 1
raises InvalidDivisorError wherever it is priced, loaded or reduced.

Cost convention: one "group operation" is one point addition or doubling.
scalar_mul_cost(k) is the double-and-add operation count charged for a scalar
multiplication by k, even on backends where the whole product is a single
machine operation; this keeps instrumentation comparable across backends.
The groups' fixed-base hook (_raw_fixed_base) follows the same rule: a
caller bills what the generic windowed path performs -- the table, then one
addition per nonzero window digit of k past the first. The digits are
signed (signed_layout): a negative digit is one subtraction, which is one
group operation in the generic model, and negating a point is free on the
paper's curves, so each lower row builds only the multiples up to 2^(w-1)
and stores their negatives at no charge. The table serves every k < p, so
its top column's row holds multiples only up to the largest top digit.
F_q^x and EC build and read that table; F_q^x pays one inversion per
column for its negative half, off the bill like Z_p's one-operation
product, and Z_p builds none. A group keeps one such table per w on its
generator for its lifetime: the reduction's walks on P read it, billed as
above, and so does the simulated oracle for its answers, unbilled. A point's table key is its own data and costs no group operation.

The bill: plan(p, d, zeta0, j) gives a run's four walks on their planned
windows: _plan picks w per walk from the points it is billed for, all of a
baby side, the first half of a giant side. Both giant walks are on P, so
phase 2's is offered phase 1's window with its table already paid for.
bill(p, planned, u1, u2) prices the paper's classic search on those walks
and windows, whichever window a baby walk ran on: each phase's whole baby
walk, one table entry per baby point, and its giant walk through the
match; _charges prices each point, each table in full with the first point
of the walk that owns it, whatever the backend does underneath.
reduction.reduce_dlog charges it once, after both matches. Oracle calls
are charged as implicit_pow makes them. Two prices pick how a run executes,
never what it is billed: _pulled_window, the window a baby walk runs on,
and phase2_scans, whether phase 2 reads its d candidates off the kept
generator table instead of walking on Q.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple

# the most keys a kept off-book table grows to: reduction._search's giant tables add layers past
# their second while they hold fewer, and groups.DlogSolver's baby table while its span is below it
KEPT_TABLE_KEYS = 1 << 10
# the window of the kept generator table that no walk plans: the oracle's answers, phase 2's scan
# and the run's self-check read k*P off groups' _generator_table(ANSWER_WINDOW)
ANSWER_WINDOW = 4


class InvalidDivisorError(ValueError):
    """The requested d does not divide p-1."""


def divisor_split(p: int, d: int) -> tuple[int, int, int]:
    """(m, d1, s2) for a divisor d of p-1: m = (p-1)/d and the step sizes isqrt(m) and isqrt(d)."""
    if d < 1 or (p - 1) % d != 0:
        raise InvalidDivisorError(f"d={d} does not divide p-1={p - 1}")
    m = (p - 1) // d
    return m, math.isqrt(m), math.isqrt(d)


def scalar_mul_cost(k: int) -> int:
    """Double-and-add operation count for scalar k: floor(log2 k) + popcount(k) - 1.

    Zero for k in {0, 1} (no additions or doublings needed). Always at most
    2*ceil(log2 k) for k >= 2.
    """
    if k < 0:
        raise ValueError(f"negative scalar {k}")
    return max(k.bit_length() + k.bit_count() - 2, 0)


def oracle_calls_exact(d: int) -> int:
    """DH-oracle calls a reduction spends on x^d: implicit_pow's floor(log2 d) + popcount(d), none for d = 1.

    A reduction with d = 1 already holds x^d and skips implicit_pow, which
    would spend one call on the single set bit.
    """
    if d < 1:
        raise ValueError(f"divisor must be >= 1, got {d}")
    if d == 1:
        return 0
    return (d.bit_length() - 1) + d.bit_count()


def reduction_ops_bound(p: int, d: int) -> int:
    """Group operations for the two BSGS walks: M = 2*(isqrt((p-1)/d) + isqrt(d))."""
    _, d1, s2 = divisor_split(p, d)
    return 2 * (d1 + s2)


# ------------------------------------------------------------- the bill


class Walk(NamedTuple):
    """One BSGS side: it visits k*base for k = k0*stride^i mod p, i = 0..points-1 at most."""

    k0: int
    stride: int
    points: int


# a run's four walks in order, as cost_report names their windows
WALK_NAMES = ("phase1_baby", "phase1_giant", "phase2_baby", "phase2_giant")


def walks(p: int, d: int, zeta0: int) -> tuple[Walk, Walk, Walk, Walk]:
    """A run's walks in WALK_NAMES order, on x^d*P, P, Q and P; plan moves the last to zeta0^j."""
    m, d1, s2 = divisor_split(p, d)
    giant1, zm = pow(zeta0, d * d1, p), pow(zeta0, m, p)
    return (Walk(1, pow(zeta0, d, p), d1 + 1), Walk(giant1, giant1, -(-m // d1) + 1),
            Walk(1, zm, s2 + 1), Walk(1, pow(zm, s2, p), -(-d // s2) + 2))


def signed_layout(n: int, w: int) -> tuple[int, int, int]:
    """(cols, offset, top): the w-bit signed digits of every 0 <= k <= n.

    k has cols = ceil(bits(n)/w) digits. Each of the lower cols - 1 is the
    w-bit digit of k + offset less the bias 2^(w-1) - 1, so it lies in
    -bias..2^(w-1); offset holds the bias at the lowest bit of each lower
    digit. The top digit, (k + offset) >> w*(cols - 1), takes what is left
    and carries no bias: at most top, which may be 2^w after a carry.
    """
    cols = -(-n.bit_length() // w)
    shift = w * (cols - 1)
    offset = ((1 << shift) - 1) // ((1 << w) - 1) * ((1 << (w - 1)) - 1)
    return cols, offset, (n + offset) >> shift


class Window(NamedTuple):
    """A w-bit signed-digit fixed-base table as the planner prices it.

    bill is table plus cols - 1 for every priced point past the first, the
    key _windows sorts by. The table has cols = ceil(bits/w) columns
    2^(wj)*base, cols - 1 of them built with w doublings each, and costs
    table group ops. low is signed_layout's offset, the low w - 1 bits of
    every lower digit, and high the top bit of every lower digit. A digit
    of u = (k + low) ^ low is zero exactly when k's signed digit there is,
    so k has (((u & low) + low | u) & high).bit_count() nonzero lower
    digits, since adding low carries into a digit's top bit exactly when
    its low bits are not all zero, and a nonzero top digit when u >> shift
    is not 0.
    """

    bill: int
    w: int
    cols: int
    table: int
    low: int
    high: int
    shift: int


@functools.lru_cache(maxsize=1024)
def _windows(n: int, later: int) -> tuple[Window, ...]:
    """Windows 1 <= w < bits of n for multipliers k <= n and a walk priced at later + 1 points, cheapest first.

    Every lower row holds the multiples 2..2^(w-1) at one addition each;
    its negatives cost nothing. The top column's row holds them up to
    signed_layout's top at max(top - 1, 0) additions. Every point after
    the first costs at most cols - 1 additions.
    """
    out = []
    for w in range(1, n.bit_length()):
        cols, low, top = signed_layout(n, w)
        shift = w * (cols - 1)
        table = (cols - 1) * (w + (1 << (w - 1)) - 1) + max(top - 1, 0)
        high = low + ((1 << shift) - 1) // ((1 << w) - 1)  # low plus the lowest bit of each lower digit
        out.append(Window(table + later * (cols - 1), w, cols, table, low, high, shift))
    return tuple(sorted(out))


def _digits(k: int, window: Window) -> int:
    """Nonzero signed w-bit digits of k."""
    low = window.low
    u = (k + low) ^ low
    return (((u & low) + low | u) & window.high).bit_count() + (u >> window.shift != 0)


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


def _prices(p: int, walk: Walk, giant: bool = False, shared: Window | None = None) -> tuple:
    """(price, window) for each window walk may run on, in tie order: its _worst less k0's part.

    A baby side is priced at all its points, a giant side, billed only
    through its match, at its first ceil(points/2). shared is phase 1's
    giant window, whose table the run already built and was billed for: it
    comes first, with no table charge, then the plain walk (None), then
    _windows, cheapest first.
    """
    priced = -(-walk.points // 2) if giant else walk.points
    prices = [((priced - 1) * scalar_mul_cost(walk.stride), None)]
    if shared is not None:
        shared = shared._replace(bill=shared.bill - shared.table, table=0)
        prices.insert(0, ((priced - 1) * (shared.cols - 1), shared))
    return (*prices, *((window.bill, window) for window in _windows(p - 1, priced - 1)))


def _cheapest(k0: int, prices: tuple) -> Window | None:
    """The first window of prices at the lowest price once k0's part is added.

    k0's part is scalar_mul_cost(k0) on the plain walk and k0's nonzero
    digits - 1 on a window. So no baby side costs more in the worst case
    than without windows, and no giant side's first ceil(points/2) points
    do; a giant side's later points may cost more than the plain walk's.
    """
    best, choice = math.inf, None
    for price, window in prices:
        if window is None:
            price += scalar_mul_cost(k0)
        elif price >= best:
            break  # k0's digits only add to it, and later windows cost no less
        else:
            price += _digits(k0, window) - 1
        if price < best:
            best, choice = price, window
    return choice


def _plan(p: int, walk: Walk, giant: bool = False, shared: Window | None = None) -> Window | None:
    """The window that makes the points walk is billed cheapest; None is the plain walk."""
    return _cheapest(walk.k0, _prices(p, walk, giant, shared))


@functools.lru_cache(maxsize=1024)
def _run_plan(p: int, d: int, zeta0: int) -> tuple[tuple[Planned, ...], tuple]:
    """plan(p, d, zeta0, 0), and the _prices of phase 2's giant walk, which no j changes."""
    baby1, giant1, baby2, giant2 = walks(p, d, zeta0)
    shared = _plan(p, giant1, giant=True)
    prices = _prices(p, giant2, giant=True, shared=shared)
    planned = (baby1, _plan(p, baby1)), (giant1, shared), (baby2, _plan(p, baby2))
    return (*planned, (giant2, _cheapest(giant2.k0, prices))), prices


@functools.lru_cache(maxsize=1024)
def _pulled_window(p: int, stride: int, points: int, pulls: int) -> Window | None:
    """The window a baby walk of points points on stride runs on: _plan's for the points it pulls.

    pulls is the kept giant table's pull bound, which reduction._search
    passes: the widest gap between the offsets of its stored layers, plus
    1, since a baby walk meets a stored key within that gap. It is step +
    1, the whole baby walk, on a table just built, ceil(step/2) + 1 once
    the half-stride layer is in, and about step/2^k + 1 once the table,
    of either phase, holds 2^k layers. The first hit falls on average about
    halfway through the bound, so the walk runs on the window that suits
    ceil(min(pulls, points)/2) + 1 points. The bill, and the plan, keep the
    window planned for the whole walk.
    """
    return _plan(p, Walk(1, stride, -(-min(pulls, points) // 2) + 1))


@functools.lru_cache(maxsize=1024)
def phase2_scans(p: int, d: int) -> bool:
    """Whether phase 2 finds t by reading k*P off the kept w = 4 generator table, one candidate t at a time.

    The other way is a baby walk on Q, a fresh base, whose first point
    costs at least the cheapest table any window builds on Q: bits(p - 1)
    - 1 doublings at w = 1, no more than the plain walk's double-and-add by
    a k0 of p's length. A read of the kept table adds one row entry per
    nonzero digit, the first onto the identity, so at most cols additions,
    and the scan, at most d reads, is taken when d * cols costs no more
    than that first point: d <= 3 at p = 16381 and at p = 4294967291, where
    d = 190 walks. Neither way is billed: the bill prices the classic search.
    """
    return d * signed_layout(p - 1, ANSWER_WINDOW)[0] <= _windows(p - 1, 0)[0].table


def plan(p: int, d: int, zeta0: int, j: int) -> tuple[Planned, ...]:
    """The four walks of a run on (p, d, zeta0) on their windows, in WALK_NAMES order.

    j moves only phase 2's giant walk, through its start zeta0^j and that
    start's part of its prices; the rest is memoised on (p, d, zeta0).
    plan(p, d, zeta0, 0) gives the walks the searches run, since phase 2's
    kept table is filled from zeta0^0 = 1.
    """
    planned, prices = _run_plan(p, d, zeta0)
    if not j:
        return planned
    giant = Walk(pow(zeta0, j, p), *planned[3][0][1:])
    return (*planned[:3], (giant, _cheapest(giant.k0, prices)))


def _charges(p: int, walk: Walk, window: Window | None):
    """Group ops of each point of walk in turn, as _walk evaluates it on window.

    The plain walk (None) pays a double-and-add by k0 for its first point
    and one by the stride for each later one. A windowed walk pays the
    window's table with the first point, also when the group reuses the
    generator's from an earlier run (none on a table phase 2 shares with
    phase 1), and each point its nonzero digits - 1, as the generic path
    performs.
    """
    k, stride, points = walk
    if window is None:
        yield scalar_mul_cost(k)
        yield from itertools.repeat(scalar_mul_cost(stride), points - 1)
        return
    table, low, high, shift = window.table, window.low, window.high, window.shift
    for i in range(points):
        u = (k + low) ^ low
        yield (0 if i else table) + (((u & low) + low | u) & high).bit_count() + (u >> shift != 0) - 1
        k = k * stride % p


@functools.lru_cache(maxsize=1024)
def _bills(p: int, walk: Walk, window: Window | None) -> tuple[int, ...]:
    """Group ops of walk's first i + 1 points on window, for every i < walk.points."""
    return tuple(itertools.accumulate(_charges(p, walk, window)))


def bill(p: int, planned: tuple[Planned, ...], u1: int, u2: int) -> tuple[int, int]:
    """(group ops, table entries) of the classic search on planned whose matches are u1 and u2.

    Each phase stores every point of its baby walk, one table entry each,
    and probes the table with its giant walk until the match: phase 1 with
    its points u = 1..u1, phase 2 with u = 0..u2. Prefix bills are memoised
    per walk and window, except on phase 2's giant walk, whose start zeta0^j
    changes with nearly every run.
    """
    (baby1, window1), giant1, (baby2, window2), giant2 = planned
    kept = _bills(p, baby1, window1)[-1] + _bills(p, *giant1)[u1 - 1] + _bills(p, baby2, window2)[-1]
    return kept + sum(itertools.islice(_charges(p, *giant2), u2 + 1)), baby1.points + baby2.points


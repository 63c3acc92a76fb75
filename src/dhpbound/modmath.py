"""Arbitrary-precision modular arithmetic, primality, factoring, and integer helpers.

Everything here works on plain Python ints (arbitrary precision, non-negative
unless stated). These are the primitives the group backends, the reduction
engine, and the bound calculator are built on.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from array import array
from collections.abc import Callable
from dataclasses import dataclass

# Deterministic Miller-Rabin witness set, valid for every n below this bound: the
# bound is the smallest strong pseudoprime to all thirteen bases. Twelve bases
# would stop at 318665857834031151167461, which passes 2..37 but is composite.
_MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

_MR_ROUNDS = 64  # random-base rounds above _MR_DETERMINISTIC_BOUND: error probability <= 4**-64

_TRIAL_DIVISION_LIMIT = 1_000_000

DIVISOR_CAP = 10**6  # divisors_in_range returns at most this many, the smallest in range


class IncompleteFactorizationError(ValueError):
    """Raised when an operation requires a complete factorization but got a partial one."""


@dataclass(frozen=True)
class Factorization:
    """Factorization of a positive integer, possibly partial.

    factors holds (prime, exponent) pairs in ascending prime order; cofactor is
    the unfactored remainder (1 when none). complete is True iff cofactor == 1,
    in which case the product of prime**exponent terms equals the input.
    """

    factors: tuple[tuple[int, int], ...]
    complete: bool
    cofactor: int = 1

    @property
    def value(self) -> int:
        v = self.cofactor
        for prime, exp in self.factors:
            v *= prime**exp
        return v

    def primes(self) -> tuple[int, ...]:
        return tuple(prime for prime, _ in self.factors)


def is_prime(n: int) -> bool:
    """Miller-Rabin primality verdict.

    Deterministic (fixed witness set) for n below ~3.3e24; for larger n runs
    _MR_ROUNDS = 64 random-base rounds with error probability <= 4**-64. Bases
    are drawn from an RNG seeded by n, so the verdict is reproducible.
    """
    if n < 2:
        return False
    for small in _MR_WITNESSES:
        if n % small == 0:
            return n == small
    # write n-1 = 2^r * s with s odd
    r, s = 0, n - 1
    while s % 2 == 0:
        r += 1
        s //= 2
    if n < _MR_DETERMINISTIC_BOUND:
        bases = [w for w in _MR_WITNESSES if w < n - 1]
    else:
        rng = random.Random(n)
        bases = [rng.randrange(2, n - 1) for _ in range(_MR_ROUNDS)]
    for a in bases:
        x = pow(a, s, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


@functools.lru_cache(maxsize=1)
def _small_primes() -> array:
    """Primes below the trial-division limit, ascending, sieved once on first use.

    Kept as 4-byte unsigned machine ints (about 0.3 MB for the 78,498 primes,
    where a tuple of Python ints holds about 3 MB), compressed from one flags
    bytearray in which each sieving prime clears its multiples in place.
    """
    limit = _TRIAL_DIVISION_LIMIT
    flags = bytearray(b"\x01") * limit
    flags[:2] = b"\x00\x00"
    for i in range(2, math.isqrt(limit - 1) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes(len(range(i * i, limit, i)))
    return array("I", itertools.compress(range(limit), flags))


def _brent_rho(n: int, budget: int) -> tuple[int, int]:
    """One Brent-cycle factor-finding attempt on composite odd n.

    Returns (factor, remaining_budget); factor == n means the budget ran out.
    The budget counts modular multiplications.
    """
    rng = random.Random(n ^ 0x9E3779B97F4A7C15)
    while budget > 0:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1 and budget > 0:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            budget -= r
            k = 0
            while k < r and g == 1 and budget > 0:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                budget -= 2 * min(m, r - k)
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            # backtrack one step at a time to recover the factor the batch gcd skipped
            g = 1
            while g == 1 and budget > 0:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
                budget -= 2
        if 1 < g < n:
            return g, budget
        # g == n even after backtracking: retry with a fresh polynomial
    return n, 0


@functools.lru_cache(maxsize=4096)
def _factorize_cached(n: int, effort_budget: int) -> Factorization:
    found: dict[int, int] = {}
    m, root = n, math.isqrt(n)
    for prime in _small_primes():
        if prime > root:  # prime^2 > m: what is left is 1 or prime
            break
        if m % prime == 0:
            while m % prime == 0:
                found[prime] = found.get(prime, 0) + 1
                m //= prime
            root = math.isqrt(m)
    if m > 1 and m < _TRIAL_DIVISION_LIMIT * _TRIAL_DIVISION_LIMIT:
        # below the square of the trial limit the remainder must be prime
        found[m] = found.get(m, 0) + 1
        m = 1
    budget = effort_budget
    pending = [m] if m > 1 else []
    while pending:
        piece = pending.pop()
        if is_prime(piece):
            found[piece] = found.get(piece, 0) + 1
            continue
        factor, budget = _brent_rho(piece, budget)
        if factor == piece:  # budget exhausted
            cofactor = piece
            for other in pending:
                cofactor *= other
            return Factorization(
                factors=tuple(sorted(found.items())), complete=False, cofactor=cofactor
            )
        pending.append(factor)
        pending.append(piece // factor)
    return Factorization(factors=tuple(sorted(found.items())), complete=True, cofactor=1)


def factorize(n: int, effort_budget: int = 10**8) -> Factorization:
    """Factor n by trial division to 10^6 then Brent's cycle method.

    effort_budget caps the modular multiplications spent in the cycle phase;
    when it runs out the result carries the unfactored remainder as cofactor
    with complete=False.
    """
    if n < 2:
        raise ValueError(f"cannot factor {n}: must be at least 2")
    return _factorize_cached(n, effort_budget)


def icbrt(n: int) -> int:
    """Exact floor cube root: the r with r**3 <= n < (r+1)**3."""
    if n < 0:
        raise ValueError(f"cube root of negative {n} not supported")
    if n == 0:
        return 0
    r = 1 << -(-n.bit_length() // 3)  # upper bound: 2^ceil(bits/3)
    while True:  # Newton iteration, monotone from above
        s = (2 * r + n // (r * r)) // 3
        if s >= r:
            break
        r = s
    return r


def log2_approx(n: int) -> float:
    """log2(n) from the bit length plus the leading 64 bits; error well under 1e-6."""
    if n < 1:
        raise ValueError(f"log2 of {n} undefined: must be at least 1")
    k = n.bit_length()
    if k <= 64:
        return math.log2(n)
    return (k - 64) + math.log2(n >> (k - 64))


def _walk_divisors(f: Factorization, lo: int, hi: int, visit: Callable[[int, int], int]) -> None:
    """Visit each divisor d of the factored integer in [lo, bound]: bound = visit(d, bound), hi at first.

    Depth-first over exponent vectors, dropping any branch whose partial
    product already exceeds the bound or whose largest completion falls
    short of lo; a visitor that returns 0 stops the walk.
    """
    if not f.complete:
        raise IncompleteFactorizationError(
            "divisor enumeration requires a complete factorization"
        )
    if lo > hi:
        raise ValueError(f"empty range: lo {lo} > hi {hi}")
    entries, bound = f.factors, hi
    # reach[i]: the largest product of entries[i:]
    reach = [math.prod(prime**exp for prime, exp in entries[i:]) for i in range(len(entries) + 1)]

    def walk(idx: int, acc: int) -> None:
        nonlocal bound
        if idx == len(entries):
            bound = visit(acc, bound)
            return
        prime, exp = entries[idx]
        for _ in range(exp + 1):
            if acc > bound:
                break
            if acc * reach[idx + 1] >= lo:
                walk(idx + 1, acc)
            acc *= prime

    if lo <= reach[0] and 1 <= hi:  # the empty factorization has no branch to drop
        walk(0, 1)


def divisors_in_range(f: Factorization, lo: int, hi: int, cap: int = DIVISOR_CAP) -> list[int]:
    """The cap smallest divisors of the factored integer lying in [lo, hi], ascending.

    Once 2*cap hits are held, only the cap smallest are kept and the walk's
    bound drops to the largest of them, so smooth inputs cannot blow up the
    enumeration.
    """
    out: list[int] = []

    def keep(d: int, bound: int) -> int:
        out.append(d)
        if len(out) != 2 * cap:
            return bound
        out[:] = sorted(out)[:cap]
        return out[-1]

    _walk_divisors(f, lo, hi, keep)
    return sorted(out)[:cap]


def count_divisors_in_range(f: Factorization, lo: int, hi: int, cap: int = DIVISOR_CAP) -> int:
    """How many divisors of the factored integer lie in [lo, hi], counted up to cap >= 1; none is kept.

    The walk of divisors_in_range, stopped once cap divisors are counted:
    min(cap, len(divisors_in_range(f, lo, hi, cap))) in memory that grows
    only with the number of distinct primes.
    """
    count = 0

    def tally(d: int, bound: int) -> int:
        nonlocal count
        count += 1
        return bound if count < cap else 0

    _walk_divisors(f, lo, hi, tally)
    return count

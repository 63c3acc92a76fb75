"""Tests for modular arithmetic, primality, factoring, and integer helpers."""

import math
import random

import pytest

from dhpbound import modmath
from dhpbound.modmath import (
    Factorization,
    IncompleteFactorizationError,
    _small_primes,
    count_divisors_in_range,
    divisors_in_range,
    factorize,
    icbrt,
    is_prime,
    log2_approx,
)
from dhpbound.invariants import check_factorize_sample, check_is_prime_small

# order of the subgroup behind the smallest prime-field record in the database
P112 = 4451685225093714776491891542548933


def test_is_prime_known_values():
    assert is_prime(P112)
    assert not is_prime(0)
    assert not is_prime(1)
    assert is_prime(2)
    assert is_prime(3)
    assert not is_prime(4)
    for k in range(2, 50):
        assert not is_prime(140875 * k)


def test_is_prime_matches_trial_division_small():
    check_is_prime_small(2000)


def test_is_prime_large_probabilistic_path():
    # above the deterministic-witness bound, seeded random bases
    p = 2**89 - 1  # Mersenne prime
    assert p > 3_317_044_064_679_887_385_961_981
    assert is_prime(p)
    assert not is_prime(p * (2**61 - 1))


def test_small_primes_match_a_plain_reference():
    primes = _small_primes()
    assert primes.typecode == "I"
    assert len(primes) == 78_498  # pi(10^6)
    assert primes[0] == 2 and primes[-1] == 999_983  # the largest prime below 10^6
    reference = [n for n in range(2, 10**4) if all(n % k for k in range(2, math.isqrt(n) + 1))]
    assert primes[: len(reference)].tolist() == reference
    assert primes[len(reference)] > 10**4


def test_factorize_small_complete():
    f = factorize(28)
    assert f.factors == ((2, 2), (7, 1))
    assert f.complete and f.cofactor == 1
    assert f.value == 28
    assert factorize(2**20).factors == ((2, 20),)
    with pytest.raises(ValueError):
        factorize(1)


def test_factorize_exhaustive_reconstruction_sample():
    check_factorize_sample(random.Random(4242), samples=10**4, limit=2**20)


def test_factorize_two_30bit_primes():
    a, b = 1000000007, 999999937
    f = factorize(a * b)
    assert f.complete
    assert f.factors == ((b, 1), (a, 1))


def test_factorize_partial_under_tiny_budget_is_labeled():
    # p-1 for the smallest prime-field record: divisibility by the database d
    # is checkable even when the cycle phase gives up
    n = P112 - 1
    f = factorize(n, effort_budget=10)
    assert f.value == n
    assert n % 140876 == 0
    if not f.complete:
        assert f.cofactor > 1
        for prime, _ in f.factors:
            assert is_prime(prime)


def test_isqrt_of_reduction_range_for_p112():
    # floor-sqrt of (p-1)/d drives the dominant term of the operation bound:
    # 2*sqrt((p-1)/d) must land within rounding of the published 48.34 bits
    r = math.isqrt((P112 - 1) // 140876)
    assert r.bit_length() == 48
    assert abs(log2_approx(2 * r) - 48.34) < 0.02


def test_icbrt_bracketing():
    assert icbrt(0) == 0
    assert icbrt(1) == 1
    assert icbrt(26) == 2
    assert icbrt(27) == 3
    rng = random.Random(11)
    for _ in range(2000):
        n = rng.randrange(0, 2**100)
        r = icbrt(n)
        assert r**3 <= n < (r + 1) ** 3


def test_log2_approx_exact_powers():
    assert log2_approx(1) == 0.0
    assert log2_approx(2**64) == 64.0
    assert log2_approx(2**521) == 521.0


def test_log2_approx_values():
    assert abs(log2_approx(140876) - 17.104066) < 1e-6
    with pytest.raises(ValueError):
        log2_approx(0)


def test_log2_approx_against_wider_mantissa():
    rng = random.Random(99)
    for _ in range(500):
        n = rng.randrange(1, 2**600)
        k = n.bit_length()
        if k <= 128:
            ref = math.log2(n)
        else:
            ref = (k - 128) + math.log2(n >> (k - 128))
        assert abs(log2_approx(n) - ref) < 1e-6


def test_divisors_in_range_small():
    f28 = factorize(28)
    assert divisors_in_range(f28, 2, 7) == [2, 4, 7]
    assert divisors_in_range(f28, 29, 100) == []
    assert divisors_in_range(f28, 1, 28) == [1, 2, 4, 7, 14, 28]
    assert divisors_in_range(Factorization((), True), 1, 1) == [1]  # the empty product, 1
    with pytest.raises(ValueError):
        divisors_in_range(f28, 10, 9)


def test_divisors_in_range_requires_complete():
    partial = Factorization(factors=((2, 2),), complete=False, cofactor=7)
    with pytest.raises(IncompleteFactorizationError):
        divisors_in_range(partial, 1, 28)


def test_divisors_in_range_cap():
    f = factorize(2**20)
    assert divisors_in_range(f, 1, 2**20, cap=5) == [1, 2, 4, 8, 16]


def test_divisors_in_range_cap_keeps_the_smallest(monkeypatch):
    # 54 = 2 * 3^3: the first three hits depth first are 1, 3 and 9
    assert divisors_in_range(factorize(54), 1, 54, cap=3) == [1, 2, 3]
    f = factorize(2**4 * 3**3 * 5**2 * 7 * 11)
    band = [k for k in range(10, 5001) if f.value % k == 0]
    for cap in (1, 2, 3, 7, 50, len(band) - 1, len(band), len(band) + 1):
        assert divisors_in_range(f, 10, 5000, cap=cap) == band[:cap], cap
    # from the 2*cap-th hit on, the walk's bound is the largest hit kept: below hi, never raised,
    # never below the cap-th smallest in range
    bounds, walk = [], modmath._walk_divisors

    def spied(f, lo, hi, visit):
        walk(f, lo, hi, lambda d, bound: bounds.append(visit(d, bound)) or bounds[-1])

    monkeypatch.setattr(modmath, "_walk_divisors", spied)
    assert divisors_in_range(f, 10, 5000, cap=3) == band[:3]
    assert len(bounds) > 5 and all(band[2] <= bound < 5000 for bound in bounds[5:])
    assert bounds == sorted(bounds, reverse=True)


def test_divisors_in_range_against_brute_force_40bit():
    p = 1099511627791  # smallest prime above 2^40
    assert is_prime(p)
    n = p - 1
    f = factorize(n)
    assert f.complete
    lo, hi = icbrt(p), math.isqrt(p)
    brute = [k for k in range(lo, hi + 1) if n % k == 0]
    assert divisors_in_range(f, lo, hi) == brute


def test_count_divisors_in_range_counts_up_to_the_cap():
    rng = random.Random("count")
    for n in [720720, 2**10 * 3**4, 2, 97, *rng.sample(range(2, 20000), 60)]:
        f = factorize(n)
        divisors = [k for k in range(1, n + 1) if n % k == 0]
        for _ in range(8):
            lo = rng.randrange(0, n + 2)
            hi = rng.randrange(lo, n + 3)
            band = [k for k in divisors if lo <= k <= hi]
            inside = len(band)
            for cap in (1, 2, 7, inside, inside + 1, 10**6):
                if cap >= 1:
                    assert count_divisors_in_range(f, lo, hi, cap) == min(inside, cap), (n, lo, hi, cap)
                    assert divisors_in_range(f, lo, hi, cap) == band[:cap], (n, lo, hi, cap)
    assert count_divisors_in_range(Factorization((), True), 1, 1) == 1  # the empty product, 1
    with pytest.raises(IncompleteFactorizationError):
        count_divisors_in_range(Factorization(((2, 1),), False, cofactor=91), 1, 10)
    with pytest.raises(ValueError, match="empty range"):
        count_divisors_in_range(factorize(12), 5, 4)


def test_count_divisors_in_range_on_a_smooth_98_bit_p_minus_1():
    # p - 1 = 6 * (the primes up to 73 multiplied), whose band holds 2,027,857 divisors: a count
    # stops at its cap, and a narrow band is counted in full
    p = 244378083595494144903727940821
    f = factorize(p - 1)
    lo, hi = icbrt(p) + 1, math.isqrt(p)
    assert count_divisors_in_range(f, lo, hi, cap=100) == 100
    narrow = (lo, lo + 10**8)
    assert count_divisors_in_range(f, *narrow) == len(divisors_in_range(f, *narrow)) == 1349

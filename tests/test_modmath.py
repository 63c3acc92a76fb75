"""Tests for modular arithmetic, primality, factoring, and integer helpers."""

import math
import random

import pytest

from dhpbound.modmath import (
    Factorization,
    IncompleteFactorizationError,
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
    with pytest.raises(ValueError):
        is_prime(p, rounds=0)


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
    with pytest.raises(ValueError):
        divisors_in_range(f28, 10, 9)


def test_divisors_in_range_requires_complete():
    partial = Factorization(factors=((2, 2),), complete=False, cofactor=7)
    with pytest.raises(IncompleteFactorizationError):
        divisors_in_range(partial, 1, 28)


def test_divisors_in_range_cap():
    f = factorize(2**20)
    assert divisors_in_range(f, 1, 2**20, cap=5) == [1, 2, 4, 8, 16]


def test_divisors_in_range_against_brute_force_40bit():
    p = 1099511627791  # smallest prime above 2^40
    assert is_prime(p)
    n = p - 1
    f = factorize(n)
    assert f.complete
    lo, hi = icbrt(p), math.isqrt(p)
    brute = [k for k in range(lo, hi + 1) if n % k == 0]
    assert divisors_in_range(f, lo, hi) == brute

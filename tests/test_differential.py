"""Differential tests: the number-theory primitives and the reduction against sympy, an independent implementation."""

import warnings
from collections import Counter

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from dhpbound.groups import curve_records, make_group
from dhpbound.implicit import PowCallBoundWarning
from dhpbound.modmath import _MR_DETERMINISTIC_BOUND, divisors_in_range, factorize, is_prime
from dhpbound.oracle import OracleHandle
from dhpbound.reduction import find_generator, reduce_dlog


def fixed(examples: int, shrink: bool = True) -> settings:
    """The same examples on every run, no example database written, and the first failure reported alone.

    shrink=False reports that failure as drawn. A broken reduction fails on
    most examples, and shrinking through them, each one a full reduction,
    ran for minutes.
    """
    phases = tuple(Phase) if shrink else (Phase.explicit, Phase.reuse, Phase.generate)
    return settings(
        max_examples=examples,
        deadline=None,
        derandomize=True,
        database=None,
        report_multiple_bugs=False,
        phases=phases,
    )


# smallest strong pseudoprimes to the first k prime bases, k = 1..13 (OEIS A014233)
STRONG_PSEUDOPRIMES = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 3825123056546413051, 318665857834031151167461,
    3317044064679887385961981,
)

# the orders the acceptance sweep, the benchmark's walk and its large-order workload use
SWEEP_PRIMES = (29, 101, 1009, 16381, 4294967291)


def factor_dict(n: int) -> dict[int, int]:
    f = factorize(n)
    assert f.complete and f.value == n
    return dict(f.factors)


@fixed(150)
@given(st.integers(min_value=2, max_value=10**15 - 1))
def test_factorize_matches_factorint(n):
    assert factor_dict(n) == sympy.factorint(n)


@fixed(3)
@given(st.integers(2**39, 2**40), st.integers(2**39, 2**40))
def test_factorize_splits_products_of_40_bit_primes(a, b):
    # past trial division and its prime-remainder shortcut: Brent's cycle method must split it
    p, q = sympy.nextprime(a), sympy.nextprime(b)
    assert factor_dict(p * q) == Counter([p, q])


def test_is_prime_rejects_strong_pseudoprimes():
    for n in STRONG_PSEUDOPRIMES:
        assert not sympy.isprime(n)
        assert not is_prime(n), n


def test_is_prime_matches_isprime_near_deterministic_bound():
    window = range(_MR_DETERMINISTIC_BOUND - 600, _MR_DETERMINISTIC_BOUND + 600)
    assert [n for n in window if is_prime(n)] == [n for n in window if sympy.isprime(n)]


def test_curve_records_have_prime_field_and_order():
    for rec in curve_records():
        assert sympy.isprime(rec["q"]) and sympy.isprime(rec["p"]), rec


@fixed(300)
@given(st.integers(min_value=-10, max_value=2**100))
def test_is_prime_matches_isprime(n):
    assert is_prime(n) == sympy.isprime(n)


@fixed(100)
@given(st.sampled_from(SWEEP_PRIMES), st.integers(min_value=0, max_value=2**64))
def test_find_generator_is_primitive_root(p, seed):
    assert sympy.is_primitive_root(find_generator(p, factorize(p - 1), seed), p)


def check_against_discrete_log(kind: str, p: int, d: int, x: int) -> None:
    """reduce_dlog's x against sympy: mult solves g^x = Q in F_q^x; on Z_p the residue is x."""
    group = make_group(kind, p)
    Q = group.scalar_mul(x, group.generator)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PowCallBoundWarning)
        tr = reduce_dlog(group, OracleHandle(group), Q, d, seed=x % 97)
    if kind == "mult":
        assert sympy.discrete_log(group.q, Q.data, group.generator.data) == tr.x
    else:
        assert Q.data == tr.x
    assert tr.x == x


@fixed(60, shrink=False)
@given(st.sampled_from(SWEEP_PRIMES[:-1]), st.sampled_from(["zp", "mult"]), st.data())
def test_reduce_dlog_matches_discrete_log(p, kind, data):
    d = data.draw(st.sampled_from(divisors_in_range(factorize(p - 1), 1, p - 1)))
    check_against_discrete_log(kind, p, d, data.draw(st.integers(1, p - 1)))


@fixed(3, shrink=False)
@given(st.integers(1, 4294967290))
def test_reduce_dlog_matches_discrete_log_at_2_32(x):
    # d = 190 is the large-order workload's divisor; its cofactor 22605091 gives the reverse split
    for kind in ("zp", "mult"):
        for d in (190, 22605091):
            check_against_discrete_log(kind, 4294967291, d, x)

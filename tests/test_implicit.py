"""Tests for implicit field arithmetic and its exact oracle-call accounting."""

import random
import warnings

import pytest

from conftest import make_backend
from dhpbound.groups import brute_force_dlog, scalar_mul_cost
from dhpbound.implicit import (
    ImplicitFieldElement,
    NonInvertibleError,
    PowCallBoundWarning,
    embed,
    implicit_add,
    implicit_eq,
    implicit_inv,
    implicit_mul,
    implicit_pow,
    implicit_scalar,
    implicit_sub,
)
from dhpbound.oracle import CostLedger, OracleHandle

BACKENDS = ("zp", "mult", "ec")


def value_of(elem: ImplicitFieldElement) -> int:
    return brute_force_dlog(elem.group, elem.image)


def test_eq_examples():
    g = make_backend("zp", 101)
    a = embed(g, 17)
    assert implicit_eq(a, a)
    assert not implicit_eq(embed(g, 1), embed(g, 2))
    assert implicit_eq(embed(g, 17), embed(g, 17 + 101))  # reduction mod p


@pytest.mark.parametrize("kind", BACKENDS)
def test_linear_ops_match_field_arithmetic(kind):
    p = 101
    g = make_backend(kind, p)
    rng = random.Random(40100)
    for _ in range(300):
        y, z = rng.randrange(0, p), rng.randrange(0, p)
        c = rng.randrange(0, p)
        assert value_of(implicit_add(embed(g, y), embed(g, z))) == (y + z) % p
        assert value_of(implicit_sub(embed(g, y), embed(g, z))) == (y - z) % p
        assert value_of(implicit_scalar(c, embed(g, y))) == c * y % p


def test_linear_op_ledger_charges():
    p = 101
    g = make_backend("zp", p)
    a, b = embed(g, 40), embed(g, 70)
    ledger = CostLedger()
    implicit_add(a, b, ledger)
    assert ledger.group_ops == 1
    ledger = CostLedger()
    implicit_scalar(77, a, ledger)
    assert ledger.group_ops == scalar_mul_cost(77)
    ledger = CostLedger()
    implicit_sub(a, b, ledger)
    assert ledger.group_ops == scalar_mul_cost(p - 1) + 1
    assert ledger.oracle_calls == 0  # linear ops never touch the oracle


def test_scalar_range_checked():
    g = make_backend("zp", 101)
    with pytest.raises(ValueError):
        implicit_scalar(101, embed(g, 5))
    with pytest.raises(ValueError):
        implicit_scalar(-1, embed(g, 5))


@pytest.mark.parametrize("kind", BACKENDS)
def test_mul_matches_field_and_charges_one_call(kind):
    p = 101
    g = make_backend(kind, p)
    oracle = OracleHandle(g)
    ledger = CostLedger()
    oracle.attach_ledger(ledger)
    assert value_of(implicit_mul(oracle, embed(g, 1), embed(g, 55))) == 55
    assert value_of(implicit_mul(oracle, embed(g, 2), embed(g, 3))) == 6
    assert ledger.oracle_calls == 2
    rng = random.Random(40101)
    for _ in range(200):
        y, z = rng.randrange(0, p), rng.randrange(0, p)
        before = ledger.oracle_calls
        assert value_of(implicit_mul(oracle, embed(g, y), embed(g, z))) == y * z % p
        assert ledger.oracle_calls == before + 1


def test_pow_rejects_zero_exponent():
    g = make_backend("zp", 101)
    oracle = OracleHandle(g)
    with pytest.raises(ValueError):
        implicit_pow(oracle, embed(g, 5), 0)


def test_pow_exponent_one():
    g = make_backend("zp", 101)
    oracle = OracleHandle(g)
    ledger = CostLedger()
    oracle.attach_ledger(ledger)
    with pytest.warns(PowCallBoundWarning):  # 1 is all ones in binary
        out = implicit_pow(oracle, embed(g, 5), 1)
    assert value_of(out) == 5
    assert ledger.oracle_calls == 1  # leading set bit costs a call by convention


def test_pow_matches_field_arithmetic():
    p = 101
    g = make_backend("zp", p)
    oracle = OracleHandle(g)
    rng = random.Random(40102)
    for _ in range(300):
        y = rng.randrange(0, p)
        e = rng.randrange(1, 2**12)
        assert value_of(implicit_pow(oracle, embed(g, y), e)) == pow(y, e, p)


def test_pow_exact_call_counts_on_grid():
    g = make_backend("zp", 101)
    oracle = OracleHandle(g)
    ledger = CostLedger()
    oracle.attach_ledger(ledger)
    rng = random.Random(40103)
    exponents = list(range(1, 130)) + [rng.randrange(2, 2**16) for _ in range(400)]
    for e in exponents:
        before = ledger.oracle_calls
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PowCallBoundWarning)
            implicit_pow(oracle, embed(g, 3), e)
        assert ledger.oracle_calls - before == (e.bit_length() - 1) + e.bit_count(), e


def test_pow_table_anchor_exponents():
    # the two divisors whose binary expansions are hand-checkable
    g = make_backend("zp", 101)
    oracle = OracleHandle(g)
    ledger = CostLedger()
    oracle.attach_ledger(ledger)
    implicit_pow(oracle, embed(g, 7), 140876)
    assert ledger.oracle_calls == 24
    ledger = CostLedger()
    oracle.attach_ledger(ledger)
    implicit_pow(oracle, embed(g, 7), 23348)
    assert ledger.oracle_calls == 22


def test_pow_all_ones_exponent_warns():
    g = make_backend("zp", 101)
    oracle = OracleHandle(g)
    for e in (1, 3, 7, 15, 255):  # e = 1 counts: 1 call > 2*floor(log2 1) = 0
        with pytest.warns(PowCallBoundWarning):
            implicit_pow(oracle, embed(g, 5), e)
    with warnings.catch_warnings():
        warnings.simplefilter("error", PowCallBoundWarning)
        implicit_pow(oracle, embed(g, 5), 8)  # power of two: no warning
        implicit_pow(oracle, embed(g, 5), 6)  # 110: 2 + 1 calls = 2*floor(log2 6), no warning


def test_pow_fermat():
    p = 101
    g = make_backend("zp", p)
    oracle = OracleHandle(g)
    rng = random.Random(40104)
    one = embed(g, 1)
    for _ in range(50):
        y = rng.randrange(1, p)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PowCallBoundWarning)
            assert implicit_eq(implicit_pow(oracle, embed(g, y), p - 1), one)


@pytest.mark.parametrize("kind", BACKENDS)
def test_inv(kind):
    p = 101
    g = make_backend(kind, p)
    oracle = OracleHandle(g)
    one = embed(g, 1)
    assert implicit_eq(implicit_inv(oracle, one), one)
    rng = random.Random(40105)
    for _ in range(30):
        y = rng.randrange(1, p)
        a = embed(g, y)
        inv = implicit_inv(oracle, a)
        assert value_of(inv) == pow(y, p - 2, p)
        assert implicit_eq(implicit_inv(oracle, inv), a)  # round trip
        assert implicit_eq(implicit_mul(oracle, a, inv), one)


def test_inv_of_zero_rejected():
    g = make_backend("zp", 101)
    oracle = OracleHandle(g)
    with pytest.raises(NonInvertibleError):
        implicit_inv(oracle, embed(g, 0))


def test_inv_call_count():
    p = 101
    g = make_backend("zp", p)
    oracle = OracleHandle(g)
    ledger = CostLedger()
    oracle.attach_ledger(ledger)
    implicit_inv(oracle, embed(g, 9))
    e = p - 2
    assert ledger.oracle_calls == (e.bit_length() - 1) + e.bit_count()


def test_pow_of_zero():
    g = make_backend("zp", 101)
    oracle = OracleHandle(g)
    with pytest.warns(PowCallBoundWarning):  # 1 is all ones in binary
        assert value_of(implicit_pow(oracle, embed(g, 0), 1)) == 0
    for e in (2, 5):
        assert value_of(implicit_pow(oracle, embed(g, 0), e)) == 0

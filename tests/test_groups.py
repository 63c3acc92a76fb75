"""Tests for the three group backends, canonical encoding, and brute-force dlog."""

import random
from itertools import count, islice

import pytest

from conftest import TOY_CURVES, make_backend
from dhpbound.groups import (
    BadGeneratorError,
    CyclicGroup,
    GroupMismatchError,
    GroupPoint,
    GuardRailError,
    IncompatibleParametersError,
    InvalidOrderError,
    OffCurveError,
    SingularCurveError,
    WrongOrderError,
    brute_force_dlog,
    bsgs_probe,
    bsgs_table,
    find_ec_group_params,
    find_mult_subgroup,
    load_toy_curve,
    make_ec_group,
    make_mult_subgroup,
    make_zp_additive,
    orbit,
    scalar_mul_cost,
)
from dhpbound.invariants import check_encode, check_group_laws

BACKENDS = ("zp", "mult", "ec")


def test_zp_additive_basics():
    g = make_zp_additive(101)
    assert g.scalar_mul(5, g.generator).data == 5
    assert g.eq(g.scalar_mul(101, g.generator), g.identity)
    assert g.add(GroupPoint(g, 40), GroupPoint(g, 70)).data == 9
    with pytest.raises(InvalidOrderError):
        make_zp_additive(100)


def test_mult_subgroup_basics():
    g = make_mult_subgroup(23, 11, 2)
    assert g.generator.data == 4
    assert g.scalar_mul(11, g.generator).data == 1
    assert g.scalar_mul(0, g.generator).data == 1
    with pytest.raises(IncompatibleParametersError):
        make_mult_subgroup(23, 7, 2)  # 7 does not divide 22
    with pytest.raises(BadGeneratorError):
        make_mult_subgroup(23, 11, 1)
    with pytest.raises(InvalidOrderError):
        make_mult_subgroup(24, 11, 2)
    with pytest.raises(InvalidOrderError):
        make_mult_subgroup(23, 10, 2)


def test_ec_construction_and_law():
    q, a, b, gx, gy = TOY_CURVES[101]
    g = make_ec_group(q, a, b, gx, gy, 101)
    doubled = g.add(g.generator, g.generator)
    assert g.eq(g.add(doubled, g.generator), g.scalar_mul(3, g.generator))
    assert g.eq(g.add(g.scalar_mul(100, g.generator), g.generator), g.identity)


def test_ec_construction_errors():
    q, a, b, gx, gy = TOY_CURVES[101]
    with pytest.raises(SingularCurveError):
        make_ec_group(23, 0, 0, 1, 1, 11)
    with pytest.raises(OffCurveError):
        make_ec_group(q, a, b, gx, (gy + 1) % q, 101)
    with pytest.raises(WrongOrderError):
        make_ec_group(q, a, b, gx, gy, 103)  # wrong prime declared
    with pytest.raises(InvalidOrderError):
        make_ec_group(q * 3, a, b, gx, gy, 101)


@pytest.mark.parametrize("kind", BACKENDS)
def test_group_axioms_sampled(kind):
    check_group_laws(make_backend(kind, 101), random.Random(20101), points=40, rounds=1000)


@pytest.mark.parametrize("kind", BACKENDS)
def test_scalar_mul_distributes(kind):
    g = make_backend(kind, 101)
    rng = random.Random(20102)
    for _ in range(300):
        k1 = rng.randrange(0, 101)
        k2 = rng.randrange(0, 101)
        a = g.scalar_mul(rng.randrange(1, 101), g.generator)
        lhs = g.scalar_mul((k1 + k2) % 101, a)
        rhs = g.add(g.scalar_mul(k1, a), g.scalar_mul(k2, a))
        assert g.eq(lhs, rhs)
        assert g.eq(g.scalar_mul(1, a), a)


@pytest.mark.parametrize("kind", BACKENDS)
def test_encode_injective_and_matches_eq(kind):
    check_encode(make_backend(kind, 101), random.Random(20103), pairs=300)


def test_encode_layout():
    g = make_zp_additive(101)
    enc = g.encode(g.scalar_mul(77, g.generator))
    assert enc == bytes([0x01, 0x00, 77])
    assert g.encode(g.identity) == bytes([0x01, 0x01, 0x00])
    tags = set()
    for kind in BACKENDS:
        backend = make_backend(kind, 101)
        tags.add(backend.encode(backend.identity)[0])
    assert tags == {0x01, 0x02, 0x03}


def test_cross_group_mixing_rejected():
    g1 = make_zp_additive(101)
    g2 = make_zp_additive(103)
    with pytest.raises(GroupMismatchError):
        g1.add(g1.generator, g2.generator)
    g3 = make_zp_additive(101)  # same parameters, distinct instance
    with pytest.raises(GroupMismatchError):
        g1.eq(g1.generator, g3.generator)


def test_ec_intermediates_stay_on_curve():
    g = make_backend("ec", 1009)
    rng = random.Random(20104)
    for _ in range(1000):
        k = rng.randrange(2, 1009)
        acc = g.generator
        for i in range(k.bit_length() - 2, -1, -1):
            acc = g.add(acc, acc)
            if (k >> i) & 1:
                acc = g.add(acc, g.generator)
            assert g.on_curve(acc)
        assert g.eq(acc, g.scalar_mul(k, g.generator))


@pytest.mark.parametrize("kind", BACKENDS)
def test_brute_force_dlog_round_trip(kind):
    g = make_backend(kind, 1009)
    assert brute_force_dlog(g, g.identity) == 0
    assert brute_force_dlog(g, g.generator) == 1
    rng = random.Random(20105)
    for _ in range(50):
        x = rng.randrange(0, 1009)
        assert brute_force_dlog(g, g.scalar_mul(x, g.generator)) == x


def test_brute_force_dlog_guard_rail():
    g = make_zp_additive(2**61 - 1)
    with pytest.raises(GuardRailError):
        brute_force_dlog(g, g.generator)


def test_scalar_mul_cost_values():
    assert scalar_mul_cost(0) == 0
    assert scalar_mul_cost(1) == 0
    assert scalar_mul_cost(2) == 1  # one doubling
    assert scalar_mul_cost(3) == 2  # double + add
    for k in range(2, 3000):
        cost = scalar_mul_cost(k)
        assert cost == (k.bit_length() - 1) + bin(k).count("1") - 1
        assert cost <= 2 * ((k - 1).bit_length())  # 2*ceil(log2 k)
    with pytest.raises(ValueError):
        scalar_mul_cost(-1)


def test_find_ec_group_params_matches_frozen():
    # drift guard: the deterministic search must keep producing the frozen fixtures
    for p, frozen in TOY_CURVES.items():
        q, a, b, gx, gy, pp = find_ec_group_params(p)
        assert (q, a, b, gx, gy) == frozen and pp == p


def test_find_mult_subgroup_matches_frozen():
    # drift guard: the fixture groups keep these field sizes and generators
    frozen = {29: (59, 4), 101: (607, 64), 1009: (10091, 1024), 16381: (163811, 1024)}
    for p, (q, g) in frozen.items():
        group = find_mult_subgroup(p)
        assert (group.order, group.q, group.generator.data) == (p, q, g)
    with pytest.raises(InvalidOrderError):
        find_mult_subgroup(100)


def test_load_toy_curve_fixture():
    g = load_toy_curve()
    assert g.order == 16381
    assert g.q == 65029
    assert g.on_curve(g.generator)
    assert g.eq(g.scalar_mul(16381, g.generator), g.identity)


def fixed_base_hooks(group, base, w):
    """The group's fixed-base hook and the generic table path, on columns 2^(wj)*base for every k < p."""
    cols = -(-(group.order - 1).bit_length() // w)
    columns = [group.scalar_mul(2 ** (w * j), base).data for j in range(cols)]
    return group._raw_fixed_base(columns, w), CyclicGroup._raw_fixed_base(group, columns, w)


@pytest.mark.parametrize("kind", BACKENDS)
def test_fixed_base_hook_matches_scalar_mul_every_k(kind):
    g = make_backend(kind, 101)
    for base in (g.generator, g.scalar_mul(37, g.generator)):
        for w in range(1, 8):
            want = [g.scalar_mul(k, base).data for k in range(101)]
            for times in fixed_base_hooks(g, base, w):
                assert [times(k) for k in range(101)] == want


@pytest.mark.parametrize("kind, p", [
    ("zp", 16381), ("mult", 16381), ("ec", 16381), ("zp", 4294967291), ("mult", 4294967291),
])
def test_fixed_base_hook_matches_scalar_mul_random_k(kind, p):
    g = make_backend(kind, p)
    rng = random.Random(p)
    base = g.scalar_mul(rng.randrange(1, p), g.generator)
    for w in (1, 3, 5, 8, 11):
        zero_digits = [2 ** (w * j) for j in range(-(-(p - 1).bit_length() // w))]
        ks = zero_digits + [p - 1] + [rng.randrange(1, p) for _ in range(60)]  # zero_digits starts at k = 1
        want = [g.scalar_mul(k, base).data for k in ks]
        for times in fixed_base_hooks(g, base, w):
            assert [times(k) for k in ks] == want


class Counted:
    """Iterator over keys that counts how many were pulled."""

    def __init__(self, keys):
        self._keys, self.pulled = iter(keys), 0

    def __iter__(self):
        return self

    def __next__(self):
        key = next(self._keys)
        self.pulled += 1
        return key


def test_bsgs_table_pulls_exactly_size_keys():
    for size in (0, 1, 2, 5, 7, 30):
        keys = Counted(i % 5 for i in count())  # never runs dry, so an extra pull shows
        assert bsgs_table(keys, size) == {v: v for v in range(min(size, 5))}  # smallest v kept
        assert keys.pulled == size


def test_bsgs_probe_pulls_one_key_per_u_and_none_past_an_accepted_match():
    rng = random.Random(4242)
    outcomes = set()
    for _ in range(400):
        table = {rng.randrange(40): v for v in range(rng.randrange(1, 12))}
        u0, n = rng.randrange(3), rng.randrange(1, 20)
        us = range(u0, u0 + n)
        giant = [rng.randrange(40) for _ in range(n + 5)]  # keys past the last u too
        accept = lambda u, v: (u + v) % 3 != 0  # noqa: E731
        hits = [i for i, key in enumerate(giant[:n]) if key in table and accept(us[i], table[key])]
        keys = Counted(giant)
        hit = bsgs_probe(table, keys, us, accept)
        if hits:
            i = hits[0]
            assert hit == (us[i], table[giant[i]])
            assert keys.pulled == us[i] - us[0] + 1
            outcomes.add("rejected first" if any(key in table for key in giant[:i]) else "hit")
        else:
            assert hit is None
            assert keys.pulled == len(us)
            outcomes.add("miss")
    assert outcomes == {"hit", "rejected first", "miss"}


def test_orbit_adds_only_between_pulls():
    adds = []

    def add(a, b):
        adds.append((a, b))
        return a + b

    walk = orbit(add, 5, 3)
    assert adds == []  # nothing runs before the first pull
    assert list(islice(walk, 4)) == [5, 8, 11, 14]
    assert len(adds) == 3

"""Tests for the three group backends, the curve registry, canonical encoding, and brute-force dlog."""

import copy
import random
from math import isqrt

import pytest

from dhpbound.cost import scalar_mul_cost
from dhpbound.groups import (
    BadGeneratorError,
    CyclicGroup,
    EcGroup,
    GroupMismatchError,
    GroupPoint,
    GuardRailError,
    IncompatibleParametersError,
    InvalidOrderError,
    OffCurveError,
    SingularCurveError,
    WrongOrderError,
    brute_force_dlog,
    curve_records,
    find_ec_group_params,
    find_mult_subgroup,
    load_toy_curve,
    make_ec_group,
    make_group,
    make_mult_subgroup,
    make_zp_additive,
)
from dhpbound.invariants import check_encode, check_group_laws
from dhpbound.modmath import is_prime

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
    g = make_group("ec", 101)
    doubled = g.add(g.generator, g.generator)
    assert g.eq(g.add(doubled, g.generator), g.scalar_mul(3, g.generator))
    assert g.eq(g.add(g.scalar_mul(100, g.generator), g.generator), g.identity)


def test_ec_construction_errors():
    q, a, b, gx, gy, _ = ec_params(make_group("ec", 101))
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
    check_group_laws(make_group(kind, 101), random.Random(20101), points=40, rounds=1000)


@pytest.mark.parametrize("kind", BACKENDS)
def test_scalar_mul_distributes(kind):
    g = make_group(kind, 101)
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
    check_encode(make_group(kind, 101), random.Random(20103), pairs=300)


def test_encode_is_canonical_data():
    identity_keys = []
    for kind in BACKENDS:
        g = make_group(kind, 101)
        for k in (0, 1, 77):
            pt = g.scalar_mul(k, g.generator)
            assert g.encode(pt) == pt.data
        identity_keys.append(g.encode(g.identity))
        for other in (make_group(kind, 101), make_zp_additive(103)):
            with pytest.raises(GroupMismatchError):
                g.encode(other.generator)
    assert identity_keys == [0, 1, None]


def test_cross_group_mixing_rejected():
    g1 = make_zp_additive(101)
    g2 = make_zp_additive(103)
    with pytest.raises(GroupMismatchError):
        g1.add(g1.generator, g2.generator)
    g3 = make_zp_additive(101)  # same parameters, distinct instance
    with pytest.raises(GroupMismatchError):
        g1.eq(g1.generator, g3.generator)
    mult = make_group("mult", 101)
    foreign = "backend 'fq-mult-subgroup' used in 'zp-additive' group"
    for a, b in ((mult.generator, g1.generator), (g1.generator, mult.generator)):  # foreign first, then second
        with pytest.raises(GroupMismatchError, match=foreign):
            g1.add(a, b)


def test_points_are_immutable_slotted_and_compared_by_identity():
    g = make_group("ec", 101)
    pt = g.add(g.generator, g.generator)
    for made in (pt, GroupPoint(g, pt.data)):
        assert not hasattr(made, "__dict__")
        for field in ("group", "data"):
            with pytest.raises(AttributeError):
                setattr(made, field, None)
            with pytest.raises(AttributeError):
                delattr(made, field)
        with pytest.raises(AttributeError):
            made.extra = 1
        assert made.group is g and made.data == pt.data
    twin = GroupPoint(g, pt.data)
    assert twin != pt and len({twin, pt}) == 2 and g.eq(twin, pt)
    copied = copy.copy(pt)
    assert copied is not pt and copied.group is g and copied.data == pt.data
    assert repr(pt) == f"<ec-weierstrass point {pt.data!r}>"


def test_ec_intermediates_stay_on_curve():
    g = make_group("ec", 1009)
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
    g = make_group(kind, 1009)
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


@pytest.mark.parametrize("p", (101, 1009))
def test_brute_force_dlog_outside_the_subgroup_fails_by_name(p):
    # q - 1 has order 2 in F_q^x, so it is no multiple of the order-p generator
    g = make_group("mult", p)
    with pytest.raises(RuntimeError, match=f"^BSGS failed on order {p}: generator does not generate Q$"):
        brute_force_dlog(g, GroupPoint(g, g.q - 1))


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


def ec_params(g) -> tuple[int, ...]:
    """A built curve's (q, A, B, Gx, Gy, p), as find_ec_group_params returns them."""
    return (g.q, g.curve_a, g.curve_b, *g.generator.data, g.order)


def test_registry_matches_the_search_and_builds():
    # drift guard: the search keeps finding the packaged sweep curves; every record has its own
    # p, passes make_ec_group's checks and is the curve make_group builds for that p
    records = curve_records()
    assert [rec["p"] for rec in records] == [29, 101, 1009, 16381, 4293896137]
    for rec in records:
        params = tuple(rec[key] for key in ("q", "A", "B", "Gx", "Gy", "p"))
        assert rec["note"]
        assert ec_params(make_group("ec", rec["p"])) == ec_params(make_ec_group(*params)) == params
        if rec["p"] in (29, 101, 1009):
            assert find_ec_group_params(rec["p"]) == params


def test_find_ec_group_params_matches_frozen():
    # drift guard: the deterministic search must keep producing these curves, whatever the
    # registry holds, so a search and a registry that drift together still show
    frozen = {
        29: (23, 1, 4, 0, 2),
        101: (83, 2, 28, 0, 32),
        257: (227, 16, 37, 2, 109),
        1009: (953, 5, 19, 1, 5),
        4099: (3989, 2, 35, 1, 1525),
        16369: (16127, 17, 17, 4, 1350),  # the largest prime under EC_SEARCH_GUARD with no record
    }
    for p, (q, a, b, gx, gy) in frozen.items():
        assert find_ec_group_params(p) == (q, a, b, gx, gy, p)


def exhaustive_ec_search(p, cofactors=(1, 2, 3, 4, 5, 6, 7, 8)):
    """Reference for find_ec_group_params: count the points of every candidate curve in turn.

    The first (q, A, B) whose full point count is h*p wins, and its generator is h times
    the first rational point, in x order, that h does not send to infinity.
    """
    for h in cofactors:
        n = h * p
        for q in range(max(n - 2 * isqrt(n) - 1, 5), n + 2 * isqrt(n) + 2):
            if not is_prime(q) or abs(q + 1 - n) > 2 * isqrt(q):
                continue
            roots = {}
            for y in range(q // 2 + 1):
                roots.setdefault(y * y % q, y)
            for a in range(min(q, 32)):
                for b in range(1, min(q, 64)):
                    if (4 * a**3 + 27 * b * b) % q == 0:
                        continue
                    points = [(x, roots[r]) for x in range(q) if (r := (x**3 + a * x + b) % q) in roots]
                    count = 1 + sum(1 if y == 0 else 2 for _, y in points)
                    if count != n:
                        continue
                    group = EcGroup(q, a, b, 0, 1, p)
                    for pt in points:
                        g = group._raw_times(h, pt)  # not scalar_mul, which reduces h mod p
                        if g is not None:
                            return (q, a, b, *g, p)
    raise RuntimeError(f"no curve for p={p}")


def test_find_ec_group_params_matches_the_exhaustive_search():
    # the n*P screen only skips curves whose order is not n, so the first curve accepted and
    # its generator stay those of counting every candidate; cofactors 2 and 4 make n even,
    # where the first point, and so the screened one, can be a 2-torsion point (x, 0)
    primes = [p for p in range(5, 200) if is_prime(p)]
    for p in primes:
        assert find_ec_group_params(p) == exhaustive_ec_search(p), p
    for cofactors in ((2,), (4,)):
        for p in primes[:12]:
            assert find_ec_group_params(p, cofactors) == exhaustive_ec_search(p, cofactors), (p, cofactors)


def test_find_ec_group_params_passes_over_a_point_of_order_2():
    # cofactor 4 at p = 5 picks y^2 = x^3 + 7x + 5 over F_13, whose first rational point in x order
    # is (1, 0), of order 2: 4*(1, 0) is the identity, so the search moves on and scales (2, 12)
    # instead; a y = 0 point written with any other y is off the curve and would be taken
    squares = {y * y % 13 for y in range(13)}
    assert [x for x in range(13) if (x**3 + 7 * x + 5) % 13 in squares][:2] == [1, 2]
    assert (1 + 7 + 5) % 13 == 0  # so the first point is (1, 0)
    params = find_ec_group_params(5, (4,))
    assert params == (13, 7, 5, 2, 12, 5) == exhaustive_ec_search(5, (4,))
    assert make_ec_group(*params)._raw_times(4, (1, 0)) is None


def test_find_ec_group_params_with_a_cofactor_at_least_p():
    # h*P with h >= p: reduced mod p it would be the wrong multiple, and the group would fail
    # make_ec_group's order check with WrongOrderError
    for p, cofactors in ((5, (6,)), (5, (7,)), (5, (8,)), (7, (8,))):
        params = find_ec_group_params(p, cofactors)
        assert params == exhaustive_ec_search(p, cofactors), (p, cofactors)
        assert make_ec_group(*params).order == p


def test_make_group_refuses_the_ec_search_by_name():
    for p in (16411, 65537, 4294967291):  # primes above the guard with no record
        with pytest.raises(GuardRailError, match="capped at p <= 16384"):
            make_group("ec", p)
    # no record, under the guard: found on the spot
    assert ec_params(make_group("ec", 257)) == find_ec_group_params(257)
    with pytest.raises(ValueError, match="unknown backend"):
        make_group("ed25519", 101)


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
    assert ec_params(g) == (65029, 16, 23, 33820, 7864, 16381)
    assert g.on_curve(g.generator)
    assert g.eq(g.scalar_mul(16381, g.generator), g.identity)


def fixed_base_hooks(group, base, w):
    """The group's fixed-base hook and the generic table path, each building its own table on base."""
    return group._raw_fixed_base(base.data, w), CyclicGroup._raw_fixed_base(group, base.data, w)


@pytest.mark.parametrize("kind", BACKENDS)
def test_fixed_base_hook_matches_scalar_mul_every_k(kind):
    g = make_group(kind, 101)
    for base in (g.generator, g.scalar_mul(37, g.generator)):
        for w in range(1, 8):
            want = [g.scalar_mul(k, base).data for k in range(101)]
            for times in fixed_base_hooks(g, base, w):
                assert [times(k) for k in range(101)] == want


@pytest.mark.parametrize("kind, p", [
    ("zp", 16381), ("mult", 16381), ("ec", 16381), ("zp", 4294967291), ("mult", 4294967291),
    ("ec", 4293896137),
])
def test_fixed_base_hook_matches_scalar_mul_random_k(kind, p):
    g = make_group(kind, p)
    rng = random.Random(p)
    base = g.scalar_mul(rng.randrange(1, p), g.generator)
    for w in (1, 3, 5, 8, 11):
        zero_digits = [2 ** (w * j) for j in range(-(-(p - 1).bit_length() // w))]
        ks = zero_digits + [p - 1] + [rng.randrange(1, p) for _ in range(60)]  # zero_digits starts at k = 1
        want = [g.scalar_mul(k, base).data for k in ks]
        for times in fixed_base_hooks(g, base, w):
            assert [times(k) for k in ks] == want


@pytest.mark.parametrize("kind", BACKENDS)
@pytest.mark.parametrize("p", [17, 257, 1009])
def test_trimmed_tables_give_every_multiple(kind, p):
    # the top column's row stops at the top digit of p - 1, which is one bit at 17 and 257,
    # where p - 1 is a power of two; every w, every k < p, and the oracle's w = 4 table
    g = make_group(kind, p)
    base = g.scalar_mul(3, g.generator)
    want = [g.scalar_mul(k, base).data for k in range(p)]
    for w in range(1, (p - 1).bit_length()):
        for times in fixed_base_hooks(g, base, w):
            assert [times(k) for k in range(p)] == want, w
    want = [g.scalar_mul(k, g.generator).data for k in range(p)]
    times = g._generator_table(4)
    assert [times(k) for k in range(p)] == want


def double_and_add(g, ks, base):
    """raw k*base for each k by the generic double-and-add _raw_times, the identity at k = 0."""
    return [CyclicGroup._raw_times(g, k, base.data) if k else g._raw_identity() for k in ks]


def assert_tables_match_double_and_add(g, ks, ws):
    """Every w's hook, generic table and generator table give double-and-add's k*base for every k."""
    base = g.scalar_mul(3, g.generator)
    want, want_generator = double_and_add(g, ks, base), double_and_add(g, ks, g.generator)
    for w in ws:
        for times in fixed_base_hooks(g, base, w):
            assert [times(k) for k in ks] == want, w
        times = g._generator_table(w)
        assert [times(k) for k in ks] == want_generator, w


@pytest.mark.parametrize("kind", BACKENDS)
@pytest.mark.parametrize("p", [101, 1009])
def test_signed_tables_match_double_and_add_every_k(kind, p):
    # every w a plan can pick, every k < p, against an implementation that shares no table
    # code; at p = 1009, w = 2, k = 939 = 4*4^4 - (4^3 + 4^2 + 4 + 1) has signed digits
    # -1, -1, -1, -1 and a carry into the top digit 4 = 2^w, one past 1008 >> 8 = 3
    assert 939 == 4 * 4**4 - (4**3 + 4**2 + 4 + 1) and (1008 >> 8) == 3
    assert_tables_match_double_and_add(make_group(kind, p), range(p), range(1, (p - 1).bit_length()))


def test_signed_tables_match_double_and_add_on_the_2_32_curve():
    # 2,000 seeded k and p - 1, on every w whose lower rows hold at most 2^11 multiples
    g = make_group("ec", 4293896137)
    rng = random.Random(2**32)
    ks = [rng.randrange(1, g.order) for _ in range(2000)] + [g.order - 1]
    assert_tables_match_double_and_add(g, ks, range(1, 13))



"""End-to-end discrete-log recovery through the DH oracle, on every backend.

The exhaustive sweeps re-run the full pipeline for every divisor of p-1 and
every exponent x, so they cover all boundary alignments of both BSGS phases
(j = 1, j = m, t = 0, t = d-1, wrapped baby tables in degenerate splits).
"""

import dataclasses
import json
import random
import warnings
from collections import Counter
from itertools import islice
from math import isqrt

import pytest

from test_bsgs_reference import bsgs_probe, bsgs_table, layer_offsets, pull_bound
from dhpbound import reduction
from dhpbound.bounds import paper_band
from dhpbound.cost import (
    KEPT_TABLE_KEYS,
    WALK_NAMES,
    InvalidDivisorError,
    Walk,
    _bills,
    _charges,
    _plan,
    _pulled_window,
    _windows,
    _worst,
    bill,
    phase2_scans,
    plan,
    scalar_mul_cost,
    walks,
)
from dhpbound.groups import CyclicGroup, brute_force_dlog, make_group, make_zp_additive
from dhpbound.implicit import ImplicitFieldElement, PowCallBoundWarning
from dhpbound.invariants import check_reduction
from dhpbound.modmath import (
    Factorization,
    IncompleteFactorizationError,
    divisors_in_range,
    factorize,
    is_prime,
)
from dhpbound.oracle import CostLedger, OracleHandle
from dhpbound.reduction import (
    ImprobableFailureError,
    InternalInconsistencyError,
    ReductionParams,
    ZeroDlogError,
    _sample_generator,
    _walk,
    cost_report,
    find_generator,
    generator_try_budget,
    phase1_find_j,
    phase2_find_t,
    reduce_dlog,
)


def oracle_calls_expected(d: int) -> int:
    return 0 if d == 1 else (d.bit_length() - 1) + d.bit_count()


def all_divisors(p: int) -> list[int]:
    return divisors_in_range(factorize(p - 1), 1, p - 1)


# ---------------------------------------------------------------- generator


def test_find_generator_returns_generator():
    # 100 = 2^2 * 5^2: c generates iff c^50 != 1 and c^20 != 1 mod 101
    f = factorize(100)
    for seed in range(25):
        g = find_generator(101, f, seed)
        assert pow(g, 50, 101) != 1
        assert pow(g, 20, 101) != 1


def test_find_generator_deterministic_per_seed():
    f = factorize(1008)
    runs = [find_generator(1009, f, 7) for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]
    assert len({find_generator(1009, f, s) for s in range(40)}) > 1


def test_find_generator_wrong_factorization_exhausts_budget():
    # "complete" but wrong: 1 and 100 as primes of 100, so every c^100 = 1 mod 101 rejects c
    wrong = Factorization(((1, 1), (100, 1)), True)
    stats = {}
    with pytest.raises(ImprobableFailureError, match="factorization wrong"):
        find_generator(101, wrong, 0, stats=stats)
    assert stats == {"candidates": generator_try_budget(101)}


def test_find_generator_p3_special_case():
    stats = {}
    assert find_generator(3, factorize(2), 0, stats=stats) == 2
    assert stats == {"candidates": 1}


def test_find_generator_stats_accumulate_across_calls():
    f = factorize(100)
    stats = {}
    for seed in range(50):
        find_generator(101, f, seed, stats=stats)
    assert stats["candidates"] >= 50
    # density of generators is phi(100)/99 = 40/98, so ~2.5 candidates per hit
    assert stats["candidates"] < 50 * 30


def reference_generator(p: int, seed: int) -> tuple[int, int]:
    """(generator, candidates examined), sampled afresh as find_generator's contract says."""
    primes = factorize(p - 1).primes()
    rng = random.Random(seed)
    candidates = 0
    while True:
        c = rng.randrange(2, p - 1)
        candidates += 1
        if all(pow(c, (p - 1) // q, p) != 1 for q in primes):
            return c, candidates


@pytest.mark.parametrize("p", [29, 101, 1009, 16381, 4294967291])
def test_find_generator_memo_matches_fresh_sampler(p):
    f = factorize(p - 1)
    _sample_generator.cache_clear()
    for seed in range(50):
        zeta0, candidates = reference_generator(p, seed)
        for hits in (0, 1):  # a miss, then a hit
            stats = {}
            assert find_generator(p, f, seed, stats=stats) == zeta0
            assert stats == {"candidates": candidates}
            assert _sample_generator.cache_info().hits == seed + hits


def test_find_generator_succeeds_on_its_last_allowed_candidate(monkeypatch):
    # a seed whose first generator is its k-th candidate, k >= 3: a budget of exactly k finds it,
    # k - 1 refuses; the budget is patched small and the memo cleared, so the sampler runs afresh
    f = factorize(1008)
    seed = next(s for s in range(100) if reference_generator(1009, s)[1] >= 3)
    zeta0, k = reference_generator(1009, seed)
    _sample_generator.cache_clear()
    try:
        monkeypatch.setattr(reduction, "generator_try_budget", lambda p: k)
        stats = {}
        assert find_generator(1009, f, seed, stats=stats) == zeta0
        assert stats == {"candidates": k}
        _sample_generator.cache_clear()
        monkeypatch.setattr(reduction, "generator_try_budget", lambda p: k - 1)
        stats = {}
        with pytest.raises(ImprobableFailureError, match=f"in {k - 1} samples"):
            find_generator(1009, f, seed, stats=stats)
        assert stats == {"candidates": k - 1}
    finally:
        _sample_generator.cache_clear()


def test_find_generator_failure_is_never_memoised():
    wrong = Factorization(((1, 1), (100, 1)), True)
    stats = {}
    _sample_generator.cache_clear()
    for calls in (1, 2):
        with pytest.raises(ImprobableFailureError, match="factorization wrong"):
            find_generator(101, wrong, 0, stats=stats)
        assert stats == {"candidates": calls * generator_try_budget(101)}
        assert _sample_generator.cache_info().currsize == 0


def test_find_generator_rejects_incomplete_factorization():
    partial = Factorization(factors=((2, 2),), complete=False, cofactor=25)
    with pytest.raises(IncompleteFactorizationError):
        find_generator(101, partial, 0)


def test_generator_try_budget_scales():
    assert generator_try_budget(101) >= 512
    assert generator_try_budget(2**127) > generator_try_budget(101)


# ------------------------------------------------------- exhaustive sweeps


@pytest.mark.parametrize("kind", ["zp", "mult", "ec"])
@pytest.mark.parametrize("p", [29, 101])
def test_exhaustive_all_divisors_all_exponents(kind, p):
    group = make_group(kind, p)
    oracle = OracleHandle(group)
    for d in all_divisors(p):
        for x in range(1, p):
            check_reduction(group, oracle, x, d, seed=x % 7)


def test_sampled_sweep_p16381_zp_all_divisors():
    p = 16381
    group = make_zp_additive(p)
    oracle = OracleHandle(group)
    divisors = all_divisors(p)
    assert len(divisors) == 72  # 16380 = 2^2 * 3^2 * 5 * 7 * 13
    rng = random.Random(20260819)
    for d in divisors:
        xs = {1, p - 1} | {rng.randrange(1, p) for _ in range(20)}
        for x in sorted(xs):
            check_reduction(group, oracle, x, d, seed=d)


def test_every_prime_below_3000_zp_every_divisor():
    # one seeded x per (p, d): group_ops <= walk ceiling <= sweep ceiling on every top-bit
    # pattern of p - 1 the trimmed tables meet, about 1 s
    rng = random.Random(3000)
    runs = 0
    for p in range(5, 3000):
        if not is_prime(p):
            continue
        group = make_zp_additive(p)
        oracle = OracleHandle(group)
        for d in all_divisors(p):
            x = rng.randrange(1, p)
            check_reduction(group, oracle, x, d, seed=x)
            runs += 1
    assert runs == 5534


def test_p3_edge_orders():
    group = make_zp_additive(3)
    oracle = OracleHandle(group)
    for d in (1, 2):
        for x in (1, 2):
            tr = check_reduction(group, oracle, x, d, seed=0)
            assert tr.params.zeta0 == 2


EC_2_32 = 4293896137  # the registry's cofactor-1 curve near the 2^32 ceiling


def test_ec_at_2_32_with_a_divisor_in_the_paper_band():
    # the paper's own setting: an elliptic curve of order near 2^32 and d in [cbrt p, sqrt p]
    p, d, f = EC_2_32, 2019, factorize(EC_2_32 - 1)
    assert f.factors == ((2, 3), (3, 1), (29, 1), (89, 1), (103, 1), (673, 1))
    band = divisors_in_range(f, *paper_band(p))
    assert len(band) == 32 and band[0] == d
    group = make_group("ec", p)
    oracle = OracleHandle(group)
    for x, group_ops in ((123456789, 8432), (987654321, 8271)):
        tr = check_reduction(group, oracle, x, d, seed=0)
        rep = cost_report(tr, p, d)
        assert tr.ledger.group_ops == group_ops, x
        assert (rep["walk_group_op_ceiling"], rep["kkm_group_op_bound"]) == (10605, 3004)
    assert brute_force_dlog(group, group.scalar_mul(123456789, group.generator)) == 123456789


# ------------------------------------------------------------- transcripts


def test_backend_independence_of_transcript():
    """Same (p, d, x, seed) must yield identical matches and identical bills."""
    cases = (
        (101, 20, 77, 5), (101, 1, 2, 0), (101, 4, 100, 9), (101, 100, 33, 1),
        (1009, 12, 500, 3), (1009, 1, 1008, 7), (1009, 63, 17, 0), (1009, 1008, 1, 2),
    )
    for p, d, x, seed in cases:
        results = []
        for kind in ("zp", "mult", "ec"):
            group = make_group(kind, p)
            oracle = OracleHandle(group)
            Q = group.scalar_mul(x, group.generator)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", PowCallBoundWarning)
                results.append(reduce_dlog(group, oracle, Q, d, seed=seed))
        first = results[0]
        for tr in results[1:]:
            assert (tr.j, tr.u1, tr.v1, tr.t, tr.u2, tr.v2) == (
                first.j, first.u1, first.v1, first.t, first.u2, first.v2
            )
            assert tr.i0 == first.i0 and tr.x == first.x == x
            assert tr.ledger.as_dict() == first.ledger.as_dict()
            assert tr.params == first.params


def test_transcript_export_json_roundtrip():
    group = make_zp_additive(101)
    oracle = OracleHandle(group)
    Q = group.scalar_mul(42, group.generator)
    tr = reduce_dlog(group, oracle, Q, 10, seed=3)
    blob = json.dumps(tr.to_dict())
    back = json.loads(blob)
    assert back["x"] == 42
    assert back["p"] == 101 and back["backend"] == "zp-additive"
    assert back["i0"] == tr.i0 and back["params"]["d"] == 10
    assert back["ledger"]["oracle_calls"] == oracle_calls_expected(10)
    assert set(back["ledger"]) == {"group_ops", "oracle_calls", "bsgs_table_entries"}


def test_fresh_ledger_each_run():
    group = make_zp_additive(101)
    oracle = OracleHandle(group)
    Q = group.scalar_mul(13, group.generator)
    tr1 = reduce_dlog(group, oracle, Q, 4, seed=0)
    tr2 = reduce_dlog(group, oracle, Q, 4, seed=0)
    assert tr1.ledger is not tr2.ledger
    assert tr1.ledger.as_dict() == tr2.ledger.as_dict()


# ------------------------------------------------------------ error paths


def test_rejects_non_divisor():
    group = make_zp_additive(101)
    oracle = OracleHandle(group)
    Q = group.scalar_mul(7, group.generator)
    for bad in (0, -4, 3, 101, 200):
        with pytest.raises(InvalidDivisorError):
            reduce_dlog(group, oracle, Q, bad)


def test_rejects_identity_input():
    group = make_zp_additive(101)
    oracle = OracleHandle(group)
    with pytest.raises(ZeroDlogError):
        reduce_dlog(group, oracle, group.identity, 4)


def test_phase1_inconsistency_detected():
    # zeta0 = 1 is not a generator: zeta = 1, so no giant probe can hit x^d
    # unless x^d = 1; pick x with x^5 != 1 mod 101 and expect a clean failure.
    group = make_zp_additive(101)
    d = 5
    params = ReductionParams(d=d, d1=isqrt(100 // d), s2=isqrt(d), zeta0=1, zeta=1, seed=0)
    x_pow_d = ImplicitFieldElement(group.scalar_mul(pow(3, d, 101), group.generator))
    with pytest.raises(InternalInconsistencyError):
        phase1_find_j(group, x_pow_d, params)


@pytest.mark.parametrize("kind", ["zp", "mult", "ec"])
def test_phase2_inconsistency_detected(kind):
    # with j off by one, zm^v * zeta0^-j * Q = zeta0^(m*(t + v) -+ 1) * P, and m = 25 does not
    # divide 1, so no baby point is a kept zm^e * P: a clean failure on a fresh table and a kept one
    group = make_group(kind, 101)
    Q = group.scalar_mul(37, group.generator)
    for fresh in (True, False):
        tr = reduce_dlog(group, OracleHandle(group), Q, 4, seed=3)
        if fresh:
            group._giant_tables.clear()
        for j in (tr.j - 1, tr.j + 1):
            with pytest.raises(InternalInconsistencyError, match="phase 2 found no t"):
                phase2_find_t(group, Q, j, tr.params)
        assert phase2_find_t(group, Q, tr.j, tr.params) == (tr.t, tr.u2, tr.v2)


@pytest.mark.parametrize("kind", ["zp", "mult", "ec"])
def test_self_check_refuses_a_wrong_x(kind, monkeypatch):
    # a phase 2 that answers t + 1 recombines an x off by m = 25 in the exponent of zeta0: its
    # x*P, read off the kept w = 4 generator table, misses the caller's Q, and the run fails by name
    group = make_group(kind, 101)
    Q = group.scalar_mul(37, group.generator)
    assert reduce_dlog(group, OracleHandle(group), Q, 4, seed=3).x == 37
    real = reduction.phase2_find_t
    monkeypatch.setattr(reduction, "phase2_find_t", lambda *a: ((real(*a)[0] + 1) % 4, *real(*a)[1:]))
    with pytest.raises(InternalInconsistencyError, match="fails x\\*P = Q"):
        reduce_dlog(group, OracleHandle(group), Q, 4, seed=3)
    assert 4 in group._generator_tables


# --------------------------------------------------------- cost accounting


def test_d1_uses_zero_oracle_calls():
    group = make_group("mult", 101)
    oracle = OracleHandle(group)
    before = oracle.call_count
    Q = group.scalar_mul(31, group.generator)
    tr = reduce_dlog(group, oracle, Q, 1)
    assert tr.x == 31
    assert tr.ledger.oracle_calls == 0
    assert oracle.call_count == before


def test_full_divisor_forces_j_equal_one():
    group = make_zp_additive(101)
    oracle = OracleHandle(group)
    for x in (1, 17, 100):
        Q = group.scalar_mul(x, group.generator)
        tr = reduce_dlog(group, oracle, Q, 100, seed=2)
        assert tr.j == 1 and tr.x == x  # m = 1 leaves only j = 1


def test_all_ones_divisor_propagates_call_bound_warning():
    group = make_zp_additive(29)
    oracle = OracleHandle(group)
    Q = group.scalar_mul(5, group.generator)
    with pytest.warns(PowCallBoundWarning):
        tr = reduce_dlog(group, oracle, Q, 7, seed=1)
    assert tr.x == 5
    assert tr.ledger.oracle_calls == 5  # floor(log2 7) + popcount(7) = 2 + 3


def test_cost_report_shapes_and_values():
    group = make_zp_additive(101)
    oracle = OracleHandle(group)
    Q = group.scalar_mul(77, group.generator)
    tr = reduce_dlog(group, oracle, Q, 4, seed=0)
    rep = cost_report(tr, 101, 4)
    assert rep["p"] == 101 and rep["d"] == 4
    # d1 = isqrt(25) = 5, s2 = isqrt(4) = 2, ceil(log2 101) = 7
    assert tr.params.d1 == 5 and tr.params.s2 == 2
    assert rep["kkm_group_op_bound"] == 14
    # sweep steps: (ceil(25/5)+1) + (ceil(4/2)+1) + 5 + 2 = 16
    assert rep["sweep_group_op_ceiling"] == 2 * 7 * 16 == 224
    assert rep["measured_oracle_calls"] == 3 == rep["oracle_calls_formula"]
    assert rep["oracle_calls_match_formula"] is True
    assert rep["lemma_oracle_call_bound"] == 4
    assert rep["within_lemma_oracle_bound"] is True
    assert rep["within_sweep_ceiling"] is True
    assert rep["measured_group_ops"] == tr.ledger.group_ops > 0
    assert rep["bsgs_table_entries"] == (5 + 1) + (2 + 1)
    # 100 = 0b1100100 has 7 bits. Its signed digits (lowest first, a lower digit above 2^(w-1)
    # less 2^w, carrying 1) have top digit 1 for w = 1, 2, 3 and 6 for w = 4, so the tables
    # cost (cols - 1)*w + (cols - 1)*(2^(w-1) - 1) + max(top - 1, 0): 6, 9, 12 and 4 + 7 + 5
    # = 16 ops. Phase 1 baby (k0 1, stride 19, 6 points, priced at all 6): w = 4 costs
    # 16 + 5*1 = 21, under w = 3's 12 + 5*2 and the plain 5*6. Phase 1 giant (84, 84, 6),
    # priced at its first 3 points against the plain 8 + 2*8 = 24: 84's base-4 digits are
    # 0, 1, 1, 1, none recoded, so w = 2 costs 9 + 2 + 2*3 = 17, under w = 1's 6 + 2 + 2*6
    # and w = 3's 12 + 2 + 2*2; over all 6 points it costs 9 + 2 + 5*3 = 26. Phase 2 baby
    # (1, 91, 3): w = 2 costs 9 + 2*3 = 15, under the plain 2*10 and w = 3's 12 + 2*2.
    # Phase 2 giant (zeta0^3 = 38, 100, 4): its own plan, w = 1 at 6 + 2 + 6 = 14 over 2
    # points, loses to phase 1's w = 2 table at 2 + 3 = 5 (38's digits 2, 1, 2, 0), so it
    # shares that table and costs 2 + 3*3 = 11 over all 4.
    assert tr.j == 3
    assert [rep[f"window_{name}"] for name in WALK_NAMES] == [4, 2, 2, 2]
    assert rep["walk_group_op_ceiling"] == 21 + 26 + 15 + 11
    assert rep["within_walk_ceiling"] is True


# ------------------------------------------------------- fixed-base walks


def signed_digits(k: int, w: int, p: int) -> list[int]:
    """k's w-bit signed digits on a table that serves every k < p, recoded one digit at a time.

    ceil(bits(p - 1)/w) digits, lowest first: each lower digit above 2^(w-1)
    becomes itself - 2^w and carries 1 into the next; the top digit keeps
    what is left, carry included.
    """
    digits = []
    for _ in range(-(-(p - 1).bit_length() // w) - 1):
        digit = k % 2**w
        if digit > 2 ** (w - 1):
            digit -= 2**w
        digits.append(digit)
        k = (k - digit) // 2**w
    return digits + [k]


def nonzero_digits(k: int, w: int, p: int) -> int:
    """Nonzero w-bit signed digits of k < p."""
    return sum(digit != 0 for digit in signed_digits(k, w, p))


def run_walk(group, base_x: int, walk: Walk, giant: bool = False):
    """Run every point of a walk on its own window, on the image of base_x: (w, its bill, its table)."""
    p, window = group.order, _plan(group.order, walk, giant)
    table = bsgs_table(_walk(group, walk_base(group, base_x), walk, window), walk.points)
    return w_of(window), sum(_charges(p, walk, window)), table


def w_of(window) -> int:
    """The window's w; 0 is the plain walk."""
    return 0 if window is None else window.w


def walk_base(group, base_x: int) -> ImplicitFieldElement:
    return ImplicitFieldElement(group.scalar_mul(base_x, group.generator))


def table_bill(p: int, w: int) -> int:
    """Group ops of a w-bit signed-digit table for every k < p, from the signed digits of p - 1.

    One column per digit, each but the first reached by w doublings. Each
    lower row holds the multiples 0..2^(w-1) at 2^(w-1) - 1 additions, and
    their negatives, which cost none. The top row stops at the top digit of
    p - 1, the largest of any k < p, since the top digit never falls as k grows.
    """
    *lower, top = signed_digits(p - 1, w, p)
    return len(lower) * w + len(lower) * (2 ** (w - 1) - 1) + max(top - 1, 0)


def formula_bill(p: int, walk: Walk, w: int, table: bool = True) -> int:
    """The plain walk's bill, or a w-bit signed table (unless shared) plus (nonzero digits - 1) per point."""
    if w == 0:
        return scalar_mul_cost(walk.k0) + (walk.points - 1) * scalar_mul_cost(walk.stride)
    ks = [walk.k0 * pow(walk.stride, i, p) % p for i in range(walk.points)]
    return table * table_bill(p, w) + sum(nonzero_digits(k, w, p) - 1 for k in ks)


@pytest.mark.parametrize("kind", ["zp", "mult", "ec"])
@pytest.mark.parametrize("p", [101, 1009, 16381])
def test_walk_bill_equals_formula(kind, p):
    group = make_group(kind, p)
    rng = random.Random(p)
    seen = set()
    for points in (2, 3, 6, 13, isqrt(p) + 1):
        for trial in range(6):
            stride, k0 = rng.randrange(2, p), rng.choice([1, rng.randrange(1, p)])
            walk, giant = Walk(k0, stride, points), trial % 2 == 1  # priced in full, then at half
            window = _plan(p, walk, giant)
            base_x = rng.randrange(1, p)
            w, bill, table = run_walk(group, base_x, walk, giant)
            seen.add(w > 0)
            assert bill == formula_bill(p, walk, w)
            assert bill <= _worst(walk, window, points)  # the plan's worst case
            # the same points, in the same order, as scalar multiplication
            want, want_keys = {}, []
            for i in range(points):
                k = k0 * pow(stride, i, p) * base_x % p
                want_keys.append(group.encode(group.scalar_mul(k, group.generator)))
                want.setdefault(want_keys[-1], i)
            assert table == want
            # billed per point: the first n charges are the formula over n points
            n = rng.randrange(1, points + 1)
            prefix = list(islice(_walk(group, walk_base(group, base_x), walk, window), n))
            charges = _charges(p, walk, window)
            assert sum(islice(charges, n)) == formula_bill(p, walk._replace(points=n), w)
            assert prefix == want_keys[:n]
            assert len(list(_charges(p, walk, window))) == points
    assert seen == {True, False}  # both the windowed and the plain walk ran


@pytest.mark.parametrize("kind", ["zp", "mult", "ec"])
@pytest.mark.parametrize("p", [101, 1009])
def test_walk_keys_do_not_depend_on_the_window(kind, p):
    # what lets a walk run on another window than the one it is billed for
    group = make_group(kind, p)
    rng = random.Random(f"window-free:{kind}:{p}")
    windows = _windows(p - 1, 0)
    assert sorted(window.w for window in windows) == list(range(1, (p - 1).bit_length()))
    for trial in range(12):
        base_x = 1 if trial % 3 == 0 else rng.randrange(2, p)  # 1: the group's kept generator tables
        k0 = 1 if trial % 2 == 0 else rng.randrange(2, p)
        walk = Walk(k0, rng.randrange(2, p), rng.choice((2, 5, isqrt(p) + 1)))
        plain = list(islice(_walk(group, walk_base(group, base_x), walk, None), walk.points))
        assert plain == [group.scalar_mul(k0 * pow(walk.stride, i, p) * base_x % p,
                                          group.generator).data for i in range(walk.points)]
        for window in windows:
            keys = islice(_walk(group, walk_base(group, base_x), walk, window), walk.points)
            assert list(keys) == plain, (walk, window.w)


def counted_fresh_bases(group, monkeypatch) -> list:
    """Wrap group's _raw_fixed_base; the returned list records each base other than the
    generator that the hook is asked to build a table on."""
    built, hook = [], group._raw_fixed_base

    def counted(base, w):
        if base != group.generator.data:
            built.append(base)
        return hook(base, w)

    monkeypatch.setattr(group, "_raw_fixed_base", counted)
    return built


@pytest.mark.parametrize("kind", ["zp", "mult", "ec"])
def test_a_walk_from_1_builds_its_table_at_its_second_key(kind, monkeypatch):
    # the first key of a windowed walk from k0 = 1 is its base's own data, so the hook builds the
    # base's table only when a second key is pulled; a walk from another k0 builds it at once
    group = make_group(kind, 1009)
    built = counted_fresh_bases(group, monkeypatch)
    base, window = walk_base(group, 3), _windows(1008, 0)[2]
    keys = _walk(group, base, Walk(1, 7, 5), window)
    assert next(keys) == base.image.data and built == []
    assert next(keys) == group.scalar_mul(21, group.generator).data and built == [base.image.data]
    assert next(_walk(group, base, Walk(2, 7, 5), window)) == group.scalar_mul(6, group.generator).data
    assert len(built) == 2


@pytest.mark.parametrize("kind", ["zp", "mult", "ec"])
def test_phase1_first_key_hit_builds_no_table_on_its_base(kind, monkeypatch):
    # once phase 1's table is kept, a run whose x^d * P is a stored key, zeta^e * P, hits on its
    # first key and has the hook build no table on x^d * P; a run whose first key misses builds
    # one, on x^d * P, as it pulls its second key
    p, d = 16381, 1
    group = make_group(kind, p)
    params = run_params(p, d, 0)
    built = counted_fresh_bases(group, monkeypatch)
    phase1_find_j(group, phase1_inputs(group, 5, d, 0)[0], params)
    stored = sorted(set(group._giant_tables[1, d].table.values()))
    for e in stored[:6]:
        giants = group._giant_tables[1, d]
        assert _pulled_window(p, params.zeta, params.d1 + 1, giants.pulls) is not None
        for miss in (False, True):
            x = pow(params.zeta0, e - miss, p)  # x^d = zeta^(e - miss)
            built.clear()
            q_pow_d = phase1_inputs(group, x, d, 0)[0]
            j, _, _ = phase1_find_j(group, q_pow_d, params)
            assert pow(params.zeta, j, p) == pow(x, d, p)
            assert built == ([q_pow_d.image.data] if miss else []), (e, miss)


def test_baby_walk_executes_on_a_smaller_window_than_it_is_billed_for(monkeypatch):
    # at 2^32 the plan gives phase 1's baby walk w = 11 for its d1 + 1 points; a run pulls far
    # fewer, so it runs on the window those favour, while the bill and the report keep w = 11
    p, d = 4294967291, 190
    group = make_zp_additive(p)
    ran, inner = [], reduction._walk

    def recorded(group, base, walk, window):
        ran.append((walk, window))
        return inner(group, base, walk, window)

    monkeypatch.setattr(reduction, "_walk", recorded)
    tr = run_quietly(group, OracleHandle(group), 123456789, d, seed=0)
    (baby1, planned1), (giant1, giant_window1) = tr.plan[:2]
    executed1 = [window for walk, window in ran if walk == baby1]
    assert len(executed1) == 1 and 0 < w_of(executed1[0]) < w_of(planned1) == 11
    assert [window for walk, window in ran if walk == giant1] == [giant_window1]  # as planned
    assert cost_report(tr, p, d)["window_phase1_baby"] == 11
    assert tr.ledger.group_ops == bill(p, tr.plan, tr.u1, tr.u2)[0]


@pytest.mark.parametrize("p", [101, 1009])
def test_baby_side_never_billed_above_plain_walk(p):
    group = make_zp_additive(p)
    strides = range(2, p) if p < 200 else random.Random(p).sample(range(2, p), 150)
    for stride in strides:
        for points in (2, 3, 5, isqrt(p) + 1, 2 * isqrt(p)):
            walk = Walk(1, stride, points)
            _, bill, _ = run_walk(group, 1, walk)
            assert bill <= (points - 1) * scalar_mul_cost(stride), (stride, points)


@pytest.mark.parametrize("p", [17, 29, 101, 257, 1009, 16381])
def test_table_is_built_at_its_billed_size(p):
    # the generic path's column doublings and row additions, all made inside the hook, equal
    # table_bill, which the planner charges: the top row is built and billed up to the top
    # digit of p - 1
    group = make_zp_additive(p)  # run through the generic path, as EC builds it
    adds, add = [0], group._raw_add

    def counted(a, b):
        adds[0] += 1
        return add(a, b)

    group._raw_add = counted
    billed = {window.w: window.table for window in _windows(p - 1, 0)}
    for w in range(1, (p - 1).bit_length()):
        before = adds[0]
        CyclicGroup._raw_fixed_base(group, group.generator.data, w)
        assert adds[0] - before == table_bill(p, w) == billed[w], w


@pytest.mark.parametrize("p", [101, 1009, 16381])
def test_zp_windowed_walk_off_p_does_no_group_arithmetic(p, monkeypatch):
    # Z_p's hook is k*base % p and builds nothing: a windowed walk on a base other than P makes
    # no column and no row, so neither _raw_add nor scalar_mul runs, for any w
    group = make_zp_additive(p)
    base, walk = walk_base(group, 3), Walk(5, 7, 12)

    def boom(*args):
        raise AssertionError("group arithmetic on a Z_p windowed walk")

    monkeypatch.setattr(group, "_raw_add", boom)
    monkeypatch.setattr(group, "scalar_mul", boom)
    for window in _windows(p - 1, 0):
        keys = list(islice(_walk(group, base, walk, window), walk.points))
        assert keys == [3 * 5 * pow(7, i, p) % p for i in range(walk.points)], window.w


@pytest.mark.parametrize("p", [29, 101, 1009, 16381, EC_2_32])
def test_signed_table_is_built_at_its_billed_size_on_ec(p):
    # a fresh curve's generator table, counted as the classic-search bill test counts additions:
    # its column doublings and row additions are Window.table and table_bill, and the lower
    # rows' negatives, from _raw_negate, cost none; at 2^32 every w up to 12
    group = make_group("ec", p)
    adds = counted_point_adds(group)
    for window in _windows(p - 1, 0):
        if window.w <= 12:
            before = adds[0]
            group._generator_table(window.w)
            assert adds[0] - before == window.table == table_bill(p, window.w), window.w


def run_bill(p: int, tr, rep) -> int:
    """A run's group ops from (params, j, u1, u2) and its windows, with the generator table counted once.

    Both baby walks in full, phase 1's giant walk through u1 and phase 2's
    through u2 + 1; phase 2's giant walk pays no table when it runs on phase
    1's window.
    """
    w = {name: rep[f"window_{name}"] for name in WALK_NAMES}
    baby1, giant1, baby2, giant2 = run_walks(p, tr.params, tr.j)
    shared = w["phase1_giant"] == w["phase2_giant"] > 0
    return (
        formula_bill(p, baby1, w["phase1_baby"])
        + formula_bill(p, giant1._replace(points=tr.u1), w["phase1_giant"])
        + formula_bill(p, baby2, w["phase2_baby"])
        + formula_bill(p, giant2._replace(points=tr.u2 + 1), w["phase2_giant"], table=not shared)
    )


def priced_worst(p: int, walk: Walk, w: int, table: bool = True) -> int:
    """Worst case of a giant walk's first ceil(points/2) points on w (0: plain), from its digits."""
    half = -(-walk.points // 2)
    if w == 0:
        return scalar_mul_cost(walk.k0) + (half - 1) * scalar_mul_cost(walk.stride)
    cols = -(-(p - 1).bit_length() // w)
    return table * table_bill(p, w) + nonzero_digits(walk.k0, w, p) - 1 + (half - 1) * (cols - 1)


@pytest.mark.parametrize("kind", ["zp", "mult", "ec"])
def test_run_bill_equals_independent_formula(kind):
    # sampled sweep runs: the ledger is the digit-by-digit bill of the run's matches, and
    # phase 2's giant walk shares phase 1's table exactly when that is windowed and no dearer
    rng = random.Random(f"run-bill:{kind}")
    shares = set()
    for p in (29, 101, 1009):
        group = make_group(kind, p)
        oracle = OracleHandle(group)
        for d in all_divisors(p):
            for x in rng.sample(range(1, p), 4):
                tr = run_quietly(group, oracle, x, d, seed=(31 * x + d) & 0xFFFF)
                rep = cost_report(tr, p, d)
                assert tr.ledger.group_ops == run_bill(p, tr, rep), (p, d, x)
                entries = tr.params.d1 + tr.params.s2 + 2
                assert bill(p, tr.plan, tr.u1, tr.u2) == (tr.ledger.group_ops, entries)
                giant2 = run_walks(p, tr.params, tr.j)[3]
                w1, own = rep["window_phase1_giant"], w_of(_plan(p, giant2, giant=True))
                share = w1 > 0 and priced_worst(p, giant2, w1, False) <= priced_worst(p, giant2, own)
                assert rep["window_phase2_giant"] == (w1 if share else own), (p, d, x)
                shares.add((share, w1 == own))
    assert shares >= {(True, True), (True, False), (False, False)}


def run_walks(p: int, params, j: int = 0) -> tuple[Walk, ...]:
    """The four walks of a run on params, phase 2's giant walk started at zeta0^j."""
    *fixed, giant = walks(p, params.d, params.zeta0)
    return (*fixed, giant._replace(k0=pow(params.zeta0, j, p)))


def giant_points(p: int, params, phase: int) -> int:
    """G, the points of a phase's giant walk, which its kept table stores."""
    return run_walks(p, params)[2 * phase - 1].points


def run_params(p: int, d: int, seed: int) -> ReductionParams:
    """The params reduce_dlog derives for (p, d, seed)."""
    zeta0 = find_generator(p, factorize(p - 1), seed)
    return ReductionParams(
        d=d, d1=isqrt((p - 1) // d), s2=isqrt(d), zeta0=zeta0, zeta=pow(zeta0, d, p), seed=seed
    )


@pytest.mark.parametrize("kind", ["zp", "mult", "ec"])
def test_cost_report_reads_the_plan_the_run_carries(kind):
    # the run's plan holds the four walks it ran on their windows; cost_report prices the walk
    # ceiling and reports every window_* from that plan, and exports leave the plan out
    group = make_group(kind, 101)
    oracle = OracleHandle(group)
    windowed = 0
    for d in all_divisors(101):
        tr = run_quietly(group, oracle, 77, d, seed=d)
        windowed += any(window is not None for _, window in tr.plan)
        baby1, giant1, baby2, giant2 = run_walks(101, tr.params, tr.j)
        assert [walk for walk, _ in tr.plan] == [baby1, giant1, baby2, giant2]
        assert tr.plan == plan(101, d, tr.params.zeta0, tr.j)
        assert [window for _, window in tr.plan] == [
            _plan(101, baby1), _plan(101, giant1, giant=True), _plan(101, baby2),
            _plan(101, giant2, giant=True, shared=tr.plan[1][1]),
        ]
        rep = cost_report(tr, 101, d)
        assert [rep[f"window_{name}"] for name in WALK_NAMES] == [w_of(w) for _, w in tr.plan]
        assert rep["walk_group_op_ceiling"] == sum(_worst(w, win, w.points) for w, win in tr.plan)
        # a doctored plan moves the report: nothing is planned again
        plain = tuple((walk, None) for walk, _ in tr.plan)
        rep = cost_report(dataclasses.replace(tr, plan=plain), 101, d)
        assert [rep[f"window_{name}"] for name in WALK_NAMES] == [0, 0, 0, 0]
        assert rep["walk_group_op_ceiling"] == sum(_worst(w, None, w.points) for w, _ in tr.plan)
        assert "plan" not in tr.to_dict()
        assert list(tr.to_dict()) == [
            "p", "backend", "j", "u1", "v1", "t", "u2", "v2", "i0", "x", "ledger", "params",
        ]
    assert windowed >= 8  # all but one run had a window, so their reports moved


# -------------------------------------------------- phase 1's giant table


def executed(group, base, walk: Walk, window, ledger: CostLedger, fresh: bool = True):
    """The keys of walk on window, each point's group ops charged to ledger as it is pulled.

    With fresh, a walk on the generator builds its window's table again, as the ledger bills
    it, even where the group kept one; otherwise it reads the kept one.
    A walk on any other base builds its own columns either way.
    """
    if fresh and window is not None and base.image.data == group.generator.data:
        group._generator_tables.pop(window.w, None)
    for charge, key in zip(_charges(group.order, walk, window), _walk(group, base, walk, window)):
        ledger.charge_group_ops(charge)
        yield key


def reference_phase1(group, q_pow_d, params, ledger: CostLedger):
    """Phase 1 as a table of every baby point probed by the giant walk in u1 order, billed
    per pull to ledger: (j, u1, v1)."""
    p = group.order
    m, d1 = (p - 1) // params.d, params.d1
    baby, giant = run_walks(p, params)[:2]
    table = bsgs_table(executed(group, q_pow_d, baby, _plan(p, baby), ledger), baby.points)
    ledger.charge_table_entries(baby.points)
    generator = ImplicitFieldElement(group.generator)
    giants = executed(group, generator, giant, _plan(p, giant, giant=True), ledger)
    u1, v1 = bsgs_probe(
        table, giants, range(1, giant.points + 1), lambda u1, v1: 1 <= u1 * d1 - v1 <= m
    )
    return u1 * d1 - v1, u1, v1


def phase1_inputs(group, x: int, d: int, seed: int):
    """(x^d as an implicit element, the run's params), as reduce_dlog derives them."""
    p = group.order
    return walk_base(group, pow(x, d, p)), run_params(p, d, seed)


def assert_phase1_matches_reference(group, x: int, d: int, seed: int):
    """phase1_find_j and reference_phase1 give one match; returns it."""
    q_pow_d, params = phase1_inputs(group, x, d, seed)
    found = phase1_find_j(group, q_pow_d, params)
    assert found == reference_phase1(group, q_pow_d, params, CostLedger()), (group.backend, x, d)
    return found


@pytest.mark.parametrize("kind", ["zp", "mult", "ec"])
@pytest.mark.parametrize("p", [29, 101])
def test_phase1_matches_reference_on_every_x_and_divisor(kind, p):
    group = make_group(kind, p)
    for d in all_divisors(p):
        for x in sorted(range(1, p), key=lambda x: x % 7):  # one build per seed, then hits
            assert_phase1_matches_reference(group, x, d, seed=x % 7)


SAMPLED_CASES = [(kind, 1009, None) for kind in ("zp", "mult", "ec")] + [("ec", 16381, (1, 2, 3, 4))]
SAMPLED_IDS = ["zp-1009", "mult-1009", "ec-1009", "ec-16381"]


@pytest.mark.parametrize("kind,p,ds", SAMPLED_CASES, ids=SAMPLED_IDS)
def test_phase1_matches_reference_sampled(kind, p, ds):
    group = make_group(kind, p)
    rng = random.Random(f"reference:{kind}:{p}")
    for d in ds or all_divisors(p):
        for x in sorted({1, p - 1, *rng.sample(range(1, p), 10)}):
            assert_phase1_matches_reference(group, x, d, seed=x % 3)


DEGENERATE_SPLITS = {
    # d = p - 1: m = 1 and zeta = 1, so every point of either walk has one key
    "m-is-1": (101, 100, range(1, 101)),
    # m = 25 = 5^2: the giant stride zeta^5 has order 5, so the giant key at
    # u = 6 repeats u = 1; the reference accepts only the smaller u, and
    # phase1_find_j reduces e - v mod m whichever it meets
    "m-square": (101, 4, range(1, 101)),
    # x^4 = 1 gives j = m = 25 with d1 = 5 | m: the match v1 = 0 at u1 = 5
    # must win over v1 = d1 at u1 = 6, the one other pair with u1*d1 - v1 = j
    "j-is-m": (101, 4, (1, 10, 91, 100)),
}


@pytest.mark.parametrize("kind", ["zp", "mult", "ec"])
@pytest.mark.parametrize("split", DEGENERATE_SPLITS)
def test_phase1_matches_reference_on_degenerate_splits(kind, split):
    p, d, xs = DEGENERATE_SPLITS[split]
    m = (p - 1) // d
    group = make_group(kind, p)
    u1s = set()
    for seed in range(4):
        for x in xs:
            kept = group._giant_tables.get((1, d))
            layers = len(kept.offsets) if kept else 0
            j, u1, v1 = assert_phase1_matches_reference(group, x, d, seed)
            u1s.add(u1)
            giants = group._giant_tables[1, d]
            if split == "m-is-1":
                # d1 = 1: the one offset leaves no gap above 1, so the table never grows
                assert (j, u1, v1) == (1, 1, 0) and len(giants.table) == 1
                assert (giants.offsets, giants.pulls) == ([0], 2)
                continue
            # d1 = 5: a build is one layer, each reuse adds one until all five offsets are in,
            # at 0, 2, 3, 1 and 4, the widest gap (the pull bound less 1) going 5, 3, 2, 2, 1
            layers = 1 if giants is not kept else min(layers + 1, 5)
            assert giants.offsets == sorted([0, 2, 3, 1, 4][:layers])
            assert giants.pulls == {1: 6, 2: 4, 3: 3, 4: 3, 5: 2}[layers]
            if split == "m-square":
                # 5 keys a layer, of G = 6 points each: u = 6 repeats u = 1 mod m
                assert len(giants.table) == 5 * layers
                assert giant_points(p, run_params(p, d, seed), 1) == 6
            else:
                assert (j, u1, v1) == (m, 5, 0)
    if split == "m-square":
        assert 1 in u1s  # some runs matched on the repeated key


def test_run_charges_its_bill_once_after_both_matches(monkeypatch):
    # the searches charge nothing; reduce_dlog charges the bill of both matches, once each
    events = []

    class Ledger(CostLedger):
        def charge_group_ops(self, k):
            events.append("group ops")
            super().charge_group_ops(k)

        def charge_table_entries(self, k):
            events.append("table entries")
            super().charge_table_entries(k)

    def traced(name, find):
        def run(*args):
            found = find(*args)
            events.append(name)
            return found
        return run

    monkeypatch.setattr(reduction, "CostLedger", Ledger)
    monkeypatch.setattr(reduction, "phase1_find_j", traced("phase 1", phase1_find_j))
    monkeypatch.setattr(reduction, "phase2_find_t", traced("phase 2", phase2_find_t))
    rng = random.Random("charged once")
    for kind in ("zp", "mult", "ec"):
        group = make_group(kind, 1009)
        oracle = OracleHandle(group)
        for d in (1, 12, 63, 1008):
            for x in rng.sample(range(1, 1009), 3):
                events.clear()
                tr = run_quietly(group, oracle, x, d, seed=x)
                assert events == ["phase 1", "phase 2", "group ops", "table entries"]
                billed = bill(1009, tr.plan, tr.u1, tr.u2)
                assert (tr.ledger.group_ops, tr.ledger.bsgs_table_entries) == billed


# -------------------------------------------------- phase 2's giant table


def reference_phase2(group, Q, j, params, ledger: CostLedger):
    """Phase 2 as the classic search: a table of every baby point zm^v * Q, probed by the giant
    walk from zeta0^j in u2 order with the 0 <= u2*s2 - v2 < d accept, billed per pull to
    ledger: (t, u2, v2). The giant walk reads phase 1's giant table when it runs on its w."""
    p = group.order
    d, s2 = params.d, params.s2
    _, giant1, baby, giant = run_walks(p, params, j)
    shared = _plan(p, giant1, giant=True)
    window = _plan(p, giant, giant=True, shared=shared)
    babies = executed(group, ImplicitFieldElement(Q), baby, _plan(p, baby), ledger)
    table = bsgs_table(babies, baby.points)
    ledger.charge_table_entries(baby.points)
    generator = ImplicitFieldElement(group.generator)
    fresh = window is None or shared is None or window.w != shared.w
    giants = executed(group, generator, giant, window, ledger, fresh)
    u2, v2 = bsgs_probe(table, giants, range(giant.points), lambda u2, v2: 0 <= u2 * s2 - v2 < d)
    return u2 * s2 - v2, u2, v2


def phase2_inputs(group, x: int, d: int, seed: int):
    """(Q = xP, j, the run's params), as reduce_dlog hands them to phase 2.

    j is read off x = zeta0^i0 with i0 = m*t + j, j in [1, m], by a table of
    zeta0's powers, so no phase-1 table is touched.
    """
    p = group.order
    params = run_params(p, d, seed)
    i0 = {pow(params.zeta0, i, p): i for i in range(p - 1)}[x]
    j = (i0 - 1) % ((p - 1) // d) + 1
    return group.scalar_mul(x, group.generator), j, params


def assert_phase2_matches_reference(group, x: int, d: int, seed: int):
    """phase2_find_t and reference_phase2 give one match, and the references' ledger over
    both phases is the run's bill; returns the match."""
    p = group.order
    Q, j, params = phase2_inputs(group, x, d, seed)
    found = phase2_find_t(group, Q, j, params)
    ledger = CostLedger()
    _, u1, _ = reference_phase1(group, walk_base(group, pow(x, d, p)), params, ledger)
    assert found == reference_phase2(group, Q, j, params, ledger), (group.backend, x, d, seed)
    billed = bill(p, plan(p, d, params.zeta0, j), u1, found[1])
    assert (ledger.group_ops, ledger.bsgs_table_entries) == billed, (group.backend, x, d, seed)
    return found


@pytest.mark.parametrize("kind", ["zp", "mult", "ec"])
@pytest.mark.parametrize("p", [29, 101])
def test_phase2_matches_reference_on_every_x_and_divisor(kind, p):
    # each seed's first x builds the table (or replaces another seed's) and probes it, its
    # second adds the half-stride layer, the rest probe that table; every build also runs on a
    # fresh group
    group = make_group(kind, p)
    states = set()
    for d in all_divisors(p):
        for x in sorted(range(1, p), key=lambda x: x % 7):
            seed = x % 7
            zm = pow(run_params(p, d, seed).zeta0, (p - 1) // d, p)
            kept = group._giant_tables.get((2, d))
            if kept is None or kept.g != zm:
                states.add("none" if kept is None else "replaced")
                assert_phase2_matches_reference(make_group(kind, p), x, d, seed)
            else:
                states.add("extended" if len(kept.offsets) > 1 else "built")
            assert_phase2_matches_reference(group, x, d, seed)
    assert states == {"none", "replaced", "built", "extended"}


PHASE2_SPLITS = {
    # d = 1: zm = 1, so t = 0 at (u2, v2) = (0, 0); phase 2 scans its one candidate and keeps no table
    "d-is-1": (101, 1),
    # d = 2: zm = -1, two candidates, scanned; no table is kept
    "d-is-2": (101, 2),
    # d = 3 at p = 7 walks: s2 = 1, so the one offset leaves no gap above 1, and the G2 = 5 keys
    # are zm^0, zm^1 and zm^2
    "s2-is-1": (7, 3),
    # d = p - 1: m = 1 and j = 1; s2 = 10 and G2 = 12, so e = 100 and 110 repeat e = 0 and 10:
    # 10 keys per layer, each reuse a layer below them, the half stride (5) first, until the ten
    # offsets below s2 hold the whole subgroup of order 100
    "d-is-p-1": (101, 100),
}


@pytest.mark.parametrize("kind", ["zp", "mult", "ec"])
@pytest.mark.parametrize("split", PHASE2_SPLITS)
def test_phase2_matches_reference_on_named_divisors(kind, split):
    p, d = PHASE2_SPLITS[split]
    group = make_group(kind, p)
    assert layer_offsets(10, 10) == [0, 5, 2, 7, 3, 8, 1, 4, 6, 9]
    assert phase2_scans(p, d) == (split in ("d-is-1", "d-is-2"))
    for seed in range(4):
        for runs, x in enumerate(range(1, p), start=1):
            kept = group._giant_tables.get((2, d))
            t, u2, v2 = assert_phase2_matches_reference(group, x, d, seed)
            assert giant_points(p, run_params(p, d, seed), 2) == -(-d // isqrt(d)) + 2
            if phase2_scans(p, d):
                assert (2, d) not in group._giant_tables
                if split == "d-is-1":
                    assert (t, u2, v2) == (0, 0, 0)
                continue
            giants = group._giant_tables[2, d]
            if split == "s2-is-1":
                assert len(giants.table) == 3
                assert (giants.offsets, giants.pulls) == ([0], 2)
            else:
                # run r on a seed's table leaves its first min(r, 10) layers: each reuse adds one,
                # the ten keys zm^(s2*u - o), until every offset o below s2 is stored
                assert (giants is kept) == (runs > 1)
                offsets = layer_offsets(10, min(runs, 10))
                assert (giants.offsets, giants.pulls) == (sorted(offsets), pull_bound(10, offsets))
                assert giants.pulls == [11, 6, 6, 4, 4, 3, 3, 3, 3, 2][min(runs, 10) - 1]
                assert len(giants.table) == 10 * len(offsets)
                assert phase2_inputs(group, x, d, seed)[1] == 1


@pytest.mark.parametrize("kind", ["zp", "mult", "ec"])
@pytest.mark.parametrize("p,sampled", [(101, None), (1009, 6)], ids=["101-every-x", "1009-sampled"])
def test_phase2_scan_and_search_agree_on_every_divisor(kind, p, sampled, monkeypatch):
    # on every divisor, scanned or walked by the rule, the scan and the kept-table search give the
    # same (t, u2, v2) for the same inputs, and the scan keeps no table
    rng = random.Random(f"scan:{kind}:{p}")
    walked, scanned = make_group(kind, p), make_group(kind, p)
    for d in all_divisors(p):
        for x in range(1, p) if sampled is None else rng.sample(range(1, p), sampled):
            seed = x % 5
            Q, j, params = phase2_inputs(walked, x, d, seed)
            monkeypatch.setattr(reduction, "phase2_scans", lambda p, d: False)
            t, u2, v2 = phase2_find_t(walked, Q, j, params)
            monkeypatch.setattr(reduction, "phase2_scans", lambda p, d: True)
            Q = scanned.scalar_mul(x, scanned.generator)
            assert phase2_find_t(scanned, Q, j, params) == (t, u2, v2), (d, x)
            assert pow(params.zeta0, (p - 1) // d * t + j, p) == x
    assert (2, p - 1) in walked._giant_tables and not scanned._giant_tables


# ------------------------------------------------- the bill, counted


def counted_point_adds(group) -> list[int]:
    """Wrap this EC group's _raw_add; the returned one-element list counts the calls whose
    operands are both points, neither the identity (None), which costs no group operation."""
    adds, add = [0], group._raw_add

    def counted(a, b):
        adds[0] += a is not None and b is not None
        return add(a, b)

    group._raw_add = counted
    return adds


@pytest.mark.parametrize("p,ds,sampled", [(101, None, None), (1009, None, 6), (EC_2_32, (2019,), 1)],
                         ids=["101-every-x", "1009-sampled", "2_32-one-run"])
def test_bill_is_the_group_ops_the_classic_search_performs(p, ds, sampled):
    # both reference phases run on a fresh EC group's generic path, with x^d * P computed
    # directly, so no oracle table is built there; the additions they perform are the
    # bill reduce_dlog charges for the same matches, and the references' per-pull ledger
    group, counted = make_group("ec", p), make_group("ec", p)
    oracle = OracleHandle(group)
    adds = counted_point_adds(counted)
    rng = random.Random(f"counted:{p}")
    runs = 0
    for d in ds or all_divisors(p):
        for x in range(1, p) if sampled is None else rng.sample(range(1, p), sampled):
            tr = run_quietly(group, oracle, x, d, seed=x % 7)
            q_pow_d, params = phase1_inputs(counted, x, d, seed=x % 7)
            Q = counted.scalar_mul(x, counted.generator)
            ledger, before = CostLedger(), adds[0]
            j, u1, _ = reference_phase1(counted, q_pow_d, params, ledger)
            t, u2, _ = reference_phase2(counted, Q, j, params, ledger)
            performed = adds[0] - before
            assert (j, u1, t, u2) == (tr.j, tr.u1, tr.t, tr.u2)
            assert bill(p, tr.plan, u1, u2) == (performed, ledger.bsgs_table_entries), (d, x)
            assert performed == ledger.group_ops == tr.ledger.group_ops, (d, x)
            runs += 1
    assert runs == {101: 900, 1009: 180, EC_2_32: 1}[p]
    assert not counted._giant_tables  # the classic search keeps no giant table


def count_keys(monkeypatch) -> Counter:
    """Wrap reduction._walk; the returned Counter counts, per group, the keys its walks yield."""
    pulled, walk = Counter(), reduction._walk

    def counted(group, *args):
        for key in walk(group, *args):
            pulled[group] += 1
            yield key

    monkeypatch.setattr(reduction, "_walk", counted)
    return pulled


def run_quietly(group, handle, x: int, d: int, seed: int):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PowCallBoundWarning)
        return reduce_dlog(group, handle, group.scalar_mul(x, group.generator), d, seed=seed)


PHASES = (1, 2)


def kept_phases(p: int, d: int) -> tuple[int, ...]:
    """The phases whose search keeps a giant table for d: phase 2 only when it walks, not scans."""
    return PHASES[:1] if phase2_scans(p, d) else PHASES


def baby_pulls(giants, r: int, n: int) -> int:
    """Baby keys a search pulls on giants: v = 0, 1, ... up to the first v = (e - r) mod n of a
    stored e. Phase 1's baby points are zeta^(j + v) (r = j, n = m), phase 2's zm^(t + v) (r = t, n = d)."""
    return 1 + min((e - r) % n for e in giants.table.values())


def hit_keys(tr, group) -> int:
    """Keys a run pulls once its kept tables are in place: each searching phase's baby keys up to
    its first hit; a scanning phase 2 pulls none."""
    d = tr.params.d
    matches = {1: (tr.j, (tr.p - 1) // d), 2: (tr.t, d)}
    return sum(baby_pulls(group._giant_tables[phase, d], *matches[phase]) for phase in kept_phases(tr.p, d))


def table_states(group, d: int) -> list:
    """Per phase that keeps a table for d, (the group's kept table for d or None, its layers, keys
    and pull bound), taken before a run."""
    states = []
    for phase in kept_phases(group.order, d):
        kept = group._giant_tables.get((phase, d))
        if kept is None:
            states.append((None, 0, 0, 0))
        else:
            states.append((kept, len(kept.offsets), len(kept.table), kept.pulls))
    return states


def layers_added(state, giants) -> int:
    """Layers a run added to giants, a phase's table after it, from the state before it: 1 for a
    build; on a reuse 1 while the widest gap is above 1 (a pull bound above 2), on the first reuse
    always and on later ones while the table holds fewer than KEPT_TABLE_KEYS keys; else 0. One
    rule for both phases."""
    kept, layers, size, pulls = state
    if giants is not kept:
        return 1
    return int(pulls > 2 and (layers == 1 or size < KEPT_TABLE_KEYS))


def layers_after(state, giants) -> int:
    """The layers giants holds after a run, from the state before it."""
    return (state[1] if giants is state[0] else 0) + layers_added(state, giants)


def run_keys(states, group, tr) -> int:
    """Keys a run pulls from the table states before it: per phase that keeps a table, G giant keys
    for each layer it added, then its hits."""
    pulled = hit_keys(tr, group)
    for phase, state in zip(PHASES, states):
        giants = group._giant_tables[phase, tr.params.d]
        pulled += layers_added(state, giants) * giant_points(tr.p, tr.params, phase)
    return pulled


def search_of(p: int, params, phase: int) -> tuple[int, int, int]:
    """A phase's (g, step, e0): phase 1 keeps zeta^e for e = d1*u, u = 1..G;
    phase 2 keeps zm^e for e = s2*u, u = 0..G - 1."""
    if phase == 1:
        return params.zeta, params.d1, params.d1
    return pow(params.zeta0, (p - 1) // params.d, p), params.s2, 0


def layer_keys(group, params, phase: int, offsets) -> dict:
    """The layers at offsets: each key of g^e * P, e = e0 + step*i - o for i < G and o in offsets,
    mapped to the set of its exponents."""
    p = group.order
    g, step, e0 = search_of(p, params, phase)
    want = {}
    for offset in offsets:
        for i in range(giant_points(p, params, phase)):
            e = e0 + step * i - offset
            key = group.encode(group.scalar_mul(pow(g, e, p), group.generator))
            want.setdefault(key, set()).add(e)
    return want


def assert_giant_keys(group, giants, params, phase: int, layers: int) -> None:
    """giants holds exactly the keys of its first layers layers, each mapped to one of its
    exponents, and the pull bound of their offsets."""
    p = group.order
    g, step, _ = search_of(p, params, phase)
    offsets = layer_offsets(step, layers)
    assert giants.g == g
    assert giants.offsets == sorted(offsets)
    assert giants.pulls == pull_bound(step, offsets)
    want = layer_keys(group, params, phase, offsets)
    assert set(giants.table) == set(want)
    assert all(giants.table[key] in es for key, es in want.items())


@pytest.mark.parametrize("kind", ["zp", "mult", "ec"])
def test_cached_generator_tables_bill_like_a_fresh_group(kind, monkeypatch):
    reused = make_group(kind, 1009)
    oracle = OracleHandle(reused)
    keys = count_keys(monkeypatch)
    rng = random.Random(1009)
    first_runs_hit = [0, 0]
    for d in (1, 4, 12, 63, 336, 1008):
        phases = kept_phases(1009, d)  # phase 2 scans at d = 1 and keeps no table
        for x in rng.sample(range(1, 1009), 3):
            fresh = make_group(kind, 1009)
            runs, builds = [], []
            # reused, fresh, then reused again on the same seed, whose giant tables are kept
            for group, handle in ((reused, oracle), (fresh, OracleHandle(fresh)), (reused, oracle)):
                before, states = keys[group], table_states(group, d)
                runs.append(run_quietly(group, handle, x, d, seed=x))
                assert keys[group] - before == run_keys(states, group, runs[-1])
                tables = [group._giant_tables[phase, d] for phase in phases]
                assert ((2, d) in group._giant_tables) == (phases == PHASES)
                builds.append(tuple(giants is not state[0] for giants, state in zip(tables, states)))
                # a build holds one layer, and every reuse adds the layer the rule gives
                for phase, giants, state in zip(phases, tables, states):
                    assert_giant_keys(group, giants, runs[-1].params, phase, layers_after(state, giants))
            assert runs[0].to_dict() == runs[1].to_dict() == runs[2].to_dict()
            # a fresh group builds, a repeat hits
            assert builds[1:] == [(True,) * len(phases), (False,) * len(phases)]
            for phase, built in zip(phases, builds[0]):
                first_runs_hit[phase - 1] += not built
    assert reused._generator_tables  # the giant walks took their fixed-base tables from the cache
    assert (2, 1) not in reused._giant_tables
    # every seed gives phase 1 the same walks at d = p - 1 (zeta = 1); phase 2's first runs hit a
    # table another seed built when both drew the same generator of order d
    assert first_runs_hit[0] >= 3 and first_runs_hit[1] >= 2


@pytest.mark.parametrize("kind,p,ds", SAMPLED_CASES, ids=SAMPLED_IDS)
def test_giant_key_cache_fills_extends_and_hits_like_a_fresh_group(kind, p, ds, monkeypatch):
    reused = make_group(kind, p)
    oracle = OracleHandle(reused)
    keys = count_keys(monkeypatch)
    rng = random.Random(f"{kind}:{p}")
    divisors = list(ds or all_divisors(p))
    for n, d in enumerate(divisors):
        for run, x in enumerate(rng.sample(range(1, p), 4)):
            group = make_group(kind, p)
            fresh = run_quietly(group, OracleHandle(group), x, d, seed=0)
            before, states = keys[reused], table_states(reused, d)
            tr = run_quietly(reused, oracle, x, d, seed=0)
            assert tr.to_dict() == fresh.to_dict()
            # one more table per phase that searches for each new d
            phases = kept_phases(p, d)
            assert list(reused._giant_tables) == [(ph, e) for e in divisors[:n + 1] for ph in kept_phases(p, e)]
            tables = [reused._giant_tables[phase, d] for phase in phases]
            # run r leaves each phase's table r + 1 layers, until every offset below its step (d1
            # or s2) is stored; four layers stay under the key budget here
            layers = [min(run + 1, tr.params.d1), min(run + 1, tr.params.s2)][:len(phases)]
            was = [state[1] for state in states]
            assert [len(giants.offsets) for giants in tables] == layers
            # per phase, a build pulls every giant key and each added layer as many again
            sizes = [giant_points(p, tr.params, phase) for phase in phases]
            pulled = keys[reused] - before - hit_keys(tr, reused)
            assert pulled == sum(G * (new - old) for G, new, old in zip(sizes, layers, was))
            if run > 0:
                assert all(giants is state[0] for giants, state in zip(tables, states))
            for phase, giants, count in zip(phases, tables, layers):
                assert_giant_keys(reused, giants, tr.params, phase, count)
            if run > 1:
                continue
            # the memoised bills of the walks plan gives the searches, from their digits
            planned = plan(p, d, tr.params.zeta0, 0)
            for baby, window in planned[::2]:
                assert _bills(p, baby, window)[-1] == formula_bill(p, baby, w_of(_plan(p, baby)))
            giant = planned[1][0]
            w = w_of(_plan(p, giant, giant=True))
            assert list(_bills(p, *planned[1])) == [
                formula_bill(p, giant._replace(points=u), w) for u in range(1, giant.points + 1)
            ]


@pytest.mark.parametrize("kind,p,ds", SAMPLED_CASES, ids=SAMPLED_IDS)
def test_one_shot_runs_never_extend_the_giant_table(kind, p, ds, monkeypatch):
    rng = random.Random(f"one-shot:{kind}:{p}")
    keys = count_keys(monkeypatch)
    for d in ds or all_divisors(p):
        x, seed = rng.randrange(1, p), rng.randrange(4)
        group = make_group(kind, p)
        tr = run_quietly(group, OracleHandle(group), x, d, seed)
        phases = kept_phases(p, d)
        assert list(group._giant_tables) == [(phase, d) for phase in phases]
        tables = [group._giant_tables[phase, d] for phase in phases]
        # one layer each, so the pull bound is the whole baby walk, d1 + 1 or s2 + 1 points
        assert [(giants.offsets, giants.pulls) for giants in tables] == [
            ([0], tr.params.d1 + 1), ([0], tr.params.s2 + 1)
        ][:len(phases)]
        builds = sum(giant_points(p, tr.params, phase) for phase in phases)
        assert keys[group] == builds + hit_keys(tr, group)
        for phase, giants in zip(phases, tables):
            assert_giant_keys(group, giants, tr.params, phase, 1)


# phase 1's cases keep their ids; phase 2's are prefixed, and at p = 16381, where phase 2 scans
# d = 1..3, take the four smallest divisors it walks
PHASE_CASES = [(1, *case) for case in SAMPLED_CASES] + [
    (2, kind, p, ds and (4, 5, 6, 7)) for kind, p, ds in SAMPLED_CASES
]
PHASE_IDS = SAMPLED_IDS + [f"phase2-{case}" for case in SAMPLED_IDS]


@pytest.mark.parametrize("phase,kind,p,ds", PHASE_CASES, ids=PHASE_IDS)
def test_extended_table_hit_pulls_at_most_half_the_baby_walk(phase, kind, p, ds, monkeypatch):
    # after a build and its half-stride layer, a phase's search pulls at most ceil(step/2) keys
    # (step d1 or s2), and each later search adds a layer and pulls at most the widest gap of the
    # layers it then holds
    group = make_group(kind, p)
    oracle = OracleHandle(group)
    keys = count_keys(monkeypatch)
    rng = random.Random(f"half{phase}:{kind}:{p}")
    for d in ds or all_divisors(p):
        if phase not in kept_phases(p, d):
            continue  # phase 2 scans its d candidates: no table
        order = (p - 1) // d if phase == 1 else d  # of the subgroup the phase searches
        for seed in (0, 1):
            for _ in range(2):  # build, then the half-stride layer
                run_quietly(group, oracle, rng.randrange(1, p), d, seed)
            params = run_params(p, d, seed)
            step = search_of(p, params, phase)[1]
            giants = group._giant_tables[phase, d]
            assert len(giants.offsets) == min(2, step)
            assert giants.pulls == -(-step // 2) + 1
            xs = {1, p - 1, *rng.sample(range(1, p), 4)}
            for x in xs:
                before, state = keys[group], table_states(group, d)[phase - 1]
                if phase == 1:
                    r, _, _ = phase1_find_j(group, phase1_inputs(group, x, d, seed)[0], params)
                    assert pow(params.zeta, r, p) == pow(x, d, p)
                else:
                    Q, j, _ = phase2_inputs(group, x, d, seed)
                    r, _, _ = phase2_find_t(group, Q, j, params)
                    assert pow(params.zeta0, (p - 1) // d * r + j, p) == x
                added = layers_added(state, giants) * giant_points(p, params, phase)
                assert keys[group] - before - added == baby_pulls(giants, r, order) <= giants.pulls - 1
                assert giants.pulls - 1 <= -(-step // 2)
            assert group._giant_tables[phase, d] is giants
            # no table here reaches the key budget: one more layer per search, up to step layers
            assert_giant_keys(group, giants, params, phase, min(2 + len(xs), step))


def test_giant_key_cache_is_bounded_by_the_group():
    p, ds = 1009, (4, 12, 28, 63)
    keys = [(phase, d) for d in ds for phase in PHASES]
    group = make_group("mult", p)
    oracle = OracleHandle(group)
    xs = random.Random(p).sample(range(1, p), 25)
    kept = []
    for seed in (0, 1):
        for _ in range(3):
            for d in ds:
                for x in xs:
                    run_quietly(group, oracle, x, d, seed)
            assert list(group._giant_tables) == keys  # one table per phase and divisor
            for d in ds:
                params = run_params(p, d, seed)
                m = (p - 1) // d
                # this seed's keys, not the other seed's, and no key past the giant walk; after
                # 25 runs each phase holds all its offsets, d1 or s2, which cover the whole
                # subgroup it searches, of order m or d, in fewer than the budget's keys
                for phase, layers, order in zip(PHASES, (params.d1, params.s2), (m, d)):
                    giants = group._giant_tables[phase, d]
                    assert_giant_keys(group, giants, params, phase, layers)
                    assert len(giants.table) == order < KEPT_TABLE_KEYS
                    assert giants.pulls == 2
                assert giant_points(p, params, 1) == len(_bills(p, *plan(p, d, params.zeta0, 0)[1]))
            kept.append(dict(group._giant_tables))
        # more runs of the same (d, seed) keep the same tables
        assert all(kept[-3][key] is kept[-2][key] is kept[-1][key] for key in keys)
    # the second seed replaced every table with one on another generator; at d = 4 both of
    # phase 2's generators of order 4 give the giant stride zm^2 = -1, so compare generators
    assert all(kept[2][key].g != kept[3][key].g for key in keys)
    # full tables hold the same keys, each mapped to its exponent under another generator
    assert all(kept[2][key].table.keys() == kept[3][key].table.keys() for key in keys)
    assert all(kept[2][key].table != kept[3][key].table for key in keys)
    # tables are held per group instance
    other = make_group("mult", p)
    run_quietly(other, OracleHandle(other), xs[0], ds[0], 1)
    assert list(other._giant_tables) == keys[:2]
    assert all(other._giant_tables[key] is not kept[-1][key] for key in keys[:2])
    assert group._giant_tables == kept[-1]


@pytest.mark.parametrize("d,layers,size,pulls", [(1, 8, 1040, 17), (2, 12, 1092, 12), (3, 14, 1064, 10),
                                                 (4, 16, 1040, 5)])
def test_kept_table_holds_its_first_k_plus_1_layers_up_to_the_key_budget(d, layers, size, pulls):
    # on the toy curve at p = 16381, after k reuses phase 1's table holds exactly the keys of its
    # first k + 1 layers, until a layer takes it to KEPT_TABLE_KEYS keys or more; then it stops
    p = 16381
    group = make_group("ec", p)
    oracle = OracleHandle(group)
    rng = random.Random(f"layers:{d}")
    params = run_params(p, d, 0)
    offsets, want = layer_offsets(params.d1, layers), {}
    for k in range(layers + 3):
        run_quietly(group, oracle, rng.randrange(1, p), d, seed=0)
        giants = group._giant_tables[1, d]
        count = min(k + 1, layers)
        if k < layers:
            for key, es in layer_keys(group, params, 1, offsets[k:k + 1]).items():
                want.setdefault(key, set()).update(es)
        assert giants.offsets == sorted(offsets[:count])
        assert giants.pulls == pull_bound(params.d1, offsets[:count])
        assert set(giants.table) == set(want)
        assert all(giants.table[key] in es for key, es in want.items())
        # every layer past the second is added while the table holds fewer keys than the budget
        assert (len(giants.table) < KEPT_TABLE_KEYS) == (count < layers)
    assert (len(giants.table), giants.pulls) == (size, pulls)
    if d == 1:  # d1 = 127: the odd eighths, so a hit pulls at most 16 keys of the 128 the walk has
        assert giants.offsets == [0, 15, 31, 47, 63, 79, 95, 111]
        # and the baby walk runs at w = 3, sized for ceil(17/2) + 1 = 10 points, where a built
        # table's (sized for 65) and a half-stride table's (34) run at w = 5
        windows = [_pulled_window(p, params.zeta, params.d1 + 1, bound) for bound in (128, 65, pulls)]
        assert [w_of(window) for window in windows] == [5, 5, 3]
        assert windows == [_plan(p, Walk(1, params.zeta, n)) for n in (65, 34, 10)]


@pytest.mark.parametrize("phase", PHASES)
def test_a_first_layer_past_the_key_budget_still_gets_its_half_stride_layer(phase):
    # large-order's phase-1 table (p = 4294967291, d = 190: d1 = 4754, G = 4756) and phase 2's at
    # d = p - 1 on p = 1299709 (s2 = 1140, G = 1143) hold KEPT_TABLE_KEYS keys or more once built:
    # the first reuse adds the half-stride layer all the same, and later reuses add none
    p, d = (4294967291, 190) if phase == 1 else (1299709, 1299708)
    group = make_zp_additive(p)
    params = run_params(p, d, 0)
    assert giant_points(p, params, phase) >= KEPT_TABLE_KEYS
    rng = random.Random(f"past-budget:{phase}")
    for run in range(3):
        if phase == 1:
            x = rng.randrange(1, p)
            j, _, _ = phase1_find_j(group, phase1_inputs(group, x, d, 0)[0], params)
            assert pow(params.zeta, j, p) == pow(x, d, p)
        else:
            t = rng.randrange(d)  # m = 1, so j = 1 and x = zeta0^(t + 1)
            Q = group.scalar_mul(pow(params.zeta0, t + 1, p), group.generator)
            assert phase2_find_t(group, Q, 1, params) == (t, -(-t // params.s2), -(-t // params.s2) * params.s2 - t)
        assert_giant_keys(group, group._giant_tables[phase, d], params, phase, min(run + 1, 2))


@pytest.mark.parametrize("kind,p,ds", SAMPLED_CASES, ids=SAMPLED_IDS)
def test_every_stored_key_is_g_to_its_e_times_p(kind, p, ds):
    group = make_group(kind, p)
    oracle = OracleHandle(group)
    rng = random.Random(f"stored:{kind}:{p}")
    for d in ds or all_divisors(p):
        for _ in range(12):
            run_quietly(group, oracle, rng.randrange(1, p), d, seed=0)
    grown = 0
    for (phase, d), giants in group._giant_tables.items():
        grown += len(giants.offsets) > 2
        for key, e in giants.table.items():
            assert key == group.encode(group.scalar_mul(pow(giants.g, e, p), group.generator)), (phase, d, e)
    assert grown >= (4 if ds else 10)  # phase 1's tables grew past the half-stride layer


@pytest.mark.parametrize("kind", ["zp", "mult", "ec"])
def test_every_hit_falls_within_the_pull_bound(kind, monkeypatch):
    # every search, on a built, replaced or grown table, hits within the widest gap between its
    # offsets (its pull bound less 1), and its baby walk runs on the window _pulled_window gives
    p = 1009
    group = make_group(kind, p)
    oracle = OracleHandle(group)
    search, walk = reduction._search, reduction._walk
    ran, pulled, tight = [], [], Counter()

    def recorded_walk(group, base, walk_, window):
        ran.append((walk_, window))
        return walk(group, base, walk_, window)

    def recorded_search(group, planned, key, *args):
        ran.clear()
        v, e = search(group, planned, key, *args)
        giants = group._giant_tables[key]
        baby_walk, window = ran[-1]
        assert baby_walk.stride == giants.g
        assert window == _pulled_window(p, giants.g, baby_walk.points, giants.pulls)
        # sized for half the pull bound, where the first hit falls on average, plus 1
        assert window == _plan(p, Walk(1, giants.g, -(-min(giants.pulls, baby_walk.points) // 2) + 1))
        assert v + 1 <= giants.pulls - 1, (key, v, giants.offsets)
        tight[key[0]] += v + 1 == giants.pulls - 1
        pulled.append(v + 1)
        return v, e

    monkeypatch.setattr(reduction, "_walk", recorded_walk)
    monkeypatch.setattr(reduction, "_search", recorded_search)
    rng = random.Random(f"bound:{kind}")
    divisors = all_divisors(p)
    for d in divisors:
        for seed in (0, 1, 0):  # builds, reuses, a replacement and a rebuild
            for _ in range(8):
                run_quietly(group, oracle, rng.randrange(1, p), d, seed)
    searched = sum(len(kept_phases(p, d)) for d in divisors)  # phase 2 scans d = 1..3
    assert len(pulled) == searched * 24 and searched == 2 * len(divisors) - 3
    assert min(tight.values()) >= 10  # the bound is met exactly in both phases


@pytest.mark.parametrize("kind", ["zp", "mult", "ec"])
@pytest.mark.parametrize("p,sampled", [(101, None), (1009, 10), (16381, 6)],
                         ids=["101-every-x", "1009", "16381"])
def test_one_long_lived_group_gives_fresh_group_transcripts(kind, p, sampled):
    # one group for every run, on one seed so its tables keep growing, against a fresh group
    # per run, whose tables are built for that run alone
    group = make_group(kind, p)
    oracle = OracleHandle(group)
    rng = random.Random(f"long-lived:{kind}:{p}")
    for d in all_divisors(p):
        for x in range(1, p) if sampled is None else rng.sample(range(1, p), sampled):
            fresh = make_group(kind, p)
            tr = run_quietly(group, oracle, x, d, seed=0)
            assert tr.to_dict() == run_quietly(fresh, OracleHandle(fresh), x, d, seed=0).to_dict(), (d, x)
    layers = [len(giants.offsets) for (phase, _), giants in group._giant_tables.items() if phase == 1]
    assert max(layers) == {101: 10, 1009: 10, 16381: 6}[p]  # grown past the half-stride layer

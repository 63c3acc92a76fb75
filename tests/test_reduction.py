"""End-to-end discrete-log recovery through the DH oracle, on every backend.

The exhaustive sweeps re-run the full pipeline for every divisor of p-1 and
every exponent x, so they cover all boundary alignments of both BSGS phases
(j = 1, j = m, t = 0, t = d-1, wrapped baby tables in degenerate splits).
"""

import json
import random
import warnings
from itertools import islice
from math import isqrt

import pytest

from conftest import make_backend
from dhpbound.groups import bsgs_table, make_zp_additive, scalar_mul_cost
from dhpbound.implicit import ImplicitFieldElement, PowCallBoundWarning
from dhpbound.invariants import check_reduction
from dhpbound.modmath import (
    Factorization,
    IncompleteFactorizationError,
    divisors_in_range,
    factorize,
)
from dhpbound.oracle import CostLedger, OracleHandle
from dhpbound.reduction import (
    WALK_NAMES,
    ImprobableFailureError,
    InternalInconsistencyError,
    InvalidDivisorError,
    ReductionParams,
    Walk,
    ZeroDlogError,
    _sample_generator,
    _walk,
    ceil_log2,
    cost_report,
    find_generator,
    generator_try_budget,
    phase1_find_j,
    phase1_walks,
    reduce_dlog,
    window_plan,
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
    group = make_backend(kind, p)
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


def test_p3_edge_orders():
    group = make_zp_additive(3)
    oracle = OracleHandle(group)
    for d in (1, 2):
        for x in (1, 2):
            tr = check_reduction(group, oracle, x, d, seed=0)
            assert tr.params.zeta0 == 2


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
            group = make_backend(kind, p)
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
    oracle = OracleHandle(group)
    d = 5
    params = ReductionParams(d=d, d1=isqrt(100 // d), s2=isqrt(d), zeta0=1, zeta=1, seed=0)
    x_pow_d = ImplicitFieldElement(group.scalar_mul(pow(3, d, 101), group.generator))
    with pytest.raises(InternalInconsistencyError):
        phase1_find_j(group, oracle, x_pow_d, params)


# --------------------------------------------------------- cost accounting


def test_d1_uses_zero_oracle_calls():
    group = make_backend("mult", 101)
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
    # 100 has 7 bits. Phase 1 baby (k0 1, stride 19, 6 points): w = 2 costs a
    # 14-op table plus 5*3, under the plain 5*6. Phase 1 giant (84, 84, 6):
    # 14 + 84's three base-4 digits - 1 + 5*3 = 31. Phase 2 baby (1, 91, 3):
    # w = 1 costs 6 + 2*6 = 18. Phase 2 giant (zeta0^3 = 38, 100, 4):
    # 14 + 2 + 3*3 = 25.
    assert tr.j == 3
    assert [rep[f"window_{name}"] for name in WALK_NAMES] == [2, 2, 1, 2]
    assert rep["walk_group_op_ceiling"] == 29 + 31 + 18 + 25
    assert rep["within_walk_ceiling"] is True


def test_ceil_log2():
    assert ceil_log2(1) == 0
    assert ceil_log2(2) == 1
    assert ceil_log2(101) == 7
    assert ceil_log2(128) == 7
    assert ceil_log2(129) == 8
    with pytest.raises(ValueError):
        ceil_log2(0)


# ------------------------------------------------------- fixed-base walks


def nonzero_digits(k: int, w: int) -> int:
    """Nonzero w-bit digits of k, counted one at a time."""
    count = 0
    while k:
        count += k % (1 << w) != 0
        k >>= w
    return count


def run_walk(group, base_x: int, walk: Walk, keys: list | None = None):
    """Run every point of a walk on the image of base_x: (w, its bill, its table)."""
    ledger = CostLedger()
    table = bsgs_table(_walk(group, ledger, walk_base(group, base_x), walk, keys), walk.points)
    return window_plan(group.order, walk)[0], ledger.group_ops, table


def walk_base(group, base_x: int) -> ImplicitFieldElement:
    return ImplicitFieldElement(group.scalar_mul(base_x, group.generator))


def formula_bill(p: int, walk: Walk, w: int) -> int:
    """The plain walk's double-and-add bill, or a w-bit table plus (digits - 1) per point."""
    if w == 0:
        return scalar_mul_cost(walk.k0) + (walk.points - 1) * scalar_mul_cost(walk.stride)
    cols = -(-(p - 1).bit_length() // w)
    table = (cols - 1) * w + cols * (2**w - 2)
    ks = [walk.k0 * pow(walk.stride, i, p) % p for i in range(walk.points)]
    return table + sum(nonzero_digits(k, w) - 1 for k in ks)


@pytest.mark.parametrize("kind", ["zp", "mult", "ec"])
@pytest.mark.parametrize("p", [101, 1009, 16381])
def test_walk_bill_equals_formula(kind, p):
    group = make_backend(kind, p)
    rng = random.Random(p)
    seen = set()
    for points in (2, 3, 6, 13, isqrt(p) + 1):
        for _ in range(6):
            stride, k0 = rng.randrange(2, p), rng.choice([1, rng.randrange(1, p)])
            walk = Walk(k0, stride, points)
            base_x = rng.randrange(1, p)
            w, bill, table = run_walk(group, base_x, walk)
            seen.add(w > 0)
            assert bill == formula_bill(p, walk, w)
            assert bill <= window_plan(p, walk)[1]  # the plan's worst case
            # the same points, in the same order, as scalar multiplication
            want, want_keys = {}, []
            for i in range(points):
                k = k0 * pow(stride, i, p) * base_x % p
                want_keys.append(group.encode(group.scalar_mul(k, group.generator)))
                want.setdefault(want_keys[-1], i)
            assert table == want
            # billed on pull: a prefix of n keys costs the formula over n points
            n = rng.randrange(1, points + 1)
            ledger = CostLedger()
            prefix = list(islice(_walk(group, ledger, walk_base(group, base_x), walk), n))
            assert ledger.group_ops == formula_bill(p, walk._replace(points=n), w)
            assert prefix == want_keys[:n]
    assert seen == {True, False}  # both the windowed and the plain walk ran


@pytest.mark.parametrize("kind", ["zp", "mult", "ec"])
def test_walk_keys_read_from_a_list_bill_and_match_like_evaluated_ones(kind):
    p = 1009
    group = make_backend(kind, p)
    rng = random.Random(kind)
    for _ in range(40):
        stride = rng.randrange(2, p)
        walk = Walk(stride, stride, rng.randrange(2, 60))
        w, bill, table = run_walk(group, 1, walk)
        keys = []
        assert run_walk(group, 1, walk, keys) == (w, bill, table)  # fills the list
        assert len(keys) == (walk.points if w else 0)  # the plain walk leaves it alone
        filled = list(keys)
        assert run_walk(group, 1, walk, keys) == (w, bill, table)  # reads every key from it
        assert keys == filled


@pytest.mark.parametrize("p", [101, 1009])
def test_baby_side_never_billed_above_plain_walk(p):
    group = make_zp_additive(p)
    strides = range(2, p) if p < 200 else random.Random(p).sample(range(2, p), 150)
    for stride in strides:
        for points in (2, 3, 5, isqrt(p) + 1, 2 * isqrt(p)):
            walk = Walk(1, stride, points)
            _, bill, _ = run_walk(group, 1, walk)
            assert bill <= (points - 1) * scalar_mul_cost(stride), (stride, points)


def count_encodes(group) -> list[int]:
    """Wrap this group instance's encode; the returned one-element list counts its calls."""
    calls, encode = [0], group.encode

    def counted(a):
        calls[0] += 1
        return encode(a)

    group.encode = counted
    return calls


def run_quietly(group, handle, x: int, d: int, seed: int):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PowCallBoundWarning)
        return reduce_dlog(group, handle, group.scalar_mul(x, group.generator), d, seed=seed)


def giant_is_windowed(tr) -> bool:
    return window_plan(tr.p, phase1_walks(tr.p, tr.params)[1])[0] > 0


@pytest.mark.parametrize("kind", ["zp", "mult", "ec"])
def test_cached_generator_tables_bill_like_a_fresh_group(kind):
    reused = make_backend(kind, 1009)
    oracle = OracleHandle(reused)
    reused_encodes = count_encodes(reused)
    rng = random.Random(1009)
    repeats_read_keys = 0
    for d in (1, 4, 12, 63, 336, 1008):
        for x in rng.sample(range(1, 1009), 3):
            fresh = make_backend(kind, 1009)
            fresh_encodes = count_encodes(fresh)
            runs, encodes = [], []
            # reused, fresh, then reused again on the same seed, whose giant keys are cached
            for group, handle, calls in (
                (reused, oracle, reused_encodes),
                (fresh, OracleHandle(fresh), fresh_encodes),
                (reused, oracle, reused_encodes),
            ):
                before = calls[0]
                runs.append(run_quietly(group, handle, x, d, seed=x))
                encodes.append(calls[0] - before)
            assert runs[0].to_dict() == runs[1].to_dict() == runs[2].to_dict()
            if giant_is_windowed(runs[2]):
                # the repeat read all u1 giant keys from the cache and evaluated the rest
                assert encodes[2] == encodes[1] - runs[2].u1
                repeats_read_keys += 1
            else:
                assert encodes[2] == encodes[1]
    assert reused._generator_tables  # later runs took their giant-side tables from the cache
    assert repeats_read_keys >= 12


GIANT_KEY_CASES = [(kind, 1009, None) for kind in ("zp", "mult", "ec")] + [("ec", 16381, (1, 2, 3, 4))]


@pytest.mark.parametrize("kind,p,ds", GIANT_KEY_CASES, ids=["zp-1009", "mult-1009", "ec-1009", "ec-16381"])
def test_giant_key_cache_fills_extends_and_hits_like_a_fresh_group(kind, p, ds):
    reused = make_backend(kind, p)
    oracle = OracleHandle(reused)
    rng = random.Random(f"{kind}:{p}")
    extended = hit = 0
    for d in ds or all_divisors(p):
        # each x's u1 on a fresh group; the runs below go middle, highest,
        # lowest: they fill the cache, extend it past its end, then hit it
        fresh = {}
        for x in rng.sample(range(1, p), 6):
            group = make_backend(kind, p)
            fresh[x] = run_quietly(group, OracleHandle(group), x, d, seed=0)
        by_u1 = sorted(fresh, key=lambda x: fresh[x].u1)
        reach = 0
        for x in (by_u1[2], by_u1[5], by_u1[0], by_u1[3], by_u1[1], by_u1[4]):
            tr = run_quietly(reused, oracle, x, d, seed=0)
            assert tr.to_dict() == fresh[x].to_dict()
            stride, keys = reused._giant_keys[d]
            if not giant_is_windowed(tr):
                assert keys == []
                continue
            extended += 0 < reach < tr.u1
            hit += tr.u1 <= reach
            reach = max(reach, tr.u1)
            assert stride == phase1_walks(p, tr.params)[1].stride
            assert len(keys) == reach  # never past the furthest point a probe reached
    assert extended and hit


def test_giant_key_cache_is_bounded_by_the_group():
    p, ds = 1009, (4, 12, 28, 63)
    group = make_backend("mult", p)
    oracle = OracleHandle(group)
    xs = random.Random(p).sample(range(1, p), 25)
    strides = []
    for seed in (0, 1):
        lengths = []
        for _ in range(3):
            reach, giants = dict.fromkeys(ds, 0), {}
            for d in ds:
                for x in xs:
                    tr = run_quietly(group, oracle, x, d, seed)
                    reach[d] = max(reach[d], tr.u1)
                giants[d] = phase1_walks(p, tr.params)[1]
            assert set(group._giant_keys) == set(ds)  # one sequence per divisor
            for d in ds:
                stride, keys = group._giant_keys[d]
                assert stride == giants[d].stride  # this seed's, not the other seed's
                assert len(keys) == reach[d] <= giants[d].points
            lengths.append({d: len(group._giant_keys[d][1]) for d in ds})
        assert lengths[0] == lengths[1] == lengths[2]  # more runs of the same (d, seed) add nothing
        strides.append({d: group._giant_keys[d][0] for d in ds})
    assert all(strides[0][d] != strides[1][d] for d in ds)  # the second seed replaced every sequence

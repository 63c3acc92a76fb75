"""Tests for the simulated DH oracle and its cost ledger."""

import random
import warnings
from math import isqrt

import pytest

from test_bsgs_reference import bsgs_probe, bsgs_table, orbit
from dhpbound import groups
from dhpbound.cost import KEPT_TABLE_KEYS
from dhpbound.groups import (
    CyclicGroup,
    DlogSolver,
    GroupMismatchError,
    GroupPoint,
    GuardRailError,
    brute_force_dlog,
    make_group,
    make_zp_additive,
)
from dhpbound.implicit import PowCallBoundWarning
from dhpbound.invariants import check_dh
from dhpbound.modmath import divisors_in_range, factorize
from dhpbound.oracle import CostLedger, OracleHandle
from dhpbound.reduction import reduce_dlog

BACKENDS = ("zp", "mult", "ec")


def test_ledger_starts_at_zero_and_charges():
    ledger = CostLedger()
    assert ledger.group_ops == 0 and ledger.oracle_calls == 0 and ledger.bsgs_table_entries == 0
    ledger.charge_group_ops(5)
    ledger.charge_table_entries(3)
    assert ledger.group_ops == 5 and ledger.bsgs_table_entries == 3
    with pytest.raises(ValueError):
        ledger.charge_group_ops(-1)
    assert ledger.as_dict() == {"group_ops": 5, "oracle_calls": 0, "bsgs_table_entries": 3}


@pytest.mark.parametrize("kind", BACKENDS)
def test_dh_trivial_identities(kind):
    g = make_group(kind, 101)
    oracle = OracleHandle(g)
    B = g.scalar_mul(42, g.generator)
    assert g.eq(oracle.dh(g.generator, B), B)  # a = 1
    assert g.eq(oracle.dh(g.identity, B), g.identity)  # a = 0
    got = oracle.dh(g.scalar_mul(3, g.generator), g.scalar_mul(5, g.generator))
    assert brute_force_dlog(g, got) == 15


@pytest.mark.parametrize("kind", BACKENDS)
def test_dh_random_products(kind):
    g = make_group(kind, 101)
    check_dh(g, OracleHandle(g), random.Random(30100 + len(kind)), samples=1000)


def test_dh_charges_exactly_one_call_and_nothing_else():
    g = make_group("mult", 1009)
    oracle = OracleHandle(g)
    ledger = CostLedger()
    oracle.attach_ledger(ledger)
    rng = random.Random(31009)
    for i in range(50):
        a = rng.randrange(0, 1009)
        b = rng.randrange(0, 1009)
        before = ledger.as_dict()
        oracle.dh(g.scalar_mul(a, g.generator), g.scalar_mul(b, g.generator))
        after = ledger.as_dict()
        assert after["oracle_calls"] == before["oracle_calls"] + 1
        assert after["group_ops"] == before["group_ops"]  # private solver work invisible
        assert after["bsgs_table_entries"] == before["bsgs_table_entries"]
    assert oracle.call_count == 50
    assert ledger.oracle_calls == 50


def test_dh_counts_without_ledger():
    g = make_group("zp", 29)
    oracle = OracleHandle(g)
    oracle.dh(g.generator, g.generator)
    assert oracle.call_count == 1  # handle counter advances even with no ledger attached


def test_dh_accepts_mid_computation_points():
    # squaring pattern dh(Y, Y) on a point that was itself an oracle output
    g = make_group("ec", 101)
    oracle = OracleHandle(g)
    y = g.scalar_mul(7, g.generator)
    y2 = oracle.dh(y, y)
    y4 = oracle.dh(y2, y2)
    assert brute_force_dlog(g, y4) == pow(7, 4, 101)


def test_oracle_guard_rail():
    g = make_zp_additive(2**61 - 1)
    with pytest.raises(GuardRailError):
        OracleHandle(g)


def test_oracle_rejects_cross_group_points():
    g1 = make_group("zp", 101)
    g2 = make_group("zp", 103)
    oracle = OracleHandle(g1)
    with pytest.raises(GroupMismatchError):
        oracle.dh(g1.generator, g2.generator)


def test_ledger_swap_between_runs():
    g = make_group("zp", 101)
    oracle = OracleHandle(g)
    first, second = CostLedger(), CostLedger()
    oracle.attach_ledger(first)
    oracle.dh(g.generator, g.generator)
    oracle.attach_ledger(second)
    oracle.dh(g.generator, g.generator)
    oracle.dh(g.generator, g.generator)
    assert first.oracle_calls == 1
    assert second.oracle_calls == 2
    assert oracle.call_count == 3


SOLVER_GROUPS = [(kind, p) for kind in BACKENDS for p in (101, 1009)] + [("ec", 16381)]


@pytest.mark.parametrize("kind, p", SOLVER_GROUPS)
def test_private_solver_matches_brute_force(kind, p):
    # dh(A, P) = aP: the solver's answer, cross-checked against the independent BSGS
    g = make_group(kind, p)
    assert g.identity.data == {"zp": 0, "mult": 1, "ec": None}[kind]
    oracle = OracleHandle(g)
    rng = random.Random(32000 + p + len(kind))
    points = [g.identity, g.generator]
    points += [g.scalar_mul(rng.randrange(p), g.generator) for _ in range(40)]
    for _ in range(20):  # points the oracle itself returned, fed straight back in
        points.append(oracle.dh(points[-1], points[rng.randrange(len(points))]))
    for A in points:
        assert g.eq(oracle.dh(A, g.generator), g.scalar_mul(brute_force_dlog(g, A), g.generator))


@pytest.mark.parametrize("kind", BACKENDS)
def test_solver_table_built_once_and_steps_counted(kind, monkeypatch):
    # the baby table is built on the public add, m calls on the first dh (the m - 1 multiples past
    # the identity, then m*P for the stride) and none after, with no scalar_mul
    g = make_group(kind, 1009)
    rng = random.Random(34009)
    points = [g.scalar_mul(rng.randrange(1009), g.generator) for _ in range(40)]
    adds, add = [], g.add
    monkeypatch.setattr(g, "add", lambda a, b: adds.append((a, b)) or add(a, b))
    monkeypatch.setattr(g, "scalar_mul", lambda k, a: pytest.fail("dh called scalar_mul"))
    oracle = OracleHandle(g)
    m = isqrt(1009 - 1) + 1
    seen = set()
    for k, A in enumerate(points):
        before = oracle.solver_steps
        adds.clear()
        oracle.dh(A, g.generator)
        steps = oracle.solver_steps - before
        if kind == "zp":  # the residue is the dlog: no table, no steps
            assert steps == 0 and not adds
        else:  # m - 1 baby steps on the first call; then 0 on a point seen, 1..m + 1 on a new one
            assert len(adds) == (m if k == 0 else 0)
            steps -= (m - 1) if k == 0 else 0
            assert steps == 0 if A.data in seen else 1 <= steps <= m + 1
        seen.add(A.data)
    assert len(seen) == 38  # two repeats, so both branches run


@pytest.mark.parametrize("kind", ("mult", "ec"))
@pytest.mark.parametrize("p", (101, 1009))
def test_solver_baby_table_holds_raw_multiples(kind, p):
    # the solver's baby table, built on raw data, maps (r*P).data to r for every r < m
    g = make_group(kind, p)
    oracle = OracleHandle(g)
    oracle.dh(g.scalar_mul(5, g.generator), g.generator)
    m = isqrt(p - 1) + 1
    assert oracle._solver.table == {g.scalar_mul(r, g.generator).data: r for r in range(m)}


MEMO_GROUPS = [(kind, p) for kind in ("mult", "ec") for p in (101, 1009)] + [("ec", 16381)]


@pytest.mark.parametrize("kind, p", MEMO_GROUPS)
def test_reduction_probes_at_most_twice_per_run(kind, p, monkeypatch):
    # the first squaring dh(Q, Q) solves Q; every later point implicit_pow hands in is a memo hit
    g = make_group(kind, p)
    probes = []
    real = g._raw_probe
    monkeypatch.setattr(g, "_raw_probe", lambda *a: probes.append(a) or real(*a))
    oracle = OracleHandle(g)
    rng = random.Random(35000 + p + len(kind))
    for d in divisors_in_range(factorize(p - 1), 1, p - 1):
        x = rng.randrange(1, p)
        probes.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PowCallBoundWarning)
            tr = reduce_dlog(g, oracle, g.scalar_mul(x, g.generator), d, seed=x)
        assert tr.x == x
        assert (len(probes) == 0) if d == 1 else (1 <= len(probes) <= 2), (d, x)
        assert len(oracle._known) <= 2 * tr.ledger.oracle_calls


PROBE_GROUPS = [(kind, p, None) for kind in ("mult", "ec") for p in (101, 1009)]
PROBE_GROUPS += [("ec", 16381, 20), ("mult", 4294967291, 20)]


@pytest.mark.parametrize("kind, p, sampled", PROBE_GROUPS)
def test_raw_probe_matches_the_key_iterator_probe(kind, p, sampled, monkeypatch):
    # after k runs the handle's baby table is the reference bsgs_table over its span, m on the
    # first probe and one layer of m more per run (attach_ledger), capped at p and stopped at
    # KEPT_TABLE_KEYS, and the stride is -span*P; _raw_probe finds what the reference bsgs_probe
    # finds on orbit over the same ceil(p/span) + 1 steps, the handle's solver_steps move by
    # u + 1 per probe and by the layer's size per run; a fresh DlogSolver and brute_force_dlog
    # answer what the reference answers, the first solve counting (m - 1) + (u + 1) steps and
    # every later one u + 1 on the table it built; every point, or `sampled` seeded ones, on
    # every span until the table stops growing
    g = make_group(kind, p)
    m = isqrt(p - 1) + 1
    oracle = OracleHandle(g)
    oracle.dh(g.generator, g.generator)  # builds the handle's baby table
    fresh = DlogSolver(g)  # one baby table of m entries: brute_force_dlog solves on this solver too
    monkeypatch.setattr(groups, "DlogSolver", lambda group: fresh)
    if sampled is None:
        xs = range(p)
    else:
        rng = random.Random(39000 + len(kind))
        xs = [rng.randrange(p) for _ in range(sampled)]
    points = [(x, g.scalar_mul(x, g.generator)) for x in xs]
    span, runs = m, 0
    while True:
        table = bsgs_table(orbit(g._raw_add, g.identity.data, g.generator.data), span)
        stride = g.negate(g.scalar_mul(span, g.generator)).data
        assert (oracle._solver.table, oracle._solver.stride, oracle._solver.span) == (table, stride, span)
        steps = -(-p // span) + 1
        for x, A in points:
            want = bsgs_probe(table, orbit(g._raw_add, A.data, stride), range(steps))
            assert g._raw_probe(table, A.data, stride, steps) == want
            assert want is not None and (want[0] * span + want[1]) % p == x
            assert g._raw_probe(table, A.data, stride, want[0]) is None  # one step short of the first hit
            if runs == 0:
                built = fresh.table is not None
                before = fresh.steps
                assert fresh.solve(A.data) == brute_force_dlog(g, A) == x
                assert fresh.steps - before == (0 if built else m - 1) + 2 * (want[0] + 1)
            oracle._known.clear()  # forget the memo within the run, so the point is probed again
            before = oracle.solver_steps
            assert oracle._private_dlog(A) == x
            assert oracle.solver_steps - before == want[0] + 1
        before = oracle.solver_steps
        oracle.attach_ledger(None)  # a new run: one more layer
        grown = span if span >= KEPT_TABLE_KEYS else min(span + m, p)
        assert oracle.solver_steps - before == grown - span
        if grown == span:
            break
        span, runs = grown, runs + 1
    assert runs == {101: 9, 1009: 31, 16381: 7, 4294967291: 0}[p]


@pytest.mark.parametrize("kind", ("mult", "ec"))
@pytest.mark.parametrize("p", (101, 1009))
def test_baby_table_ends_full_with_distinct_entries(kind, p):
    # the last layer is capped at p, so a small group's table ends as every r*P -> r, r < p
    g = make_group(kind, p)
    oracle = OracleHandle(g)
    oracle.dh(g.scalar_mul(3, g.generator), g.generator)
    for _ in range(2 * p):
        oracle.attach_ledger(CostLedger())
    assert oracle._solver.span == p and len(oracle._solver.table) == p
    assert oracle._solver.table == {g.scalar_mul(r, g.generator).data: r for r in range(p)}
    assert oracle.solver_steps == (p - 1) + 2  # every multiple once; 3*P and P probed in one step each


@pytest.mark.parametrize("kind", ("mult", "ec"))
def test_one_run_reduce_never_grows_the_table(kind):
    # a run attaches its ledger before its first probe, so a handle's first run keeps span m
    p = 16381 if kind == "ec" else 1009
    g = make_group(kind, p)
    m = isqrt(p - 1) + 1
    for d in (2, 12, p - 1):
        oracle = OracleHandle(g)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PowCallBoundWarning)
            assert reduce_dlog(g, oracle, g.scalar_mul(4321 % p, g.generator), d).x == 4321 % p
        assert oracle._solver.span == len(oracle._solver.table) == m


@pytest.mark.parametrize("kind", ("mult", "ec"))
def test_brute_force_dlog_never_grows(kind, monkeypatch):
    # each call solves on a fresh solver over span m: no layer is added, no probe runs past m
    g = make_group(kind, 1009)
    m = isqrt(1009 - 1) + 1
    probes, real = [], g._raw_probe
    monkeypatch.setattr(g, "_raw_probe", lambda table, *a: probes.append((len(table), a[-1])) or real(table, *a))
    for x in range(0, 1009, 37):
        assert brute_force_dlog(g, g.scalar_mul(x, g.generator)) == x
    assert probes == [(m, -(-1009 // m) + 1)] * len(range(0, 1009, 37))


def test_order_2_32_handle_never_grows():
    # m = 65,536 already reaches KEPT_TABLE_KEYS: later runs add nothing to table, stride or steps
    g = make_group("mult", 4294967291)
    oracle = OracleHandle(g)
    oracle.dh(g.scalar_mul(123456789, g.generator), g.generator)
    solver = oracle._solver
    state = (solver.span, len(solver.table), solver.stride, solver.steps)
    assert solver.span == 65536 >= KEPT_TABLE_KEYS
    for _ in range(3):
        oracle.attach_ledger(CostLedger())
    assert (solver.span, len(solver.table), solver.stride, solver.steps) == state


@pytest.mark.parametrize("p", (101, 4294967291))
def test_raw_probe_outside_the_subgroup_fails_by_name(p):
    # q - 1 has order 2 in F_q^x, so no giant step meets the table: no match, no steps billed
    g = make_group("mult", p)
    oracle = OracleHandle(g)
    oracle.dh(g.generator, g.generator)
    outside = GroupPoint(g, g.q - 1)
    table, step, m = oracle._solver.table, oracle._solver.stride, oracle._solver.span
    assert g._raw_probe(table, outside.data, step, m + 1) is None
    assert bsgs_probe(table, orbit(g._raw_add, outside.data, step), range(m + 1)) is None
    steps = oracle.solver_steps
    with pytest.raises(RuntimeError, match="oracle dlog failed"):
        oracle.dh(outside, g.generator)
    assert oracle.solver_steps == steps


@pytest.mark.parametrize("kind", BACKENDS)
@pytest.mark.parametrize("p", (101, 1009))
def test_generator_table_answers_like_scalar_mul(kind, p, monkeypatch):
    # every dh, zp included, answers (ab mod p)*P off the group's w = 4 generator table, which
    # is scalar_mul(a, B), and every k < p off that table is k*P
    g = make_group(kind, p)
    oracle = OracleHandle(g)
    rng = random.Random(40000 + p + len(kind))
    reads, table = [], g._generator_table
    monkeypatch.setattr(g, "_generator_table", lambda w: reads.append(w) or table(w))
    for ledger in (CostLedger(), None):  # attached, then detached
        oracle.attach_ledger(ledger)
        points = [g.identity, g.generator, g.scalar_mul(rng.randrange(p), g.generator)]
        pairs = [(g.identity, g.identity), (points[2], g.identity), (g.identity, points[2])]
        pairs += [(points[2], points[2]), (points[2], g.generator)]
        for k in range(60):
            A, B = pairs[k] if k < len(pairs) else (rng.choice(points), rng.choice(points))
            got = oracle.dh(A, B)
            assert got.data == g.scalar_mul(brute_force_dlog(g, A), B).data
            points.append(got)  # answers fed back in
        if ledger is not None:
            assert ledger.as_dict() == {"group_ops": 0, "oracle_calls": 60, "bsgs_table_entries": 0}
    assert reads == [4] * 120  # one table read per call
    assert list(g._generator_tables) == [4]  # built by the oracle's dh, on every backend
    times = table(4)
    assert [times(k) for k in range(p)] == [g.scalar_mul(k, g.generator).data for k in range(p)]


def test_ec_dh_with_known_b_never_calls_scalar_mul(monkeypatch):
    # both exponents known: the answer comes off the generator table, never a double-and-add
    g = make_group("ec", 1009)
    oracle = OracleHandle(g)
    rng = random.Random(41009)
    A, B = (g.scalar_mul(rng.randrange(1, 1009), g.generator) for _ in range(2))
    oracle.dh(B, g.generator)  # solves B and builds the baby table, through scalar_mul
    want = [g.scalar_mul(brute_force_dlog(g, A), B).data, g.scalar_mul(brute_force_dlog(g, B), B).data]

    def boom(*args):
        raise AssertionError("scalar_mul called on a known-b dh")

    monkeypatch.setattr(CyclicGroup, "scalar_mul", boom)
    assert [oracle.dh(A, B).data, oracle.dh(B, B).data] == want


@pytest.mark.parametrize("kind, p", MEMO_GROUPS)
def test_repeated_dh_is_free_and_answers_as_fresh(kind, p):
    g = make_group(kind, p)
    oracle = OracleHandle(g)
    rng = random.Random(36000 + p + len(kind))
    A, B = (g.scalar_mul(rng.randrange(1, p), g.generator) for _ in range(2))
    first = oracle.dh(A, B)
    steps = oracle.solver_steps
    again = oracle.dh(A, B)
    assert oracle.solver_steps == steps
    assert again.data == first.data == OracleHandle(g).dh(A, B).data
    # dh(A, A) knows A, so it also records its answer: feeding that back probes nothing
    square = oracle.dh(A, A)
    steps = oracle.solver_steps
    assert oracle.dh(square, B).data == OracleHandle(g).dh(square, B).data
    assert oracle.solver_steps == steps


@pytest.mark.parametrize("kind, p", MEMO_GROUPS)
def test_attach_ledger_empties_memo(kind, p):
    g = make_group(kind, p)
    oracle = OracleHandle(g)
    rng = random.Random(37000 + p + len(kind))
    points = [g.scalar_mul(rng.randrange(p), g.generator) for _ in range(10)]
    for calls in range(1, 31):
        points.append(oracle.dh(rng.choice(points), rng.choice(points)))
        assert len(oracle._known) <= 3 * calls  # A, B and the answer
    assert oracle._known
    oracle.attach_ledger(CostLedger())
    assert oracle._known == {}
    steps = oracle.solver_steps
    oracle.dh(points[-1], points[-1])  # forgotten with the old run: probed again
    assert oracle.solver_steps > steps
    oracle.attach_ledger(None)
    assert oracle._known == {}


def test_zp_handle_never_probes():
    # the residue is the dlog on Z_p: no reduction and no dh runs the solver or builds its table
    g = make_group("zp", 1009)
    oracle = OracleHandle(g)
    rng = random.Random(38009)
    for d in divisors_in_range(factorize(1008), 1, 1008):
        x = rng.randrange(1, 1009)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PowCallBoundWarning)
            assert reduce_dlog(g, oracle, g.scalar_mul(x, g.generator), d).x == x
        assert oracle.solver_steps == 0
    A = g.scalar_mul(5, g.generator)
    assert oracle.dh(A, A).data == 25
    assert oracle.solver_steps == 0 and oracle._solver.table is None


@pytest.mark.parametrize("p", (101, 1009))
def test_zp_handle_keeps_no_memo(p):
    # on Z_p the residue is the dlog, so neither a reduction nor a direct dh stores an answer
    g = make_group("zp", p)
    oracle = OracleHandle(g)
    rng = random.Random(42000 + p)
    for d in divisors_in_range(factorize(p - 1), 1, p - 1):
        x = rng.randrange(1, p)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PowCallBoundWarning)
            assert reduce_dlog(g, oracle, g.scalar_mul(x, g.generator), d).x == x
        assert oracle._known == {}
    points = [g.generator, g.scalar_mul(rng.randrange(p), g.generator)]
    for _ in range(50):
        A, B = rng.choice(points), rng.choice(points)
        points.append(oracle.dh(A, B))
        assert points[-1].data == A.data * B.data % p
    assert oracle._known == {}

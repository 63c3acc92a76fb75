"""Tests for the simulated DH oracle and its cost ledger."""

import random
import warnings
from math import isqrt

import pytest

import dhpbound.oracle as oracle_module
from conftest import make_backend
from dhpbound.groups import GroupMismatchError, GuardRailError, brute_force_dlog, make_zp_additive
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
    g = make_backend(kind, 101)
    oracle = OracleHandle(g)
    B = g.scalar_mul(42, g.generator)
    assert g.eq(oracle.dh(g.generator, B), B)  # a = 1
    assert g.eq(oracle.dh(g.identity, B), g.identity)  # a = 0
    got = oracle.dh(g.scalar_mul(3, g.generator), g.scalar_mul(5, g.generator))
    assert brute_force_dlog(g, got) == 15


@pytest.mark.parametrize("kind", BACKENDS)
def test_dh_random_products(kind):
    g = make_backend(kind, 101)
    check_dh(g, OracleHandle(g), random.Random(30100 + len(kind)), samples=1000)


def test_dh_charges_exactly_one_call_and_nothing_else():
    g = make_backend("mult", 1009)
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
    g = make_backend("zp", 29)
    oracle = OracleHandle(g)
    oracle.dh(g.generator, g.generator)
    assert oracle.call_count == 1  # handle counter advances even with no ledger attached


def test_dh_accepts_mid_computation_points():
    # squaring pattern dh(Y, Y) on a point that was itself an oracle output
    g = make_backend("ec", 101)
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
    g1 = make_backend("zp", 101)
    g2 = make_backend("zp", 103)
    oracle = OracleHandle(g1)
    with pytest.raises(GroupMismatchError):
        oracle.dh(g1.generator, g2.generator)


def test_ledger_swap_between_runs():
    g = make_backend("zp", 101)
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
    g = make_backend(kind, p)
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
    builds = []
    real = oracle_module.bsgs_table
    monkeypatch.setattr(oracle_module, "bsgs_table", lambda *a: builds.append(a) or real(*a))
    g = make_backend(kind, 1009)
    oracle = OracleHandle(g)
    m = isqrt(1009 - 1) + 1
    rng = random.Random(34009)
    seen = set()
    for k in range(40):
        A = g.scalar_mul(rng.randrange(1009), g.generator)
        before = oracle.solver_steps
        oracle.dh(A, g.generator)
        steps = oracle.solver_steps - before
        if kind == "zp":  # the residue is the dlog: no table, no steps
            assert steps == 0
        else:  # m - 1 baby steps on the first call; then 0 on a point seen, 1..m + 1 on a new one
            steps -= (m - 1) if k == 0 else 0
            assert steps == 0 if A.data in seen else 1 <= steps <= m + 1
        seen.add(A.data)
    assert len(seen) == 38  # two repeats, so both branches run
    assert len(builds) == (0 if kind == "zp" else 1)


MEMO_GROUPS = [(kind, p) for kind in ("mult", "ec") for p in (101, 1009)] + [("ec", 16381)]


@pytest.mark.parametrize("kind, p", MEMO_GROUPS)
def test_reduction_probes_at_most_twice_per_run(kind, p, monkeypatch):
    # the first squaring dh(Q, Q) solves Q; every later point implicit_pow hands in is a memo hit
    probes = []
    real = oracle_module.bsgs_probe
    monkeypatch.setattr(oracle_module, "bsgs_probe", lambda *a: probes.append(a) or real(*a))
    g = make_backend(kind, p)
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


@pytest.mark.parametrize("kind, p", MEMO_GROUPS)
def test_repeated_dh_is_free_and_answers_as_fresh(kind, p):
    g = make_backend(kind, p)
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
    g = make_backend(kind, p)
    oracle = OracleHandle(g)
    rng = random.Random(37000 + p + len(kind))
    points = [g.scalar_mul(rng.randrange(p), g.generator) for _ in range(10)]
    for calls in range(1, 31):
        points.append(oracle.dh(rng.choice(points), rng.choice(points)))
        assert len(oracle._known) <= 2 * calls
    assert oracle._known
    oracle.attach_ledger(CostLedger())
    assert oracle._known == {}
    steps = oracle.solver_steps
    oracle.dh(points[-1], points[-1])  # forgotten with the old run: probed again
    assert oracle.solver_steps > steps
    oracle.attach_ledger(None)
    assert oracle._known == {}


def test_zp_handle_never_writes_memo():
    g = make_backend("zp", 1009)
    oracle = OracleHandle(g)
    rng = random.Random(38009)
    for d in divisors_in_range(factorize(1008), 1, 1008):
        x = rng.randrange(1, 1009)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PowCallBoundWarning)
            assert reduce_dlog(g, oracle, g.scalar_mul(x, g.generator), d).x == x
        assert oracle._known == {}
    A = g.scalar_mul(5, g.generator)
    oracle.dh(A, A)
    assert oracle._known == {} and oracle.solver_steps == 0

"""Tests for the simulated DH oracle and its cost ledger."""

import random
from math import isqrt

import pytest

import dhpbound.oracle as oracle_module
from conftest import make_backend
from dhpbound.groups import GroupMismatchError, GuardRailError, brute_force_dlog, make_zp_additive
from dhpbound.oracle import CostLedger, OracleHandle

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
    oracle = OracleHandle(g)
    rng = random.Random(30100 + len(kind))
    for _ in range(1000):
        a = rng.randrange(0, 101)
        b = rng.randrange(0, 101)
        got = oracle.dh(g.scalar_mul(a, g.generator), g.scalar_mul(b, g.generator))
        assert brute_force_dlog(g, got) == a * b % 101


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
    for k in range(1, 41):
        oracle.dh(g.scalar_mul(rng.randrange(1009), g.generator), g.generator)
        if kind == "zp":  # the residue is the dlog: no table, no steps
            assert oracle.solver_steps == 0
        else:  # m - 1 baby steps once, then 1..m + 1 probes per call
            assert (m - 1) + k <= oracle.solver_steps <= (m - 1) + k * (m + 1)
    assert len(builds) == (0 if kind == "zp" else 1)

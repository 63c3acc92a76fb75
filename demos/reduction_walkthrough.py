#!/usr/bin/env python3
"""One discrete-log recovery, narrated step by step.

Q = xP is handed to the reduction together with a divisor d of p-1. The run
raises the hidden x to the d-th power implicitly (all oracle spending happens
there), locates x^d in the order-(p-1)/d subgroup of F_p^x by baby-step
giant-step, then pins down which d-th root was the original x with a second,
oracle-free baby-step giant-step. The transcript below shows every matched
index and the exact bill, with the window each walk's fixed-base table used,
then the same instance is replayed on three group backends to show the walk
never depends on element encodings.

Run: python demos/reduction_walkthrough.py
"""

import random

from dhpbound.cost import WALK_NAMES, oracle_calls_exact
from dhpbound.groups import make_group, make_zp_additive
from dhpbound.modmath import divisors_in_range, factorize
from dhpbound.oracle import OracleHandle
from dhpbound.reduction import cost_report, reduce_dlog

P = 101
SECRET = 77
DIVISOR = 20


def banner(title):
    print()
    print("=" * 66)
    print(title)
    print("=" * 66)


def main():
    banner(f"recovering x from Q = xP in a group of order p = {P}")
    group = make_zp_additive(P)
    oracle = OracleHandle(group)
    Q = group.scalar_mul(SECRET, group.generator)
    d = DIVISOR
    m = (P - 1) // d
    print(f"hidden x = {SECRET}, divisor d = {d}, so m = (p-1)/d = {m}")
    print(f"the recovery never touches x; it only sees Q and the oracle")

    tr = reduce_dlog(group, oracle, Q, d, seed=0)

    banner("phase 1: find x^d inside the order-m subgroup")
    pa = tr.params
    print(f"zeta0 = {pa.zeta0} generates F_p^x; zeta = zeta0^d = {pa.zeta} has order {m}")
    print(f"baby steps v1 = 0..{pa.d1}, giant steps u1 = 1..{-(-m // pa.d1) + 1}")
    print(f"matched at u1 = {tr.u1}, v1 = {tr.v1}")
    print(f"j = u1*d1 - v1 = {tr.u1}*{pa.d1} - {tr.v1} = {tr.j}   (x^d = zeta0^(d*j))")
    assert tr.j == tr.u1 * pa.d1 - tr.v1

    banner("phase 2: decide which d-th root x was (no oracle calls)")
    print(f"candidates are zeta0^(m*t + j) for t = 0..{d - 1}")
    print(f"baby steps v2 = 0..{pa.s2}, giant steps u2 = 0..{-(-d // pa.s2) + 1}")
    print(f"matched at u2 = {tr.u2}, v2 = {tr.v2}")
    print(f"t = u2*s2 - v2 = {tr.u2}*{pa.s2} - {tr.v2} = {tr.t}")
    assert tr.t == tr.u2 * pa.s2 - tr.v2

    banner("recombination")
    i0 = m * tr.t + tr.j
    print(f"i0 = m*t + j = {m}*{tr.t} + {tr.j} = {i0}")
    print(f"x = zeta0^i0 mod p = {pa.zeta0}^{i0} mod {P} = {tr.x}")
    print(f"recovered x == hidden x: {tr.x == SECRET}")
    assert tr.i0 == i0 and tr.x == SECRET

    banner("the bill")
    rep = cost_report(tr, P, d)
    for key in (
        "measured_oracle_calls",
        "oracle_calls_formula",
        "oracle_calls_match_formula",
        "measured_group_ops",
        "walk_group_op_ceiling",
        "within_walk_ceiling",
        "kkm_group_op_bound",
        "sweep_group_op_ceiling",
        "within_sweep_ceiling",
        "bsgs_table_entries",
    ):
        print(f"  {key:28s} {rep[key]}")
    print("  window per walk (w-bit fixed-base table; 0 = plain double-and-add):")
    for name in WALK_NAMES:
        print(f"    {name:26s} {rep['window_' + name]}")

    # the same arithmetic on three unrelated element encodings
    banner("backend independence: zp additive, F_607 subgroup, curve over F_83")
    rows = []
    for kind in ("zp", "mult", "ec"):
        g = make_group(kind, P)
        o = OracleHandle(g)
        Qk = g.scalar_mul(SECRET, g.generator)
        trk = reduce_dlog(g, o, Qk, d, seed=0)
        rows.append((kind, trk.j, trk.t, trk.i0, trk.x, trk.ledger.as_dict()))
    print(f"  {'backend':8s} {'j':>4s} {'t':>4s} {'i0':>4s} {'x':>4s}   ledger")
    for kind, j, t, i0, x, led in rows:
        print(f"  {kind:8s} {j:4d} {t:4d} {i0:4d} {x:4d}   {led}")
    agree = all(r[1:] == rows[0][1:] for r in rows)
    print(f"  transcripts and ledgers identical across backends: {agree}")

    # every divisor of p-1 against seeded random secrets
    banner(f"sweep: every divisor of {P - 1}, random secrets, exact call formula")
    rng = random.Random(4242)
    divisors = divisors_in_range(factorize(P - 1), 1, P - 1)
    print(f"  {'d':>4s} {'m':>4s} {'calls':>6s} {'formula':>8s} {'recovered':>10s}")
    ok_all = True
    for d in divisors:
        x = rng.randrange(1, P)
        g = make_zp_additive(P)
        o = OracleHandle(g)
        tr = reduce_dlog(g, o, g.scalar_mul(x, g.generator), d, seed=d)
        formula = oracle_calls_exact(d)
        hit = tr.x == x and tr.ledger.oracle_calls == formula
        ok_all = ok_all and hit
        print(f"  {d:4d} {(P - 1) // d:4d} {tr.ledger.oracle_calls:6d} "
              f"{formula:8d} {str(hit):>10s}")
    print()
    print("done" if ok_all else "FAILED")


if __name__ == "__main__":
    main()

"""Acceptance checks: eight criteria, one verdict line each in the run summary.

The reduction sweep (criterion 4) is the expensive part and also supplies the
per-run evidence for criteria 3 and 5, so it runs once as a module fixture.
"""

import hashlib
import random
import time
import warnings
from types import SimpleNamespace

import pytest

from conftest import ACCEPTANCE_LINES, make_backend
from dhpbound import bounds, invariants
from dhpbound.cli import _markdown_table
from dhpbound.groups import make_zp_additive
from dhpbound.implicit import PowCallBoundWarning
from dhpbound.invariants import InvariantFailure
from dhpbound.modmath import divisors_in_range, factorize, log2_approx
from dhpbound.oracle import OracleHandle
from dhpbound.reduction import cost_report, reduce_dlog


# sha256 over the sweep's per-run (j, u1, v1, t, u2, v2, i0, x, ledger) tuples;
# any change to a match position, a recovered value or a ledger count moves it
SWEEP_TRANSCRIPT_DIGEST = "094d8f5a6c2c50f309f85c773d9ce79631c26488604c466b25c145be8363496a"
# the same tuples without group_ops: what the walks find and what the oracle and
# the tables cost, which a change to how each step is priced must leave alone
SWEEP_MATCH_DIGEST = "01f852fc480d3fa5dc27a23482183cfdc88ca64a17be5296d5d05c62dfa3d45c"


def record(criterion: str, ok: bool, detail: str) -> None:
    ACCEPTANCE_LINES.append(f"{criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def graded_rows():
    t0 = time.monotonic()
    rows = bounds.table_rows(bounds.load_database())
    return SimpleNamespace(rows=rows, elapsed=time.monotonic() - t0)


def _worst_delta(rows) -> float:
    return max(max(abs(d) for d in r.deltas) for r in rows)


def _anchor_ok(row, m, n, tdh) -> bool:
    return (
        abs(row.log2_M - m) <= 0.02
        and abs(row.log2_n - n) <= 0.02
        and abs(row.log2_TDH - tdh) <= 0.02
    )


def test_criterion_1_prime_table_reproduction(graded_rows):
    rows = [r for r in graded_rows.rows if r.field_kind == "prime" and r.available]
    named = {r.name: r for r in rows}
    worst = _worst_delta(rows)
    ok = len(rows) == 14
    ok = ok and worst <= 0.02
    ok = ok and _anchor_ok(named["SECP112R1"], 48.34, 4.59, 51.30)
    ok = ok and _anchor_ok(named["SECP192K1"], 84.31, 5.36, 90.64)
    ok = ok and _anchor_ok(named["SECP521R1"], 196.26, 7.67, 252.83)
    ok = ok and graded_rows.elapsed <= 1.0
    record(
        "criterion 1",
        ok,
        f"14 prime-field rows within +-0.02 (worst |delta| {worst:.4f}), "
        f"anchors SECP112R1/SECP192K1/SECP521R1 match, computed in {graded_rows.elapsed:.3f}s",
    )
    assert ok


def test_criterion_2_binary_table_reproduction(graded_rows):
    rows = [r for r in graded_rows.rows if r.field_kind == "binary"]
    named = {r.name: r for r in rows}
    clean = [r for r in rows if r.name != "SECT239K1"]
    worst = _worst_delta(clean)
    ok = len(rows) == 18
    ok = ok and worst <= 0.02
    ok = ok and _anchor_ok(named["SECT131R1"], 58.75, 4.46, 60.54)
    ok = ok and _anchor_ok(named["SECT233K1"], 79.89, 6.77, 108.73)
    ok = ok and _anchor_ok(named["SECT571R1"], 190.77, 8.15, 276.85)
    # SECT239K1's sqrt cell is a proven misprint in the reference table: the
    # printed row contradicts its own identity (T_DH + log2 n != sqrt cell by
    # exactly the same 2.50), while the computed row satisfies it. The three
    # self-consistent cells must match; the sqrt delta must be that +2.50.
    t239 = named["SECT239K1"]
    d_sqrt, d_m, d_n, d_tdh = t239.deltas
    ok = ok and max(abs(d_m), abs(d_n), abs(d_tdh)) <= 0.02
    ok = ok and abs(d_sqrt - 2.50) <= 0.02
    ok = ok and abs((111.63 + 6.87) - 116.00) > 0.10  # printed row self-contradiction
    ok = ok and abs((t239.log2_TDH + t239.log2_n) - t239.log2_sqrt_p) < 1e-12
    ok = ok and t239.verdict == bounds.VERDICT_ANNOTATED
    ok = ok and graded_rows.elapsed <= 1.0
    record(
        "criterion 2",
        ok,
        f"17/18 binary-field rows fully within +-0.02 (worst |delta| {worst:.4f}); "
        f"SECT239K1 sqrt cell is an annotated reference misprint (delta {d_sqrt:+.2f}, "
        f"its other three cells match), computed in {graded_rows.elapsed:.3f}s",
    )
    assert ok


@pytest.fixture(scope="module")
def sweep():
    rng = random.Random(0x5EED4)
    runs = []
    digest = hashlib.sha256()  # every run's matches and ledger, in fixture order
    match_digest = hashlib.sha256()  # the same, group_ops left out
    t0 = time.monotonic()
    for p in (29, 101, 1009):
        divisors = divisors_in_range(factorize(p - 1), 1, p - 1)
        for kind in ("zp", "mult", "ec"):
            group = make_backend(kind, p)
            oracle = OracleHandle(group)
            for d in divisors:
                if kind == "zp" or p - 1 <= 200:
                    xs = range(1, p)
                else:
                    xs = rng.sample(range(1, p), 200)
                for x in xs:
                    Q = group.scalar_mul(x, group.generator)
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always", PowCallBoundWarning)
                        tr = reduce_dlog(group, oracle, Q, d, seed=(31 * x + d) & 0xFFFF)
                    rep = cost_report(tr, p, d)
                    led = tr.ledger
                    matches = (tr.j, tr.u1, tr.v1, tr.t, tr.u2, tr.v2, tr.i0, tr.x)
                    digest.update(repr((
                        *matches, led.group_ops, led.oracle_calls, led.bsgs_table_entries,
                    )).encode())
                    match_digest.update(repr((
                        *matches, led.oracle_calls, led.bsgs_table_entries,
                    )).encode())
                    runs.append(
                        {
                            "p": p,
                            "d": d,
                            "backend": kind,
                            "recovered": tr.x == x,
                            "calls": tr.ledger.oracle_calls,
                            "formula": rep["oracle_calls_formula"],
                            "boundary": d >= 2 and d.bit_count() == d.bit_length(),
                            "flag_raised": any(
                                issubclass(w.category, PowCallBoundWarning) for w in caught
                            ),
                            "ops": tr.ledger.group_ops,
                            "ceiling": rep["sweep_group_op_ceiling"],
                            "walk_ceiling": rep["walk_group_op_ceiling"],
                        }
                    )
    return SimpleNamespace(
        runs=runs, digest=digest.hexdigest(), match_digest=match_digest.hexdigest(),
        elapsed=time.monotonic() - t0,
    )


def test_criterion_3_exact_call_calibration(sweep):
    ok = bounds.oracle_calls_exact(140876) == 24
    ok = ok and abs(log2_approx(24) - 4.59) <= 0.02
    ok = ok and bounds.oracle_calls_exact(23348) == 22
    ok = ok and abs(log2_approx(22) - 4.46) <= 0.02
    mismatched = sum(1 for r in sweep.runs if r["calls"] != r["formula"])
    ok = ok and mismatched == 0
    record(
        "criterion 3",
        ok,
        f"140876 -> 24 calls (log2 4.585), 23348 -> 22 calls (log2 4.459); "
        f"measured == formula on all {len(sweep.runs)} sweep runs",
    )
    assert ok


def test_criterion_4_end_to_end_recovery(sweep):
    failed = [r for r in sweep.runs if not r["recovered"]]
    by_combo: dict[tuple, int] = {}
    for r in sweep.runs:
        key = (r["p"], r["d"], r["backend"])
        by_combo[key] = by_combo.get(key, 0) + 1
    ok = not failed
    for (p, d, kind), count in by_combo.items():
        want = (p - 1) if (kind == "zp" or p - 1 <= 200) else 200
        ok = ok and count >= want
    ok = ok and sweep.elapsed <= 300.0
    ok = ok and sweep.digest == SWEEP_TRANSCRIPT_DIGEST
    ok = ok and sweep.match_digest == SWEEP_MATCH_DIGEST
    zp_runs = sum(1 for r in sweep.runs if r["backend"] == "zp")
    record(
        "criterion 4",
        ok,
        f"{len(sweep.runs)} runs over p in (29, 101, 1009), every divisor of p-1: "
        f"zp exhaustive in x ({zp_runs} runs), mult/ec >= 200 x per (p, d); "
        f"0 recovery failures; transcript digest {sweep.digest[:12]} "
        f"(pinned {SWEEP_TRANSCRIPT_DIGEST[:12]}), match digest {sweep.match_digest[:12]} "
        f"(pinned {SWEEP_MATCH_DIGEST[:12]}); swept in {sweep.elapsed:.1f}s (limit 300s)",
    )
    assert ok


def test_criterion_5_cost_ceilings(sweep):
    call_violations = 0
    unflagged_boundary = 0
    ops_violations = 0
    order_violations = 0
    boundary_runs = 0
    for r in sweep.runs:
        d = r["d"]
        lemma = 0 if d == 1 else 2 * (d.bit_length() - 1)
        if r["boundary"]:
            boundary_runs += 1
            if r["calls"] > lemma + 1:
                call_violations += 1
            if not r["flag_raised"]:
                unflagged_boundary += 1
        elif r["calls"] > lemma:
            call_violations += 1
        if r["ops"] > min(r["ceiling"], r["walk_ceiling"]):
            ops_violations += 1
        if r["walk_ceiling"] > r["ceiling"]:  # the walk ceiling implies the sweep ceiling
            order_violations += 1
    ok = call_violations == 0 and unflagged_boundary == 0 and ops_violations == 0
    ok = ok and order_violations == 0
    record(
        "criterion 5",
        ok,
        f"oracle_calls <= 2*floor(log2 d)+1 on all {len(sweep.runs)} runs "
        f"({boundary_runs} popcount-saturated runs all warned, none failed); "
        f"group_ops <= walk ceiling <= sweep ceiling on every run",
    )
    assert ok


def outcome(check, *args):
    """(what check returns, None) when the invariant holds, (None, its message) when it fails."""
    try:
        return check(*args), None
    except InvariantFailure as exc:
        return None, str(exc)


def test_criterion_6_implicit_equals_direct():
    group = make_zp_additive(16381)
    rng = random.Random(0x1F1E1D)
    _, failure = outcome(invariants.check_implicit_field_ops, group, OracleHandle(group), rng, 1000)
    record(
        "criterion 6",
        failure is None,
        "add/sub/scalar/mul/pow/inv at p=16381: 1000 samples per op, "
        + (failure or "0 mismatches against direct F_p arithmetic"),
    )
    assert failure is None, failure


def test_criterion_7_database_integrity():
    db = bounds.load_database()
    _, failure = outcome(invariants.check_database, db)
    p224 = next(r for r in db if r.name == "SECP224K1")
    ok = failure is None and p224.d is None and p224.expected_log2_sqrt_p is None
    marker = next(r for r in bounds.table_rows(db) if r.name == "SECP224K1")
    dash_line = _markdown_table([marker], diff=False)[2]
    ok = ok and dash_line.startswith("| SECP224K1 | - | - | - | - |")
    record(
        "criterion 7",
        ok,
        failure
        or "33 records: all p pass 64-round primality, every stored d divides p-1, "
        "SECP224K1 carries no d and renders as the dash row",
    )
    assert ok


def test_criterion_8_generator_density():
    rate_and_floor, failure = outcome(invariants.check_generator_density, range(10**4), 0.02)
    record(
        "criterion 8",
        failure is None,
        failure
        or "find_generator acceptance rate %.4f at p=101 over 10^4 seeded trials "
        "(target 0.40 +- 0.02), above the density floor %.4f" % rate_and_floor,
    )
    assert failure is None, failure

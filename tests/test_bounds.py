"""Lower-bound calculator against the embedded curve database."""

import json
from math import isqrt

import pytest

from dhpbound.bounds import (
    VERDICT_ANNOTATED,
    VERDICT_FAILURE,
    VERDICT_NO_DATA,
    VERDICT_OK,
    CurveRecord,
    DatabaseError,
    load_database,
    oracle_calls_exact,
    reduction_ops_bound,
    rows_exit_code,
    suggest_divisor,
    t_dh,
    table_rows,
)
from dhpbound.invariants import check_database
from dhpbound.modmath import (
    Factorization,
    IncompleteFactorizationError,
    factorize,
    is_prime,
    log2_approx,
)
from dhpbound.reduction import InvalidDivisorError


@pytest.fixture(scope="module")
def db():
    return load_database()


@pytest.fixture(scope="module")
def by_name(db):
    return {rec.name: rec for rec in db}


@pytest.fixture(scope="module")
def rows(db):
    return table_rows(db)


# ------------------------------------------------------------ n, M, T_DH


def test_oracle_calls_exact_reference_divisors():
    assert oracle_calls_exact(140876) == 24
    assert abs(log2_approx(24) - 4.59) <= 0.02
    assert oracle_calls_exact(23348) == 22
    assert abs(log2_approx(22) - 4.46) <= 0.02


def test_oracle_calls_exact_small_cases():
    assert oracle_calls_exact(1) == 0
    assert oracle_calls_exact(2) == 2
    assert oracle_calls_exact(4) == 3
    assert oracle_calls_exact(7) == 5
    assert oracle_calls_exact(1 << 20) == 21


def test_oracle_calls_exact_matches_binary_expansion():
    for d in range(2, 4000):
        squarings = d.bit_length() - 1
        multiplies = bin(d).count("1")
        assert oracle_calls_exact(d) == squarings + multiplies


def test_oracle_calls_exact_rejects_zero():
    with pytest.raises(ValueError):
        oracle_calls_exact(0)
    with pytest.raises(ValueError):
        oracle_calls_exact(-5)


def test_reduction_ops_bound_reference_rows(by_name):
    r112 = by_name["SECP112R1"]
    assert abs(log2_approx(reduction_ops_bound(r112.p, r112.d)) - 48.34) <= 0.02
    r131 = by_name["SECT131R1"]
    assert abs(log2_approx(reduction_ops_bound(r131.p, r131.d)) - 58.75) <= 0.02


def test_reduction_ops_bound_degenerate_split():
    p = 1009
    assert reduction_ops_bound(p, p - 1) == 2 * (1 + isqrt(p - 1))


def test_reduction_ops_bound_rejects_non_divisor():
    with pytest.raises(InvalidDivisorError):
        reduction_ops_bound(101, 3)
    with pytest.raises(InvalidDivisorError):
        reduction_ops_bound(101, 0)


def test_t_dh_reference_rows(by_name):
    r112 = by_name["SECP112R1"]
    assert abs(t_dh(r112.p, oracle_calls_exact(r112.d)) - 51.30) <= 0.02
    r131 = by_name["SECT131R1"]
    assert abs(t_dh(r131.p, oracle_calls_exact(r131.d)) - 60.54) <= 0.02


def test_t_dh_unit_and_zero():
    assert t_dh(101, 1) == 0.5 * log2_approx(101)
    with pytest.raises(ValueError):
        t_dh(101, 0)


# ------------------------------------------------------------ database


def test_database_shape(db):
    assert len(db) == 33
    prime = [r for r in db if r.field_kind == "prime"]
    binary = [r for r in db if r.field_kind == "binary"]
    assert len(prime) == 15 and len(binary) == 18
    assert len({r.name for r in db}) == 33
    no_d = [r for r in db if r.d is None]
    assert [r.name for r in no_d] == ["SECP224K1"]
    for r in db:
        has_expected = r.expected_log2_sqrt_p is not None
        assert has_expected == (r.d is not None)


def test_database_integrity(db):
    check_database(db)


def test_database_annotations(db):
    annotated = {r.name for r in db if r.annotations}
    assert annotated == {"SECP224K1", "SECP256K1", "SECT239K1"}


# ------------------------------------------------------------ table rows


def test_table_row_counts(rows):
    assert len(rows) == 33
    prime_rows = [r for r in rows if r.field_kind == "prime"]
    assert sum(1 for r in prime_rows if r.available) == 14
    assert sum(1 for r in prime_rows if not r.available) == 1
    assert sum(1 for r in rows if r.field_kind == "binary" and r.available) == 18


def test_row_identity_tdh_plus_n(rows):
    for row in rows:
        if row.available:
            assert abs((row.log2_TDH + row.log2_n) - row.log2_sqrt_p) < 1e-12, row.name


def test_reference_anchors(rows):
    named = {r.name: r for r in rows}
    assert abs(named["SECP521R1"].log2_sqrt_p - 260.50) <= 0.02
    assert abs(named["SECT571R1"].log2_TDH - 276.85) <= 0.02
    assert abs(named["SECP192K1"].log2_M - 84.31) <= 0.02
    assert abs(named["SECT233K1"].log2_M - 79.89) <= 0.02
    assert named["SECP112R1"].n == 24
    assert named["SECT131R1"].n == 22


def test_row_verdicts(rows):
    named = {r.name: r for r in rows}
    assert named["SECP224K1"].verdict == VERDICT_NO_DATA
    assert named["SECT239K1"].verdict == VERDICT_ANNOTATED
    for row in rows:
        if row.name not in ("SECP224K1", "SECT239K1"):
            assert row.verdict == VERDICT_OK, f"{row.name}: {row.verdict} {row.deltas}"


def test_sect239k1_mismatch_is_the_sqrt_cell_only(rows):
    row = {r.name: r for r in rows}["SECT239K1"]
    d_sqrt, d_m, d_n, d_tdh = row.deltas
    assert abs(d_sqrt - 2.50) <= 0.02  # known misprint in the reference table
    assert abs(d_m) <= 0.02 and abs(d_n) <= 0.02 and abs(d_tdh) <= 0.02
    # the reference row contradicts itself; the computed row satisfies the identity
    assert abs((111.63 + 6.87) - 116.00) > 2.4


def test_m_large_flags(rows):
    flagged = {r.name for r in rows if "m-large" in r.flags}
    assert flagged == {"SECP112R1", "SECT131R1"}


def test_policy_mismatch_flag_matches_direct_check(db, rows):
    named = {r.name: r for r in rows}
    for rec in db:
        if rec.d is None:
            continue
        in_band = rec.d**3 >= rec.p and rec.d * rec.d <= rec.p
        assert ("policy-mismatch" in named[rec.name].flags) == (not in_band), rec.name
    assert "policy-mismatch" in named["SECP112R1"].flags


def test_no_d_marker_flags(rows):
    row = {r.name: r for r in rows}["SECP224K1"]
    assert not row.available
    assert "no-d" in row.flags and "annotated" in row.flags
    assert row.log2_sqrt_p is None and row.n is None and row.deltas is None


def test_exit_codes(db, rows):
    assert rows_exit_code(rows) == 2  # annotated mismatch present
    clean = [r for r in rows if r.verdict == VERDICT_OK]
    assert rows_exit_code(clean) == 0
    bad_rec = CurveRecord(
        name="X", field_kind="prime", p=101, d=4,
        expected_log2_sqrt_p=3.32, expected_log2_M=99.0,
        expected_log2_n=1.58, expected_log2_TDH=1.74,
    )
    bad_rows = table_rows([bad_rec])
    assert bad_rows[0].verdict == VERDICT_FAILURE
    assert rows_exit_code(bad_rows) == 1
    assert rows_exit_code(rows + bad_rows) == 1


# --------------------------------------------------------- suggest_divisor


def test_suggest_divisor_paper_examples():
    assert suggest_divisor(101, factorize(100), "paper") == 5
    assert suggest_divisor(29, factorize(28), "paper") == 4


def test_suggest_divisor_paper_fallback_two():
    # p - 1 = 2q with q prime above sqrt(p): nothing in band, 2 is the fallback
    p = 59  # 58 = 2 * 29, sqrt(59) < 8 < 29
    assert suggest_divisor(p, factorize(58), "paper") == 2


def test_suggest_divisor_paper_none_when_trivial():
    assert suggest_divisor(3, factorize(2), "paper") is None


def test_suggest_divisor_min_n_too_small_returns_none():
    # desk-scale p cannot satisfy M <= sqrt(p)/256
    assert suggest_divisor(101, factorize(100), "min-n") is None


def test_suggest_divisor_min_n_matches_brute_force():
    # find a prime with fully known smooth p-1, then re-derive the optimum
    c, p = None, None
    for cand in range(3, 100, 2):
        maybe = cand * 2**44 + 1
        if is_prime(maybe):
            c, p = cand, maybe
            break
    assert p is not None
    f = factorize(p - 1)
    assert f.complete
    from dhpbound.modmath import divisors_in_range

    budget = 0.5 * log2_approx(p) - 8
    best = None
    for d in divisors_in_range(f, 2, p - 1):
        if log2_approx(reduction_ops_bound(p, d)) > budget:
            continue
        key = (oracle_calls_exact(d), d)
        if best is None or key < best:
            best = key
    assert best is not None  # p ~ 2^45 leaves a wide admissible window
    assert suggest_divisor(p, f, "min-n") == best[1]


def test_suggest_divisor_rejects_incomplete_and_unknown_policy():
    partial = Factorization(factors=((2, 2),), complete=False, cofactor=25)
    with pytest.raises(IncompleteFactorizationError):
        suggest_divisor(101, partial, "paper")
    with pytest.raises(ValueError):
        suggest_divisor(101, factorize(100), "balanced")


# ------------------------------------------------------------- loading


def test_load_database_env_override(tmp_path, monkeypatch):
    doc = {
        "version": 1,
        "records": [
            {
                "name": "TINY", "field_kind": "prime", "p": "101", "d": "4",
                "expected_log2_sqrt_p": 3.32, "expected_log2_M": 4.32,
                "expected_log2_n": 1.58, "expected_log2_TDH": 1.74,
            }
        ],
    }
    alt = tmp_path / "alt.json"
    alt.write_text(json.dumps(doc))
    monkeypatch.setenv("DHP_DB", str(alt))
    db = load_database()
    assert len(db) == 1 and db[0].name == "TINY" and db[0].p == 101
    assert db[0].annotations == ()


def test_load_database_rejects_invalid_record(tmp_path):
    good = {
        "name": "TINY", "field_kind": "prime", "p": "101", "d": "4",
        "expected_log2_sqrt_p": 3.32, "expected_log2_M": 4.32,
        "expected_log2_n": 1.58, "expected_log2_TDH": 1.74,
    }
    missing = {k: v for k, v in good.items() if k != "expected_log2_M"}
    alt = tmp_path / "alt.json"
    for bad in ({**good, "d": "3"}, {**good, "p": "abc"}, {**good, "p": None},
                {**good, "p": "0", "d": None}, missing):
        alt.write_text(json.dumps({"version": 1, "records": [good, bad]}))
        with pytest.raises(DatabaseError, match="^record 1: "):
            load_database(str(alt))


@pytest.mark.parametrize("doc", [[], {"version": 1}, {"records": 5}])
def test_load_database_rejects_bad_shape(tmp_path, doc):
    alt = tmp_path / "alt.json"
    alt.write_text(json.dumps(doc))
    with pytest.raises(DatabaseError, match="'records' list"):
        load_database(str(alt))


def test_load_database_explicit_path_beats_env(tmp_path, monkeypatch):
    doc = {"version": 1, "records": []}
    alt = tmp_path / "alt.json"
    alt.write_text(json.dumps(doc))
    monkeypatch.setenv("DHP_DB", "/nonexistent/other.json")
    assert load_database(str(alt)) == []


def test_load_database_packaged_default(monkeypatch):
    monkeypatch.delenv("DHP_DB", raising=False)
    db = load_database()
    assert len(db) == 33

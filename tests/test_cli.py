"""CLI surface: exit codes, output formats, determinism, argument validation."""

import json
import math
import re

import pytest

from dhpbound import invariants
from dhpbound.bounds import (
    log2_approx,
    oracle_calls_exact,
    reduction_ops_bound,
    t_dh,
)
from dhpbound.cli import main
from dhpbound.reduction import WALK_NAMES


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------- tables


def test_tables_default_markdown(capsys):
    code, out, _ = run(capsys, "tables")
    assert code == 2  # one annotated reference-table mismatch is expected
    assert "## prime-field curves" in out and "## binary-field curves" in out
    assert "| SECP224K1 | - | - | - | - |" in out
    assert "SECT571R1" in out and "276.85" in out
    assert "summary:" in out
    assert out.count("note [") == 3


def test_tables_csv_format(capsys):
    code, out, _ = run(capsys, "tables", "--format", "csv")
    assert code == 2
    lines = out.strip().splitlines()
    assert lines[0] == "name,log2_sqrt_p,log2_M,log2_n,log2_TDH,flags"
    assert len(lines) == 34  # header + 33 records
    p224 = next(l for l in lines if l.startswith("SECP224K1"))
    assert p224 == "SECP224K1,-,-,-,-,no-d;annotated"


def test_tables_csv_diff_shows_misprint_delta(capsys):
    code, out, _ = run(capsys, "tables", "--format", "csv", "--diff")
    assert code == 2
    lines = out.strip().splitlines()
    assert lines[0].endswith(",delta_sqrt,delta_M,delta_n,delta_TDH")
    t239 = next(l for l in lines if l.startswith("SECT239K1"))
    assert ",+2.50," in t239
    p112 = next(l for l in lines if l.startswith("SECP112R1"))
    for cell in p112.split(",")[-4:]:
        assert abs(float(cell)) <= 0.02


def test_tables_json_format(capsys):
    code, out, _ = run(capsys, "tables", "--format", "json")
    assert code == 2
    doc = json.loads(out)
    assert len(doc["rows"]) == 33
    by_name = {r["name"]: r for r in doc["rows"]}
    assert by_name["SECP224K1"]["available"] is False
    assert by_name["SECT239K1"]["verdict"] == "annotated mismatch"
    assert by_name["SECP112R1"]["verdict"] == "ok"
    assert by_name["SECP112R1"]["n"] == 24


def test_tables_db_override(tmp_path, monkeypatch, capsys):
    p, d = 101, 4
    n = oracle_calls_exact(d)
    doc = {
        "version": 1,
        "records": [
            {
                "name": "TINY",
                "field_kind": "prime",
                "p": str(p),
                "d": str(d),
                "expected_log2_sqrt_p": 0.5 * log2_approx(p),
                "expected_log2_M": log2_approx(reduction_ops_bound(p, d)),
                "expected_log2_n": log2_approx(n),
                "expected_log2_TDH": t_dh(p, n),
            }
        ],
    }
    alt = tmp_path / "tiny.json"
    alt.write_text(json.dumps(doc))
    monkeypatch.setenv("DHP_DB", str(alt))
    code, out, _ = run(capsys, "tables")
    assert code == 0
    assert "TINY" in out and "SECP112R1" not in out


def test_tables_unreadable_db(capsys):
    code, _, err = run(capsys, "tables", "--db", "/nonexistent/db.json")
    assert code == 1
    assert "cannot load curve database" in err


def _one_record_db(tmp_path, **fields):
    record = {
        "name": "BAD", "field_kind": "prime", "p": "101", "d": "4",
        "expected_log2_sqrt_p": 3.33, "expected_log2_M": 4.32,
        "expected_log2_n": 1.58, "expected_log2_TDH": 1.75,
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"version": 1, "records": [{**record, **fields}]}))
    return str(path)


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"p": "abc"}, "invalid literal"),
        ({"d": "3"}, "d=3 does not divide p-1=100"),
        ({"p": "1", "d": None}, "p=1 is below 3"),
    ],
)
def test_tables_invalid_db_record(tmp_path, capsys, fields, message):
    code, _, err = run(capsys, "tables", "--db", _one_record_db(tmp_path, **fields))
    assert code == 1
    assert err.startswith("error: cannot load curve database: record 0:")
    assert message in err and err.count("\n") == 1


def test_tables_db_without_records_list(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[]")
    code, _, err = run(capsys, "tables", "--db", str(path))
    assert code == 1
    assert "'records' list" in err and err.count("\n") == 1


# ---------------------------------------------------------------- reduce


def test_reduce_recovers_specified_x(capsys):
    code, out, _ = run(capsys, "reduce", "--p", "101", "--d", "4", "--x", "37")
    assert code == 0
    assert "requested 37, match: True" in out
    assert "oracle_calls=3" in out
    # where the group ops went: the walk ceiling beside the M bound, and each walk's window
    assert "walk ceiling 102 (within: True), M bound (not enforced) 14" in out
    assert ("walk windows (0 = plain double-and-add): "
            "phase1_baby=2, phase1_giant=2, phase2_baby=1, phase2_giant=2\n") in out


def test_reduce_random_seed_deterministic(capsys):
    first = run(capsys, "reduce", "--p", "101", "--d", "4", "--random", "--seed", "7")
    second = run(capsys, "reduce", "--p", "101", "--d", "4", "--random", "--seed", "7")
    assert first == second
    assert first[0] == 0


def test_reduce_json_format(capsys):
    code, out, _ = run(
        capsys, "reduce", "--p", "101", "--d", "10", "--x", "42", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["recovered"] is True
    assert doc["transcript"]["x"] == 42 == doc["requested_x"]
    assert doc["cost_report"]["oracle_calls_match_formula"] is True
    assert doc["transcript"]["ledger"]["oracle_calls"] == oracle_calls_exact(10)


def test_reduce_csv_format(capsys):
    code, out, _ = run(
        capsys, "reduce", "--p", "29", "--d", "4", "--x", "11", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "key,value"
    kv = dict(l.split(",", 1) for l in lines[1:])
    assert kv["x"] == "11" and kv["recovered"] == "True"
    assert kv["cost_report.within_sweep_ceiling"] == "True"
    assert kv["cost_report.within_walk_ceiling"] == "True"
    assert [kv[f"cost_report.window_{name}"] for name in WALK_NAMES] == ["0", "2", "0", "1"]


@pytest.mark.parametrize("backend", ["zp", "ec"])
def test_reduce_reports_simulator_steps_off_the_books(capsys, backend):
    argv = ("reduce", "--p", "101", "--d", "20", "--x", "77", "--backend", backend)
    _, out, _ = run(capsys, *argv, "--format", "json")
    doc = json.loads(out)
    steps = doc["simulator"]["solver_steps"]
    if backend == "zp":  # the residue is the dlog: the simulator does no work
        assert steps == 0
    else:  # at least the m - 1 baby steps of its table, m = isqrt(p - 1) + 1
        assert steps >= math.isqrt(100)
    assert list(doc["transcript"]) == [
        "p", "backend", "j", "u1", "v1", "t", "u2", "v2", "i0", "x", "ledger", "params",
    ]
    assert list(doc["transcript"]["ledger"]) == ["group_ops", "oracle_calls", "bsgs_table_entries"]
    _, out, _ = run(capsys, *argv, "--format", "csv")
    kv = dict(l.split(",", 1) for l in out.strip().splitlines()[1:])
    assert kv["simulator.solver_steps"] == str(steps)
    assert [k for k in kv if "solver" in k] == ["simulator.solver_steps"]
    _, out, _ = run(capsys, *argv)
    assert f"simulator: solver_steps={steps} (off the books)\n" in out


def test_reduce_backends_agree(capsys):
    outputs = []
    for backend in ("zp", "mult", "ec"):
        code, out, _ = run(
            capsys, "reduce", "--p", "101", "--d", "20", "--x", "77",
            "--backend", backend, "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        outputs.append(
            (doc["transcript"]["j"], doc["transcript"]["t"], doc["transcript"]["i0"])
        )
    assert outputs[0] == outputs[1] == outputs[2]


def test_reduce_ec_fixture_order(capsys):
    code, out, _ = run(
        capsys, "reduce", "--p", "16381", "--d", "4", "--x", "12345", "--backend", "ec"
    )
    assert code == 0
    assert "requested 12345, match: True" in out


def test_reduce_all_ones_divisor_flagged_not_failed(capsys):
    code, out, _ = run(capsys, "reduce", "--p", "29", "--d", "7", "--x", "5")
    assert code == 0
    assert "within: False" in out  # call count honestly exceeds 2*floor(log2 d)
    assert "note: exponent 7 is all ones in binary" in out


def test_reduce_rejections(capsys):
    cases = [
        ("--p", "100", "--d", "4", "--x", "3"),  # composite p
        ("--p", "101", "--d", "3", "--x", "3"),  # non-divisor
        ("--p", "101", "--d", "4", "--x", "0"),  # zero dlog
        ("--p", "101", "--d", "4", "--x", "101"),  # x out of range
        ("--p", "4294967311", "--d", "2", "--x", "3"),  # above 2^32 guard
        ("--p", "2", "--d", "1", "--x", "1"),  # p - 1 = 1 has nothing to factor
    ]
    for argv in cases:
        code, _, err = run(capsys, "reduce", *argv)
        assert code == 1, argv
        assert err.startswith("error:") and err.count("\n") == 1, argv


def test_reduce_ec_search_guard(capsys):
    code, _, err = run(capsys, "reduce", "--p", "65537", "--d", "2", "--x", "3",
                       "--backend", "ec")
    assert code == 1
    assert "capped" in err


# -------------------------------------------------------------- divisors


def test_divisors_p101(capsys):
    code, out, _ = run(capsys, "divisors", "--p", "101")
    assert code == 0
    assert "complete" in out
    assert "divisors in [5, 10]: 5, 10" in out
    assert "policy suggestion (paper): d=5" in out


def test_divisors_p29(capsys):
    code, out, _ = run(capsys, "divisors", "--p", "29")
    assert code == 0
    assert "policy suggestion (paper): d=4" in out


def test_divisors_min_n_policy(capsys):
    code, out, _ = run(capsys, "divisors", "--p", "101", "--policy", "min-n")
    assert code == 0
    assert "policy suggestion (min-n): none" in out


def test_divisors_partial_factorization_labeled(capsys):
    # p - 1 = 2^2 * 3 * 7 * 1000000007 * 999999937; the 60-bit semiprime tail
    # stays composite when the rho budget is too small to split it
    code, out, _ = run(
        capsys, "divisors", "--p", "83999995295999962957", "--budget", "10"
    )
    assert code == 0
    assert "PARTIAL" in out
    assert "unfactored composite cofactor: 999999943999999559" in out
    assert "enumeration unavailable" in out


def test_divisors_database_cross_reference(capsys):
    p112 = "4451685225093714776491891542548933"
    code, out, _ = run(capsys, "divisors", "--p", p112, "--budget", "100000")
    assert code == 0
    assert "database SECP112R1: stored d=140876 divides p-1: True" in out
    # trial division plus a primality proof completes this factorization,
    # and the below-band fallback reproduces the stored divisor
    assert "policy suggestion (paper): d=140876" in out


# reduce and divisors refuse a bad p through the same check, with the same message
P_CHECKED = pytest.mark.parametrize(
    "argv", [["divisors"], ["reduce", "--d", "1", "--x", "1"]], ids=["divisors", "reduce"]
)


@P_CHECKED
def test_divisors_rejects_composite(capsys, argv):
    code, out, err = run(capsys, *argv, "--p", "100")
    assert code == 1 and out == ""
    assert err == "error: p=100 is not prime\n"


@P_CHECKED
def test_divisors_rejects_p_below_3(capsys, argv):
    code, out, err = run(capsys, *argv, "--p", "2")
    assert code == 1 and out == ""
    assert err == "error: p must be a prime >= 3, got 2\n"


def test_divisors_skips_invalid_db(tmp_path, capsys):
    # a broken --db warns on stderr; stdout and the exit code stay as without it
    (tmp_path / "broken.json").write_text("{not json")
    reasons = {
        str(tmp_path / "absent.json"): "No such file or directory",
        str(tmp_path / "broken.json"): "line 1 column 2",
        _one_record_db(tmp_path, d="3"): "d=3 does not divide p-1=100",
    }
    _, plain_out, _ = run(capsys, "divisors", "--p", "101")  # no packaged record has p = 101
    for path, reason in reasons.items():
        code, out, err = run(capsys, "divisors", "--p", "101", "--db", path)
        assert code == 0
        assert out == plain_out
        assert err.startswith(f"warning: database {path}: ") and reason in err
        assert err.endswith("; cross-reference skipped\n") and err.count("\n") == 1


# -------------------------------------------------------------- selftest


SUITES = ["modmath", "groups", "oracle", "implicit", "reduction", "bounds", "generator-density"]


def test_selftest_quick_passes(capsys):
    code, out, _ = run(capsys, "selftest", "--depth", "quick")
    assert code == 0
    lines = out.splitlines()
    assert [line.split(":")[0] for line in lines] == SUITES
    assert all(re.fullmatch(r"[a-z-]+: ok  \[\d+\.\ds\]", line) for line in lines), out


def test_selftest_reports_a_failing_suite(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise invariants.InvariantFailure("boom")

    monkeypatch.setattr(invariants, "check_dh", boom)
    code, out, _ = run(capsys, "selftest", "--depth", "quick")
    assert code == 1
    lines = dict(line.split(": ", 1) for line in out.splitlines())
    assert list(lines) == SUITES
    assert re.fullmatch(r"FAIL: boom  \[\d+\.\ds\]", lines.pop("oracle"))
    assert all(status.startswith("ok  [") for status in lines.values())


# ----------------------------------------------------------- usage errors


@pytest.mark.parametrize(
    "argv",
    [
        ["bogus-subcommand"],
        ["tables", "--bogus"],
        ["tables", "--format", "yaml"],
        ["reduce", "--p", "101", "--d", "4"],  # missing --x / --random
        ["reduce", "--p", "101", "--d", "4", "--x", "3", "--random"],  # both
        ["divisors"],  # missing --p
        ["divisors", "--p", "101", "--budget", "-5"],
        ["selftest", "--depth", "weekly"],
        [],
    ],
)
def test_usage_errors_exit_64(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 64
    capsys.readouterr()

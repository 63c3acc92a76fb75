"""CLI surface: exit codes, output formats, determinism, argument validation."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from dhpbound import invariants
from dhpbound.bounds import load_database, log2_approx, paper_band, t_dh
from dhpbound.cli import build_parser, main
from dhpbound.cost import WALK_NAMES, oracle_calls_exact, reduction_ops_bound
from dhpbound.modmath import divisors_in_range, factorize


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
        ({"expected_log2_M": "4.32"}, "expected_log2_M='4.32' is not a finite number or null"),
        ({"name": None}, "name=None is not a non-empty string"),
        ({"d": 2.0}, "d=2.0 is not an integer, a decimal string or null"),
        ({"d": True}, "d=True is not an integer, a decimal string or null"),
        ({"p": 101.0}, "p=101.0 is not an integer or a decimal string"),
        ({"annotations": "abc"}, "annotations='abc' is not a list of strings"),
        ({"field_kind": "ternary"}, "field_kind='ternary' is not 'prime' or 'binary'"),
        ({"expected_log2_sqrt_p": float("nan")}, "expected_log2_sqrt_p=nan is not a finite number or null"),
        ({"p": " 1_01 "}, "p=' 1_01 ' is not a string of ASCII decimal digits"),
        ({"d": "+4"}, "d='+4' is not a string of ASCII decimal digits"),
        ({"d": "\u0664"}, "d='\u0664' is not a string of ASCII decimal digits"),
        ({"d": 1}, "d=1 is below 2"),
    ],
)
def test_tables_invalid_db_record(tmp_path, capsys, fields, message):
    code, _, err = run(capsys, "tables", "--db", _one_record_db(tmp_path, **fields))
    assert code == 1
    assert err.startswith("error: cannot load curve database: record 0:")
    assert message in err and err.count("\n") == 1


def _undecodable_dbs(tmp_path) -> dict[str, str]:
    """Database files that fail to decode, each -> a phrase of the one-line reason."""
    files = {
        "not_utf8.json": (b"\xff{}", "can't decode byte 0xff"),
        "deep.json": (b"[" * 100_000, "maximum recursion depth exceeded"),
        "long_int.json": (b'{"records": ' + b"1" * 5000 + b"}", "4300 digits"),
    }
    for name, (blob, _) in files.items():
        (tmp_path / name).write_bytes(blob)
    return {str(tmp_path / name): reason for name, (_, reason) in files.items()}


def test_tables_undecodable_db(tmp_path, capsys, monkeypatch):
    # through --db and through $DHP_DB: exit 1 and one stderr line, never a traceback
    for path, reason in _undecodable_dbs(tmp_path).items():
        code, _, err = run(capsys, "tables", "--db", path)
        assert code == 1
        assert err.startswith("error: cannot load curve database: ") and reason in err
        assert err.count("\n") == 1
        monkeypatch.setenv("DHP_DB", path)
        assert run(capsys, "tables") == (code, "", err)
        monkeypatch.delenv("DHP_DB")


def test_tables_db_without_records_list(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[]")
    code, _, err = run(capsys, "tables", "--db", str(path))
    assert code == 1
    assert "'records' list" in err and err.count("\n") == 1


# sha256 over (argv, exit code, stdout, stderr) of every format, without and with --diff, in order
TABLES_OUTPUT_DIGEST = "f9376bc0f9e9026739afd3c97632b172fea8a96d729fd458270519913f2c65aa"


def test_tables_output_is_pinned(capsys):
    digest = hashlib.sha256()
    for fmt in ("markdown", "json", "csv"):
        for diff in ((), ("--diff",)):
            argv = ("tables", "--format", fmt, *diff)
            code, out, err = run(capsys, *argv)
            assert code == 2, argv
            digest.update(json.dumps([argv, code, out, err]).encode())
    assert digest.hexdigest() == TABLES_OUTPUT_DIGEST


# ---------------------------------------------------------------- reduce


def test_reduce_recovers_specified_x(capsys):
    code, out, _ = run(capsys, "reduce", "--p", "101", "--d", "4", "--x", "37")
    assert code == 0
    assert "requested 37, match: True" in out
    assert "oracle_calls=3" in out
    # where the group ops went: the walk ceiling beside the M bound, and each walk's window.
    # Seed 0 gives test_cost_report_shapes_and_values' phase 1 (21 + 26 on w = 4 and 2) and
    # phase 2 baby (15 on w = 2). Here j = 19, so phase 2's giant walk starts at
    # zeta0^19 = 67, whose signed base-4 digits are -1, 1, 0, 1: its own w = 1 plan costs
    # 6 + 2 + 6 = 14 over its first 2 points, phase 1's w = 2 table 2 + 3 = 5, so it shares
    # that table, at 2 + 3*3 = 11 over all 4 points: 21 + 26 + 15 + 11 = 73.
    assert "walk ceiling 73 (within: True), M bound (not enforced) 14" in out
    assert ("walk windows (0 = plain double-and-add): "
            "phase1_baby=4, phase1_giant=2, phase2_baby=2, phase2_giant=2\n") in out


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
    # 28 = 0b11100: signed tables cost 4 (w = 1), 7 (w = 2, top digit 2), 8 (w = 3, top
    # digit 3). The baby walks (1, 20, 3) and (1, 12, 3) stay plain at 2*5 and 2*4; w = 3
    # ties the first at 8 + 2, and a tie keeps the plain walk. Phase 1's giant walk (23, 23, 5),
    # priced at its first 3 points, takes w = 3 at 8 + 1 + 2*1 = 11 over the plain 21 (23's
    # signed base-8 digits are -1, 3), and costs 8 + 1 + 4*1 = 13 over all 5. Phase 2's
    # (14^3 = 18, 28, 4) shares it, at 1 + 1 = 2 over 2 points against its own w = 1 at
    # 4 + 1 + 4 = 9, and costs 1 + 3*1 = 4 over all 4.
    assert [kv[f"cost_report.window_{name}"] for name in WALK_NAMES] == ["0", "3", "0", "3"]
    assert kv["cost_report.walk_group_op_ceiling"] == str(10 + 13 + 8 + 4)


def test_reduce_csv_ends_with_the_warnings_row(capsys):
    # d = 3 is all ones in binary: the note markdown and json print is csv's last row too, and
    # a run with no note ends on an empty warnings row
    argv = ("reduce", "--p", "1009", "--d", "3", "--random", "--seed", "3")
    _, out, _ = run(capsys, *argv, "--format", "json")
    notes = json.loads(out)["warnings"]
    assert len(notes) == 1 and "all ones" in notes[0]
    _, out, _ = run(capsys, *argv)
    assert notes[0] in out
    _, out, _ = run(capsys, *argv, "--format", "csv")
    assert out.splitlines()[-1] == f"warnings,{notes[0]}"
    _, out, _ = run(capsys, "reduce", "--p", "29", "--d", "4", "--x", "11", "--format", "csv")
    assert out.splitlines()[-1] == "warnings,"


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


def test_reduce_ec_on_a_searched_curve_at_the_top_of_the_guard(capsys):
    # 16369 is the largest prime under EC_SEARCH_GUARD with no packaged curve, so make_group
    # runs find_ec_group_params for it
    code, out, err = run(
        capsys, "reduce", "--p", "16369", "--d", "2", "--x", "12345", "--backend", "ec"
    )
    assert code == 0 and err == ""
    assert out.count("requested 12345, match: True") == 1


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


def test_reduce_rejects_a_non_divisor_by_the_one_divisor_rule(capsys):
    # cost.divisor_split's message, as every other command reports a bad divisor
    for d in ("3", "0", "-4", "200"):
        code, out, err = run(capsys, "reduce", "--p", "101", "--d", d, "--x", "3")
        assert (code, out, err) == (1, "", f"error: d={d} does not divide p-1=100\n")


def test_reduce_ec_at_2_32_from_the_registry(capsys):
    # past the search guard, the packaged curve of order 4293896137 and d = 2019 in the paper's band
    code, out, _ = run(capsys, "reduce", "--backend", "ec", "--p", "4293896137", "--d", "2019",
                       "--x", "123456789")
    assert code == 0
    assert "requested 123456789, match: True" in out and "group_ops=8432 " in out


def test_reduce_ec_search_guard(capsys):
    for p in ("65537", "4294967291"):  # no packaged curve, above the point-counting cap
        code, out, err = run(capsys, "reduce", "--p", p, "--d", "2", "--x", "3", "--backend", "ec")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "capped" in err and err.count("\n") == 1, p


# one reduce per backend and order scale, each in all three formats
REDUCE_OUTPUT_CASES = (
    ("--p", "101", "--d", "4", "--x", "77"),
    ("--p", "1009", "--d", "28", "--x", "500", "--backend", "mult"),
    ("--p", "16381", "--d", "2", "--x", "1234", "--backend", "ec"),
    ("--p", "4294967291", "--d", "190", "--x", "123456789", "--backend", "mult"),
    ("--p", "29", "--d", "28", "--x", "3", "--backend", "ec", "--seed", "5"),
)
# sha256 over (argv, exit code, stdout, stderr) of every case and format, in order
REDUCE_OUTPUT_DIGEST = "6743b41d3f51c511b6274e0396db46dd6708779feead4bfb89b06090ccd31070"


def test_reduce_output_is_pinned(capsys):
    digest = hashlib.sha256()
    for case in REDUCE_OUTPUT_CASES:
        for fmt in ("markdown", "json", "csv"):
            argv = ("reduce", *case, "--format", fmt)
            code, out, err = run(capsys, *argv)
            assert code == 0, argv
            digest.update(json.dumps([argv, code, out, err]).encode())
    assert digest.hexdigest() == REDUCE_OUTPUT_DIGEST


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_reduce_into_a_closed_pipe_exits_1_without_traceback(unbuffered):
    # `dhpbound reduce ... | head -c 0`: the reader is gone before the first byte, so the
    # write fails in print (unbuffered) or in the flush main makes before it returns
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    argv = ["reduce", "--p", "101", "--d", "4", "--x", "77", "--format", "json"]
    proc = subprocess.Popen([sys.executable, "-m", "dhpbound.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""


# -------------------------------------------------------------- divisors


def test_divisors_p101(capsys):
    code, out, _ = run(capsys, "divisors", "--p", "101")
    assert code == 0
    assert "complete" in out
    assert "divisors in [5, 10]: 5, 10" in out
    assert "policy suggestion (paper): d=5" in out


def test_divisors_default_budget_is_the_analytic_budget(capsys):
    # 10^6 modular multiplications of Brent's method, the budget the analytic benchmark passes;
    # the help says so
    parser = build_parser()
    assert parser.parse_args(["divisors", "--p", "101"]).budget == 10**6
    assert parser.parse_args(["divisors", "--p", "101", "--budget", "7"]).budget == 7
    with pytest.raises(SystemExit):
        main(["divisors", "--help"])
    assert "(default 10^6," in " ".join(capsys.readouterr().out.split())


def test_divisors_listing_says_at_least_when_the_cap_is_reached(capsys):
    # p - 1 = 6 * (the product of the primes up to 73) has 2,027,857 divisors in the band;
    # the listing holds the cap's 10^6 smallest, so the count of the rest is a floor
    code, out, _ = run(capsys, "divisors", "--p", "244378083595494144903727940821")
    assert code == 0
    assert "divisors in [6252025657, 494346117204832]: 6252260916, " in out
    assert " ... and at least 999968 more\n" in out
    assert "policy suggestion (paper): d=6252260916 " in out


def test_divisors_listing_matches_the_whole_band_on_every_record(capsys):
    # the listing takes the 32 smallest band divisors and counts the rest without keeping them;
    # on every database record its line is the one the whole band list gives; at --budget 10^4
    # nine records factor, two with band divisors, one of them with more than 32
    listed = 0
    for rec in load_database():
        code, out, _ = run(capsys, "divisors", "--p", str(rec.p), "--budget", "10000")
        assert code == 0
        f = factorize(rec.p - 1, effort_budget=10**4)
        lo, hi = paper_band(rec.p)
        line = next(line for line in out.splitlines() if line.startswith("divisors in ["))
        if not f.complete:
            assert line.endswith(": enumeration unavailable (incomplete factorization)"), rec.name
            continue
        band = divisors_in_range(f, lo, hi) if lo <= hi else []
        more = f" ... and {len(band) - 32} more" if len(band) > 32 else ""
        assert line == f"divisors in [{lo}, {hi}]: {', '.join(map(str, band[:32])) or '(none)'}{more}"
        listed += len(band) > 32
    assert listed == 1


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
    assert "database SECP112R1: stored d=140876\n" in out
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
        **_undecodable_dbs(tmp_path),
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
